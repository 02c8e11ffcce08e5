"""In-process tracer for one traced CLI command.

``Tracer.install`` replaces public functions at the names each consuming
module binds (``twolevel.cli.integrate``, ``twolevel.pulses.integrate``,
``twolevel.integrator.pulse_value`` ...) with wrappers that record spans or
counters, and fails if any of those names is missing.  Spans are
``(id, parent, name, start_ns, end_ns)`` tuples kept in memory; the parent is
the innermost open span on the same thread, or the ``cli.main`` span for
calls made on pool threads.  Per-row functions only bump counters.  ``dump``
writes everything as JSON when the command ends.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter
from time import perf_counter_ns

import numpy as np

SPAN, COUNT, TIMED_COUNT = "span", "count", "timed_count"

# The hydrogen functions the three workloads call through the CLI.
_HYDROGEN = ("dipole_2s2p", "field_for_transfer", "hartree_to_ev", "hydrogen_atom",
             "lamb_shift", "validity_report")

# (module, attribute, traced name, kind)
TARGETS = (
    ("twolevel.cli", "integrate", "integrator.integrate", SPAN),
    ("twolevel.pulses", "integrate", "integrator.integrate", SPAN),
    ("twolevel.cli", "populated_window", "integrator.populated_window", SPAN),
    ("twolevel.pulses", "populated_window", "integrator.populated_window", SPAN),
    ("twolevel.integrator", "pulse_value", "core.pulse_value", SPAN),
    ("twolevel.cli", "run_optimizer", "pulses.run_optimizer", SPAN),
    ("twolevel.pulses", "normalize_for_transfer", "pulses.normalize_for_transfer", SPAN),
    ("twolevel.cli", "design_frequency", "analytic.design_frequency", SPAN),
    ("twolevel.cli", "populations_from_action", "analytic.populations_from_action", TIMED_COUNT),
    ("twolevel.analytic", "action", "core.action", COUNT),
    ("twolevel.pulses", "action", "core.action", COUNT),
) + tuple(("twolevel.cli", name, f"hydrogen.{name}", SPAN) for name in _HYDROGEN)

# Work done on a result outside the measured call; its span is subtracted
# from the caller's self time and belongs to no layer.
BOOKKEEPING = "trace.bookkeeping"


class MissingName(Exception):
    """A name the tracer must wrap does not exist."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.count_ns: Counter[str] = Counter()
        self.steps = 0
        self.max_norm_drift = 0.0
        self.useful_evaluations = 0
        self.root = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    # --- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _span_wrapper(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, *args, **kwargs)
            if hook is not None:
                self._timed(BOOKKEEPING, hook, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn, timed: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                with self._lock:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                with self._lock:
                    self.counts[name] += 1
                    self.count_ns[name] += elapsed
        return wrapper

    def _after_integrate(self, traj) -> None:
        drift = float(np.max(np.abs(np.abs(traj.a1) ** 2 + np.abs(traj.a2) ** 2 - 1.0)))
        with self._lock:
            self.steps += len(traj.times) - 1
            self.max_norm_drift = max(self.max_norm_drift, drift)

    def _after_window(self, width: float) -> None:
        if width > 0.0:
            with self._lock:
                self.useful_evaluations += 1

    # --- setup and output -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise MissingName before wrapping any if one is absent."""
        resolved = []
        for module_name, attr, name, kind in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                raise MissingName(f"{module_name}.{attr}")
            resolved.append((module, attr, name, kind))
        hooks = {
            ("twolevel.cli", "integrate"): self._after_integrate,
            ("twolevel.pulses", "integrate"): self._after_integrate,
            ("twolevel.pulses", "populated_window"): self._after_window,
        }
        for module, attr, name, kind in resolved:
            fn = getattr(module, attr)
            if kind == SPAN:
                wrapped = self._span_wrapper(name, fn, hooks.get((module.__name__, attr)))
            else:
                wrapped = self._count_wrapper(name, fn, kind == TIMED_COUNT)
            setattr(module, attr, wrapped)

    def run(self, main, argv: list[str]):
        """Call ``main(argv)`` as the root ``cli.main`` span."""
        self.root = next(self._ids)
        stack = self._stack()
        stack.append(self.root)
        start = perf_counter_ns()
        try:
            return main(argv)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((self.root, -1, "cli.main", start, end))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "counts": dict(self.counts),
                "count_ns": dict(self.count_ns),
                "steps": self.steps,
                "max_norm_drift": self.max_norm_drift,
                "useful_evaluations": self.useful_evaluations,
            }, fh)
