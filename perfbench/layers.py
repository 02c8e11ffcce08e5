"""Per-layer metrics of one traced command, from its spans and import times.

Busy time is the length of the union of a layer's span intervals, because
the ``sweep`` integrations overlap on pool threads.  A span's self time is
its duration minus the part of it that its child spans cover; ``cli.self_s``
also subtracts the per-row ``populations_from_action`` calls, which run on
the main thread between child spans and are timed as a counter.
"""
from __future__ import annotations

from collections import defaultdict

NS = 1e-9


def import_times(stderr: str) -> dict[str, float]:
    """Seconds importing numpy, scipy and twolevel, from ``-X importtime`` lines.

    Each is the cumulative time of the outermost imports of the package's
    modules, so it includes what they import in turn.  ``twolevel_s`` is the
    whole import of ``twolevel.cli``; numpy and scipy are parts of it.
    """
    entries = []  # (depth, name, cumulative_us), in the order printed
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        stripped = name.lstrip(" ")
        entries.append((len(name) - len(stripped), stripped.strip(), int(cumulative)))
    totals = {}
    for package in ("numpy", "scipy", "twolevel"):
        prefix = package + "."
        total = 0
        stack: list[tuple[int, str]] = []
        # Imports print after everything they import, so walk backwards to
        # see each entry after its ancestors.
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            ours = name == package or name.startswith(prefix)
            if ours and not any(n == package or n.startswith(prefix) for _, n in stack):
                total += cumulative
            stack.append((depth, name))
        totals[f"setup.import.{package}_s"] = total * 1e-6
    return totals


def _union(intervals) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _length(merged) -> int:
    return sum(b - a for a, b in merged)


def _covered(merged, start: int, end: int) -> int:
    return sum(max(0, min(b, end) - max(a, start)) for a, b in merged)


def reached(trace: dict, name: str) -> int:
    """How often the traced name was called: spans plus counter hits."""
    return sum(1 for s in trace["spans"] if s[2] == name) + trace["counts"].get(name, 0)


def layer_metrics(trace: dict, rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced command that wrote ``rows`` CSV rows."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span_id, parent, name, start, end in trace["spans"]:
        by_name[name].append((span_id, start, end))
        children[parent].append((start, end))

    def intervals(name):
        return [(start, end) for _, start, end in by_name[name]]

    def busy(name) -> float:
        return _length(_union(intervals(name))) * NS

    def self_time(name) -> float:
        total = 0
        for span_id, start, end in by_name[name]:
            total += end - start - _covered(_union(children[span_id]), start, end)
        return total * NS

    counts = trace["counts"]
    count_ns = trace["count_ns"]
    per_row = "analytic.populations_from_action"
    (_, main_start, main_end), = by_name["cli.main"]
    cli_self = self_time("cli.main") - count_ns.get(per_row, 0) * NS

    integrate = intervals("integrator.integrate")
    integrate_busy = busy("integrator.integrate")
    integrate_sum = sum(end - start for start, end in integrate) * NS
    steps = trace["steps"]
    row_calls = counts.get(per_row, 0)
    evaluations = len(by_name["pulses.normalize_for_transfer"])
    hydrogen = [(start, end) for name, spans in by_name.items() if name.startswith("hydrogen.")
                for _, start, end in spans]
    return {
        "cli.main_s": (main_end - main_start) * NS,
        "cli.self_s": cli_self,
        "cli.rows": rows,
        "cli.self_ns_per_row": cli_self / NS / rows if rows else 0.0,
        "integrator.integrate.calls": len(integrate),
        "integrator.integrate.steps": steps,
        "integrator.integrate.busy_s": integrate_busy,
        "integrator.integrate.ns_per_step": integrate_busy / NS / steps if steps else 0.0,
        "integrator.integrate.overlap": integrate_sum / integrate_busy if integrate else 0.0,
        "integrator.populated_window.busy_s": busy("integrator.populated_window"),
        "integrator.max_norm_drift": trace["max_norm_drift"],
        "core.pulse_value.busy_s": busy("core.pulse_value"),
        "core.action.calls": counts.get("core.action", 0),
        "analytic.populations_from_action.calls": row_calls,
        "analytic.populations_from_action.ns_per_call":
            count_ns.get(per_row, 0) / row_calls if row_calls else 0.0,
        "pulses.run_optimizer.busy_s": busy("pulses.run_optimizer"),
        "pulses.self_s": self_time("pulses.run_optimizer"),
        "pulses.evaluations": evaluations,
        "pulses.useful_ratio": trace["useful_evaluations"] / evaluations if evaluations else 0.0,
        "hydrogen.busy_s": _length(_union(hydrogen)) * NS,
    }
