"""Closed-loop benchmark of the twolevel CLI.

    python3 perfbench/run.py --workload sweep|ga|design --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one CLI command at a time,
each in a fresh interpreter with the checkout's absolute ``src`` on
PYTHONPATH and a fresh output directory under ``.perfbench_tmp``, until S
seconds have passed.  Every command's outputs are checked.  With ``--trace 0``
the last stdout line holds the end-to-end metrics over the commands that
succeeded: the upper quartile of each timing and the median memory.  With
``--trace 1`` traced and untraced commands alternate, and it holds the
per-layer metrics (medians over the traced commands) and the tracing
overhead.  A fuller record is printed on the line before and written to
``.perfbench_results``: the seed, every command with its arguments and
timings, sample counts, and the machine.  See README.md in this directory for
what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from layers import import_times, layer_metrics, reached
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
TMP = ROOT / ".perfbench_tmp"
RESULTS = ROOT / ".perfbench_results"
COMMAND_TIMEOUT_S = 60

END_TO_END_UNITS = {"command_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Timings report the run's upper quartile: on a host that flips between a
# fast and a slow speed for minutes at a time, the median moves with the
# share of time spent fast, while the upper quartile stays on the slow mode.
UPPER_QUARTILE = {"command_s", "setup_s"}
PER_LAYER_UNITS = {
    "setup.import.numpy_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.twolevel_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.self_ns_per_row": "ns",
    "integrator.integrate.calls": "count",
    "integrator.integrate.steps": "count",
    "integrator.integrate.busy_s": "s",
    "integrator.integrate.ns_per_step": "ns",
    "integrator.integrate.overlap": "ratio",
    "integrator.populated_window.busy_s": "s",
    "integrator.max_norm_drift": "1",
    "core.pulse_value.busy_s": "s",
    "core.action.calls": "count",
    "analytic.populations_from_action.calls": "count",
    "analytic.populations_from_action.ns_per_call": "ns",
    "pulses.run_optimizer.busy_s": "s",
    "pulses.self_s": "s",
    "pulses.evaluations": "count",
    "pulses.useful_ratio": "ratio",
    "hydrogen.busy_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark itself cannot measure: no result is printed."""


@dataclass
class Outcome:
    args: list[str]
    traced: bool
    command_s: float
    setup_s: float
    peak_rss_mb: float
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)
    reached: dict[str, int] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    return env


def spawn(cli_args: list[str], traced: bool, cmd_dir: Path):
    """Run one command in ``cmd_dir/out``; return (start, end, status, rusage)."""
    out_dir = cmd_dir / "out"
    out_dir.mkdir()
    argv = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD),
            str(cmd_dir / "stamp"), str(SRC) + os.sep,
            str(cmd_dir / "trace.json") if traced else "-", *cli_args]
    with open(cmd_dir / "stdout", "w") as stdout, open(cmd_dir / "stderr", "w") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=out_dir, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


def run_command(workload, cli_args: list[str], traced: bool) -> Outcome:
    cmd_dir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        start, end, code, usage = spawn(cli_args, traced, cmd_dir)
        stderr = (cmd_dir / "stderr").read_text()
        message = "\n".join(line for line in stderr.splitlines()
                            if not line.startswith("import time:")).strip()
        if code in (70, 71):
            raise HarnessError(f"child exited {code}: {message}")
        stamp = cmd_dir / "stamp"
        outcome = Outcome(
            args=cli_args,
            traced=traced,
            command_s=end - start,
            setup_s=float(stamp.read_text()) - start if stamp.exists() else end - start,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
        if code != 0:
            outcome.error = f"exit {code}: {message[-500:]}"
            return outcome
        try:
            rows = workload.check(cmd_dir / "out", cli_args, (cmd_dir / "stdout").read_text())
        except CheckFailed as exc:
            outcome.error = f"check: {exc}"
            return outcome
        except (OSError, KeyError, IndexError, StopIteration, ValueError) as exc:
            outcome.error = f"check: malformed output: {exc!r}"
            return outcome
        if traced:
            trace = json.loads((cmd_dir / "trace.json").read_text())
            outcome.layers = {**import_times(stderr), **layer_metrics(trace, rows)}
            outcome.reached = {name: reached(trace, name) for name in workload.required}
        return outcome
    finally:
        shutil.rmtree(cmd_dir)


def warm_up() -> None:
    """Import twolevel once, untimed, so file pages and bytecode are cached."""
    cmd_dir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        _, _, code, _ = spawn(["--version"], False, cmd_dir)
        if code != 0:
            raise HarnessError(f"warm-up failed: {(cmd_dir / 'stderr').read_text().strip()}")
    finally:
        shutil.rmtree(cmd_dir)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def headline(name: str, values: list[float]) -> float:
    """The value a metric reports: upper quartile for timings, else median."""
    return quartiles(values)[2] if name in UPPER_QUARTILE else statistics.median(values)


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the tail value with ten samples above it."""
    q1, _, q3 = quartiles(values)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "min": min(values), "max": max(values), "samples": len(values)}
    if len(values) >= 20:
        out["tail_percentile"] = 100.0 * (len(values) - 10) / len(values)
        out["tail"] = sorted(values)[-11]
    return out


def cpu_max() -> str:
    """cgroup CPU limit as cgroup v2's 'quota period', read-only."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    v1 = Path("/sys/fs/cgroup/cpu")
    try:
        quota = int((v1 / "cpu.cfs_quota_us").read_text())
        period = int((v1 / "cpu.cfs_period_us").read_text())
    except (OSError, ValueError):
        return "unknown"
    return f"{'max' if quota < 0 else quota} {period}"


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu.max": cpu_max(),
    }


def measure(workload, seed: int, seconds: int, trace: bool) -> list[Outcome]:
    """Closed loop: one command at a time until ``seconds`` have passed.

    With tracing, traced and untraced commands alternate, so both kinds
    see the same conditions.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    outcomes: list[Outcome] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(outcomes) < (2 if trace else 1):
        traced = trace and len(outcomes) % 2 == 0
        outcomes.append(run_command(workload, workload.make_args(rng), traced))
    return outcomes


def metric_values(outcomes: list[Outcome], trace: bool, workload) -> dict[str, list[float]]:
    """Per-metric samples, from the commands that succeeded (all, if none did)."""
    ok = [o for o in outcomes if o.error is None] or outcomes
    if not trace:
        return {name: [getattr(o, name) for o in ok] for name in END_TO_END_UNITS}
    traced = [o for o in ok if o.traced and o.layers]
    untraced = [o for o in ok if not o.traced]
    if not traced or not untraced:
        raise HarnessError("the traced run needs a traced and an untraced command that succeeded")
    for name in workload.required:
        if sum(o.reached[name] for o in traced) == 0:
            raise HarnessError(f"traced name {name} was never called on workload {workload.name}")
    values = {name: [o.layers[name] for o in traced]
              for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    overhead = (statistics.median(o.command_s for o in traced)
                - statistics.median(o.command_s for o in untraced))
    values["trace.overhead_s"] = [overhead]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped
    # and the temporary directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "twolevel" / "cli.py").is_file():
        print(f"no twolevel sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    try:
        warm_up()
        outcomes = measure(workload, args.seed, args.seconds, trace)
        values = metric_values(outcomes, trace, workload)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = [o for o in outcomes if o.error is not None]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(outcomes),
        "failed": len(failed),
        "fail_share": len(failed) / len(outcomes),
        "metrics": {name: {"value": headline(name, values[name]), **summary(values[name]),
                           "unit": units[name]} for name in units},
        "commands": [{"args": o.args, "traced": o.traced, "command_s": o.command_s,
                      "setup_s": o.setup_s, "peak_rss_mb": o.peak_rss_mb, "error": o.error}
                     for o in outcomes],
        "machine": machine(),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for o in failed:
        print(f"failed: {' '.join(o.args)}: {o.error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": headline(name, values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
