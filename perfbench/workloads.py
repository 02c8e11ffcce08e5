"""The three workloads: seeded CLI arguments, output checks, required layers.

Each workload draws the arguments of one command at a time from a
``random.Random`` that the benchmark seeds, so a seed fixes the whole command
sequence of a run.  The program sees only the generated arguments.  After a
command exits, ``check`` reads what it wrote and raises ``CheckFailed`` when
an output is missing, duplicated or wrong; a failed check counts the command
as failed.  The checks use closed forms written out here, not the program's
own functions, so a bug in a shared helper cannot hide itself.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HALF_PI = 0.5 * math.pi

# omega/omega21 on the 1-1.5-2-3-5-7 grid over the paper's 10..300 range.
SWEEP_RATIOS = (10, 15, 20, 30, 50, 70, 100, 150, 200, 300)
SWEEP_RATIOS_PER_COMMAND = 4
SWEEP_PERIODS = 25

# Acceptance criterion 4: |P1 + P2 - 1| <= 1e-10 over 10 periods.
CRITERION_4_DRIFT = 1e-10
CRITERION_4_PERIODS = 10
# Acceptance criterion 6: measured T_s within 20% of the requested one.
CRITERION_6_WIDTH = 0.20

GA_GENERATIONS = 40
GA_HARMONICS = 3
GA_STEPS = 1000  # the optimizer's grid: one period at the default 1000 steps

# Hydrogen 2s-2p splitting and 2s-3p gap in a.u., rounded outward, used only
# to keep drawn design inputs inside the valid drive window.
LAMB_SHIFT_AU = 1.61e-7
GAP_2S3P_AU = 0.0694


class CheckFailed(Exception):
    """An output of a command is missing, duplicated or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_args: Callable[[random.Random], list[str]]
    # check(out_dir, cli_args, stdout) -> CSV data rows the command wrote
    check: Callable[[Path, list[str], str], int]
    # Traced names the workload must reach; the traced run fails otherwise.
    required: tuple[str, ...]


def _arg(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def _manifest_outputs(out_dir: Path, manifest_name: str, expected: int) -> list[Path]:
    manifest = out_dir / manifest_name
    if not manifest.is_file():
        raise CheckFailed(f"missing manifest {manifest_name}")
    outputs = json.loads(manifest.read_text())["outputs"]
    if len(outputs) != expected:
        raise CheckFailed(f"manifest lists {len(outputs)} outputs, expected {expected}")
    paths = [(out_dir / p).resolve() for p in outputs]
    if len(set(paths)) != len(paths):
        raise CheckFailed(f"duplicated outputs in manifest: {outputs}")
    for path in paths:
        if not path.is_file():
            raise CheckFailed(f"missing output {path.name}")
    return paths


# --- sweep --------------------------------------------------------------------

def sweep_args(rng: random.Random) -> list[str]:
    ratios = rng.sample(SWEEP_RATIOS, SWEEP_RATIOS_PER_COMMAND)
    return ["simulate", "--sweep", ",".join(str(r) for r in ratios),
            "--periods", str(SWEEP_PERIODS), "--analytic", "--out", "sweep.csv"]


def check_sweep(out_dir: Path, args: list[str], stdout: str) -> int:
    ratios = [float(r) for r in _arg(args, "--sweep").split(",")]
    periods = float(_arg(args, "--periods"))
    drift_limit = CRITERION_4_DRIFT * periods / CRITERION_4_PERIODS
    rows = 0
    for ratio, path in zip(ratios, _manifest_outputs(out_dir, "sweep.manifest.json", len(ratios))):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [header.index(c) for c in ("t", "P1", "P2", "P2_analytic")]
            table = [[float(r[c]) for c in cols] for r in reader]
        rows += len(table)
        drift = max(abs(p1 + p2 - 1.0) for _, p1, p2, _ in table)
        if not drift <= drift_limit:
            raise CheckFailed(f"ratio {ratio:g}: |P1+P2-1| = {drift:.3e} > {drift_limit:.3e}")
        # First peak of P2 at a quarter of the drive period.
        t_end = table[-1][0]
        step = t_end / (len(table) - 1)
        quarter = 0.25 * t_end / periods
        t, _, p2, p2_analytic = table[round(quarter / step)]
        if not abs(t - quarter) <= 0.5 * step:
            raise CheckFailed(f"ratio {ratio:g}: no grid point at the first peak")
        bound = 0.25 * HALF_PI**6 / ratio**2  # leakage_at_peak(omega21, omega)
        if not abs(p2 - p2_analytic) <= bound:
            raise CheckFailed(f"ratio {ratio:g}: first-peak |P2 - P2_analytic| = "
                              f"{abs(p2 - p2_analytic):.3e} > {bound:.3e}")
    return rows


# --- ga -----------------------------------------------------------------------

def ga_args(rng: random.Random) -> list[str]:
    p_cr = 10.0 ** rng.uniform(-5.0, -3.0)
    return ["optimize", "--omega21", "0", "--n-harmonics", str(GA_HARMONICS),
            "--generations", str(GA_GENERATIONS), "--pcr", repr(p_cr),
            "--seed", str(rng.randrange(2**31)), "--out", "ga"]


def _cosine_window(p_cr: float) -> float:
    """Populated window of the plain cosine at omega = 1, omega21 = 0.

    Uses the closed form P2 = sin^2((pi/2) sin t) on the optimizer's grid and
    the same linear interpolation of the threshold crossings.  P2 peaks at
    pi/2 and 3 pi/2, both inside the period; the window is the wider one.
    """
    step = 2.0 * math.pi / GA_STEPS
    p2 = [math.sin(HALF_PI * math.sin(i * step)) ** 2 for i in range(GA_STEPS + 1)]
    threshold = 1.0 - p_cr
    widest = 0.0
    i = 0
    while i <= GA_STEPS:
        if p2[i] < threshold:
            i += 1
            continue
        j = i
        while j < GA_STEPS and p2[j + 1] >= threshold:
            j += 1
        if i == 0 or j == GA_STEPS:
            raise CheckFailed("plain cosine window touches the end of the grid")
        left = (i - 1 + (threshold - p2[i - 1]) / (p2[i] - p2[i - 1])) * step
        right = (j + (p2[j] - threshold) / (p2[j] - p2[j + 1])) * step
        widest = max(widest, right - left)
        i = j + 1
    return widest


def check_ga(out_dir: Path, args: list[str], stdout: str) -> int:
    pulse_path, history_path = _manifest_outputs(out_dir, "ga.manifest.json", 2)
    summary = json.loads(pulse_path.read_text())
    with open(history_path, newline="") as fh:
        history = [float(r["best_T_s"]) for r in csv.DictReader(fh)]
    if len(history) != int(_arg(args, "--generations")) + 1:
        raise CheckFailed(f"history has {len(history)} rows")
    if history != summary["fitness_history"]:
        raise CheckFailed("history CSV and pulse JSON disagree")
    if any(b < a for a, b in zip(history, history[1:])):
        raise CheckFailed("best window decreases across generations")
    best = summary["achieved_T_s"]
    if best != history[-1]:
        raise CheckFailed("achieved T_s is not the last history entry")
    pulse = summary["best_pulse"]
    omega = pulse["omega"]
    t_peak = HALF_PI / omega
    a_peak = -sum(c / (k * omega) * math.sin(k * omega * t_peak)
                  for k, c in pulse["coefficients"])
    if not math.isclose(abs(a_peak), HALF_PI, rel_tol=1e-12):
        raise CheckFailed(f"|action(t_peak)| = {abs(a_peak)!r}, expected pi/2")
    # 1e-6 relative slack: the program measures the cosine on an RK4
    # trajectory (4e-8 below the closed form at p_cr = 1e-5), this check on
    # the closed form.
    cosine = _cosine_window(float(_arg(args, "--pcr")))
    if not best >= cosine * (1.0 - 1e-6):
        raise CheckFailed(f"best T_s {best!r} < plain cosine window {cosine!r}")
    return len(history)


# --- design -------------------------------------------------------------------

def design_args(rng: random.Random) -> list[str]:
    """A (t_s, p_cr) request whose designed drive the model covers.

    The drawn omega sits a factor 2 inside the valid window
    [10 omega21, omega_2s3p / 10], and high enough that the series leakage
    bound (1/4)(pi/2)^6 (omega21/omega)^2 is at most a tenth of p_cr, so the
    degenerate-limit design rule applies.
    """
    p_cr = 10.0 ** rng.uniform(-5.0, -2.0)
    lo = 2.0 * max(10.0 * LAMB_SHIFT_AU,
                   LAMB_SHIFT_AU * HALF_PI**3 * math.sqrt(2.5 / p_cr))
    hi = 0.5 * GAP_2S3P_AU / 10.0
    omega = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    t_s = 4.0 * p_cr**0.25 / (math.sqrt(math.pi) * omega)
    return ["design", "--ts", repr(t_s), "--pcr", repr(p_cr), "--verify"]


def _printed(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise CheckFailed(f"no '{prefix}' line in output")


def check_design(out_dir: Path, args: list[str], stdout: str) -> int:
    t_s = float(_arg(args, "--ts"))
    p_cr = float(_arg(args, "--pcr"))
    omega = float(_printed(stdout, "omega      =").split()[0])
    expected = 4.0 * p_cr**0.25 / (math.sqrt(math.pi) * t_s)  # design_frequency
    if not math.isclose(omega, expected, rel_tol=1e-12):
        raise CheckFailed(f"omega {omega!r} != design_frequency {expected!r}")
    verdict = _printed(stdout, "verdict:")
    if verdict != "valid":
        raise CheckFailed(f"verdict {verdict!r}, expected 'valid'")
    measured = float(_printed(stdout, "measured T_s =").split()[0])
    if not abs(measured / t_s - 1.0) <= CRITERION_6_WIDTH:
        raise CheckFailed(f"measured T_s {measured!r} not within 20% of {t_s!r}")
    return 0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep",
            make_args=sweep_args,
            check=check_sweep,
            required=("integrator.integrate", "core.pulse_value",
                      "analytic.populations_from_action", "core.action",
                      "hydrogen.lamb_shift"),
        ),
        Workload(
            name="ga",
            make_args=ga_args,
            check=check_ga,
            required=("pulses.run_optimizer", "pulses.normalize_for_transfer",
                      "integrator.integrate", "integrator.populated_window",
                      "core.pulse_value", "core.action"),
        ),
        Workload(
            name="design",
            make_args=design_args,
            check=check_design,
            required=("analytic.design_frequency", "hydrogen.validity_report",
                      "hydrogen.field_for_transfer", "integrator.integrate",
                      "integrator.populated_window", "core.pulse_value"),
        ),
    )
}
