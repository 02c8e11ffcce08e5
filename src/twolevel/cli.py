"""Command-line interface: simulate, design, optimize, info.

Every command that writes files also writes a JSON manifest next to them
(command echo, full parameter set, seed, tool version, output paths), and all
numeric output uses 17 significant digits, so re-running the echoed command
reproduces the files byte for byte.  Exit codes: 0 success, 2 argument
problems, 3 integration failure.

The specs check their own input and command code raises ``ValueError`` for
the rest; specs, grids and output paths are all checked before the first
integration, and nothing raises ``ValueError`` after the first file write.
Outputs are staged and moved into place only after every write succeeded, so
a failed run leaves the directory as it was.
:func:`main` alone maps a ``ValueError`` to a usage error (exit 2), an
``IntegrationError`` to exit 3, and an ``OSError`` from a write to a
one-line error with exit 2.
"""
from __future__ import annotations

import os

# OpenBLAS starts a worker thread when numpy loads, and this program makes
# no BLAS call: it has no matmul, dot or linalg, and `@` only in docstrings.
# So numpy loads with one BLAS thread, unless the caller chose a number.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .analytic import (
    DesignRequest,
    design_frequency,
    populations_from_action,
    transfer_cosine,
    transfer_peak,
)
from .core import (
    Cosine,
    PulseSpec,
    Trajectory,
    TwoLevelAtom,
    _check_finite,
    _check_positive,
    _finite,
    pulse_from_dict,
)
from .hydrogen import (
    dipole_2s2p,
    ev_to_hartree,
    field_for_transfer,
    hartree_to_ev,
    hydrogen_atom,
    lamb_shift,
    next_level_gap,
    valid_window,
    validity_report,
    wavelength_to_omega,
    z_matrix_element,
)
from .integrator import (
    IntegrationConfig,
    IntegrationError,
    integrate,
    populated_window,
    step_halving_error,
)
from .pulses import OptimizerConfig, ShapingObjective, run_optimizer

# The standard library's modules load after the package's.  This matters
# only where no bytecode is cached, as under PYTHONDONTWRITEBYTECODE=1: each
# package module is then compiled from source before the standard library's
# 0.5 MB is in use, and with the BLAS setting above `design` peaked 0.24 MiB
# lower.
import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

TRAJECTORY_HEADER = "t,P1,P2,re_a1,im_a1,re_a2,im_a2"
# Rows formatted at once; the arrays of one chunk are all a write holds
# beyond its columns.
_CSV_CHUNK_ROWS = 512


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_manifest(manifest_path: Path, args: argparse.Namespace, outputs: list[str]) -> None:
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    }
    manifest = {
        "command": ["twolevel"] + list(getattr(args, "_argv", [])),
        "parameters": params,
        "seed": params.get("seed"),
        "version": __version__,
        "outputs": outputs,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _staged(paths: list[Path]):
    """Yield a hidden directory beside ``paths`` in which to write each of them.

    Each output is written there under its own name.  When the block ends
    without error every file is moved over its path with ``os.replace``, in
    the order given, so the manifest goes last; on any exception none is,
    and the directory is removed either way.
    """
    stage = Path(tempfile.mkdtemp(prefix=".twolevel-", dir=paths[0].parent))
    try:
        yield stage
        for path in paths:
            os.replace(stage / path.name, path)
    finally:
        shutil.rmtree(stage)


def _write_trajectory_csv(path: Path, traj: Trajectory, analytic_pulse: PulseSpec | None) -> None:
    """Write the trajectory as CSV: the header, then one line per time step.

    A line holds t, P1, P2 and the real and imaginary parts of a1 and a2,
    and with an analytic pulse also the degenerate-limit P1 and P2 of the
    state prepared in level 1 at the first grid time.  Each line is the
    row's values formatted with ``'%.17g'`` and joined by commas, byte for
    byte.  The columns are computed and :func:`twolevel._csvtext.format_block`
    makes the text ``_CSV_CHUNK_ROWS`` rows at a time, so the memory held at
    once stays fixed whatever the length of the trajectory.
    """
    # Only commands that write a trajectory pay for the formatter's tables.
    from ._csvtext import format_block

    header = TRAJECTORY_HEADER
    if analytic_pulse is not None:
        header += ",P1_analytic,P2_analytic"
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(traj), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            times, a1, a2 = traj.times[rows], traj.a1[rows], traj.a2[rows]
            columns = [times, np.abs(a1) ** 2, np.abs(a2) ** 2, a1.real, a1.imag, a2.real, a2.imag]
            if analytic_pulse is not None:
                columns += populations_from_action(analytic_pulse, times, traj.times[0])
            fh.write(format_block(np.stack(columns, axis=1)))


def _out_path(out: str) -> Path:
    """The --out path; ValueError if it names no file, as ``.`` does."""
    path = Path(out)
    if not path.name:
        raise ValueError(f"--out {out!r} names no file")
    return path


def _check_outputs(paths: list[Path]) -> None:
    """ValueError unless every output can be created as a file."""
    for path in paths:
        try:
            if path.is_dir():
                raise ValueError(f"--out: {path} is an existing directory")
            if not path.parent.is_dir():
                raise ValueError(f"--out: the directory {path.parent} of {path} does not exist")
        except OSError as exc:
            raise ValueError(f"--out: cannot use {path}: {exc.strerror or exc}") from None


def _energy_in_au(value: float, use_ev: bool) -> float:
    return ev_to_hartree(value) if use_ev else value


def _atom(args: argparse.Namespace) -> TwoLevelAtom:
    """The atom of --omega21, or of the hydrogen Lamb shift when it is not given."""
    omega21 = lamb_shift() if args.omega21 is None else _energy_in_au(args.omega21, args.ev)
    return TwoLevelAtom(omega21=omega21)


# --- simulate ----------------------------------------------------------------

def _transfer_cosine(given: str, omega: float) -> PulseSpec:
    """``transfer_cosine(omega)``; ValueError naming the options ``given`` if it fails."""
    try:
        return transfer_cosine(omega)
    except ValueError:
        raise ValueError(f"the drive of {given} is out of the range of doubles") from None


def _ratio_cosine(option: str, ratio: float, omega21: float) -> PulseSpec:
    """The complete-transfer cosine at omega = ratio * omega21, the ratio
    given by ``option``; ValueError naming it unless both are > 0."""
    ratio = _check_positive(option, ratio)
    if not omega21 > 0.0:
        raise ValueError(f"{option} needs a positive omega21")
    return _transfer_cosine(f"{option} {ratio:g} at omega21 = {omega21:g} a.u.", ratio * omega21)


def _resolve_pulse(args: argparse.Namespace, omega21: float) -> PulseSpec:
    if args.pulse_json is not None:
        try:
            return pulse_from_dict(json.loads(Path(args.pulse_json).read_text()))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load pulse JSON: {exc}") from None
    if args.chi is not None:
        return Cosine(
            chi=_energy_in_au(args.chi, args.ev),
            omega=_energy_in_au(args.omega, args.ev),
        )
    if args.ratio is not None:
        return _ratio_cosine("--ratio", args.ratio, omega21)
    if args.wavelength is not None:
        unit = 1e-6 if args.um else 1e-2 if args.cm else 1.0
        return _transfer_cosine(f"--wavelength {args.wavelength:g}",
                                wavelength_to_omega(args.wavelength * unit))
    raise ValueError("give a pulse: --pulse-json, --chi/--omega, --ratio, or --wavelength")


def cmd_simulate(args: argparse.Namespace) -> int:
    out_path = _out_path(args.out)
    # Every spec, grid and output path is checked before any integration.
    atom = _atom(args)
    jobs = _jobs(args, atom.omega21, out_path)
    outputs = [path for path, _, _ in jobs]
    # Named after --out without a final .csv, so run.csv and run give
    # run.manifest.json, run.1 and run.2 their own.
    stem = out_path.stem if out_path.suffix == ".csv" else out_path.name
    manifest_path = out_path.with_name(stem + ".manifest.json")
    _check_outputs(outputs + [manifest_path])

    with _staged(outputs + [manifest_path]) as stage:
        # Each file is written and its trajectory dropped before the next
        # job is integrated, so one trajectory is held at a time.
        for path, pulse, cfg in jobs:
            traj = integrate(atom, pulse, cfg)
            if args.error_estimate:
                estimate = step_halving_error(atom, pulse, cfg, coarse=traj)
            _write_trajectory_csv(stage / path.name, traj, pulse if args.analytic else None)
            del traj
        _write_manifest(stage / manifest_path.name, args, [str(path) for path in outputs])
    if args.sweep is not None:
        print(f"wrote {len(jobs)} trajectories and {manifest_path}")
        return 0
    if args.error_estimate:
        print(f"step-halving error estimate = {_fmt(estimate)}")
    print(f"wrote {out_path} ({cfg.n + 1} rows) and {manifest_path}")
    return 0


def _jobs(args: argparse.Namespace, omega21: float,
          out_path: Path) -> list[tuple[Path, PulseSpec, IntegrationConfig]]:
    """The (output path, pulse, grid) of the single run, or of each --sweep ratio."""
    if args.sweep is None:
        pulse = _resolve_pulse(args, omega21)
        cfg = _grid_config(args, pulse)
        if args.error_estimate:
            try:
                cfg.halved()
            except ValueError as exc:
                raise ValueError(f"--error-estimate: {exc}") from None
        return [(out_path, pulse, cfg)]
    try:
        ratios = [float(r) for r in args.sweep.split(",") if r.strip()]
    except ValueError:
        raise ValueError("--sweep expects a comma-separated list of ratios") from None
    if not ratios:
        raise ValueError("--sweep needs at least one ratio")
    jobs = []
    for ratio in ratios:
        path = out_path.with_name(f"{out_path.stem}_ratio{ratio:g}{out_path.suffix}")
        if any(path == other for other, _, _ in jobs):
            raise ValueError(f"--sweep ratios {args.sweep!r} give the output {path} twice")
        pulse = _ratio_cosine("--sweep ratio", ratio, omega21)
        jobs.append((path, pulse, _grid_config(args, pulse)))
    return jobs


def _grid_config(args: argparse.Namespace, pulse: PulseSpec) -> IntegrationConfig:
    """The --start/--periods/--step grid; ValueError if invalid or over MAX_STEPS."""
    start = _check_finite("--start", args.start)
    periods = _check_positive("--periods", args.periods)
    t_end = _finite(lambda: start + periods * pulse.period,
                    f"the end time of --periods {periods:g}")
    if args.step is not None:
        return IntegrationConfig(start, t_end, args.step)
    return IntegrationConfig.per_period(start, t_end, pulse.period, args.steps_per_period)


# --- design ------------------------------------------------------------------

def cmd_design(args: argparse.Namespace) -> int:
    request = DesignRequest(t_s=args.ts, p_cr=args.pcr)
    omega = design_frequency(request)
    pulse = transfer_cosine(omega)
    cfg = IntegrationConfig.per_period(0.0, pulse.period, pulse.period, args.steps_per_period)
    regime = field_for_transfer(omega)
    report = validity_report(omega)
    print(f"omega      = {_fmt(omega)} a.u. ({_fmt(hartree_to_ev(omega))} eV)")
    print(f"wavelength = {_fmt(regime.wavelength_m)} m")
    print(f"E0         = {_fmt(regime.e0)} a.u.")
    print(f"intensity  = {_fmt(regime.intensity_w_cm2)} W/cm^2")
    print(f"leakage bound (series) = {_fmt(report.leakage_bound)}")
    print(f"verdict: {report.verdict}")
    if args.verify:
        atom = hydrogen_atom()
        traj = integrate(atom, pulse, cfg)
        i_peak = int(np.argmin(np.abs(traj.times - transfer_peak(omega))))
        measured_leak = min(max(float(1.0 - traj.p2[i_peak]), 0.0), 1.0)
        try:
            measured_ts = populated_window(traj, request.p_cr)
        except ValueError as exc:
            print(f"verify: {exc}")
            return 0
        print(f"measured T_s = {_fmt(measured_ts)} a.u. "
              f"({_fmt(measured_ts / request.t_s)} of requested)")
        print(f"measured peak leakage = {_fmt(measured_leak)} "
              f"(series bound {_fmt(report.leakage_bound)})")
    return 0


# --- optimize ----------------------------------------------------------------

def cmd_optimize(args: argparse.Namespace) -> int:
    objective = ShapingObjective(
        p_cr=args.pcr,
        omega=_energy_in_au(args.omega, args.ev),
        atom=_atom(args),
        horizon=args.horizon,
    )
    config = OptimizerConfig(
        population_size=args.population,
        generations=args.generations,
        mutation_scale=args.mutation_scale,
        seed=args.seed,
        n_harmonics=args.n_harmonics,
    )
    prefix = _out_path(args.out)
    pulse_path = prefix.with_name(prefix.name + "_pulse.json")
    history_path = prefix.with_name(prefix.name + "_history.csv")
    manifest_path = prefix.with_name(prefix.name + ".manifest.json")
    outputs = [pulse_path, history_path, manifest_path]
    _check_outputs(outputs)

    result = run_optimizer(objective, config)
    summary = {
        "best_pulse": result.best_pulse.to_dict(),
        "achieved_T_s": result.best_window,
        "measured_T_s": result.measured_window,
        "fitness_history": list(result.history),
        "seed": config.seed,
        "config": {
            "population_size": config.population_size,
            "generations": config.generations,
            "mutation_scale": config.mutation_scale,
            "n_harmonics": config.n_harmonics,
        },
        "objective": {
            "p_cr": objective.p_cr,
            "omega": objective.omega,
            "omega21": objective.atom.omega21,
            "horizon": objective.horizon,
        },
    }
    history_lines = ["generation,best_T_s"]
    history_lines += [f"{i},{_fmt(v)}" for i, v in enumerate(result.history)]
    with _staged(outputs) as stage:
        (stage / pulse_path.name).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        (stage / history_path.name).write_text("\n".join(history_lines) + "\n")
        _write_manifest(stage / manifest_path.name, args, [str(pulse_path), str(history_path)])
    print(f"best T_s = {_fmt(result.best_window)} a.u.")
    print(f"measured T_s (RK4) = {_fmt(result.measured_window)} a.u.")
    print(f"wrote {pulse_path}, {history_path} and {manifest_path}")
    return 0


# --- info --------------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    shift = lamb_shift()
    gap = next_level_gap()
    dipole = dipole_2s2p()
    print("hydrogen 2s-2p parameters (atomic units unless noted)")
    print(f"  splitting (Lamb shift)  = {_fmt(shift)} a.u. = {_fmt(hartree_to_ev(shift))} eV")
    print(f"  gap to next level (3p)  = {_fmt(gap)} a.u. = {_fmt(hartree_to_ev(gap))} eV")
    print(f"  dipole <2s|z|2p0>       = {_fmt(dipole)} a.u. (|d| = {abs(dipole):.6f})")
    print(f"  <2s|z|2s> (selection)   = {_fmt(z_matrix_element('2s', '2s'))} a.u.")
    lo, hi = valid_window()
    print(f"  valid drive window      = [{_fmt(lo)}, {_fmt(hi)}] a.u.")
    for label, wavelength in (("3 um", 3e-6), ("3 cm", 3e-2)):
        regime = field_for_transfer(wavelength_to_omega(wavelength))
        print(f"  at {label}: E0 = {_fmt(regime.e0)} a.u., "
              f"intensity = {_fmt(regime.intensity_w_cm2)} W/cm^2")
    return 0


# --- parser ------------------------------------------------------------------

#: Which options of a command go together, by parser dest: groups of which
#: at most one member is set ("chi/omega" is if either is), each with its
#: error text, and options read only when one of their partners is set.  An
#: option is set when its parsed value differs from its parser's default.
OPTION_RULES = {
    "simulate": ([("give one pulse source, not {} and {}",
                   ["pulse_json", "chi/omega", "ratio", "wavelength", "sweep"]),
                  ("{} applies to a single run, not to {}", ["error_estimate", "sweep"]),
                  ("give {} or {}, not both", ["step", "steps_per_period"]),
                  ("give {} or {}, not both", ["um", "cm"])],
                 {"ev": ["omega21", "chi", "omega"], "um": ["wavelength"],
                  "cm": ["wavelength"], "chi": ["omega"], "omega": ["chi"]}),
    "design": ([], {"steps_per_period": ["verify"]}),
}


def _check_option_rules(args: argparse.Namespace) -> None:
    """ValueError naming an option that ``OPTION_RULES`` refuses."""
    def is_set(name: str) -> bool:
        return any(getattr(args, d) != args._parser.get_default(d) for d in name.split("/"))

    def option(name: str) -> str:
        return "/".join("--" + d.replace("_", "-") for d in name.split("/"))

    groups, partners = OPTION_RULES.get(args.command, ([], {}))
    for text, members in groups:
        given = [option(name) for name in members if is_set(name)]
        if len(given) > 1:
            raise ValueError(text.format(given[0], " and ".join(given[1:])))
    for name, needs in partners.items():
        if is_set(name) and not any(map(is_set, needs)):
            raise ValueError(f"{option(name)} is read only with {' or '.join(map(option, needs))}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twolevel",
        description="Two-level population transfer: simulate, design, optimize, info.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the amplitude equations, write CSV")
    sim.add_argument("--omega21", type=float, default=None,
                     help="level splitting in a.u. (default: hydrogen Lamb shift)")
    sim.add_argument("--chi", type=float, default=None, help="Rabi frequency in a.u.")
    sim.add_argument("--omega", type=float, default=None, help="drive frequency in a.u.")
    sim.add_argument("--ratio", type=float, default=None,
                     help="omega/omega21; implies chi = (pi/2) omega")
    sim.add_argument("--wavelength", type=float, default=None,
                     help="drive wavelength (meters unless --um/--cm)")
    sim.add_argument("--pulse-json", default=None, help="path to a pulse JSON file")
    sim.add_argument("--periods", type=float, default=1.0, help="number of pulse periods")
    sim.add_argument("--start", type=float, default=0.0, help="start time in a.u.")
    sim.add_argument("--steps-per-period", type=int, default=1000)
    sim.add_argument("--step", type=float, default=None, help="explicit RK4 step in a.u.")
    sim.add_argument("--analytic", action="store_true",
                     help="append degenerate-limit reference populations "
                          "of the state prepared at --start")
    sim.add_argument("--error-estimate", action="store_true",
                     help="report the step-halving grid-error estimate (not with --sweep)")
    sim.add_argument("--sweep", default=None,
                     help="comma-separated omega/omega21 ratios; one CSV per ratio")
    sim.add_argument("--ev", action="store_true",
                     help="--omega21, --chi and --omega are in eV (read only with one of them)")
    sim.add_argument("--um", action="store_true", help="micrometers; read only with --wavelength")
    sim.add_argument("--cm", action="store_true", help="centimeters; read only with --wavelength")
    sim.add_argument("--out", default="trajectory.csv", help="output CSV path")
    sim.set_defaults(func=cmd_simulate, _parser=sim)

    des = sub.add_parser("design", help="choose a drive frequency for a duration/leakage budget")
    des.add_argument("--ts", type=float, required=True, help="requested window width in a.u.")
    des.add_argument("--pcr", type=float, required=True, help="leakage budget in (0, 1)")
    des.add_argument("--verify", action="store_true",
                     help="integrate the designed drive and report the measured window")
    des.add_argument("--steps-per-period", type=int, default=1000,
                     help="RK4 steps per period of the --verify run (read only with it)")
    des.set_defaults(func=cmd_design, _parser=des)

    opt = sub.add_parser("optimize", help="GA search for a wider flat-top pulse")
    opt.add_argument("--pcr", type=float, required=True, help="leakage budget in (0, 1)")
    opt.add_argument("--omega", type=float, default=1.0, help="base frequency in a.u.")
    opt.add_argument("--omega21", type=float, default=None,
                     help="level splitting in a.u. (default: hydrogen Lamb shift)")
    opt.add_argument("--horizon", type=float, default=1.0, help="periods to simulate")
    opt.add_argument("--n-harmonics", type=int, default=2)
    opt.add_argument("--population", type=int, default=16)
    opt.add_argument("--generations", type=int, default=20)
    opt.add_argument("--mutation-scale", type=float, default=0.2)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--ev", action="store_true", help="energy inputs are in eV")
    opt.add_argument("--out", default="optimize", help="output file prefix")
    opt.set_defaults(func=cmd_optimize, _parser=opt)

    inf = sub.add_parser("info", help="print hydrogen constants and field regimes")
    inf.set_defaults(func=cmd_info, _parser=inf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    effective_argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(effective_argv)
    args._argv = effective_argv
    try:
        _check_option_rules(args)
        return args.func(args)
    except ValueError as exc:
        args._parser.error(str(exc))
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{args._parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
