"""Command-line interface: simulate, design, optimize, info.

Every command that writes files also writes a JSON manifest next to them
(command echo, full parameter set, seed, tool version, output paths), and all
numeric output uses 17 significant digits, so re-running the echoed command
reproduces the files byte for byte.  Exit codes: 0 success, 2 argument
problems, 3 integration failure.

The specs check their own input and command code raises ``ValueError`` for
the rest; specs, grids and output paths are all checked before the first
integration, and nothing raises ``ValueError`` after the first file write.
Every trajectory is integrated and its norm checked before that write too.
:func:`main` alone maps a ``ValueError`` to a usage error (exit 2), an
``IntegrationError`` to exit 3, and an ``OSError`` from a write to a
one-line error with exit 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    DesignRequest,
    design_frequency,
    leakage_at_peak,
    populations_from_action,
)
from .core import (
    Cosine,
    PulseSpec,
    Trajectory,
    TwoLevelAtom,
    pulse_from_dict,
)
from .hydrogen import (
    VALIDITY_MARGIN,
    dipole_2s2p,
    ev_to_hartree,
    field_for_transfer,
    hartree_to_ev,
    hydrogen_atom,
    lamb_shift,
    next_level_gap,
    validity_report,
    wavelength_to_omega,
    z_matrix_element,
)
from .integrator import (
    IntegrationConfig,
    IntegrationError,
    half_step_grid,
    integrate,
    populated_window,
    step_count,
    step_halving_error,
)
from .pulses import OptimizerConfig, ShapingObjective, run_optimizer

TRAJECTORY_HEADER = "t,P1,P2,re_a1,im_a1,re_a2,im_a2"
# Rows formatted at once; the arrays of one chunk are all a write holds
# beyond its columns.
_CSV_CHUNK_ROWS = 512


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_manifest(manifest_path: Path, args: argparse.Namespace, outputs: list[str]) -> Path:
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
    return manifest_path


def _write_trajectory_csv(path: Path, traj: Trajectory, analytic_pulse: PulseSpec | None) -> None:
    """Write the trajectory as CSV: the header, then one line per time step.

    A line holds t, P1, P2 and the real and imaginary parts of a1 and a2,
    and with an analytic pulse also the degenerate-limit P1 and P2 of the
    state prepared in level 1 at the first grid time (one array call for the
    whole trajectory).  Each line is the row's values formatted
    with ``'%.17g'`` and joined by commas, byte for byte.
    :func:`twolevel._csvtext.format_block` makes the text, ``_CSV_CHUNK_ROWS``
    rows at a time, so the memory held at once stays fixed whatever the
    length of the trajectory.
    """
    # Only commands that write a trajectory pay for the formatter's tables.
    from ._csvtext import format_block

    header = TRAJECTORY_HEADER
    columns = [traj.times, traj.p1, traj.p2, traj.a1.real, traj.a1.imag, traj.a2.real, traj.a2.imag]
    if analytic_pulse is not None:
        header += ",P1_analytic,P2_analytic"
        columns += populations_from_action(analytic_pulse, traj.times, traj.times[0])
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(traj), _CSV_CHUNK_ROWS):
            fh.write(format_block(np.stack([column[start:start + _CSV_CHUNK_ROWS]
                                             for column in columns], axis=1)))


def _write_trajectories(writes: list[tuple[Path, Trajectory, PulseSpec | None]]) -> None:
    """Write each ``(path, trajectory, analytic pulse)`` with one process per CPU.

    Formatting 17-digit text takes most of a write and runs in one thread,
    so the writes are split over ``W = min(len(writes), available CPUs)``
    processes: write ``i`` goes to worker ``i % W``, this process is worker 0
    and the other ``W - 1`` are forked children.  With one CPU, or where the
    platform cannot tell which CPUs are available, ``W = 1`` and nothing
    forks.  Every child is reaped, also when this process's own share
    raised.  OSError names the files of a child that failed.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(writes), cpus)
    # A child inherits unflushed output and would write it a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}
    try:
        for worker in range(1, workers):
            with warnings.catch_warnings():
                # Python 3.12+ warns because OpenBLAS has a thread running
                # after `import numpy`.  The children only format and write
                # text and never call BLAS, so that thread cannot hang them.
                warnings.filterwarnings("ignore", category=DeprecationWarning,
                                        message=r".*use of fork\(\) may lead to deadlocks")
                pid = os.fork()
            if pid == 0:
                # A child never returns into its caller's code (a test
                # runner, a tracer that dumps its spans): it ends in os._exit.
                status = 1
                try:
                    for path, traj, analytic_pulse in writes[worker::workers]:
                        _write_trajectory_csv(path, traj, analytic_pulse)
                    status = 0
                except Exception as exc:
                    print(f"cannot write {path}: {exc}", file=sys.stderr)
                finally:
                    sys.stderr.flush()
                    os._exit(status)
            children[pid] = worker
        for path, traj, analytic_pulse in writes[::workers]:
            _write_trajectory_csv(path, traj, analytic_pulse)
    finally:
        failed = [worker for pid, worker in children.items() if os.waitpid(pid, 0)[1] != 0]
    if failed:
        paths = ", ".join(str(path) for worker in failed for path, _, _ in writes[worker::workers])
        raise OSError(f"a worker process could not write all of {paths}")


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


def _wavelength_in_m(value: float, args: argparse.Namespace) -> float:
    if args.um:
        return value * 1e-6
    if args.cm:
        return value * 1e-2
    return value


# --- simulate ----------------------------------------------------------------

def _check_one_pulse_source(args: argparse.Namespace) -> None:
    """ValueError naming the pulse sources given, if there is more than one."""
    sources = {"--pulse-json": [args.pulse_json], "--chi/--omega": [args.chi, args.omega],
               "--ratio": [args.ratio], "--wavelength": [args.wavelength],
               "--sweep": [args.sweep]}
    given = [name for name, values in sources.items() if any(v is not None for v in values)]
    if len(given) > 1:
        raise ValueError(f"give one pulse source, not {' and '.join(given)}")


def _resolve_pulse(args: argparse.Namespace, omega21: float) -> PulseSpec:
    if args.pulse_json is not None:
        try:
            return pulse_from_dict(json.loads(Path(args.pulse_json).read_text()))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load pulse JSON: {exc}") from None
    if args.chi is not None or args.omega is not None:
        if args.chi is None or args.omega is None:
            raise ValueError("--chi and --omega must be given together")
        return Cosine(
            chi=_energy_in_au(args.chi, args.ev),
            omega=_energy_in_au(args.omega, args.ev),
        )
    if args.ratio is not None:
        omega = args.ratio * omega21
        if omega <= 0.0:
            raise ValueError("--ratio needs a positive omega21")
        return Cosine(chi=0.5 * math.pi * omega, omega=omega)
    if args.wavelength is not None:
        omega = wavelength_to_omega(_wavelength_in_m(args.wavelength, args))
        return Cosine(chi=0.5 * math.pi * omega, omega=omega)
    raise ValueError("give a pulse: --pulse-json, --chi/--omega, --ratio, or --wavelength")


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_one_pulse_source(args)
    out_path = _out_path(args.out)
    # Every spec, grid and output path is checked before any integration.
    atom = _atom(args)
    if args.sweep is not None:
        if args.error_estimate:
            raise ValueError("--error-estimate applies to a single run, not to --sweep")
        jobs = _sweep_jobs(args, atom.omega21, out_path)
    else:
        pulse = _resolve_pulse(args, atom.omega21)
        cfg = _grid_config(args, pulse)
        if args.error_estimate:
            try:
                half_step_grid(pulse, cfg)
            except ValueError as exc:
                raise ValueError(f"--error-estimate: {exc}") from None
        jobs = [(out_path, pulse, cfg)]
    manifest_path = out_path.with_suffix(".manifest.json")
    _check_outputs([path for path, _, _ in jobs] + [manifest_path])

    # Every integration finishes, and is checked, before the first file is written.
    trajs = [integrate(atom, pulse, cfg) for _, pulse, cfg in jobs]
    if args.error_estimate:
        estimate = step_halving_error(atom, pulse, cfg, coarse=trajs[0])
    _write_trajectories([(path, traj, job_pulse if args.analytic else None)
                         for (path, job_pulse, _), traj in zip(jobs, trajs)])
    manifest = _write_manifest(manifest_path, args, [str(path) for path, _, _ in jobs])
    if args.sweep is not None:
        print(f"wrote {len(jobs)} trajectories and {manifest}")
        return 0
    if args.error_estimate:
        print(f"step-halving error estimate = {_fmt(estimate)}")
    print(f"wrote {out_path} ({len(trajs[0])} rows) and {manifest}")
    return 0


def _sweep_jobs(args: argparse.Namespace, omega21: float,
                out_path: Path) -> list[tuple[Path, PulseSpec, IntegrationConfig]]:
    """One (output path, transfer cosine, grid) job per --sweep ratio."""
    try:
        ratios = [float(r) for r in args.sweep.split(",") if r.strip()]
    except ValueError:
        raise ValueError("--sweep expects a comma-separated list of ratios") from None
    if not ratios or omega21 <= 0.0:
        raise ValueError("--sweep needs at least one ratio and a positive omega21")
    jobs = []
    for ratio in ratios:
        path = out_path.with_name(f"{out_path.stem}_ratio{ratio:g}{out_path.suffix}")
        if any(path == other for other, _, _ in jobs):
            raise ValueError(f"--sweep ratios {args.sweep!r} give the output {path} twice")
        omega = ratio * omega21
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        jobs.append((path, pulse, _grid_config(args, pulse)))
    return jobs


def _grid_config(args: argparse.Namespace, pulse: PulseSpec) -> IntegrationConfig:
    """The --start/--periods/--step grid; ValueError if invalid or over MAX_STEPS."""
    t_end = args.start + args.periods * pulse.period
    config = IntegrationConfig(args.start, t_end, step=args.step,
                               steps_per_period=args.steps_per_period)
    step_count(pulse, config)
    return config


# --- design ------------------------------------------------------------------

def cmd_design(args: argparse.Namespace) -> int:
    request = DesignRequest(t_s=args.ts, p_cr=args.pcr)
    omega = design_frequency(request)
    pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
    period = pulse.period
    cfg = IntegrationConfig(0.0, period, steps_per_period=args.steps_per_period)
    step_count(pulse, cfg)
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
        i_peak = int(np.argmin(np.abs(traj.times - 0.25 * period)))
        measured_leak = min(max(float(1.0 - traj.p2[i_peak]), 0.0), 1.0)
        try:
            measured_ts = populated_window(traj, request.p_cr)
        except ValueError as exc:
            print(f"verify: {exc}")
            return 0
        print(f"measured T_s = {_fmt(measured_ts)} a.u. "
              f"({_fmt(measured_ts / request.t_s)} of requested)")
        print(f"measured peak leakage = {_fmt(measured_leak)} "
              f"(series bound {_fmt(leakage_at_peak(atom.omega21, omega))})")
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
    manifest_path = prefix.with_suffix(".manifest.json")
    _check_outputs([pulse_path, history_path, manifest_path])

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
    pulse_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    history_lines = ["generation,best_T_s"]
    history_lines += [f"{i},{_fmt(v)}" for i, v in enumerate(result.history)]
    history_path.write_text("\n".join(history_lines) + "\n")
    manifest = _write_manifest(manifest_path, args, [str(pulse_path), str(history_path)])
    print(f"best T_s = {_fmt(result.best_window)} a.u.")
    print(f"measured T_s (RK4) = {_fmt(result.measured_window)} a.u.")
    print(f"wrote {pulse_path}, {history_path} and {manifest}")
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
    print(f"  valid drive window      = [{_fmt(VALIDITY_MARGIN * shift)}, "
          f"{_fmt(gap / VALIDITY_MARGIN)}] a.u.")
    for label, wavelength in (("3 um", 3e-6), ("3 cm", 3e-2)):
        regime = field_for_transfer(wavelength_to_omega(wavelength))
        print(f"  at {label}: E0 = {_fmt(regime.e0)} a.u., "
              f"intensity = {_fmt(regime.intensity_w_cm2)} W/cm^2")
    return 0


# --- parser ------------------------------------------------------------------

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
    sim.add_argument("--ev", action="store_true", help="energy inputs are in eV")
    unit = sim.add_mutually_exclusive_group()
    unit.add_argument("--um", action="store_true", help="--wavelength is in micrometers")
    unit.add_argument("--cm", action="store_true", help="--wavelength is in centimeters")
    sim.add_argument("--out", default="trajectory.csv", help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    des = sub.add_parser("design", help="choose a drive frequency for a duration/leakage budget")
    des.add_argument("--ts", type=float, required=True, help="requested window width in a.u.")
    des.add_argument("--pcr", type=float, required=True, help="leakage budget in (0, 1)")
    des.add_argument("--verify", action="store_true",
                     help="integrate the designed drive and report the measured window")
    des.add_argument("--steps-per-period", type=int, default=1000)
    des.set_defaults(func=cmd_design)

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
    opt.set_defaults(func=cmd_optimize)

    inf = sub.add_parser("info", help="print hydrogen constants and field regimes")
    inf.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    effective_argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(effective_argv)
    args._argv = effective_argv
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
