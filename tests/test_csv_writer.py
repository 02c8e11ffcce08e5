"""The chunked trajectory CSV writer against the row-by-row oracle."""
import math
import os
import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twolevel import cli
from twolevel.cli import _write_trajectory_csv
from twolevel.core import Cosine, GaussianApprox, HarmonicSum, TwoLevelAtom
from twolevel.integrator import IntegrationConfig, integrate

from _oracles import csv_reference

ATOM = TwoLevelAtom(omega21=0.3, dipole_projection=-3.0)

PULSES = {
    "cosine": Cosine(chi=0.5 * math.pi, omega=1.0),
    "harmonic_sum": HarmonicSum(omega=1.0, coefficients=((1, 1.2), (3, -0.4), (5, 0.1))),
    "gaussian": GaussianApprox(area=0.5 * math.pi, center=3.0, width=0.5),
}

# The array and scalar np.sin/np.cos paths may round apart by an ulp; P1 and
# P2 lie in [0, 1], where one ulp is at most 2.2e-16.
ANALYTIC_TOL = 2.3e-16


def _trajectory(pulse, rows):
    t_end = 6.0
    return integrate(ATOM, pulse, IntegrationConfig(0.0, t_end, step=t_end / (rows - 1)))


def _split(path):
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _assert_matches_oracle(path, ref_path, traj, analytic_pulse):
    """The CSV at ``path`` against ``csv_reference`` written to ``ref_path``."""
    csv_reference(ref_path, traj, analytic_pulse)
    if analytic_pulse is None:
        assert path.read_bytes() == ref_path.read_bytes()
        return
    new_header, new_rows = _split(path)
    ref_header, ref_rows = _split(ref_path)
    assert new_header == ref_header
    assert len(new_rows) == len(ref_rows) == len(traj)
    worst = 0.0
    for new, ref in zip(new_rows, ref_rows):
        assert len(new) == len(ref) == 9
        assert new[:7] == ref[:7]
        worst = max(worst, *(abs(float(a) - float(b)) for a, b in zip(new[7:], ref[7:])))
    assert worst <= ANALYTIC_TOL


@pytest.mark.parametrize("pulse_name", sorted(PULSES))
@pytest.mark.parametrize("analytic", [False, True], ids=["plain", "analytic"])
# The writer formats 4096 rows at a time; these counts sit on and across
# its chunk edges.
@pytest.mark.parametrize("rows", [2, 4095, 4096, 4097, 8193, 25001])
def test_writer_matches_row_by_row_oracle(tmp_path, pulse_name, analytic, rows):
    pulse = PULSES[pulse_name]
    traj = _trajectory(pulse, rows)
    assert len(traj) == rows
    analytic_pulse = pulse if analytic else None
    _write_trajectory_csv(tmp_path / "new.csv", traj, analytic_pulse)
    _assert_matches_oracle(tmp_path / "new.csv", tmp_path / "ref.csv", traj, analytic_pulse)


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072009e-308)
@example(sys.float_info.min)
@example(sys.float_info.max)
@example(-sys.float_info.max)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(-float("nan"))
def test_percent_format_matches_format_builtin(x):
    assert "%.17g" % x == format(x, ".17g")


@pytest.mark.parametrize("pulse_name", ["cosine", "gaussian"])
def test_writer_memory_is_bounded_per_row(tmp_path, pulse_name):
    """Peak traced allocation of a 2*10^5-row analytic write is at most 100 B/row."""
    rows = 200_000
    pulse = PULSES[pulse_name]
    traj = _trajectory(pulse, rows)
    tracemalloc.start()
    try:
        _write_trajectory_csv(tmp_path / "big.csv", traj, pulse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / rows <= 100


SWEEP_RATIOS = ("10", "20", "50", "100", "150")


def _sweep_in_parent(workdir):
    """``simulate --sweep`` in this process, from ``workdir``.

    A forked writer that returns into this function instead of exiting leaves
    a marker file and exits 99, so the test sees it whatever the writer did.
    """
    parent = os.getpid()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return cli.main(["simulate", "--sweep", ",".join(SWEEP_RATIOS), "--omega21", "0.3",
                         "--analytic", "--out", "s.csv"])
    finally:
        os.chdir(cwd)
        if os.getpid() != parent:
            (workdir / f"returned-{os.getpid()}").touch()
            os._exit(99)


def _no_fork():
    raise AssertionError("forked with one worker")


# Five files over two or three workers is an uneven split; None stands for a
# platform without os.sched_getaffinity.
@pytest.mark.parametrize("cpus", [None, 1, 2, 3])
def test_sweep_files_match_across_worker_counts(tmp_path, monkeypatch, capsys, cpus):
    traced = []

    def integrate_and_keep(atom, pulse, config):
        traced.append((pulse, integrate(atom, pulse, config)))
        return traced[-1][1]

    monkeypatch.setattr(cli, "integrate", integrate_and_keep)
    serial = tmp_path / "serial"
    serial.mkdir()
    with monkeypatch.context() as serial_patch:
        serial_patch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
        serial_patch.setattr(cli.os, "fork", _no_fork)
        assert _sweep_in_parent(serial) == 0
    capsys.readouterr()

    forked = tmp_path / "forked"
    forked.mkdir()
    if cpus is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.setattr(cli.os, "fork", _no_fork)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert _sweep_in_parent(forked) == 0
    assert capsys.readouterr().out.count("wrote 5 trajectories") == 1

    names = [f"s_ratio{ratio}.csv" for ratio in SWEEP_RATIOS]
    assert sorted(p.name for p in forked.iterdir()) == sorted(names + ["s.manifest.json"])
    assert (forked / "s.manifest.json").read_bytes() == (serial / "s.manifest.json").read_bytes()
    for name, (pulse, traj) in zip(names, traced):
        assert (forked / name).read_bytes() == (serial / name).read_bytes()
        _assert_matches_oracle(forked / name, tmp_path / f"ref_{name}", traj, pulse)


# Write i goes to worker i % cpus: s_ratio20.csv belongs to worker 1 of 2,
# s_ratio50.csv to worker 2 of 3, both forked children, and s_ratio10.csv to
# worker 0, this process.
@pytest.mark.parametrize("cpus, failing", [(2, "s_ratio20.csv"), (3, "s_ratio50.csv"),
                                           (3, "s_ratio10.csv")])
def test_failed_write_raises_after_reaping_every_child(tmp_path, monkeypatch, cpus, failing):
    write = cli._write_trajectory_csv

    def write_or_fail(path, traj, analytic_pulse):
        if path.name == failing:
            raise OSError(f"no space left for {path}")
        write(path, traj, analytic_pulse)

    monkeypatch.setattr(cli, "_write_trajectory_csv", write_or_fail)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(OSError, match=failing):
        _sweep_in_parent(tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.glob("returned-*"))
    assert not (tmp_path / "s.manifest.json").exists()
