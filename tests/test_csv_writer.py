"""The chunked trajectory CSV writer against the row-by-row oracle."""
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twolevel import _csvtext, cli
from twolevel.cli import _write_trajectory_csv
from twolevel.core import Cosine, GaussianApprox, HarmonicSum, Trajectory, TwoLevelAtom
from twolevel.integrator import IntegrationConfig, integrate

from _oracles import csv_reference, rk4_reference

ATOM = TwoLevelAtom(omega21=0.3)

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
    config = IntegrationConfig(0.0, t_end, step=t_end / (rows - 1))
    if rows == 2:
        # One RK4 step of h = 6 blows the norm up, and integrate refuses it;
        # the scalar oracle applies no bound, and the writer needs none.
        return rk4_reference(ATOM, pulse, config)
    return integrate(ATOM, pulse, config)


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
# The writer formats 512 rows at a time; these counts sit on and across
# its chunk edges (4095-4097 are the edges of its earlier 4096-row chunks).
@pytest.mark.parametrize("rows", [2, 511, 512, 513, 4095, 4096, 4097, 8193, 25001])
def test_writer_matches_row_by_row_oracle(tmp_path, pulse_name, analytic, rows):
    pulse = PULSES[pulse_name]
    traj = _trajectory(pulse, rows)
    assert len(traj) == rows
    analytic_pulse = pulse if analytic else None
    _write_trajectory_csv(tmp_path / "new.csv", traj, analytic_pulse)
    _assert_matches_oracle(tmp_path / "new.csv", tmp_path / "ref.csv", traj, analytic_pulse)


def test_python_formatted_values_at_chunk_edges(tmp_path):
    """Values the array path leaves to Python as the last row of one chunk
    and the first row of the next, and as the last row of the file."""
    edge = cli._CSV_CHUNK_ROWS
    rows = 2 * edge + 1
    rng = np.random.default_rng(7)
    # t = 0 is the last row of the first chunk.
    times = np.arange(rows) - (edge - 1.0)
    a1 = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    a2 = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    a2[edge - 1] = complex(1e-300, -0.0)
    a1[edge] = 0.0
    a2[edge] = complex(1e15, -1e-11)
    a1[-1] = complex(5e-324, float("inf"))
    traj = Trajectory(times, a1, a2)
    assert traj.times[edge - 1] == 0.0
    _write_trajectory_csv(tmp_path / "new.csv", traj, None)
    _assert_matches_oracle(tmp_path / "new.csv", tmp_path / "ref.csv", traj, None)


def _percent_rows(rows) -> bytes:
    """``row_format % row`` for every row: the bytes the writer must match."""
    row_format = ",".join(["%.17g"] * len(rows[0])) + "\n"
    return "".join(row_format % tuple(row) for row in rows).encode()


def _assert_formats_as_percent(values, columns):
    block = np.asarray(values, dtype=float).reshape(-1, columns)
    assert _csvtext.format_block(block) == _percent_rows(block.tolist())


@given(st.integers(1, 9).flatmap(lambda columns: st.lists(
    st.lists(st.floats(), min_size=columns, max_size=columns), min_size=1, max_size=20)))
def test_format_block_matches_percent_format(rows):
    _assert_formats_as_percent(rows, len(rows[0]))


# The powers of ten 1e-12..1e16 and their neighbours, which take in the
# array path's edges 1e-11 and 1e15; exact ties at the 18th digit; and
# 1e-14, whose double lies so close below 10^-14 that its 17 digits round
# up to 10^17.
POWERS = [float(f"1e{n}") for n in range(-12, 17)]
PINNED = sorted({y for p in POWERS
                 for y in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))}
                | {123456789012345.625, 123456789012345.375, 123456789012345.125, 1e-14})


@pytest.mark.parametrize("columns", [1, 9])
def test_format_block_pinned_values(columns):
    values = PINNED + [-x for x in PINNED]
    _assert_formats_as_percent(values[:len(values) // columns * columns], columns)


def test_format_block_random_bit_patterns():
    bits = np.random.default_rng(22).integers(0, 2**64, size=10**5, dtype=np.uint64)
    _assert_formats_as_percent(bits.view(np.float64), 5)


def _python_digits(x):
    """(E, D) of '%.16e' % x: the decimal exponent and the 17 digits."""
    mantissa, exponent = ("%.16e" % abs(x)).split("e")
    return int(exponent), int(mantissa.replace(".", ""))


def test_array_path_covers_its_range():
    """Every double with 1e-11 <= |x| < 1e15 (the real numbers) gets its
    digits from integer arithmetic, and they are Python's."""
    rng = np.random.default_rng(5)
    x = 10.0 ** rng.uniform(-11.0, 15.0, 10**5) * rng.choice([-1.0, 1.0], 10**5)
    x = np.concatenate([x, [y for y in PINNED if 1e-11 < y < 1e15]])
    ok, exponent, digits = _csvtext.decimal_digits(x)
    assert ok.all()
    assert [_python_digits(v) for v in x.tolist()] == list(zip(exponent.tolist(), digits.tolist()))
    # The double nearest 1e-11 lies below it (E = -12), outside the range.
    assert _csvtext.decimal_digits(np.array([1e-11, 1e15, 1e-14, 0.0]))[0].tolist() == [False] * 4


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
def test_failed_write_raises_after_reaping_every_child(tmp_path, monkeypatch, capsys, cpus,
                                                       failing):
    write = cli._write_trajectory_csv

    def write_or_fail(path, traj, analytic_pulse):
        if path.name == failing:
            raise OSError(f"no space left for {path}")
        write(path, traj, analytic_pulse)

    monkeypatch.setattr(cli, "_write_trajectory_csv", write_or_fail)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    # The writer's OSError reaches main, which reports it as a usage error.
    assert _sweep_in_parent(tmp_path) == 2
    assert failing in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.glob("returned-*"))
    assert not (tmp_path / "s.manifest.json").exists()
