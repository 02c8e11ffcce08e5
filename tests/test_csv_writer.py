"""The chunked trajectory CSV writer against the row-by-row oracle."""
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    csv_reference(tmp_path / "ref.csv", traj, analytic_pulse)
    if not analytic:
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        return
    new_header, new_rows = _split(tmp_path / "new.csv")
    ref_header, ref_rows = _split(tmp_path / "ref.csv")
    assert new_header == ref_header
    assert len(new_rows) == len(ref_rows) == rows
    worst = 0.0
    for new, ref in zip(new_rows, ref_rows):
        assert len(new) == len(ref) == 9
        assert new[:7] == ref[:7]
        worst = max(worst, *(abs(float(a) - float(b)) for a, b in zip(new[7:], ref[7:])))
    assert worst <= ANALYTIC_TOL


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
