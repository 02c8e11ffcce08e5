"""The march of :func:`twolevel.integrator.integrate`.

Every grid is marched through whole, ``_CHUNK`` steps at a time, the pulse
evaluated on each chunk right before its step matrices.  These tests hold
the march against the one-step-at-a-time RK4 oracle on periodic and
unaligned grids and across chunk edges, count the pulse values it asks for,
one evaluation a chunk, check that its workspace is one chunk's, and check
where errors are reported.  They import neither scipy nor
hypothesis, so they run on the runtime dependencies alone.
"""
import math
import tracemalloc

import numpy as np
import pytest

import twolevel.integrator
from twolevel.core import Cosine, GaussianApprox, HarmonicSum, TwoLevelAtom
from twolevel.integrator import _CHUNK, IntegrationConfig, IntegrationError, integrate

from _oracles import rk4_reference

ATOM = TwoLevelAtom(omega21=0.05)
START = 1.3

PULSES = {
    "cosine": Cosine(chi=0.5 * math.pi * 0.7, omega=0.7),
    "harmonic-sum": HarmonicSum(omega=0.7, coefficients=((1, 1.2), (3, -0.35), (5, 0.1))),
}


@pytest.fixture
def points(monkeypatch):
    """The number of times of every pulse evaluation integrate asks for."""
    sizes = []
    pulse_value = twolevel.integrator.pulse_value

    def counting(pulse, t):
        sizes.append(np.size(t))
        return pulse_value(pulse, t)

    monkeypatch.setattr(twolevel.integrator, "pulse_value", counting)
    return sizes


def evaluated(m: int) -> list[int]:
    """The sizes of the pulse evaluations of a march over ``m`` steps: each
    chunk's step starts and midpoints, and its end."""
    return [2 * min(_CHUNK, m - lo) + 1 for lo in range(0, m, _CHUNK)]


def max_amplitude_difference(a, b) -> float:
    return max(float(np.max(np.abs(a.a1 - b.a1))), float(np.max(np.abs(a.a2 - b.a2))))


def grid(pulse, periods: float, steps_per_period: int, start: float = START):
    return IntegrationConfig.per_period(start, start + periods * pulse.period, pulse.period,
                                        steps_per_period)


# 24.37 periods end in a partial period.
@pytest.mark.parametrize("periods", [25, 24.37])
@pytest.mark.parametrize("pulse", PULSES.values(), ids=PULSES)
def test_matches_loop_oracle(points, pulse, periods):
    cfg = grid(pulse, periods, 1000)
    traj = integrate(ATOM, pulse, cfg)
    assert points == evaluated(cfg.n)
    ref = rk4_reference(ATOM, pulse, cfg)
    assert np.array_equal(traj.times, ref.times)
    assert max_amplitude_difference(traj, ref) <= 1e-12


STRONG = Cosine(chi=20.0, omega=1.0)


# A thousand periods of 100 steps: the chunk edges fall inside periods.
@pytest.mark.parametrize("pulse", PULSES.values(), ids=PULSES)
def test_thousand_periods_match_loop_oracle(points, pulse):
    cfg = grid(pulse, 1000, 100)
    traj = integrate(ATOM, pulse, cfg)
    assert points == evaluated(cfg.n)
    assert max_amplitude_difference(traj, rk4_reference(ATOM, pulse, cfg)) <= 1e-12


# A step of period / 1000.5 misses the period; these grids end on and next
# to the edges of the march's chunks.
@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK,
                               2 * _CHUNK + 1, 4 * _CHUNK + 1])
def test_unaligned_chunk_edges_match_loop_oracle(points, n):
    pulse = PULSES["cosine"]
    h = pulse.period / 1000.5
    cfg = IntegrationConfig(START, START + n * h, step=h)
    assert cfg.n == n
    traj = integrate(ATOM, pulse, cfg)
    assert points == evaluated(n)
    assert max_amplitude_difference(traj, rk4_reference(ATOM, pulse, cfg)) <= 1e-12


COSINE = PULSES["cosine"]
GAUSSIAN = GaussianApprox(area=math.pi / 2, center=5.0, width=0.3)
# Each pulse and its grid, every step of which integrate evaluates.
EVALUATED_STEPS = {
    "three-periods": (COSINE, grid(COSINE, 3, 1000)),
    "thousand-periods": (COSINE, grid(COSINE, 1000, 100)),
    # Twenty periods of a drive of 20 Rabi cycles a period.
    "strong": (STRONG, grid(STRONG, 20, 1000)),
    "one-period": (COSINE, grid(COSINE, 1, 1000)),
    # The GA's grid, on which the period is 999.9999999999999 steps.
    "one-period-of-omega-1": (Cosine(chi=0.5 * math.pi, omega=1.0),
                              IntegrationConfig.per_period(0.0, 2 * math.pi, 2 * math.pi)),
    "unaligned-step": (COSINE, IntegrationConfig(0.0, 3 * COSINE.period,
                                                 step=COSINE.period / 999.7)),
    "gaussian": (GAUSSIAN, IntegrationConfig(0.0, 10.0, step=1e-3)),
    # The period is more steps than a double holds.
    "subnormal-step": (COSINE, IntegrationConfig(0.0, 5e-323, step=1e-323)),
}


# The test keeps its name from when a pulse that repeats was evaluated over
# one period only; every grid is now evaluated whole, one chunk at a time.
@pytest.mark.parametrize("pulse, cfg", EVALUATED_STEPS.values(), ids=EVALUATED_STEPS)
def test_pulse_is_evaluated_over_one_period_only_where_it_repeats(points, pulse, cfg):
    integrate(ATOM, pulse, cfg)
    assert points == evaluated(cfg.n)


# Beyond the trajectory it returns, integrate holds V21, the step matrices
# and their prefix products for one chunk at a time, near 450 bytes a step of
# the chunk, and then 16 bytes a step of the grid for its norm check.  On
# these grids, 25 periods of a cosine and a 10^4-step Gaussian, the chunk's
# share is the larger: 0.79 and 0.91 MB at 2048 steps a chunk.
@pytest.mark.parametrize("pulse, cfg", [(COSINE, grid(COSINE, 25, 1000)),
                                        (GAUSSIAN, IntegrationConfig(0.0, 10.0, step=1e-3))],
                         ids=["cosine", "gaussian"])
def test_march_workspace_is_one_chunk(pulse, cfg):
    tracemalloc.start()
    try:
        traj = integrate(ATOM, pulse, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == cfg.n + 1
    assert peak - (traj.times.nbytes + traj.a1.nbytes + traj.a2.nbytes) <= 1.25e6


# Ten odd harmonics of 25 (or 40) add up to peaks of |V| h near 16 (13)
# twice a period, which grow the norm by about 1e22 (1e34) a period: the
# states overflow in period 14 (9).  The loop oracle overflows in an intermediate
# sum one step earlier at most.
@pytest.mark.parametrize("c, steps_per_period", [(25, 100), (40, 200)])
def test_overflow_in_later_period_reports_its_grid_time(c, steps_per_period):
    pulse = HarmonicSum(omega=1.0, coefficients=tuple((k, c) for k in range(1, 20, 2)))
    cfg = grid(pulse, 40.5, steps_per_period, start=0.7)
    with pytest.raises(IntegrationError, match="non-finite amplitudes") as excinfo:
        integrate(ATOM, pulse, cfg)
    k = round((excinfo.value.time - cfg.t_start) / cfg.h)
    assert excinfo.value.time == cfg.t_start + k * cfg.h
    assert k > 5 * steps_per_period
    with pytest.raises(IntegrationError) as oracle:
        rk4_reference(ATOM, pulse, cfg)
    assert 0 <= k - round((oracle.value.time - cfg.t_start) / cfg.h) <= 1


def test_norm_drift_in_later_period_is_reported_at_its_largest_defect():
    # 100 steps per period lose 2.3e-4 of the norm in the first period and
    # 2.5e-3 over 10.5 periods, the most at the end.
    pulse = HarmonicSum(omega=1.0, coefficients=((1, 4.0), (3, -2.0), (5, 1.0)))
    integrate(ATOM, pulse, grid(pulse, 1, 100, start=0.7))
    cfg = grid(pulse, 10.5, 100, start=0.7)
    with pytest.raises(IntegrationError, match=r"norm drifted by .* past 0\.001") as excinfo:
        integrate(ATOM, pulse, cfg)
    ref = rk4_reference(ATOM, pulse, cfg)
    assert excinfo.value.time == ref.times[int(np.argmax(ref.norm_defect()))]
