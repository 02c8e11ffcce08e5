"""The one-period path and the march of :func:`twolevel.integrator.integrate`.

A pulse that repeats every p steps of a grid of more than p steps is
evaluated and marched through over its first period only; every later
period reuses that period's running products, as long as the roundings this
repeats stay within a bound.  Any other grid is marched through whole.
These tests hold both paths and the bound against the one-step-at-a-time
RK4 oracle, count the pulse values each march asks for, one evaluation a
chunk, and check where errors are reported.  They import neither scipy nor
hypothesis, so they run on the runtime dependencies alone.
"""
import math

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
    assert points == evaluated(1000)
    ref = rk4_reference(ATOM, pulse, cfg)
    assert np.array_equal(traj.times, ref.times)
    assert max_amplitude_difference(traj, ref) <= 1e-12


def reused(pulse, cfg) -> bool:
    return twolevel.integrator._steps_per_period(pulse, cfg) is not None


STRONG = Cosine(chi=20.0, omega=1.0)


# Reusing one period repeats its roundings in every later period, so the
# path is taken only up to an estimated drift (_MAX_REUSE_DRIFT).  On each
# side of that edge the grid matches the loop oracle within 1e-12.
@pytest.mark.parametrize("pulse, p", [(PULSES["cosine"], 100), (PULSES["harmonic-sum"], 100),
                                      (STRONG, 1000)], ids=[*PULSES, "strong"])
def test_reuse_ends_at_its_drift_bound(points, pulse, p):
    periods = 1
    while reused(pulse, grid(pulse, periods + 1, p)):
        periods += 1
    assert 2 <= periods < 200
    for last, cfg in [(True, grid(pulse, periods, p)), (False, grid(pulse, periods + 1, p))]:
        points.clear()
        traj = integrate(ATOM, pulse, cfg)
        assert points == evaluated(p if last else cfg.n)
        assert max_amplitude_difference(traj, rk4_reference(ATOM, pulse, cfg)) <= 1e-12


# At 1000 periods one period's roundings would have compounded to 2.4e-12
# (cosine) and 2.6e-12 (harmonic sum); the grid is stepped through instead.
@pytest.mark.parametrize("pulse", PULSES.values(), ids=PULSES)
def test_thousand_periods_match_loop_oracle(points, pulse):
    cfg = grid(pulse, 1000, 100)
    traj = integrate(ATOM, pulse, cfg)
    assert points == evaluated(cfg.n)
    assert max_amplitude_difference(traj, rk4_reference(ATOM, pulse, cfg)) <= 1e-12


# The states are filled one period at a time, a period longer than 4096
# steps in 4096-step parts, and such a period is marched through in 4096-step
# chunks; these grids end on and next to those edges.
@pytest.mark.parametrize("p, n", [(1000, 4000), (1000, 4001), (1000, 8001), (100, 4001),
                                  (4096, 8193), (5000, 5001), (5000, 9097), (5000, 12500)])
def test_fill_edges_match_loop_oracle(points, p, n):
    pulse = PULSES["harmonic-sum"]
    h = pulse.period / p
    cfg = IntegrationConfig(START, START + n * h, step=h)
    assert cfg.n == n
    traj = integrate(ATOM, pulse, cfg)
    assert points == evaluated(p)
    assert max_amplitude_difference(traj, rk4_reference(ATOM, pulse, cfg)) <= 1e-12


# A step of period / 1000.5 misses the period, so the grid is stepped
# through 4096 steps at a time; these grids end on and next to those edges.
@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
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
# Each pulse, its grid, the steps over which integrate evaluates it, and
# whether it reuses one period.
EVALUATED_STEPS = {
    "three-periods": (COSINE, grid(COSINE, 3, 1000), 1000, True),
    "thousand-periods": (COSINE, grid(COSINE, 1000, 100), 100000, False),
    # Twenty periods of a drive of 20 Rabi cycles a period.
    "strong": (STRONG, grid(STRONG, 20, 1000), 20000, False),
    "one-period": (COSINE, grid(COSINE, 1, 1000), 1000, False),
    # The GA's grid, on which the period is 999.9999999999999 steps.
    "one-period-of-omega-1": (Cosine(chi=0.5 * math.pi, omega=1.0),
                              IntegrationConfig.per_period(0.0, 2 * math.pi, 2 * math.pi),
                              1000, False),
    "unaligned-step": (COSINE, IntegrationConfig(0.0, 3 * COSINE.period,
                                                 step=COSINE.period / 999.7), 2999, False),
    "gaussian": (GAUSSIAN, IntegrationConfig(0.0, 10.0, step=1e-3), 10000, False),
    # The period is more steps than a double holds.
    "subnormal-step": (COSINE, IntegrationConfig(0.0, 5e-323, step=1e-323), 5, False),
}


@pytest.mark.parametrize("pulse, cfg, steps, reused", EVALUATED_STEPS.values(),
                         ids=EVALUATED_STEPS)
def test_pulse_is_evaluated_over_one_period_only_where_it_repeats(points, pulse, cfg, steps,
                                                                  reused):
    integrate(ATOM, pulse, cfg)
    assert points == evaluated(steps)
    # A march covers (size - 1) / 2 steps an evaluation; fewer than the grid's
    # are one period reused.
    assert (sum(size // 2 for size in points) < cfg.n) == reused


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
