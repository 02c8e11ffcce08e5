"""RK4 propagation against analytic oracles, plus the comparison utilities."""
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twolevel.integrator
from twolevel.analytic import (
    DesignRequest,
    design_frequency,
    transfer_populations,
)
from twolevel.core import (
    AmplitudeState,
    Cosine,
    GaussianApprox,
    HarmonicSum,
    TwoLevelAtom,
)
from twolevel.integrator import (
    _CHUNK,
    MAX_STEPS,
    IntegrationConfig,
    IntegrationError,
    integrate,
    max_population_deviation,
    populated_window,
    populated_windows,
    step_halving_error,
)
from twolevel.pulses import normalize_for_transfer

from _oracles import populated_window_reference, rk4_reference

DEGENERATE = TwoLevelAtom(omega21=0.0)


def normalized_cosine(omega: float) -> HarmonicSum:
    return Cosine(chi=0.5 * math.pi * omega, omega=omega)


class TestConfig:
    def test_rejects_reversed_span(self):
        with pytest.raises(ValueError):
            IntegrationConfig(t_start=1.0, t_end=1.0, step=1e-3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            IntegrationConfig(t_start=0.0, t_end=1.0, step=0.0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="steps_per_period must be >= 100, got 99"):
            IntegrationConfig.per_period(0.0, 1.0, 1.0, steps_per_period=99)
        assert IntegrationConfig.per_period(0.0, 1.0, 1.0, steps_per_period=100).n == 100

    @pytest.mark.parametrize("initial", [AmplitudeState(2.0, 0.0), AmplitudeState(math.nan, 0.0),
                                         AmplitudeState(1e200, 0.0)])
    def test_rejects_unnormalized_initial_state(self, initial):
        # The grid spec refuses the state before integrate could blame the
        # grid; a norm that overflows is refused, not raised as OverflowError.
        with pytest.raises(ValueError, match=r"norm of the initial state AmplitudeState\(a1="):
            IntegrationConfig(0.0, 2 * math.pi, 2 * math.pi / 1000, initial)

    def test_natural_period(self):
        assert Cosine(chi=1.0, omega=2.0).period == pytest.approx(math.pi)
        assert GaussianApprox(area=1.0, center=0.0, width=0.3).period == 0.3

    def test_step_count(self):
        pulse = Cosine(chi=1.0, omega=2.0)
        cfg = IntegrationConfig.per_period(0.0, 3 * math.pi, pulse.period, steps_per_period=250)
        assert cfg.n == 750
        assert IntegrationConfig(0.0, 1.0, step=0.3).n == 3
        assert IntegrationConfig(0.0, 1.0, step=1.0).n == 1

    @pytest.mark.parametrize("step", [1.0 + 1e-12, 1e9])
    def test_step_over_span_rejected(self, step):
        with pytest.raises(ValueError, match="exceeds the span"):
            IntegrationConfig(0.0, 1.0, step=step)

    @pytest.mark.parametrize("step", [1e-320, 1.0 / (MAX_STEPS + 10)])
    def test_oversized_grid_rejected_before_allocation(self, step):
        # No grid past MAX_STEPS exists for integrate to allocate.
        with pytest.raises(ValueError, match="steps"):
            IntegrationConfig(0.0, 1.0, step=step)

    @settings(max_examples=300, deadline=None)
    @given(t_start=st.floats(-1e20, 1e20), steps=st.integers(1, 2000),
           resolution=st.floats(0.25, 4.0))
    @example(t_start=1e20, steps=1000, resolution=1.0)
    @example(t_start=-1e20, steps=1000, resolution=1.0 + 1e-9)
    @example(t_start=0.0, steps=2, resolution=3.0)  # a subnormal step with no exact half
    def test_accepted_grid_times_increase(self, t_start, steps, resolution):
        # Steps near the spacing of doubles at t_start: every grid that
        # IntegrationConfig accepts has n + 1 strictly increasing times
        # ending at t_end, and its halved grid, where accepted, puts every
        # other time on them.
        step = resolution * math.ulp(t_start)
        t_end = t_start + steps * step
        assume(step > 0.0 and t_end > t_start)
        try:
            cfg = IntegrationConfig(t_start, t_end, step=step)
        except ValueError:
            return
        times = cfg.times()
        assert np.all(np.diff(times) > 0.0)
        assert len(times) == cfg.n + 1
        assert times[-1] == t_end
        try:
            fine = cfg.halved()
        except ValueError:
            return
        assert fine.n == 2 * cfg.n
        assert np.array_equal(fine.times()[::2][:-1], times[:-1])

    def test_unresolved_grid_rejected(self):
        # Doubles near 1e20 are 16384 apart.
        with pytest.raises(ValueError, match=r"does not resolve the time t=1e\+20, where "
                                             "doubles are 16384 apart"):
            IntegrationConfig(1e20, 1e20 + 1e6, step=1e3)


class TestIntegrate:
    def test_first_state_is_initial_condition(self):
        initial = AmplitudeState(0.6 + 0.0j, 0.8j)
        pulse = Cosine(chi=1.0, omega=1.0)
        cfg = IntegrationConfig(0.0, 1.0, pulse.period / 1000, initial)
        traj = integrate(DEGENERATE, pulse, cfg)
        assert (traj.a1[0], traj.a2[0]) == (initial.a1, initial.a2)

    def test_grid_contract(self):
        pulse = Cosine(chi=1.0, omega=1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period, steps_per_period=1000)
        traj = integrate(DEGENERATE, pulse, cfg)
        assert len(traj) == 1001
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 2 * math.pi

    def test_decoupled_when_chi_zero(self):
        atom = TwoLevelAtom(omega21=0.35)
        cfg = IntegrationConfig(0.0, 10.0, step=0.01)
        traj = integrate(atom, Cosine(chi=0.0, omega=1.0), cfg)
        assert np.max(np.abs(traj.a1 - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.a2)) <= 1e-12

    def test_degenerate_limit_matches_analytic(self):
        omega = 1.0
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period)
        traj = integrate(DEGENERATE, pulse, cfg)
        _, p2_ref = transfer_populations(omega, traj.times)
        assert np.max(np.abs(traj.p2 - p2_ref)) <= 1e-8

    def test_degenerate_amplitudes_five_periods(self):
        omega = 1.0
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 5 * 2 * math.pi / omega, pulse.period,
                                           steps_per_period=1000)
        traj = integrate(DEGENERATE, pulse, cfg)
        y = 0.5 * math.pi * np.sin(omega * traj.times)
        err = max(
            float(np.max(np.abs(traj.a1 - np.cos(y)))),
            float(np.max(np.abs(traj.a2 - 1j * np.sin(y)))),
        )
        assert err <= 1e-8

    def test_stationary_state_phase_evolution(self):
        omega21 = 0.7
        atom = TwoLevelAtom(omega21=omega21)
        cfg = IntegrationConfig(
            0.0, 20.0, initial=AmplitudeState(0.0 + 0.0j, 1.0j), step=0.01
        )
        traj = integrate(atom, Cosine(chi=0.0, omega=1.0), cfg)
        expected = 1j * np.exp(-1j * omega21 * traj.times)
        assert np.max(np.abs(traj.a2 - expected)) <= 1e-9
        assert np.max(np.abs(traj.p2 - 1.0)) <= 1e-11

    def test_norm_conservation_ten_periods(self):
        omega = 1.0
        atom = TwoLevelAtom(omega21=omega / 100.0)
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 10 * 2 * math.pi / omega, pulse.period)
        traj = integrate(atom, pulse, cfg)
        assert np.max(traj.norm_defect()) <= 1e-10

    def test_fourth_order_convergence(self):
        omega = 1.0
        pulse = normalized_cosine(omega)
        span = 5 * 2 * math.pi / omega

        def max_err(spp: int) -> float:
            cfg = IntegrationConfig.per_period(0.0, span, pulse.period, steps_per_period=spp)
            traj = integrate(DEGENERATE, pulse, cfg)
            y = 0.5 * math.pi * np.sin(omega * traj.times)
            return max(
                float(np.max(np.abs(traj.a1 - np.cos(y)))),
                float(np.max(np.abs(traj.a2 - 1j * np.sin(y)))),
            )

        ratio = max_err(1000) / max_err(2000)
        assert 12.0 <= ratio <= 20.0

    def test_nonfinite_state_signaled_with_time(self):
        pulse = Cosine(chi=1e308, omega=1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as excinfo:
                integrate(DEGENERATE, pulse, cfg)
        assert excinfo.value.time == cfg.t_start + cfg.h

    def test_overflow_in_later_chunk_reports_its_grid_time(self):
        # A kick of area 1e6 overflows RK4 near t = 5.7, inside the third
        # chunk (steps 2 _CHUNK + 1..3 _CHUNK) of this 10^4-step grid.
        h = 1e-3
        cfg = IntegrationConfig(0.0, 10.0, step=h)
        pulse = GaussianApprox(area=1e6, center=6.0, width=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as excinfo:
                integrate(DEGENERATE, pulse, cfg)
        k = round(excinfo.value.time / h)
        assert excinfo.value.time == k * h
        assert 2 * _CHUNK < k <= 3 * _CHUNK
        # The loop oracle overflows in an intermediate sum one step earlier
        # at most; both name the same kick.
        with pytest.raises(IntegrationError) as oracle:
            rk4_reference(DEGENERATE, pulse, cfg)
        assert 0 <= k - round(oracle.value.time / h) <= 1

    def test_nonfinite_pulse_in_later_chunk_reports_its_time(self, monkeypatch):
        # The pulse turns NaN from t = 6, inside the third chunk of this
        # 10^4-step grid, whose pulse values are evaluated only when the march
        # reaches it.
        h = 1e-3
        cfg = IntegrationConfig(0.0, 10.0, step=h)
        pulse_value = twolevel.integrator.pulse_value
        monkeypatch.setattr(twolevel.integrator, "pulse_value",
                            lambda pulse, t: np.where(t < 6.0, pulse_value(pulse, t), np.nan))
        with pytest.raises(IntegrationError, match="pulse is not finite") as excinfo:
            integrate(DEGENERATE, GaussianApprox(area=1.0, center=5.0, width=1.0), cfg)
        half_times = 0.5 * h * np.arange(2 * cfg.n + 1)
        assert excinfo.value.time == half_times[np.argmax(half_times >= 6.0)]

    def test_blown_up_norm_signaled_at_largest_defect(self):
        # max|V| h of about 4.5 on the 1000-step grid: the states stay finite
        # while the norm grows past 1e200, most at the end of the period.
        pulse = HarmonicSum(omega=1.0, coefficients=((1, 179.17104484994596),
                                                     (3, 542.2255235302226)))
        atom = TwoLevelAtom(omega21=0.01)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=r"norm drifted by .* past 0\.001") as excinfo:
                integrate(atom, pulse, cfg)
        assert excinfo.value.time == 6.283185307179586
        # The loop oracle applies no bound, and its states are finite.
        with np.errstate(over="ignore"):
            assert rk4_reference(atom, pulse, cfg).norm_defect().max() > 1e200

    def test_norm_bound_is_inclusive(self, monkeypatch):
        # A coarse grid drifts measurably; a bound equal to its largest drift
        # passes the trajectory, and the next double below refuses it there.
        pulse = normalized_cosine(1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period, steps_per_period=100)
        traj = integrate(DEGENERATE, pulse, cfg)
        defect = traj.norm_defect()
        worst = int(np.argmax(defect))
        assert defect[worst] > 1e-9
        monkeypatch.setattr(twolevel.integrator, "MAX_NORM_DEFECT", float(defect[worst]))
        assert np.array_equal(integrate(DEGENERATE, pulse, cfg).a2, traj.a2)
        monkeypatch.setattr(twolevel.integrator, "MAX_NORM_DEFECT",
                            float(np.nextafter(defect[worst], 0.0)))
        with pytest.raises(IntegrationError) as excinfo:
            integrate(DEGENERATE, pulse, cfg)
        assert excinfo.value.time == traj.times[worst]

    def test_explicit_step_overrides_period_grid(self):
        cfg = IntegrationConfig(0.0, 1.0, step=0.25)
        traj = integrate(DEGENERATE, Cosine(chi=1.0, omega=1.0), cfg)
        assert len(traj) == 5

    def test_step_halving_error_tracks_true_error(self):
        omega = 1.0
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 5 * 2 * math.pi / omega, pulse.period,
                                           steps_per_period=1000)
        traj = integrate(DEGENERATE, pulse, cfg)
        y = 0.5 * math.pi * np.sin(omega * traj.times)
        true_err = max(
            float(np.max(np.abs(traj.a1 - np.cos(y)))),
            float(np.max(np.abs(traj.a2 - 1j * np.sin(y)))),
        )
        estimate = step_halving_error(DEGENERATE, pulse, cfg, coarse=traj)
        # For a fourth-order stepper the halved-step difference recovers
        # 15/16 of the coarse-grid error.
        assert 0.5 * true_err <= estimate <= 1.2 * true_err

    def test_step_halving_error_reuses_a_given_coarse_trajectory(self, monkeypatch):
        pulse = normalized_cosine(1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period, steps_per_period=1000)
        coarse = integrate(DEGENERATE, pulse, cfg)
        grids = []
        monkeypatch.setattr(twolevel.integrator, "integrate",
                            lambda atom, p, c: grids.append(c) or integrate(atom, p, c))
        step_halving_error(DEGENERATE, pulse, cfg, coarse=coarse)
        assert [c.n for c in grids] == [2000]
        other = integrate(DEGENERATE, pulse, IntegrationConfig(0.0, 2 * math.pi, step=0.01))
        with pytest.raises(ValueError, match="coarse trajectory"):
            step_halving_error(DEGENERATE, pulse, cfg, coarse=other)


def max_amplitude_difference(a, b) -> float:
    return max(float(np.max(np.abs(a.a1 - b.a1))), float(np.max(np.abs(a.a2 - b.a2))))


class TestKernelMatchesScalarLoop:
    """The step-matrix kernel against the one-step-at-a-time RK4 oracle.

    Step counts straddle the block padding (16, 17) and the edges of the
    march's chunks; RK4 arithmetic in another order agrees to rounding.
    tests/test_periodic.py crosses the chunk edges on a grid that misses the
    period too.
    """

    H = 2 * math.pi / 1000

    @pytest.mark.parametrize("omega21", [0.0, 0.01, 0.7])
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 15, 16, 17, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK,
              2 * _CHUNK + 1, 4 * _CHUNK + 1, 25000]
    )
    def test_cosine(self, n, omega21):
        atom = TwoLevelAtom(omega21=omega21)
        cfg = IntegrationConfig(0.0, n * self.H, step=self.H)
        pulse = normalized_cosine(1.0)
        assert cfg.n == n
        traj = integrate(atom, pulse, cfg)
        ref = rk4_reference(atom, pulse, cfg)
        assert np.array_equal(traj.times, ref.times)
        assert max_amplitude_difference(traj, ref) <= 1e-12

    def test_non_default_initial_state(self):
        atom = TwoLevelAtom(omega21=0.7)
        initial = AmplitudeState(0.6 + 0.0j, 0.8j)
        cfg = IntegrationConfig(0.0, 4097 * self.H, initial=initial, step=self.H)
        traj = integrate(atom, normalized_cosine(1.0), cfg)
        assert (traj.a1[0], traj.a2[0]) == (initial.a1, initial.a2)
        assert max_amplitude_difference(
            traj, rk4_reference(atom, normalized_cosine(1.0), cfg)
        ) <= 1e-12

    def test_gaussian_pulse(self):
        pulse = GaussianApprox(area=math.pi / 2, center=5.0, width=0.3)
        cfg = IntegrationConfig(0.0, 10.0, step=1e-3)
        atom = TwoLevelAtom(omega21=0.01)
        traj = integrate(atom, pulse, cfg)
        assert max_amplitude_difference(traj, rk4_reference(atom, pulse, cfg)) <= 1e-12


@st.composite
def fundamental_led_coefficients(draw):
    """Harmonic 1 with |c1| in [0.5, 1] and up to three of 3, 5, 7 with
    |c| <= 0.25, so few draws cancel the action or exceed the step bound."""
    c1 = draw(st.floats(0.5, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    higher = draw(st.dictionaries(st.sampled_from([3, 5, 7]), st.floats(-0.25, 0.25),
                                  max_size=3))
    return {1: c1, **higher}


@settings(max_examples=60, deadline=None)
@given(coefficients=fundamental_led_coefficients())
def test_random_harmonic_sum_follows_closed_form(coefficients):
    """At omega21 = 0, P2 = sin^2 A(t) for any transfer-normalized pulse."""
    omega = 1.0
    try:
        pulse = normalize_for_transfer(
            HarmonicSum(omega, tuple(coefficients.items())), math.pi / (2 * omega)
        )
    except ValueError:
        assume(False)
    cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period,
                                       steps_per_period=1000)
    h = 2 * math.pi / omega / 1000
    grid = np.linspace(0.0, 2 * math.pi / omega, 2001)
    # The plain cosine sits at max|V| h = pi^2/1000, about 0.01.
    assume(float(np.max(np.abs(pulse.value(grid)))) * h <= 0.02)
    traj = integrate(DEGENERATE, pulse, cfg)
    closed_form = np.sin(pulse.action(traj.times)) ** 2
    assert float(np.max(np.abs(traj.p2 - closed_form))) <= 1e-8


@st.composite
def convergence_cases(draw):
    """A transfer-normalized harmonic sum over one period or a Gaussian kick
    over ten widths, a splitting up to the pulse's peak coupling, and that
    peak coupling."""
    if draw(st.booleans()):
        omega = draw(st.floats(0.5, 2.0))
        coefficients = draw(st.dictionaries(
            st.sampled_from([1, 3, 5, 7]), st.floats(-1.0, 1.0), min_size=1, max_size=4))
        try:
            pulse = normalize_for_transfer(
                HarmonicSum(omega, tuple(coefficients.items())), math.pi / (2 * omega))
        except ValueError:
            assume(False)
        span = 2 * math.pi / omega
        v_max = float(np.max(np.abs(pulse.value(np.linspace(0.0, span, 2001)))))
        # Near-cancelling shapes normalize to huge couplings and grids.
        assume(v_max <= 10 * omega)
    else:
        width = draw(st.floats(0.1, 2.0))
        area = draw(st.floats(0.5, 4.0))
        pulse = GaussianApprox(area=area, center=5 * width, width=width)
        span = 10 * width
        v_max = area / (width * math.sqrt(2 * math.pi))
    return pulse, span, draw(st.floats(0.0, 1.0)) * v_max, v_max


@settings(max_examples=30, deadline=None)
@given(case=convergence_cases())
def test_measured_fourth_order_convergence(case):
    """The error against a 16x-finer RK4 falls 16 +- 3 per halving over three
    halvings, and step_halving_error is within a factor 2 of the coarse error.

    With the reference at twice the finest grid, the last ratio reads
    16 (255/256) / (15/16) = 17.0 instead of 16.
    """
    pulse, span, omega21, v_max = case
    atom = TwoLevelAtom(omega21=omega21)
    # max |V| h = 0.03 on the coarsest grid: fine enough for the h^4 term to
    # dominate, coarse enough to keep the finest error (about 1e-12) far
    # above rounding.
    n = math.ceil(v_max * span / 0.03)

    def run(refinement):
        cfg = IntegrationConfig(0.0, span, step=span / (refinement * n))
        return cfg, integrate(atom, pulse, cfg)

    _, reference = run(16)
    errors = []
    for refinement in (1, 2, 4, 8):
        _, traj = run(refinement)
        stride = 16 // refinement
        errors.append(max(float(np.max(np.abs(traj.a1 - reference.a1[::stride]))),
                          float(np.max(np.abs(traj.a2 - reference.a2[::stride])))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 13.0 <= coarse / fine <= 19.0, errors
    cfg, coarse_traj = run(1)
    estimate = step_halving_error(atom, pulse, cfg, coarse=coarse_traj)
    assert 0.5 * errors[0] <= estimate <= 2.0 * errors[0]


def test_kernel_memory_is_bounded_per_step():
    """Peak traced allocation of a 2*10^5-step run stays at or below 60 B/step,
    on 200 periods of a cosine and on a Gaussian."""
    n = 200_000
    cosine = normalized_cosine(1.0)
    for pulse, cfg in [
        (cosine, IntegrationConfig.per_period(0.0, n * 2 * math.pi / 1000, cosine.period,
                                              steps_per_period=1000)),
        (GaussianApprox(area=math.pi / 2, center=5.0, width=0.3),
         IntegrationConfig(0.0, 10.0, step=5e-5)),
    ]:
        assert cfg.n == n
        tracemalloc.start()
        try:
            traj = integrate(DEGENERATE, pulse, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == n + 1
        assert peak / n <= 60


class TestMaxPopulationDeviation:
    def _traj(self):
        pulse = normalized_cosine(1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period)
        return integrate(DEGENERATE, pulse, cfg)

    def test_self_comparison_is_zero(self):
        traj = self._traj()
        p2 = traj.p2

        def ref(t):
            i = int(np.argmin(np.abs(traj.times - t)))
            return 1.0 - p2[i], p2[i]

        assert max_population_deviation(traj, ref, (0.0, 2 * math.pi)) == 0.0

    def test_degenerate_run_close_to_analytic(self):
        traj = self._traj()
        dev = max_population_deviation(
            traj, lambda t: transfer_populations(1.0, t), (0.0, 2 * math.pi)
        )
        assert dev <= 1e-8

    def test_rejects_window_outside_span(self):
        traj = self._traj()
        with pytest.raises(ValueError):
            max_population_deviation(
                traj, lambda t: (1.0, 0.0), (0.0, 100.0)
            )

    def test_rejects_reversed_window(self):
        traj = self._traj()
        with pytest.raises(ValueError):
            max_population_deviation(traj, lambda t: (1.0, 0.0), (2.0, 1.0))


class TestFiniteSplittingDeviations:
    """Integrated dynamics versus the degenerate-limit curve near the peak."""

    @staticmethod
    def deviation_near_peak(ratio: float) -> float:
        omega = 1.0
        atom = TwoLevelAtom(omega21=omega / ratio)
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period)
        traj = integrate(atom, pulse, cfg)
        t0 = math.pi / (2 * omega)
        quarter = math.pi / (2 * omega)
        return max_population_deviation(
            traj, lambda t: transfer_populations(omega, t), (t0 - quarter, t0 + quarter)
        )

    def test_ratio_ten_below_one_percent(self):
        assert self.deviation_near_peak(10.0) < 0.01

    def test_ratio_hundred_near_one_basis_point(self):
        assert self.deviation_near_peak(100.0) <= 2e-4


class TestPopulatedWindow:
    def test_full_span_when_budget_is_one(self):
        pulse = normalized_cosine(1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period)
        traj = integrate(DEGENERATE, pulse, cfg)
        assert populated_window(traj, 1.0) == pytest.approx(2 * math.pi)

    def test_threshold_never_reached(self):
        # chi/omega = 0.9 * pi/2 caps P2 at sin^2(0.45 pi) ~ 0.9755.
        pulse = Cosine(chi=0.9 * 0.5 * math.pi, omega=1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period)
        traj = integrate(DEGENERATE, pulse, cfg)
        with pytest.raises(ValueError):
            populated_window(traj, 0.01)

    def test_rejects_bad_budget(self):
        pulse = normalized_cosine(1.0)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi, pulse.period)
        traj = integrate(DEGENERATE, pulse, cfg)
        with pytest.raises(ValueError):
            populated_window(traj, 0.0)

    def test_design_round_trip(self):
        request = DesignRequest(t_s=50.0, p_cr=1e-4)
        omega = design_frequency(request)
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period)
        traj = integrate(DEGENERATE, pulse, cfg)
        measured = populated_window(traj, request.p_cr)
        assert abs(measured - request.t_s) <= 0.2 * request.t_s

    def test_matches_quartic_window_prediction(self):
        omega = 1.0
        p_cr = 1e-3
        pulse = normalized_cosine(omega)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period)
        traj = integrate(DEGENERATE, pulse, cfg)
        predicted = 2.0 * (16.0 * p_cr / math.pi**2) ** 0.25 / omega
        assert populated_window(traj, p_cr) == pytest.approx(predicted, rel=0.05)


@st.composite
def p2_curves(draw):
    """A strictly increasing grid of 1..40 points and P2 values on it, often
    exactly 1 so that runs above threshold are common and touch the ends."""
    n = draw(st.integers(1, 40))
    start = draw(st.floats(-10.0, 10.0))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    p2 = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.just(1.0)), min_size=n, max_size=n))
    return np.cumsum([start] + steps), np.array(p2)


@settings(max_examples=300, deadline=None)
@given(curve=p2_curves(), p_cr=st.floats(1e-6, 1.0))
@example(curve=(np.arange(6.0), np.array([1.0, 0.2, 1.0, 0.99, 0.1, 1.0])), p_cr=0.05)
@example(curve=(np.arange(4.0), np.array([1.0, 1.0, 1.0, 1.0])), p_cr=0.5)
def test_populated_window_matches_loop_reference(curve, p_cr):
    """The array interpolation gives the run-by-run loop's width bit for bit."""
    times, p2 = curve
    assume(np.all(np.diff(times) > 0.0))
    traj = SimpleNamespace(times=times, p2=p2)
    try:
        expected = populated_window_reference(traj, p_cr)
    except ValueError:
        with pytest.raises(ValueError, match="never reaches"):
            populated_window(traj, p_cr)
        return
    assert populated_window(traj, p_cr) == expected


@st.composite
def p2_row_sets(draw):
    """A strictly increasing grid of 1..40 points and 1..6 P2 rows on it.

    Values are often exactly 1 or 0, so rows hold several runs, runs of one
    point and runs touching either end; a row of values below threshold
    never reaches it."""
    n = draw(st.integers(1, 40))
    start = draw(st.floats(-10.0, 10.0))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    value = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=6))
    return np.cumsum([start] + steps), np.array(rows)


@settings(max_examples=300, deadline=None)
@given(curves=p2_row_sets(), p_cr=st.floats(1e-6, 1.0))
@example(curves=(np.arange(6.0), np.array([[1.0, 0.2, 1.0, 0.99, 0.1, 1.0],
                                           [0.1, 1.0, 0.1, 1.0, 0.0, 0.1],
                                           [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                                           [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])), p_cr=0.05)
def test_populated_windows_match_each_row_alone(curves, p_cr):
    """Every row's width is its populated_window and the loop's, bit for
    bit; a row that never reaches threshold has width 0.0."""
    times, p2 = curves
    assume(np.all(np.diff(times) > 0.0))
    widths = populated_windows(times, p2, p_cr)
    assert widths.shape == (len(p2),)
    for row, width in zip(p2, widths.tolist()):
        traj = SimpleNamespace(times=times, p2=row)
        try:
            expected = populated_window_reference(traj, p_cr)
        except ValueError:
            assert width == 0.0
            with pytest.raises(ValueError, match="never reaches"):
                populated_window(traj, p_cr)
            continue
        assert repr(width) == repr(populated_window(traj, p_cr)) == repr(expected)


class TestDeltaPulseLimit:
    def test_post_pulse_transfer_improves_as_width_shrinks(self):
        span = 10.0
        post = []
        for width in (0.3, 0.1, 0.03, 0.01):
            pulse = GaussianApprox(area=math.pi / 2, center=5.0, width=width)
            cfg = IntegrationConfig(0.0, span, step=width / 200.0)
            traj = integrate(DEGENERATE, pulse, cfg)
            post.append(float(traj.p2[-1]))
        assert all(b >= a - 1e-12 for a, b in zip(post, post[1:]))
        assert post[-1] >= 0.9999

    def test_sharp_kick_inverts_population(self):
        span = 10.0
        width = 1e-3 * span
        pulse = GaussianApprox(area=math.pi / 2, center=5.0, width=width)
        cfg = IntegrationConfig(0.0, span, step=5e-5)
        traj = integrate(DEGENERATE, pulse, cfg)
        before = traj.times <= 5.0 - 5 * width
        after = traj.times >= 5.0 + 5 * width
        assert float(np.max(traj.p2[before])) <= 1e-4
        assert float(np.min(traj.p2[after])) >= 0.9999
