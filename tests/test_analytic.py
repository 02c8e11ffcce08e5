"""Closed-form solutions, expansions, design rule, and exact derivatives."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import struve

import twolevel.analytic
from twolevel.analytic import (
    _cos_derivatives,
    DesignRequest,
    degenerate_amplitudes,
    design_frequency,
    detuning_sensitivity,
    first_order_from_action,
    leakage_at_peak,
    p2_derivatives,
    populations_from_action,
    quartic_peak_approx,
    transfer_cosine,
    transfer_peak,
    transfer_populations,
)
from twolevel.core import Cosine, GaussianApprox, HarmonicSum, TwoLevelAtom, action
from twolevel.hydrogen import dipole_2s2p, field_for_transfer
from twolevel.integrator import IntegrationConfig, integrate, populated_window, populated_windows
from twolevel.pulses import normalize_for_transfer, second_derivative_nulled_pulse

from _oracles import central_derivative, p2_derivative_faa_di_bruno

# Frozen independently: 0.25 * (pi/2)**6 * 0.1**2 evaluated by hand arithmetic.
LEAKAGE_AT_RATIO_TENTH = 0.03755426537403533
# Frozen independently: 1 - pi**2/16 * 0.2**4.
QUARTIC_AT_POINT_TWO = 0.9990130395598911


class TestDegenerateAmplitudes:
    def test_initial_condition(self):
        for chi, omega in [(0.3, 1.0), (2.0, 0.5), (-1.0, 3.0)]:
            state = degenerate_amplitudes(chi, omega, 0.0)
            assert (abs(state.a1) ** 2, abs(state.a2) ** 2) == (1.0, 0.0)

    def test_complete_transfer_at_peak(self):
        omega = 1.3
        state = degenerate_amplitudes(0.5 * math.pi * omega, omega, math.pi / (2 * omega))
        p2 = abs(state.a2) ** 2
        assert p2 == pytest.approx(1.0, abs=1e-15)

    def test_half_transfer_at_sixth_period_point(self):
        omega = 2.0
        state = degenerate_amplitudes(0.5 * math.pi * omega, omega, math.pi / (6 * omega))
        p2 = abs(state.a2) ** 2
        assert p2 == pytest.approx(0.5, rel=1e-12)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            degenerate_amplitudes(1.0, 0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        chi=st.floats(-10.0, 10.0),
        omega=st.floats(0.1, 10.0),
        t=st.floats(0.0, 50.0),
    )
    def test_exact_unit_norm(self, chi, omega, t):
        state = degenerate_amplitudes(chi, omega, t)
        assert state.norm_defect <= 1e-15


class TestTransferOwner:
    # The oracles, perfbench and the frozen outputs spell the rule out
    # themselves, so each spelling must give the owner's double bit for bit.
    @settings(max_examples=300, deadline=None)
    @given(omega=st.floats(min_value=1e-12, max_value=1e3))
    def test_old_spellings_give_the_same_bits(self, omega):
        chi = transfer_cosine(omega).coefficients[0][1]
        assert chi == 0.5 * math.pi * omega
        # E0 is computed from chi itself; E0 * |d| need not round back to chi.
        assert field_for_transfer(omega).e0 == chi / abs(dipole_2s2p())
        t_peak = transfer_peak(omega)
        assert t_peak == 0.25 * transfer_cosine(omega).period
        assert t_peak == 0.5 * math.pi / omega
        assert t_peak == math.pi / (2 * omega)


class TestTransferPopulations:
    def test_peak(self):
        p1, p2 = transfer_populations(1.7, math.pi / (2 * 1.7))
        assert p2 == pytest.approx(1.0, abs=1e-15)
        assert p1 == pytest.approx(0.0, abs=1e-15)

    def test_return_to_start(self):
        p1, p2 = transfer_populations(1.7, math.pi / 1.7)
        assert p1 == pytest.approx(1.0, abs=1e-15)
        assert p2 == pytest.approx(0.0, abs=1e-30)

    def test_period_is_half_field_period(self):
        omega = 0.9
        t = np.linspace(0.0, 4.0, 57)
        _, p2_a = transfer_populations(omega, t)
        _, p2_b = transfer_populations(omega, t + math.pi / omega)
        np.testing.assert_allclose(p2_a, p2_b, atol=1e-12)

    def test_peak_membership_on_comb(self):
        omega = 1.1
        for k in range(-3, 4):
            t = math.pi / (2 * omega) + k * math.pi / omega
            _, p2 = transfer_populations(omega, t)
            assert p2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            transfer_populations(-1.0, 0.0)


class TestQuarticPeakApprox:
    def test_peak_value(self):
        assert quartic_peak_approx(2.0, 0.0) == 1.0

    def test_frozen_point(self):
        assert quartic_peak_approx(1.0, 0.2) == pytest.approx(QUARTIC_AT_POINT_TWO, rel=1e-14)

    def test_sixth_order_residual_ratio(self):
        omega = 1.0
        t0 = math.pi / (2 * omega)

        def residual(tau):
            _, p2 = transfer_populations(omega, t0 + tau)
            return abs(p2 - quartic_peak_approx(omega, tau))

        ratio = residual(0.2) / residual(0.1)
        assert 32.0 < ratio < 128.0

    def test_series_consistency_bound(self):
        # max |exact - quartic| / (omega tau)^6 stays below 1 out to
        # omega tau = 0.3 (the true tau^6 coefficient is pi^2/96 ~ 0.103).
        # Below omega tau ~ 0.02 the residual drops under double-precision
        # noise on P2, so the fitted-coefficient check starts there.
        omega = 1.3
        t0 = math.pi / (2 * omega)
        tau = np.linspace(0.02 / omega, 0.3 / omega, 400)
        _, p2 = transfer_populations(omega, t0 + tau)
        resid = np.abs(p2 - quartic_peak_approx(omega, tau))
        assert np.max(resid / (omega * tau) ** 6) <= 1.0
        tiny_tau = np.linspace(0.0, 0.02 / omega, 50)
        _, p2_tiny = transfer_populations(omega, t0 + tiny_tau)
        resid_tiny = np.abs(p2_tiny - quartic_peak_approx(omega, tiny_tau))
        assert np.max(resid_tiny - (omega * tiny_tau) ** 6) <= 1e-15


class TestDesignFrequency:
    def test_inverts_quartic_at_budget(self):
        # p_cr chosen so that the half-window satisfies omega * t_s/2 = 0.1.
        p_cr = math.pi**2 / 16 * 1e-4
        t_s = 7.3
        omega = design_frequency(DesignRequest(t_s=t_s, p_cr=p_cr))
        assert omega * t_s == pytest.approx(0.2, rel=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t_s = float(rng.uniform(1.0, 500.0))
            p_cr = float(10.0 ** rng.uniform(-6.0, -0.5))
            request = DesignRequest(t_s=t_s, p_cr=p_cr)
            omega = design_frequency(request)
            leak = 1.0 - quartic_peak_approx(omega, t_s / 2.0)
            assert leak == pytest.approx(p_cr, rel=1e-12)

    def test_doubling_duration_halves_frequency(self):
        a = design_frequency(DesignRequest(t_s=10.0, p_cr=1e-3))
        b = design_frequency(DesignRequest(t_s=20.0, p_cr=1e-3))
        assert a == pytest.approx(2.0 * b, rel=1e-15)

    def test_frequency_grows_with_budget(self):
        low = design_frequency(DesignRequest(t_s=10.0, p_cr=1e-4))
        high = design_frequency(DesignRequest(t_s=10.0, p_cr=1e-2))
        assert high > low
        assert high / low == pytest.approx((1e-2 / 1e-4) ** 0.25, rel=1e-12)

    def test_overflow_is_value_error(self):
        # 1e-320 a.u. is subnormal, and 1/t_s overflows a double.
        with pytest.raises(ValueError, match="the designed frequency is not a finite double"):
            design_frequency(DesignRequest(t_s=1e-320, p_cr=0.5))

    def test_request_validation(self):
        with pytest.raises(ValueError):
            DesignRequest(t_s=0.0, p_cr=0.5)
        with pytest.raises(ValueError):
            DesignRequest(t_s=1.0, p_cr=0.0)
        with pytest.raises(ValueError):
            DesignRequest(t_s=1.0, p_cr=1.0)


class TestLeakage:
    def test_peak_value_frozen(self):
        assert leakage_at_peak(0.1, 1.0) == pytest.approx(LEAKAGE_AT_RATIO_TENTH, rel=1e-12)

    def test_degenerate_peak(self):
        assert leakage_at_peak(0.0, 1.0) == 0.0

    def test_quadratic_scaling(self):
        ratio = leakage_at_peak(1.0, 100.0) / leakage_at_peak(1.0, 10.0)
        assert ratio == pytest.approx(0.01, rel=1e-12)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            leakage_at_peak(0.1, 0.0)

    # The ratio omega21/omega overflows in its square, or in the quotient.
    @pytest.mark.parametrize("omega21, omega", [(1.0, 1e-200), (1e200, 1e-200)])
    def test_peak_overflow_is_value_error(self, omega21, omega):
        with pytest.raises(ValueError, match="not a finite double"):
            leakage_at_peak(omega21, omega)


class TestPopulationsFromAction:
    def test_half_pi_action_transfers_completely(self):
        pulse = GaussianApprox(area=math.pi / 2, center=5.0, width=0.1)
        p1, p2 = populations_from_action(pulse, 10.0)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(0.0, abs=1e-12)

    def test_zero_action(self):
        pulse = Cosine(chi=1.0, omega=1.0)
        assert populations_from_action(pulse, 0.0) == (1.0, 0.0)

    @pytest.mark.parametrize("pulse", [
        Cosine(chi=0.5 * math.pi, omega=1.0),
        GaussianApprox(area=-1.5, center=2.0, width=0.3),
    ], ids=["cosine", "gaussian"])
    def test_state_prepared_at_t0(self, pulse):
        t = np.linspace(-1.0, 4.0, 51)
        for t0 in (-1.0, 0.5, 2.0):
            assert populations_from_action(pulse, t0, t0) == (1.0, 0.0)
            shifted = np.sin(action(pulse, t) - action(pulse, t0)) ** 2
            assert np.max(np.abs(populations_from_action(pulse, t, t0)[1] - shifted)) <= 1e-15
        # A(0) is +-0.0, so preparing at t0 = 0 moves no bit.
        assert populations_from_action(pulse, t)[1].tobytes() == (
            np.sin(action(pulse, t)) ** 2).tobytes()

    def test_reduces_to_transfer_populations(self):
        omega = 0.8
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        for t in np.linspace(0.0, 4 * math.pi / omega, 37):
            expected = transfer_populations(omega, float(t))
            got = populations_from_action(pulse, float(t))
            assert got[0] == pytest.approx(expected[0], abs=1e-15)
            assert got[1] == pytest.approx(expected[1], abs=1e-15)

    def test_sign_invariance(self):
        # Flipping the drive sign flips the action sign but not populations.
        omega = 1.1
        up = Cosine(chi=0.7, omega=omega)
        down = Cosine(chi=-0.7, omega=omega)
        for t in np.linspace(0.0, 9.0, 23):
            assert populations_from_action(up, float(t)) == pytest.approx(
                populations_from_action(down, float(t))
            )


def rk4_at(pulse, ratio: float, t_end: float):
    """RK4 at 20000 steps per period, omega21 = omega / ratio, from 0 to ``t_end``."""
    atom = TwoLevelAtom(omega21=pulse.omega / ratio)
    return integrate(atom, pulse,
                     IntegrationConfig.per_period(0.0, t_end, pulse.period, steps_per_period=20000))


def assert_peak_leakage_matches_rk4(pulse, ratio: float) -> None:
    """RK4 leakage 1 - P2 at t_peak = pi/(2 omega) within 0.1 (omega21/omega)^2
    relative of the first-order model's."""
    traj = rk4_at(pulse, ratio, 0.5 * math.pi / pulse.omega)
    p1, _ = first_order_from_action(action(pulse, traj.times), pulse.omega / ratio, traj.times)
    measured, predicted = 1.0 - traj.p2[-1], p1[-1]
    assert abs(measured - predicted) <= 0.1 / ratio**2 * predicted


class TestFirstOrderPopulations:
    @pytest.mark.parametrize("pulse", [
        Cosine(chi=0.5 * math.pi, omega=1.0),
        HarmonicSum(omega=1.3, coefficients=((1, 1.2), (3, -0.4), (5, 0.3))),
        GaussianApprox(area=1.5, center=2.0, width=0.3),
    ], ids=["cosine", "harmonic-sum", "gaussian"])
    def test_degenerate_limit_is_sin_squared(self, pulse):
        t = np.linspace(0.0, 5.0, 1001)
        a = action(pulse, t)
        p1, p2 = first_order_from_action(action(pulse, t), 0.0, t)
        assert np.max(np.abs(p2 - np.sin(a) ** 2)) <= 1e-15
        assert np.max(np.abs(p1 - np.cos(a) ** 2)) <= 1e-15

    @pytest.mark.parametrize("t", [np.linspace(0.1, 1.0, 11), np.zeros((2, 3)), np.zeros(1)],
                             ids=["late-start", "2-d", "one-point"])
    def test_rejects_grid_that_does_not_start_at_zero(self, t):
        with pytest.raises(ValueError, match="starting at 0"):
            first_order_from_action(np.zeros_like(t), 0.1, t)

    def test_is_the_one_spelling_of_the_model(self):
        for name in ("ModelPopulations", "first_order_populations"):
            assert not hasattr(twolevel.analytic, name)
            assert name not in twolevel.analytic.__all__

    def test_non_finite_row_leaves_the_next_row_alone(self):
        # The trapezoid pair sums run across row ends; a row of nan must not
        # leak into the start of the next.
        pulse = HarmonicSum(omega=1.0, coefficients=((1, 1.2), (3, 0.4)))
        t = np.linspace(0.0, 2 * math.pi, 1001)
        a = np.stack([np.full_like(t, np.inf), action(pulse, t)])
        with np.errstate(invalid="ignore"):
            rows_p1, rows_p2 = first_order_from_action(a, 0.03, t)
        p1, p2 = first_order_from_action(action(pulse, t), 0.03, t)
        assert np.isnan(rows_p2[0]).all()
        assert rows_p1[1].tobytes() == p1.tobytes()
        assert rows_p2[1].tobytes() == p2.tobytes()

    def test_matches_the_formula_with_quadrature_integrals(self):
        # P1 = cos^2 A + (omega21^2/4) [(t - C) cos A - S sin A]^2, with C and
        # S by adaptive quadrature; the trapezoid sums differ by O(h^2), about
        # 1e-5 relative on this grid.
        pulse = HarmonicSum(omega=1.0, coefficients=((1, 1.4), (3, 0.3)))
        omega21 = 0.3
        t = np.linspace(0.0, 2 * math.pi, 4001)
        p1, p2 = first_order_from_action(action(pulse, t), omega21, t)
        for i in range(0, 4001, 250):
            a = float(action(pulse, t[i]))
            c = quad(lambda x: math.cos(2 * action(pulse, x)), 0.0, t[i], epsabs=1e-13)[0]
            s = quad(lambda x: math.sin(2 * action(pulse, x)), 0.0, t[i], epsabs=1e-13)[0]
            leak = omega21**2 / 4 * ((t[i] - c) * math.cos(a) - s * math.sin(a)) ** 2
            assert p1[i] - math.cos(a) ** 2 == pytest.approx(leak, rel=1e-4, abs=1e-12)
            assert math.sin(a) ** 2 - p2[i] == pytest.approx(leak, rel=1e-4, abs=1e-12)

    def test_cosine_peak_leakage_is_struve_constant(self):
        # S(t_peak) = (pi/2) H_0(pi) / omega (Abramowitz & Stegun 12.1.7).
        omega, omega21 = 2.0, 0.02
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        t = np.linspace(0.0, 0.5 * math.pi / omega, 5001)
        leakage = first_order_from_action(action(pulse, t), omega21, t)[0][-1]
        constant = (0.5 * math.pi * struve(0, math.pi)) ** 2 / 4.0
        assert leakage == pytest.approx(constant * (omega21 / omega) ** 2, rel=1e-6)

    @pytest.mark.parametrize("ratio", [30, 100, 300])
    @pytest.mark.parametrize("pulse", [
        Cosine(chi=0.5 * math.pi, omega=1.0),
        second_derivative_nulled_pulse(1.0),
    ], ids=["cosine", "nulled"])
    def test_peak_leakage_matches_rk4(self, pulse, ratio):
        assert_peak_leakage_matches_rk4(pulse, ratio)

    # Third and fifth harmonics up to 0.15 of the first: the measured
    # coefficient of the model's relative error stays below 0.083 there
    # (0.071 for the cosine); where S(t_peak) nearly vanishes the relative
    # error of a near-zero leakage is no test of the model.
    @settings(max_examples=30, deadline=None)
    @given(c3=st.floats(-0.15, 0.15), c5=st.floats(-0.15, 0.15))
    def test_peak_leakage_matches_rk4_for_harmonic_sums(self, c3, c5):
        pulse = normalize_for_transfer(
            HarmonicSum(omega=1.0, coefficients=((1, 1.0), (3, c3), (5, c5))), 0.5 * math.pi)
        for ratio in (30, 100, 300):
            assert_peak_leakage_matches_rk4(pulse, ratio)

    def test_cosine_window_matches_rk4_at_ratio_100(self):
        pulse = Cosine(chi=0.5 * math.pi, omega=1.0)
        traj = rk4_at(pulse, 100, 2 * math.pi)
        _, p2 = first_order_from_action(action(pulse, traj.times), 0.01, traj.times)
        assert populated_windows(traj.times, p2[None], 1e-3)[0] == pytest.approx(
            populated_window(traj, 1e-3), rel=1e-3)


class TestNthDerivative:
    def test_low_orders_vanish_at_peak(self):
        omega = 1.4
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        t0 = math.pi / (2 * omega)
        for n in (1, 2, 3):
            assert abs(p2_derivatives(pulse, t0, n)[n]) <= 1e-9 * omega**n

    @pytest.mark.parametrize("omega", [1.0, 1.7])
    def test_fourth_derivative_at_peak(self, omega):
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        t0 = math.pi / (2 * omega)
        expected = -1.5 * math.pi**2 * omega**4
        assert p2_derivatives(pulse, t0, 4)[4] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "pulse, tscale",
        [
            (Cosine(chi=0.5 * math.pi * 1.0, omega=1.0), 1.0),
            (HarmonicSum(omega=1.0, coefficients=((1, 0.9), (3, 0.3), (5, -0.12))), 1.0),
            (GaussianApprox(area=1.2, center=3.0, width=0.8), 0.8),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_finite_differences(self, pulse, tscale, n):
        t = 1.234 * tscale
        h = 0.05 * tscale

        def p2_of_t(x):
            return populations_from_action(pulse, x)[1]

        expected = central_derivative(p2_of_t, t, n, h=h, n_points=21)
        got = p2_derivatives(pulse, t, n)[n]
        if abs(got) > 1e-3 * tscale ** (-n):
            assert got == pytest.approx(expected, rel=1e-6)
        else:
            assert abs(got - expected) <= 1e-6 * tscale ** (-n)

    def test_order_bounds(self):
        pulse = Cosine(chi=1.0, omega=1.0)
        assert p2_derivatives(pulse, 0.3, 0).tolist() == [math.sin(action(pulse, 0.3)) ** 2]
        assert len(p2_derivatives(pulse, 0.3, 170)) == 171
        for n in (-1, 171, 10**9):
            with pytest.raises(ValueError):
                p2_derivatives(pulse, 0.0, n)

    def test_orders_past_ten(self):
        nulled = p2_derivatives(second_derivative_nulled_pulse(1.0), 0.5 * math.pi, 20)
        assert nulled[8] == pytest.approx(-13990.16, abs=5e-3)
        assert all(math.isfinite(d) for d in nulled)

    def test_overflow_is_value_error(self):
        with pytest.raises(ValueError):
            p2_derivatives(Cosine(chi=1.0, omega=100.0), 0.1, 170)
        with pytest.raises(ValueError):
            p2_derivatives(GaussianApprox(area=1.0, center=0.0, width=1e-3), 0.0, 170)

    @pytest.mark.parametrize("n", [2.5, 1.9, True, float("inf")])
    def test_non_integral_order_rejected(self, n):
        with pytest.raises(ValueError):
            p2_derivatives(Cosine(chi=1.0, omega=1.0), 0.0, n)

    @pytest.mark.parametrize(
        "pulse",
        [
            Cosine(chi=0.5 * math.pi, omega=1.0),
            HarmonicSum(omega=1.3, coefficients=((1, 0.9), (3, 0.3), (5, -0.12))),
            GaussianApprox(area=1.2, center=3.0, width=0.8),
            second_derivative_nulled_pulse(1.0),
        ],
    )
    def test_matches_faa_di_bruno(self, pulse):
        for t in (0.0, 0.5 * math.pi, 1.234, 2.9, 4.4):
            got = p2_derivatives(pulse, t, 10)
            bound = _cos_derivatives([pulse.derivative_bound(t, r) for r in range(10)],
                                     1.0, 1.0, 1.0)
            for n in range(1, 11):
                ref = p2_derivative_faa_di_bruno(pulse, t, n)
                m_n = 0.5 * bound[n]
                if abs(ref) > 1e-8 * m_n:
                    assert got[n] == pytest.approx(ref, rel=1e-13), (t, n)
                else:
                    assert abs(got[n] - ref) <= 1e-15 * m_n, (t, n)


class TestDetuningSensitivity:
    def test_no_detuning(self):
        assert detuning_sensitivity(0.0) == 1.0

    def test_frozen_point(self):
        assert detuning_sensitivity(0.1) == pytest.approx(0.9900332889206209, rel=1e-14)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_quadratic_form(self, eps):
        assert abs(detuning_sensitivity(eps) - (1.0 - eps**2)) < eps**4

    def test_even_in_epsilon(self):
        assert detuning_sensitivity(0.2) == detuning_sensitivity(-0.2)

    def test_rejects_large_detuning(self):
        with pytest.raises(ValueError):
            detuning_sensitivity(math.pi / 2)
