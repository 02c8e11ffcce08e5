"""Transfer normalization, flatness scoring, and the genetic optimizer."""
import math
import warnings

import numpy as np
import pytest

from twolevel import pulses
from twolevel.core import Cosine, GaussianApprox, HarmonicSum, TwoLevelAtom, action
from twolevel.integrator import IntegrationConfig, integrate, populated_window
from twolevel.pulses import (
    MAX_GENERATIONS,
    MAX_POPULATION,
    MODEL_RANKING_MIN_RATIO,
    OptimizerConfig,
    ShapingObjective,
    flatness_order,
    normalize_for_transfer,
    optimize_pulse,
    ranks_on_model,
    run_optimizer,
    second_derivative_nulled_pulse,
)

from _oracles import action_by_quadrature

DEGENERATE = TwoLevelAtom(omega21=0.0, dipole_projection=-3.0)


def cosine_baseline_window(omega: float, p_cr: float) -> float:
    pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
    cfg = IntegrationConfig(0.0, 2 * math.pi / omega)
    return populated_window(integrate(DEGENERATE, pulse, cfg), p_cr)


class TestNormalizeForTransfer:
    def test_unit_cosine(self):
        got = normalize_for_transfer(Cosine(chi=1.0, omega=1.0), math.pi / 2)
        assert got == Cosine(chi=math.pi / 2, omega=1.0)

    def test_idempotent(self):
        pulse = Cosine(chi=math.pi / 2, omega=1.0)
        assert normalize_for_transfer(pulse, math.pi / 2) == pulse

    def test_zero_action_rejected(self):
        # At a full half period the cosine action integrates to zero.
        with pytest.raises(ValueError):
            normalize_for_transfer(Cosine(chi=1.0, omega=1.0), math.pi)

    def test_harmonic_sum_scaled_to_half_pi(self):
        omega = 1.3
        t_peak = math.pi / (2 * omega)
        raw = HarmonicSum(omega=omega, coefficients=((1, 0.8), (3, 0.5)))
        scaled = normalize_for_transfer(raw, t_peak)
        assert abs(float(action(scaled, t_peak))) == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(action_by_quadrature(scaled, t_peak)) == pytest.approx(
            math.pi / 2, abs=1e-9
        )
        # Same shape: coefficients share one scale factor.
        ratios = [s / r for (_, r), (_, s) in zip(raw.coefficients, scaled.coefficients)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    def test_gaussian_scaled_by_area(self):
        pulse = GaussianApprox(area=2.0, center=3.0, width=0.2)
        scaled = normalize_for_transfer(pulse, 10.0)
        assert scaled.area == pytest.approx(math.pi / 2, rel=1e-12)

    def test_sign_preserved(self):
        got = normalize_for_transfer(Cosine(chi=-1.0, omega=1.0), math.pi / 2)
        assert got.chi == pytest.approx(-math.pi / 2, rel=1e-15)


class TestFlatnessOrder:
    def test_normalized_cosine_scores_four(self):
        omega = 1.4
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        assert flatness_order(pulse, math.pi / (2 * omega)) == 4

    def test_generic_point_scores_one(self):
        pulse = GaussianApprox(area=math.pi / 2, center=5.0, width=0.1)
        assert flatness_order(pulse, 5.05) == 1

    def test_nulled_two_harmonic_pulse(self):
        omega = 1.0
        pulse = second_derivative_nulled_pulse(omega)
        order = flatness_order(pulse, math.pi / (2 * omega))
        assert order >= 6
        # For odd-harmonic sums every odd action derivative already vanishes
        # at the peak, so nulling V' pushes the first survivor to order 8.
        assert order == 8

    def test_nulled_pulse_coefficients(self):
        pulse = second_derivative_nulled_pulse(2.0)
        (k1, c1), (k3, c3) = pulse.coefficients
        assert (k1, k3) == (1, 3)
        assert c1 == pytest.approx(9 * math.pi / 16 * 2.0, rel=1e-12)
        assert c3 == pytest.approx(3 * math.pi / 16 * 2.0, rel=1e-12)

    def test_n_max_bounds(self):
        with pytest.raises(ValueError):
            flatness_order(Cosine(chi=1.0, omega=1.0), 0.3, n_max=11)

    def test_nulled_pulse_widens_window(self):
        omega, p_cr = 1.0, 1e-4
        pulse = second_derivative_nulled_pulse(omega)
        cfg = IntegrationConfig(0.0, 2 * math.pi / omega)
        nulled = populated_window(integrate(DEGENERATE, pulse, cfg), p_cr)
        assert nulled > cosine_baseline_window(omega, p_cr)


class TestOptimizerConfigValidation:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            OptimizerConfig(population_size=3)

    def test_rejects_zero_generations(self):
        with pytest.raises(ValueError):
            OptimizerConfig(generations=0)

    @pytest.mark.parametrize(
        "field, cap", [("population_size", MAX_POPULATION), ("generations", MAX_GENERATIONS)]
    )
    def test_size_caps(self, field, cap):
        assert getattr(OptimizerConfig(**{field: cap}), field) == cap
        with pytest.raises(ValueError, match=f"<= {cap}"):
            OptimizerConfig(**{field: cap + 1})

    @pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -0.1])
    def test_rejects_nonfinite_or_nonpositive_mutation_scale(self, scale):
        with pytest.raises(ValueError, match="mutation_scale"):
            OptimizerConfig(mutation_scale=scale)

    def test_rejects_bad_harmonic_count(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n_harmonics=0)
        with pytest.raises(ValueError):
            OptimizerConfig(n_harmonics=9)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            ShapingObjective(p_cr=0.0, omega=1.0, atom=DEGENERATE)
        with pytest.raises(ValueError):
            ShapingObjective(p_cr=1e-3, omega=1.0, atom=DEGENERATE, horizon=0.5)


class TestOptimizer:
    OBJECTIVE = ShapingObjective(p_cr=1e-4, omega=1.0, atom=DEGENERATE, horizon=1.0)

    def test_single_harmonic_recovers_cosine(self):
        config = OptimizerConfig(
            population_size=4, generations=2, mutation_scale=0.1, seed=11, n_harmonics=1
        )
        pulse, window = optimize_pulse(self.OBJECTIVE, config)
        assert isinstance(pulse, HarmonicSum)
        ((k, chi),) = pulse.coefficients
        assert k == 1
        assert abs(chi) == pytest.approx(0.5 * math.pi, rel=1e-12)
        baseline = cosine_baseline_window(1.0, self.OBJECTIVE.p_cr)
        assert window == pytest.approx(baseline, rel=1e-9)

    def test_fixed_seed_is_bit_reproducible(self):
        config = OptimizerConfig(
            population_size=6, generations=3, mutation_scale=0.2, seed=42, n_harmonics=2
        )
        first = run_optimizer(self.OBJECTIVE, config)
        second = run_optimizer(self.OBJECTIVE, config)
        assert first == second

    def test_history_monotone_and_candidates_normalized(self):
        config = OptimizerConfig(
            population_size=6, generations=4, mutation_scale=0.3, seed=5, n_harmonics=3
        )
        result = run_optimizer(self.OBJECTIVE, config)
        assert len(result.history) == config.generations + 1
        assert all(b >= a for a, b in zip(result.history, result.history[1:]))
        t_peak = math.pi / 2
        assert abs(float(action(result.best_pulse, t_peak))) == pytest.approx(
            math.pi / 2, abs=1e-9
        )

    def test_rk4_referee_agrees_with_ranking_at_zero_splitting(self):
        # At omega21 = 0 the ranking measure is the exact sin^2 A, so the
        # winner's RK4 window differs from it only by RK4's grid error.
        config = OptimizerConfig(
            population_size=6, generations=3, mutation_scale=0.3, seed=5, n_harmonics=3
        )
        result = run_optimizer(self.OBJECTIVE, config)
        rk4 = integrate(DEGENERATE, result.best_pulse, IntegrationConfig(0.0, 2 * math.pi))
        assert result.measured_window == populated_window(rk4, self.OBJECTIVE.p_cr)
        assert result.measured_window == pytest.approx(result.best_window, rel=1e-6)
        assert result.best_window == result.history[-1]

    def test_never_worse_than_cosine_baseline(self):
        config = OptimizerConfig(
            population_size=8, generations=4, mutation_scale=0.25, seed=7, n_harmonics=3
        )
        _, window = optimize_pulse(self.OBJECTIVE, config)
        baseline = cosine_baseline_window(1.0, self.OBJECTIVE.p_cr)
        assert window >= baseline - 1e-12

    @pytest.mark.parametrize("ratio, horizon, p_cr, model", [
        (math.inf, 1.0, 1e-8, True),
        (MODEL_RANKING_MIN_RATIO, 1.0, 1e-2, True),
        (MODEL_RANKING_MIN_RATIO, 2.0, 1e-2, False),
        (2 * MODEL_RANKING_MIN_RATIO, 2.0, 1e-2, True),
        # p_cr twice and half MODEL_RANKING_MIN_BUDGET (omega21/omega)^2.
        (MODEL_RANKING_MIN_RATIO, 1.0, 2e-3, True),
        (MODEL_RANKING_MIN_RATIO, 1.0, 5e-4, False),
        (30.0, 1.0, 1e-2, False),
    ])
    def test_ranking_measure_follows_splitting(self, ratio, horizon, p_cr, model, monkeypatch):
        # Weak splitting against the drive and the budget ranks on the model
        # and integrates only the winner; otherwise every candidate is integrated.
        calls = []
        monkeypatch.setattr(pulses, "integrate", lambda *a: calls.append(a) or integrate(*a))
        atom = TwoLevelAtom(omega21=1.0 / ratio, dipole_projection=-3.0)
        objective = ShapingObjective(p_cr=p_cr, omega=1.0, atom=atom, horizon=horizon)
        assert ranks_on_model(objective) == model
        config = OptimizerConfig(population_size=4, generations=1, seed=2, n_harmonics=2)
        result = run_optimizer(objective, config)
        assert (len(calls) == 1) == model
        if not model:
            assert result.measured_window == result.best_window

    @pytest.mark.parametrize("ratio, p_cr, n_harmonics, generations, seed, rk4_window", [
        (30.0, 1e-4, 3, 40, 1, 0.6619),
        (30.0, 1e-4, 3, 40, 3, 0.6451),
        (100.0, 1e-5, 2, 20, 11, 0.6590),
        (100.0, 1e-5, 2, 20, 14, 0.6616),
    ])
    def test_small_budget_keeps_rk4_ranking(self, ratio, p_cr, n_harmonics, generations,
                                            seed, rk4_window):
        # Ranked on the model, these runs picked winners that measured 0.38,
        # 0.39, 0.40 and 0.40 on RK4; ranked on RK4 they keep the windows the
        # all-RK4 search found.
        atom = TwoLevelAtom(omega21=1.0 / ratio, dipole_projection=-3.0)
        objective = ShapingObjective(p_cr=p_cr, omega=1.0, atom=atom)
        config = OptimizerConfig(n_harmonics=n_harmonics, generations=generations, seed=seed)
        result = run_optimizer(objective, config)
        assert result.measured_window == result.best_window
        assert result.measured_window == pytest.approx(rk4_window, abs=1e-4)

    def test_blown_up_rk4_trajectory_scores_zero(self):
        # This near-cancelling genome normalizes to about (179.2, 542.2), with
        # max|V| h of about 4.5 on the 1000-step grid.  RK4's states stay
        # finite but its norm grows past 1e200, and its P2 reads above
        # 1 - p_cr over the whole period.
        atom = TwoLevelAtom(omega21=0.01, dipole_projection=-3.0)
        objective = ShapingObjective(p_cr=1e-3, omega=1.0, atom=atom)
        grid = IntegrationConfig(0.0, 2 * math.pi)
        genome = np.array([178.7, 540.8])
        pulse = normalize_for_transfer(
            HarmonicSum(omega=1.0, coefficients=((1, 178.7), (3, 540.8))), math.pi / 2)
        with np.errstate(over="ignore"):
            trajectory = integrate(atom, pulse, grid)
            assert trajectory.norm_defect().max() > 1e200
            assert populated_window(trajectory, objective.p_cr) > 0.99 * 2 * math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = pulses._evaluate(genome, (1, 3), objective, math.pi / 2,
                                     lambda p: pulses._rk4_populations(atom, p, grid))
        assert score == (0.0, None, math.inf)

    def test_nonfinite_model_scores_zero_without_warnings(self, monkeypatch):
        # With the model forced, omega21^2 overflows, so every candidate's
        # model populations are inf or nan; each scores 0 and the search ends
        # in the usual error.
        monkeypatch.setattr(pulses, "ranks_on_model", lambda objective: True)
        atom = TwoLevelAtom(omega21=1e300, dipole_projection=-3.0)
        objective = ShapingObjective(p_cr=1e-4, omega=1.0, atom=atom)
        config = OptimizerConfig(population_size=4, generations=1, seed=1, n_harmonics=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no candidate"):
                run_optimizer(objective, config)

    def test_unreachable_budget_signaled(self):
        # A splitting as large as the drive frequency leaks far more than
        # p_cr = 1e-8, so no candidate can reach the threshold.
        atom = TwoLevelAtom(omega21=1.0, dipole_projection=-3.0)
        objective = ShapingObjective(p_cr=1e-8, omega=1.0, atom=atom, horizon=1.0)
        config = OptimizerConfig(
            population_size=4, generations=1, mutation_scale=0.1, seed=1, n_harmonics=2
        )
        with pytest.raises(ValueError, match="no candidate"):
            run_optimizer(objective, config)
