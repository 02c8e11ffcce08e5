"""Transfer normalization, flatness scoring, and the genetic optimizer."""
import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import pulses
from twolevel.core import (
    Cosine,
    GaussianApprox,
    HarmonicSum,
    TwoLevelAtom,
    action,
    odd_harmonic_action,
)
from twolevel.analytic import first_order_from_action
from twolevel.hydrogen import lamb_shift
from twolevel.integrator import (
    IntegrationConfig,
    IntegrationError,
    integrate,
    populated_window,
    populated_windows,
)
from twolevel.pulses import (
    MAX_GENERATIONS,
    MAX_POPULATION,
    MODEL_RANKING_MIN_RATIO,
    OptimizerConfig,
    ShapingObjective,
    flatness_order,
    normalize_for_transfer,
    ranks_on_model,
    run_optimizer,
    second_derivative_nulled_pulse,
)

from _oracles import (
    _better,
    _normalized,
    action_by_quadrature,
    first_order_reference,
    rk4_reference,
    run_optimizer_reference,
)

DEGENERATE = TwoLevelAtom(omega21=0.0)


def cosine_baseline_window(omega: float, p_cr: float) -> float:
    pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
    cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period)
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
        assert got.coefficients[0][1] == pytest.approx(-math.pi / 2, rel=1e-15)


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
        pulse = Cosine(chi=1.0, omega=1.0)
        assert flatness_order(pulse, 0.3, n_max=20) == 1
        assert flatness_order(pulse, 0.3, n_max=20.0) == 1
        assert flatness_order(second_derivative_nulled_pulse(1.0), 0.5 * math.pi, n_max=20) == 8
        for n_max in (-1, 2.5, True, float("inf"), 171):
            with pytest.raises(ValueError):
                flatness_order(pulse, 0.3, n_max=n_max)

    @pytest.mark.parametrize("omega", [1.0, 2.7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_maximally_flat_pulse_scores_4n(self, n, omega):
        # A(t_peak + u) = sum_k a_k cos(k omega u) over k = 1, 3, .., 2n - 1,
        # with sum_k a_k = pi/2 and sum_k a_k k^(2m) = 0 for m = 1..n-1, so
        # A - pi/2 = O(u^(2n)) and 1 - P2 = O(u^(4n)).
        k = np.arange(1, 2 * n, 2)
        moments = k.astype(float) ** (2 * np.arange(n)[:, None])
        a = np.linalg.solve(moments, np.eye(n)[0] * 0.5 * math.pi)
        pulse = HarmonicSum(omega, tuple(
            (int(kk), float(-ak * kk * omega * (-1) ** (kk // 2))) for kk, ak in zip(k, a)))
        t_peak = 0.5 * math.pi / omega
        assert action(pulse, t_peak) == pytest.approx(0.5 * math.pi, rel=1e-14)
        assert flatness_order(pulse, t_peak, n_max=4 * n + 2) == 4 * n

    def test_nulled_pulse_widens_window(self):
        omega, p_cr = 1.0, 1e-4
        pulse = second_derivative_nulled_pulse(omega)
        cfg = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, pulse.period)
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

    def test_rejects_negative_seed(self):
        # random.Random seeds -1 like 1; two seeds must not give one run.
        assert OptimizerConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            OptimizerConfig(seed=-1)

    def test_numpy_seed_runs_like_its_int(self):
        objective = ShapingObjective(p_cr=1e-3, omega=1.0, atom=DEGENERATE)
        runs = [run_optimizer(objective, OptimizerConfig(population_size=4, generations=1,
                                                         seed=seed, n_harmonics=n))
                for seed, n in ((3, 2), (np.int64(3), np.int64(2)))]
        assert runs[0] == runs[1]

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            ShapingObjective(p_cr=0.0, omega=1.0, atom=DEGENERATE)
        with pytest.raises(ValueError):
            ShapingObjective(p_cr=1e-3, omega=1.0, atom=DEGENERATE, horizon=0.5)
        with pytest.raises(ValueError, match="horizon must be finite"):
            ShapingObjective(p_cr=1e-3, omega=1.0, atom=DEGENERATE, horizon=math.inf)


class TestOptimizer:
    OBJECTIVE = ShapingObjective(p_cr=1e-4, omega=1.0, atom=DEGENERATE, horizon=1.0)

    def test_single_harmonic_recovers_cosine(self):
        config = OptimizerConfig(
            population_size=4, generations=2, mutation_scale=0.1, seed=11, n_harmonics=1
        )
        result = run_optimizer(self.OBJECTIVE, config)
        pulse, window = result.best_pulse, result.measured_window
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
        rk4 = integrate(DEGENERATE, result.best_pulse,
                        IntegrationConfig.per_period(0.0, 2 * math.pi, result.best_pulse.period))
        assert result.measured_window == populated_window(rk4, self.OBJECTIVE.p_cr)
        assert result.measured_window == pytest.approx(result.best_window, rel=1e-6)
        assert result.best_window == result.history[-1]

    def test_never_worse_than_cosine_baseline(self):
        config = OptimizerConfig(
            population_size=8, generations=4, mutation_scale=0.25, seed=7, n_harmonics=3
        )
        window = run_optimizer(self.OBJECTIVE, config).measured_window
        baseline = cosine_baseline_window(1.0, self.OBJECTIVE.p_cr)
        assert window >= baseline - 1e-12

    @pytest.mark.parametrize("population, horizon, admitted", [
        (MAX_POPULATION, 1.0, True),
        (MAX_POPULATION, 1.001, False),
        (4, 2500.0, True),
        (5, 2500.0, False),
    ])
    def test_generation_steps_bounded_before_scoring(self, population, horizon, admitted,
                                                     monkeypatch):
        # A generation holds population x grid points; past MAX_STEPS steps
        # it is refused before the first one is scored.
        class Scored(Exception):
            pass

        def scored(*_):
            raise Scored

        monkeypatch.setattr(pulses, "_fitness", scored)
        objective = ShapingObjective(p_cr=1e-4, omega=1.0, atom=DEGENERATE, horizon=horizon)
        config = OptimizerConfig(population_size=population, generations=1)
        if admitted:
            with pytest.raises(Scored):
                run_optimizer(objective, config)
        else:
            with pytest.raises(ValueError, match="--population.*--horizon"):
                run_optimizer(objective, config)

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
        atom = TwoLevelAtom(omega21=1.0 / ratio)
        objective = ShapingObjective(p_cr=p_cr, omega=1.0, atom=atom, horizon=horizon)
        assert ranks_on_model(objective) == model
        config = OptimizerConfig(population_size=4, generations=1, seed=2, n_harmonics=2)
        result = run_optimizer(objective, config)
        assert (len(calls) == 1) == model
        if not model:
            assert result.measured_window == result.best_window

    @pytest.mark.parametrize("ratio, p_cr, n_harmonics, generations, seed, rk4_window", [
        (30.0, 1e-4, 3, 40, 3, 1.3493),
        (30.0, 1e-4, 3, 40, 6, 0.7838),
        (100.0, 1e-5, 2, 20, 14, 0.6340),
        (100.0, 1e-5, 2, 20, 15, 0.6523),
    ])
    def test_small_budget_keeps_rk4_ranking(self, ratio, p_cr, n_harmonics, generations,
                                            seed, rk4_window):
        # Ranked on the model, these runs picked winners that measured 1.11,
        # 0.65, 0.54 and 0.64 on RK4; ranked on RK4 they keep the windows the
        # all-RK4 search found.
        atom = TwoLevelAtom(omega21=1.0 / ratio)
        objective = ShapingObjective(p_cr=p_cr, omega=1.0, atom=atom)
        config = OptimizerConfig(n_harmonics=n_harmonics, generations=generations, seed=seed)
        result = run_optimizer(objective, config)
        assert result.measured_window == result.best_window
        assert result.measured_window == pytest.approx(rk4_window, abs=1e-4)

    def test_blown_up_rk4_trajectory_scores_zero(self):
        # This near-cancelling genome normalizes to about (179.2, 542.2), with
        # max|V| h of about 4.5 on the 1000-step grid.  RK4's states stay
        # finite but its norm grows past 1e200, and its P2 reads above
        # 1 - p_cr over the whole period.  integrate refuses it at the grid
        # time of the largest defect, the end of the period.
        atom = TwoLevelAtom(omega21=0.01)
        objective = ShapingObjective(p_cr=1e-3, omega=1.0, atom=atom)
        grid = IntegrationConfig.per_period(0.0, 2 * math.pi, 2 * math.pi)
        genome = np.array([178.7, 540.8])
        pulse = normalize_for_transfer(
            HarmonicSum(omega=1.0, coefficients=((1, 178.7), (3, 540.8))), math.pi / 2)
        with np.errstate(over="ignore"):
            trajectory = rk4_reference(atom, pulse, grid)
            assert trajectory.norm_defect().max() > 1e200
            assert populated_window(trajectory, objective.p_cr) > 0.99 * 2 * math.pi
        with pytest.raises(IntegrationError, match="norm drifted") as excinfo:
            integrate(atom, pulse, grid)
        assert excinfo.value.time == 2 * math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [fitness] = pulses._fitness(genome[None], (1, 3), objective, math.pi / 2, grid,
                                        on_model=False)
        assert fitness == (0.0, -math.inf)

    def test_nonfinite_model_scores_zero_without_warnings(self, monkeypatch):
        # With the model forced, omega21^2 overflows, so every candidate's
        # model populations are inf or nan; each scores 0 and the search ends
        # in the usual error.
        monkeypatch.setattr(pulses, "ranks_on_model", lambda objective: True)
        atom = TwoLevelAtom(omega21=1e300)
        objective = ShapingObjective(p_cr=1e-4, omega=1.0, atom=atom)
        config = OptimizerConfig(population_size=4, generations=1, seed=1, n_harmonics=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no candidate"):
                run_optimizer(objective, config)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=st.lists(
        st.one_of(
            st.tuples(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 10.0),
                      st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1e6)),
            st.just((0.0, math.inf)),
        ),
        min_size=2, max_size=2,
    ))
    def test_rank_orders_like_pairwise_comparison(self, pair):
        # Widths and norms from short menus make ties common, width 0.0
        # included; the norm is finite, except in the unusable score.
        a, b = ((width, None, norm) for width, norm in pair)
        assert (pulses._rank(*pair[0]) > pulses._rank(*pair[1])) == _better(a, b)

    def test_unreachable_budget_signaled(self):
        # A splitting as large as the drive frequency leaks far more than
        # p_cr = 1e-8, so no candidate can reach the threshold.
        atom = TwoLevelAtom(omega21=1.0)
        objective = ShapingObjective(p_cr=1e-8, omega=1.0, atom=atom, horizon=1.0)
        config = OptimizerConfig(
            population_size=4, generations=1, mutation_scale=0.1, seed=1, n_harmonics=2
        )
        with pytest.raises(ValueError, match="no candidate"):
            run_optimizer(objective, config)


class TestGenerationInOneArrayPass:
    """The model side scores a generation at once; the RK4 side one by one."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_harmonics=st.integers(1, 5),
        population=st.integers(4, 16),
        generations=st.integers(1, 4),
        p_cr=st.floats(-6.0, -2.0).map(lambda x: 10.0**x),
        # 0 and the Lamb shift rank on the model; 0.03 on RK4; 1e-3 on the
        # model for p_cr >= 1e-5, else on RK4.
        omega21=st.sampled_from([0.0, lamb_shift(), 1e-3, 0.03]),
    )
    def test_matches_one_candidate_at_a_time(self, seed, n_harmonics, population,
                                             generations, p_cr, omega21):
        objective = ShapingObjective(p_cr=p_cr, omega=1.0,
                                     atom=TwoLevelAtom(omega21=omega21))
        config = OptimizerConfig(population_size=population, generations=generations,
                                 seed=seed, n_harmonics=n_harmonics)

        def outcome(run):
            try:
                result = run(objective, config)
            except ValueError as exc:
                return str(exc)
            # repr tells every float apart, -0.0 from 0.0 included.
            return repr((result.best_pulse, result.best_window, result.measured_window,
                         result.history))

        assert outcome(run_optimizer) == outcome(run_optimizer_reference)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n_harmonics=st.integers(1, 5),
        chi=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
                     min_size=1, max_size=8),
        omega=st.floats(0.5, 2.0),
        omega21=st.sampled_from([0.0, 1e-3, 0.03, 0.5]),
    )
    def test_each_row_is_its_pulse_alone(self, n_harmonics, chi, omega, omega21):
        harmonics = tuple(range(1, 2 * n_harmonics, 2))
        rows = np.array(chi)[:, :n_harmonics]
        batch = [HarmonicSum(omega, tuple(zip(harmonics, row))) for row in rows.tolist()]
        grid = IntegrationConfig.per_period(0.0, 2 * math.pi / omega, batch[0].period)
        times = grid.times()
        model_p1, model_p2 = first_order_from_action(
            odd_harmonic_action(omega, harmonics, rows.T[:, :, None], times), omega21, times)
        for pulse, row_p1, row_p2 in zip(batch, model_p1, model_p2, strict=True):
            alone_p1, alone_p2 = first_order_from_action(action(pulse, times), omega21, times)
            p1, p2 = first_order_reference(pulse, omega21, times)
            assert row_p1.tobytes() == alone_p1.tobytes() == p1.tobytes()
            assert row_p2.tobytes() == alone_p2.tobytes() == p2.tobytes()
        # The P2 rows that _fitness ranks on the model are those of each
        # normalized pulse alone.
        t_peak = math.pi / (2 * omega)
        normalized = []
        for pulse in batch:
            with contextlib.suppress(ValueError):
                normalized.append(normalize_for_transfer(pulse, t_peak))
        ranked = []

        def windows(times, p2, p_cr):
            ranked.extend(p2)
            return populated_windows(times, p2, p_cr)

        objective = ShapingObjective(p_cr=1e-4, omega=omega, atom=TwoLevelAtom(omega21=omega21))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pulses, "populated_windows", windows)
            pulses._fitness(rows, harmonics, objective, t_peak, grid, on_model=True)
        for pulse, p2_row in zip(normalized, ranked, strict=True):
            alone_p2 = first_order_from_action(action(pulse, times), omega21, times)[1]
            p2 = first_order_reference(pulse, omega21, times)[1]
            assert p2_row.tobytes() == alone_p2.tobytes() == p2.tobytes()

    @staticmethod
    def assert_normalized_like_each_pulse_alone(genomes, harmonics, omega):
        t_peak = math.pi / (2 * omega)
        usable, rows = pulses._normalized_rows(genomes, harmonics, omega, t_peak)
        assert usable.shape == (len(genomes),)
        for genome, ok, row in zip(genomes, usable.tolist(), rows, strict=True):
            with np.errstate(all="ignore"):
                pulse = _normalized(genome, harmonics, omega, t_peak)
            assert ok == (pulse is not None)
            if ok:
                assert row.tobytes() == np.array([c for _, c in pulse.coefficients]).tobytes()
        return usable

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        genomes=st.integers(1, 5).flatmap(lambda n: st.lists(
            st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1.0, -1.0]) | st.floats(),
                     min_size=n, max_size=n),
            min_size=1, max_size=8)),
        omega=st.floats(0.1, 10.0) | st.just(1.0),
    )
    def test_normalization_matches_each_pulse_alone(self, genomes, omega):
        # st.floats() also draws nan, inf, huge and subnormal genes.
        genomes = np.array(genomes)
        harmonics = tuple(range(1, 2 * genomes.shape[1], 2))
        self.assert_normalized_like_each_pulse_alone(genomes, harmonics, omega)

    @pytest.mark.parametrize("genome, harmonics, omega", [
        ([math.nan, 0.2], (1, 3), 1.0),
        ([1.0, math.inf], (1, 3), 1.0),
        # The two terms of the action at t_peak cancel exactly.
        ([1.0, 3.0], (1, 3), 1.0),
        # Finite, but the action 1e308 / omega overflows.
        ([1e308], (1,), 0.5),
        # The action 1e-310 passes the zero test, pi/2 / 1e-310 overflows.
        ([1e-310, 0.0], (1, 3), 1.0),
    ], ids=["nan", "inf", "zero-action", "action-overflow", "scale-overflow"])
    def test_unusable_genome_leaves_its_neighbours_alone(self, genome, harmonics, omega):
        neighbour = [1.0, 0.2][:len(genome)]
        genomes = np.array([neighbour, genome, neighbour])
        usable = self.assert_normalized_like_each_pulse_alone(genomes, harmonics, omega)
        assert usable.tolist() == [True, False, True]

    @pytest.mark.parametrize("omega21", [0.0, lamb_shift()])
    def test_builds_the_same_few_pulses_at_any_size(self, omega21, monkeypatch):
        # Only the shared grid and the winner are pulse objects, however many
        # candidates are scored.
        built = []
        post_init = HarmonicSum.__post_init__
        monkeypatch.setattr(HarmonicSum, "__post_init__",
                            lambda pulse: built.append(1) or post_init(pulse))
        objective = ShapingObjective(p_cr=1e-4, omega=1.0,
                                     atom=TwoLevelAtom(omega21=omega21))
        assert ranks_on_model(objective)
        counts = []
        for population, generations in ((4, 1), (16, 40)):
            built.clear()
            run_optimizer(objective, OptimizerConfig(population_size=population,
                                                     generations=generations, seed=11,
                                                     n_harmonics=3))
            counts.append(len(built))
        assert counts[0] == counts[1] <= 3

    def test_generation_holds_about_five_arrays(self):
        # A generation of 15 new candidates on the 1000-step grid: the model
        # holds at most five (15, 1001) float64 arrays at once, fewer at
        # omega21 = 0; the rest is a fraction of one (ufunc buffers, the
        # windows, the winner's pulse).
        grid = IntegrationConfig.per_period(0.0, 2 * math.pi, 2 * math.pi)
        times = grid.times()
        rng = np.random.default_rng(5)
        genomes = np.array([np.array([1.0, 0.0, 0.0]) + 0.2 * rng.standard_normal(3)
                            for _ in range(15)])

        for omega21 in (0.0, 1e-3):
            objective = ShapingObjective(p_cr=1e-4, omega=1.0,
                                         atom=TwoLevelAtom(omega21=omega21))

            def score():
                return pulses._fitness(genomes, (1, 3, 5), objective, math.pi / 2, grid,
                                       on_model=True)

            expected = score()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                scores = score()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert scores == expected
            assert all(width > 0.0 for width, _ in scores)
            assert peak <= 6 * 15 * times.size * 8
