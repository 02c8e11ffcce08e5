"""Pulse evaluation, action closed forms, and the wire format."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolevel.core import (
    AmplitudeState,
    Cosine,
    GaussianApprox,
    HarmonicSum,
    Trajectory,
    TwoLevelAtom,
    action,
    pulse_from_dict,
    pulse_value,
)

from twolevel.analytic import (
    DesignRequest,
    degenerate_amplitudes,
    detuning_sensitivity,
    leakage_at_peak,
    p2_derivatives,
    transfer_cosine,
    transfer_peak,
    transfer_populations,
)
from twolevel.hydrogen import (
    field_for_transfer,
    omega_to_wavelength,
    validity_report,
    wavelength_to_omega,
)
from twolevel.integrator import IntegrationConfig, populated_windows
from twolevel.pulses import (
    MAX_GENERATIONS,
    MAX_POPULATION,
    OptimizerConfig,
    ShapingObjective,
    second_derivative_nulled_pulse,
)

from _oracles import action_by_quadrature, central_derivative

#: Every library site of the finite-and-positive rule: a call taking the
#: value to check, and the name its ValueError gives.
POSITIVE_SITES = {
    "HarmonicSum.omega": (lambda v: HarmonicSum(v, ((1, 1.0),)), "omega"),
    "Cosine.omega": (lambda v: Cosine(chi=1.0, omega=v), "omega"),
    "GaussianApprox.width": (lambda v: GaussianApprox(area=1.0, center=0.0, width=v), "width"),
    "DesignRequest.t_s": (lambda v: DesignRequest(t_s=v, p_cr=1e-4), "t_s"),
    "degenerate_amplitudes": (lambda v: degenerate_amplitudes(1.0, v, 1.0), "omega"),
    "transfer_populations": (lambda v: transfer_populations(v, 0.5), "omega"),
    "transfer_cosine": (transfer_cosine, "omega"),
    "transfer_peak": (transfer_peak, "omega"),
    "leakage_at_peak": (lambda v: leakage_at_peak(1e-7, v), "omega"),
    "wavelength_to_omega": (wavelength_to_omega, "wavelength"),
    "omega_to_wavelength": (omega_to_wavelength, "omega"),
    "field_for_transfer": (field_for_transfer, "omega"),
    "validity_report": (validity_report, "omega"),
    "ShapingObjective.omega": (
        lambda v: ShapingObjective(p_cr=1e-4, omega=v, atom=TwoLevelAtom(0.0)), "omega"),
    "OptimizerConfig.mutation_scale": (lambda v: OptimizerConfig(mutation_scale=v),
                                       "mutation_scale"),
    "second_derivative_nulled_pulse": (second_derivative_nulled_pulse, "omega"),
    "IntegrationConfig.step": (lambda v: IntegrationConfig(0.0, 1.0, v), "step"),
    "IntegrationConfig.per_period": (lambda v: IntegrationConfig.per_period(0.0, 1.0, v),
                                     "period"),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf, "x"],
                         ids=["zero", "negative", "nan", "inf", "-inf", "text"])
@pytest.mark.parametrize("site", sorted(POSITIVE_SITES))
def test_positive_rule_refuses_by_name(site, value):
    call, name = POSITIVE_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be (> 0|finite|a finite number), got "):
        call(value)


#: Library sites of the finite rule whose value may have either sign.
FINITE_SITES = {
    "Cosine.chi": (lambda v: Cosine(chi=v, omega=1.0), "chi"),
    "degenerate_amplitudes.chi": (lambda v: degenerate_amplitudes(v, 1.0, 1.0), "chi"),
    "degenerate_amplitudes.t": (lambda v: degenerate_amplitudes(1.0, 1.0, v), "t"),
    "detuning_sensitivity": (detuning_sensitivity, "epsilon"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x"],
                         ids=["nan", "inf", "-inf", "text"])
@pytest.mark.parametrize("site", sorted(FINITE_SITES))
def test_finite_rule_refuses_by_name(site, value):
    call, name = FINITE_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be (finite|a finite number), got "):
        call(value)


def test_harmonic_sum_refuses_an_infinite_period():
    with pytest.raises(ValueError, match=r"^period must be finite, got inf$"):
        HarmonicSum(omega=1e-320, coefficients=((1, 1.0),))


@pytest.mark.parametrize("args, quantity", [
    ((1e308, 1e-10, 1.0), "chi/omega"),
    ((1.0, 1e300, 1e300), "omega t"),
    ((1.0, 1e-320, 1.0), "chi/omega"),
], ids=["ratio-inf", "phase-inf", "subnormal-omega"])
def test_degenerate_amplitudes_names_the_overflow(args, quantity):
    with pytest.raises(ValueError, match=rf"^{quantity} is not a finite double$"):
        degenerate_amplitudes(*args)


#: Every library site of the whole-number rule: a call taking the value to
#: check, the name its ValueError gives, and the bounds lo..hi (hi None: none).
INTEGER_SITES = {
    "HarmonicSum.index": (lambda v: HarmonicSum(1.0, ((v, 1.0),)), "harmonic index", 1, None),
    "HarmonicSum.derivative": (lambda v: Cosine(chi=1.0, omega=1.0).derivative(0.3, v),
                               "derivative order", 0, None),
    "GaussianApprox.derivative_bound": (
        lambda v: GaussianApprox(area=1.0, center=0.0, width=1.0).derivative_bound(0.3, v),
        "derivative order", 0, None),
    "p2_derivatives": (lambda v: p2_derivatives(Cosine(chi=1.0, omega=1.0), 0.3, v),
                       "derivative order", 0, 170),
    "OptimizerConfig.population_size": (lambda v: OptimizerConfig(population_size=v),
                                        "population_size", 4, MAX_POPULATION),
    "OptimizerConfig.generations": (lambda v: OptimizerConfig(generations=v),
                                    "generations", 1, MAX_GENERATIONS),
    "OptimizerConfig.n_harmonics": (lambda v: OptimizerConfig(n_harmonics=v),
                                    "n_harmonics", 1, 8),
    "OptimizerConfig.seed": (lambda v: OptimizerConfig(seed=v), "seed", 0, None),
    "IntegrationConfig.per_period": (lambda v: IntegrationConfig.per_period(0.0, 1.0, 0.01, v),
                                     "steps_per_period", 100, None),
}


def _integer_cases():
    for site, (call, name, lo, hi) in sorted(INTEGER_SITES.items()):
        cases = {"fraction": (2.5, "an integer, got 2.5"), "bool": (True, "an integer, got True"),
                 "nan": (math.nan, "finite, got nan"), "text": ("x", "a finite number, got 'x'"),
                 "below": (lo - 1, f">= {lo}, got {lo - 1}")}
        if hi is not None:
            cases["above"] = (hi + 1, f"<= {hi}, got {hi + 1}")
        for label, (value, rest) in cases.items():
            yield pytest.param(call, value, f"{name} must be {rest}", id=f"{site}-{label}")


@pytest.mark.parametrize("call, value, message", _integer_cases())
def test_integer_rule_refuses_by_name(call, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


def test_specs_store_the_checked_value():
    atom = TwoLevelAtom(omega21="0.01")
    objective = ShapingObjective(p_cr="1e-4", omega=np.float32(2), atom=atom, horizon="2")
    request = DesignRequest(t_s=np.int64(50), p_cr=np.float32(0.5))
    grid = IntegrationConfig("0", np.int64(1), 0.25)
    config = OptimizerConfig(population_size=np.int64(8), generations="3", mutation_scale="0.1",
                             seed=np.int64(3), n_harmonics=2.0)
    assert [atom.omega21, objective.p_cr, objective.horizon, request.p_cr, grid.t_start,
            grid.t_end, config.mutation_scale] == [0.01, 1e-4, 2.0, 0.5, 0.0, 1.0, 0.1]
    assert all(type(value) is float for value in (
        atom.omega21, objective.p_cr, objective.omega, objective.horizon, request.t_s,
        request.p_cr, grid.t_start, grid.t_end, config.mutation_scale))
    integers = (config.population_size, config.generations, config.seed, config.n_harmonics)
    assert integers == (8, 3, 3, 2) and all(type(k) is int for k in integers)
    assert IntegrationConfig.per_period(0.0, 1.0, 1.0, np.int64(100)) == IntegrationConfig(
        0.0, 1.0, 0.01)
    times, p2 = np.linspace(0.0, 1.0, 3), np.array([[0.0, 1.0, 0.0]])
    assert populated_windows(times, p2, "0.5").tolist() == [0.5]


class TestPulseValue:
    def test_cosine_at_zero(self):
        assert pulse_value(Cosine(chi=1.0, omega=1.0), 0.0) == -1.0

    def test_cosine_at_quarter_period(self):
        assert abs(pulse_value(Cosine(chi=1.0, omega=1.0), math.pi / 2)) < 1e-15

    def test_single_harmonic_reduces_to_cosine(self):
        hs = HarmonicSum(omega=2.0, coefficients=((1, 0.7),))
        assert pulse_value(hs, 0.3) == pulse_value(Cosine(chi=0.7, omega=2.0), 0.3)

    def test_single_harmonic_equivalence_on_dense_grid(self):
        hs = HarmonicSum(omega=2.0, coefficients=((1, 0.7),))
        cos = Cosine(chi=0.7, omega=2.0)
        t = np.linspace(-5.0, 15.0, 1000)
        np.testing.assert_array_equal(pulse_value(hs, t), pulse_value(cos, t))

    def test_cosine_bounded_by_chi(self):
        pulse = Cosine(chi=0.83, omega=1.7)
        t = np.linspace(0.0, 40.0, 5000)
        chi = pulse.coefficients[0][1]
        assert np.all(np.abs(pulse_value(pulse, t)) <= chi + 1e-15)

    @settings(max_examples=200, deadline=None)
    @given(chi=st.floats(allow_nan=False, allow_infinity=False),
           omega=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(chi=1.5, omega=5e-324)
    def test_cosine_is_one_term_harmonic_sum(self, chi, omega):
        builds = (lambda: HarmonicSum(omega, ((1, chi),)), lambda: Cosine(chi, omega),
                  lambda: pulse_from_dict({"type": "cosine", "chi": chi, "omega": omega}))
        if math.isinf(2 * math.pi / omega):
            for build in builds:
                with pytest.raises(ValueError, match=r"^period must be finite, got inf$"):
                    build()
            return
        pulse, cosine, loaded = (build() for build in builds)
        assert cosine == pulse
        assert loaded == pulse

    def test_gaussian_peak_value(self):
        g = GaussianApprox(area=2.0, center=1.0, width=0.5)
        assert pulse_value(g, 1.0) == pytest.approx(2.0 / (0.5 * math.sqrt(2 * math.pi)))


class TestAction:
    def test_cosine_zero_at_half_period(self):
        pulse = Cosine(chi=0.9, omega=1.3)
        assert abs(action(pulse, math.pi / 1.3)) < 1e-15

    def test_normalized_cosine_reaches_half_pi(self):
        omega = 1.7
        pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
        assert abs(action(pulse, math.pi / (2 * omega))) == pytest.approx(
            math.pi / 2, rel=1e-12
        )

    def test_gaussian_fully_contained(self):
        g = GaussianApprox(area=math.pi / 2, center=5.0, width=0.1)
        assert action(g, 10.0) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "pulse",
        [
            Cosine(chi=0.7, omega=1.3),
            Cosine(chi=-2.1, omega=0.4),
            HarmonicSum(omega=0.9, coefficients=((1, 0.8), (3, -0.3), (5, 0.12))),
            GaussianApprox(area=1.4, center=3.0, width=0.7),
        ],
    )
    def test_action_matches_quadrature(self, pulse):
        period = 2 * math.pi / pulse.omega if not isinstance(pulse, GaussianApprox) else 2.0
        scale = pulse.action_scale
        for t in np.linspace(0.13, 10 * period, 9):
            expected = action_by_quadrature(pulse, float(t))
            assert abs(action(pulse, float(t)) - expected) <= 1e-9 * max(abs(expected), scale)

    @settings(max_examples=25, deadline=None)
    @given(
        chi=st.floats(-3.0, 3.0),
        omega=st.floats(0.2, 4.0),
        periods=st.floats(0.0, 10.0),
    )
    def test_cosine_action_quadrature_property(self, chi, omega, periods):
        pulse = Cosine(chi=chi, omega=omega)
        t = periods * 2 * math.pi / omega
        expected = action_by_quadrature(pulse, t)
        scale = max(pulse.action_scale, 1e-6)
        assert abs(action(pulse, t) - expected) <= 1e-9 * max(abs(expected), scale)


class TestPulseDerivative:
    def test_order_zero_is_value(self):
        pulse = HarmonicSum(omega=1.1, coefficients=((1, 0.5), (3, 0.2)))
        assert pulse.derivative(0.37, 0) == pytest.approx(
            float(pulse_value(pulse, 0.37)), rel=1e-15
        )

    @pytest.mark.parametrize(
        "pulse",
        [
            Cosine(chi=1.2, omega=0.9),
            HarmonicSum(omega=0.8, coefficients=((1, 0.6), (3, 0.25), (5, -0.1))),
            GaussianApprox(area=1.3, center=2.0, width=0.6),
        ],
    )
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_finite_differences(self, pulse, order):
        t = 1.71
        expected = central_derivative(lambda x: float(pulse_value(pulse, x)), t, order, h=0.1)
        got = pulse.derivative(t, order)
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-8)

    def test_negative_order_rejected(self):
        for pulse in (Cosine(chi=1.0, omega=1.0), GaussianApprox(area=1.0, center=0.0, width=1.0)):
            for method in (pulse.derivative, pulse.derivative_bound):
                with pytest.raises(ValueError, match=">= 0"):
                    method(0.3, -1)

    @pytest.mark.parametrize(
        "pulse", [Cosine(chi=1.0, omega=1.0), GaussianApprox(area=1.0, center=0.0, width=1.0)]
    )
    @pytest.mark.parametrize("order", [1.9, 2.5, True, float("nan")])
    def test_non_integral_order_rejected(self, pulse, order):
        for method in (pulse.derivative, pulse.derivative_bound):
            with pytest.raises(ValueError):
                method(0.3, order)

    def test_integral_float_order_accepted(self):
        pulse = Cosine(chi=1.0, omega=1.0)
        assert pulse.derivative(0.3, 2.0) == pulse.derivative(0.3, 2)

    # (100 * 1)^170 overflows a double; 1e-3^171 underflows to 0 in the
    # Gaussian's denominator.
    @pytest.mark.parametrize("pulse, t", [
        (Cosine(chi=1.0, omega=100.0), 0.1),
        (GaussianApprox(area=1.0, center=0.0, width=1e-3), 0.0),
    ], ids=["cosine", "gaussian"])
    @pytest.mark.parametrize("method", ["derivative", "derivative_bound"])
    def test_overflow_is_value_error(self, pulse, t, method):
        with pytest.raises(ValueError, match="not a finite double"):
            getattr(pulse, method)(t, 170)


class TestPulseProtocol:
    def test_cosine_is_one_term_harmonic_sum(self):
        cos = Cosine(chi=0.7, omega=2.0)
        hs = HarmonicSum(omega=2.0, coefficients=((1, 0.7),))
        t = np.linspace(-5.0, 15.0, 101)
        assert cos.coefficients == hs.coefficients
        np.testing.assert_array_equal(action(cos, t), action(hs, t))
        for order in range(5):
            assert cos.derivative(1.3, order) == hs.derivative(1.3, order)
            assert cos.derivative_bound(1.3, order) == hs.derivative_bound(1.3, order)
        assert cos.period == hs.period == math.pi
        assert cos.action_scale == hs.action_scale == 0.35

    @pytest.mark.parametrize(
        "pulse",
        [
            Cosine(chi=-1.2, omega=0.9),
            HarmonicSum(omega=0.8, coefficients=((1, 0.6), (3, 0.25))),
            GaussianApprox(area=1.3, center=2.0, width=0.6),
        ],
    )
    def test_scaled_multiplies_value_and_action(self, pulse):
        scaled = pulse.scaled(-2.5)
        assert type(scaled) is type(pulse)
        assert scaled.period == pulse.period
        assert scaled.action_scale == pytest.approx(2.5 * pulse.action_scale, rel=1e-15)
        for t in (0.0, 0.7, 3.1):
            assert scaled.value(t) == pytest.approx(-2.5 * pulse.value(t), rel=1e-14)
            assert scaled.action(t) == pytest.approx(-2.5 * pulse.action(t), rel=1e-14)

    def test_gaussian_action_array_matches_scalar(self):
        g = GaussianApprox(area=1.4, center=3.0, width=0.7)
        t = np.linspace(-2.0, 8.0, 41)
        got = action(g, t)
        assert got.dtype == float and got.shape == t.shape
        np.testing.assert_array_equal(got, [action(g, float(x)) for x in t])

    @pytest.mark.parametrize(
        "pulse",
        [
            Cosine(chi=-1.2, omega=0.9),
            HarmonicSum(omega=0.8, coefficients=((1, 0.6), (3, -0.25), (7, 0.1))),
            GaussianApprox(area=-1.3, center=2.0, width=0.6),
        ],
    )
    def test_derivative_bound_covers_derivative(self, pulse):
        for t in (-1.0, 0.0, 0.7, 2.0, 3.1, 6.5):
            for order in range(12):
                assert pulse.derivative_bound(t, order) >= abs(pulse.derivative(t, order))

    def test_harmonic_derivative_bound_is_magnitude_sum(self):
        pulse = HarmonicSum(omega=0.8, coefficients=((1, 0.6), (3, -0.25), (7, 0.1)))
        for order in range(12):
            expected = sum(abs(c) * (k * 0.8) ** order for k, c in ((1, 0.6), (3, -0.25), (7, 0.1)))
            assert pulse.derivative_bound(1.7, order) == expected


class TestProbabilities:
    def test_norm_defect(self):
        assert AmplitudeState(1.0 + 0.0j, 0.0j).norm_defect == 0.0
        assert AmplitudeState(1.0 + 0.0j, 1.0 + 0.0j).norm_defect == pytest.approx(1.0)


class TestValidation:
    def test_cosine_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            Cosine(chi=1.0, omega=0.0)

    def test_harmonic_sum_rejects_even_harmonics(self):
        with pytest.raises(ValueError):
            HarmonicSum(omega=1.0, coefficients=((2, 0.5),))

    def test_harmonic_sum_rejects_duplicates(self):
        with pytest.raises(ValueError):
            HarmonicSum(omega=1.0, coefficients=((1, 0.5), (1, 0.2)))

    def test_harmonic_sum_rejects_empty(self):
        with pytest.raises(ValueError):
            HarmonicSum(omega=1.0, coefficients=())

    def test_gaussian_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            GaussianApprox(area=1.0, center=0.0, width=0.0)

    def test_atom_rejects_negative_splitting(self):
        with pytest.raises(ValueError):
            TwoLevelAtom(omega21=-1e-6)


class TestTrajectory:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 0.0], a1=[1.0, 1.0], a2=[0.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 1.0], a1=[1.0], a2=[0.0, 0.0])

    def test_states_round_trip(self):
        traj = Trajectory(times=[0.0, 1.0], a1=[1.0, 0.5], a2=[0.0, 0.5j])
        assert (traj.a1[0], traj.a2[0]) == (1.0 + 0.0j, 0.0 + 0.0j)
        assert len(traj) == 2
        assert traj.p2[1] == pytest.approx(0.25)

    def test_arrays_are_frozen(self):
        traj = Trajectory(times=[0.0, 1.0], a1=[1.0, 1.0], a2=[0.0, 0.0])
        with pytest.raises(ValueError):
            traj.times[0] = -1.0


#: JSON values a pulse field may hold, with the overflowing and non-integral
#: numbers that once escaped as OverflowError or were truncated.
JSON_SCALARS = (st.sampled_from([math.inf, -math.inf, math.nan, 10**400, 1.5, 3, "1"])
                | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3))


class TestWireFormat:
    @pytest.mark.parametrize(
        "pulse",
        [
            Cosine(chi=1.5, omega=0.7),
            HarmonicSum(omega=1.1, coefficients=((1, 0.4), (5, -0.2))),
            GaussianApprox(area=math.pi / 2, center=4.0, width=0.25),
        ],
    )
    def test_round_trip(self, pulse):
        assert pulse_from_dict(pulse.to_dict()) == pulse
        assert pulse_from_dict(json.loads(json.dumps(pulse.to_dict()))) == pulse

    def test_tags(self):
        # A cosine is the one-term harmonic sum; the "cosine" tag still parses.
        assert Cosine(chi=1.0, omega=1.0).to_dict()["type"] == "harmonic_sum"
        assert (
            pulse_from_dict({"type": "cosine", "chi": 1.0, "omega": 1.0}).to_dict()["type"]
            == "harmonic_sum"
        )
        assert GaussianApprox(area=1.0, center=0.0, width=1.0).to_dict()["type"] == "gaussian"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            pulse_from_dict({"type": "square", "chi": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            pulse_from_dict({"type": "cosine", "chi": 1.0})

    def test_missing_tag_rejected(self):
        with pytest.raises(ValueError):
            pulse_from_dict({"chi": 1.0, "omega": 1.0})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"type": "harmonic_sum", "omega": 1, "coefficients": [[1e400, 1]]},
             "harmonic index must be finite"),
            ({"type": "cosine", "chi": 10**400, "omega": 1}, "chi must be a finite number"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": [[1.5, 1.57]]},
             "harmonic index must be an integer"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": [[True, 1.57]]},
             "harmonic index must be an integer"),
            ({"type": "gaussian", "area": None, "center": 0, "width": 1},
             "area must be a finite number"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": 5},
             r"^malformed 'harmonic_sum' pulse dict: coefficients must be a list of "
             r"\[k, chi_k\] lists, got 5$"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": [[1]]},
             r"^harmonic \[1\] is not a \(k, chi_k\) pair$"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": [[1, 2, 3]]},
             r"^harmonic \[1, 2, 3\] is not a \(k, chi_k\) pair$"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": [5]},
             r"^harmonic 5 is not a \(k, chi_k\) pair$"),
            ({"type": "harmonic_sum", "omega": 1e308, "coefficients": [[3, 1]]},
             "^the frequency of harmonic 3 is not a finite double$"),
            ({"type": "cosine", "chi": "1.5", "omega": "1"},
             r"^malformed 'cosine' pulse dict: chi must be a number, got '1\.5'$"),
            ({"type": "harmonic_sum", "omega": 1, "coefficients": ["13"]},
             r"^malformed 'harmonic_sum' pulse dict: coefficients must be a list of "
             r"\[k, chi_k\] lists, got \['13'\]$"),
            ({"type": "gaussian", "area": True, "center": 0, "width": 1},
             r"^malformed 'gaussian' pulse dict: area must be a number, got True$"),
        ],
        ids=["index-inf", "chi-overflow", "index-fraction", "index-bool", "area-null",
             "coefficients-scalar", "entry-single", "entry-triple", "entry-scalar",
             "frequency-overflow", "chi-text", "coefficients-text", "area-bool"],
    )
    def test_malformed_field_is_value_error(self, data, message):
        with pytest.raises(ValueError, match=message):
            pulse_from_dict(data)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.one_of(
            st.fixed_dictionaries(
                {"type": st.just("cosine"), "chi": JSON_SCALARS, "omega": JSON_SCALARS}),
            st.fixed_dictionaries({
                "type": st.just("harmonic_sum"),
                "omega": JSON_SCALARS,
                "coefficients": st.lists(st.lists(JSON_SCALARS, min_size=2, max_size=2),
                                         max_size=3)
                | st.lists(st.lists(JSON_SCALARS, max_size=3) | JSON_SCALARS, max_size=3),
            }),
            st.fixed_dictionaries({"type": st.just("gaussian"), "area": JSON_SCALARS,
                                   "center": JSON_SCALARS, "width": JSON_SCALARS}),
        )
    )
    def test_fuzzed_fields_raise_only_value_error(self, data):
        try:
            pulse = pulse_from_dict(data)
        except ValueError:
            return
        assert pulse_from_dict(pulse.to_dict()) == pulse

    def test_constructors_coerce_every_field(self):
        pulse = HarmonicSum(omega="1.5", coefficients=[[3.0, 1], [np.int64(5), "2"]])
        assert pulse == HarmonicSum(omega=1.5, coefficients=((3, 1.0), (5, 2.0)))
        assert type(pulse.omega) is float
        assert all(type(k) is int and type(c) is float for k, c in pulse.coefficients)
        cosine = Cosine(chi=np.float32(2), omega=1)
        assert (type(cosine.coefficients[0][1]), type(cosine.omega)) == (float, float)
        gaussian = GaussianApprox(area=1, center=np.int64(0), width="2")
        assert (type(gaussian.area), type(gaussian.center), type(gaussian.width)) == (float,) * 3
