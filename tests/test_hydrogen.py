"""Hydrogen numbers: the exact dipole against a quadrature oracle, unit
conversions, field regimes."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from twolevel.analytic import leakage_at_peak
from twolevel.hydrogen import (
    BOHR_RADIUS_M,
    INTENSITY_AU_W_CM2,
    SPEED_OF_LIGHT_AU,
    dipole_2s2p,
    ev_to_hartree,
    field_for_transfer,
    field_to_intensity,
    hartree_to_ev,
    hydrogen_atom,
    lamb_shift,
    next_level_gap,
    omega_to_wavelength,
    validity_report,
    wavelength_to_omega,
    z_matrix_element,
)


def oracle_dipole() -> float:
    """Brute-force <2s|z|2p0> with adaptive quadrature and local orbital forms."""

    def radial_integrand(r: float) -> float:
        r20 = (2.0 - r) * math.exp(-r / 2) / (2.0 * math.sqrt(2.0))
        r21 = r * math.exp(-r / 2) / (2.0 * math.sqrt(6.0))
        return r20 * r21 * r**3

    radial, _ = quad(radial_integrand, 0.0, 120.0, epsabs=1e-12, epsrel=1e-12, limit=200)

    def angular_integrand(x: float) -> float:
        y00 = 1.0 / math.sqrt(4.0 * math.pi)
        y10 = math.sqrt(3.0 / (4.0 * math.pi)) * x
        return y00 * x * y10

    angular, _ = quad(angular_integrand, -1.0, 1.0, epsabs=1e-13)
    return radial * 2.0 * math.pi * angular


class TestEnergies:
    def test_lamb_shift_value(self):
        # 4.37e-6 eV / 27.211386 eV/Hartree, frozen by hand arithmetic.
        assert lamb_shift() == pytest.approx(1.6059453935936962e-07, rel=1e-12)

    def test_lamb_shift_round_trip(self):
        assert hartree_to_ev(lamb_shift()) == pytest.approx(4.37e-6, rel=1e-12)

    def test_gap_value(self):
        assert next_level_gap() == pytest.approx(0.06945621953986467, rel=1e-12)

    def test_gap_round_trip(self):
        assert hartree_to_ev(next_level_gap()) == pytest.approx(1.89, rel=1e-12)

    def test_frequency_window_spans_five_decades(self):
        assert next_level_gap() / lamb_shift() == pytest.approx(432494.2791762014, rel=1e-9)
        assert next_level_gap() / lamb_shift() > 1e5


class TestDipole:
    def test_magnitude_three(self):
        assert abs(dipole_2s2p()) == pytest.approx(3.0, abs=1e-6)

    def test_matches_adaptive_quadrature_oracle(self):
        assert dipole_2s2p() == pytest.approx(oracle_dipole(), abs=1e-9)

    def test_exact_to_the_last_digit(self):
        assert dipole_2s2p() == -3.0

    def test_diagonal_element_vanishes(self):
        assert z_matrix_element("2s", "2s") == 0.0
        assert z_matrix_element("2p", "2p") == 0.0

    def test_symmetric_in_bra_and_ket(self):
        assert z_matrix_element("2p", "2s") == z_matrix_element("2s", "2p")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            z_matrix_element("2s", "3p")

    def test_hydrogen_atom_bundle(self):
        atom = hydrogen_atom()
        assert atom.omega21 == lamb_shift()


class TestConversions:
    def test_ev_round_trip(self):
        assert hartree_to_ev(ev_to_hartree(0.777)) == pytest.approx(0.777, rel=1e-12)

    def test_wavelength_round_trip(self):
        assert omega_to_wavelength(wavelength_to_omega(3e-6)) == pytest.approx(3e-6, rel=1e-12)

    def test_overflowing_intensity_is_refused(self):
        assert math.isfinite(field_to_intensity(7e145))
        with pytest.raises(ValueError, match="the intensity is not a finite double"):
            field_to_intensity(8e145)

    def test_wavelength_omega_product(self):
        omega = wavelength_to_omega(5e-3)
        assert (5e-3 / BOHR_RADIUS_M) * omega == pytest.approx(
            2 * math.pi * SPEED_OF_LIGHT_AU, rel=1e-12
        )


class TestFieldForTransfer:
    def test_micron_regime(self):
        regime = field_for_transfer(wavelength_to_omega(3e-6))
        # Independent arithmetic: omega = 2 pi c / lambda, E0 = (pi/2) omega / 3.
        omega = 2 * math.pi * SPEED_OF_LIGHT_AU / (3e-6 / BOHR_RADIUS_M)
        expected = (0.5 * math.pi * omega / 3.0) ** 2 * INTENSITY_AU_W_CM2
        assert regime.intensity_w_cm2 == pytest.approx(expected, rel=1e-6)
        assert 1e11 <= regime.intensity_w_cm2 <= 1e13

    def test_centimeter_regime(self):
        regime = field_for_transfer(wavelength_to_omega(3e-2))
        assert 1e3 <= regime.intensity_w_cm2 <= 1e5

    def test_intensity_scales_as_inverse_wavelength_squared(self):
        i1 = field_for_transfer(wavelength_to_omega(1e-3)).intensity_w_cm2
        i10 = field_for_transfer(wavelength_to_omega(1e-2)).intensity_w_cm2
        assert i1 / i10 == pytest.approx(100.0, rel=1e-9)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            field_for_transfer(0.0)

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(1e-12, 1e3))
    def test_regime_is_consistent_over_frequencies(self, omega):
        # lambda omega = 2 pi c and I = E0^2 I_au hold for every regime built.
        regime = field_for_transfer(omega)
        assert (regime.wavelength_m / BOHR_RADIUS_M) * omega == pytest.approx(
            2 * math.pi * SPEED_OF_LIGHT_AU, rel=1e-12)
        assert regime.intensity_w_cm2 == pytest.approx(
            regime.e0**2 * INTENSITY_AU_W_CM2, rel=1e-12)

    @pytest.mark.parametrize("omega", [4.7e-306, 1e-320])
    def test_overflowing_wavelength_is_refused(self, omega):
        with pytest.raises(ValueError, match="the wavelength is not a finite double"):
            field_for_transfer(omega)


class TestValidityReport:
    def test_comfortably_inside_window(self):
        omega = 100.0 * lamb_shift()
        report = validity_report(omega)
        assert report.verdict == "valid"
        assert report.leakage_bound == pytest.approx(
            leakage_at_peak(lamb_shift(), omega), rel=1e-12
        )
        assert report.splitting_ratio == pytest.approx(0.01, rel=1e-12)

    def test_resonant_with_splitting_is_invalid(self):
        assert validity_report(lamb_shift()).verdict == "invalid"

    def test_at_next_level_is_invalid(self):
        assert validity_report(next_level_gap()).verdict == "invalid"

    def test_marginal_bands(self):
        assert validity_report(5.0 * lamb_shift()).verdict == "marginal"
        assert validity_report(0.5 * next_level_gap()).verdict == "marginal"

    def test_decade_edges_are_valid(self):
        assert validity_report(10.0 * lamb_shift()).verdict == "valid"
        assert validity_report(next_level_gap() / 10.0).verdict == "valid"

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            validity_report(-1.0)
