"""Hydrogen 2s-2p parameters, orbital integrals, and unit conversions.

The 2s-2p pair is the reference instance of the two-level model: the
splitting (the Lamb shift, 4.37e-6 eV) is tiny against the 1.89 eV gap to the
next level (3p).  :func:`validity_report` keeps a decade from both, but its
verdict and leakage bound cover only the splitting side.  Nothing here checks
the two-state truncation: with the n <= 4 levels, a cosine drive switched on
at full amplitude at gap/10, which the report calls valid, leaves about
1.2e-2 of the population outside n = 2 at the peak.

The transition dipole is integrated exactly from the explicit Z = 1,
infinite-mass orbitals rather than hard-coding the textbook value: the
radial integrand is a polynomial times e^(-r), which integrates to
factorials, and the angular one is a polynomial in cos(theta).  The diagonal
element, exactly 0 by parity, doubles as a selection-rule check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import leakage_at_peak
from .core import TwoLevelAtom

__all__ = [
    "HARTREE_EV",
    "SPEED_OF_LIGHT_AU",
    "BOHR_RADIUS_M",
    "INTENSITY_AU_W_CM2",
    "VALIDITY_MARGIN",
    "FieldRegime",
    "ValidityReport",
    "ev_to_hartree",
    "hartree_to_ev",
    "wavelength_to_omega",
    "omega_to_wavelength",
    "field_to_intensity",
    "intensity_to_field",
    "lamb_shift",
    "next_level_gap",
    "z_matrix_element",
    "dipole_2s2p",
    "hydrogen_atom",
    "field_for_transfer",
    "validity_report",
]

#: 1 Hartree in electron volts.
HARTREE_EV = 27.211386
#: Speed of light in atomic units (inverse fine-structure constant).
SPEED_OF_LIGHT_AU = 137.035999
#: Bohr radius in meters.
BOHR_RADIUS_M = 5.29177e-11
#: Peak intensity in W/cm^2 of a field with amplitude E0 = 1 a.u.
#: (peak-field convention I = E0^2 * I_au; a cycle average would halve it).
INTENSITY_AU_W_CM2 = 3.50945e16

#: Margin, as a factor, that a "valid" drive frequency keeps from both edges
#: of the window omega21 << omega << omega_2s3p.
VALIDITY_MARGIN = 10.0

_LAMB_SHIFT_EV = 4.37e-6
_GAP_2S3P_EV = 1.89


def ev_to_hartree(energy_ev: float) -> float:
    return energy_ev / HARTREE_EV


def hartree_to_ev(energy_hartree: float) -> float:
    return energy_hartree * HARTREE_EV


def wavelength_to_omega(wavelength_m: float) -> float:
    """Angular frequency in Hartree for a vacuum wavelength in meters."""
    if not wavelength_m > 0.0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    return 2.0 * math.pi * SPEED_OF_LIGHT_AU / (wavelength_m / BOHR_RADIUS_M)


def omega_to_wavelength(omega: float) -> float:
    """Vacuum wavelength in meters for an angular frequency in Hartree."""
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return (2.0 * math.pi * SPEED_OF_LIGHT_AU / omega) * BOHR_RADIUS_M


def field_to_intensity(e0: float) -> float:
    """Peak intensity in W/cm^2 for a field amplitude in atomic units."""
    return e0 * e0 * INTENSITY_AU_W_CM2


def intensity_to_field(intensity_w_cm2: float) -> float:
    if intensity_w_cm2 < 0.0:
        raise ValueError("intensity must be >= 0")
    return math.sqrt(intensity_w_cm2 / INTENSITY_AU_W_CM2)


def lamb_shift() -> float:
    """2s-2p splitting (Lamb shift) in Hartree."""
    return ev_to_hartree(_LAMB_SHIFT_EV)


def next_level_gap() -> float:
    """Energy gap from the 2s/2p pair to the next level (3p) in Hartree."""
    return ev_to_hartree(_GAP_2S3P_EV)


# --- orbitals and the dipole matrix element ---------------------------------

# Each m = 0 orbital (Z = 1, infinite nuclear mass) as the coefficients c_i of
# its radial polynomial, its normalization and l:
# R(r) = norm * sum(c_i r^i) * e^(-r/2).
_ORBITALS = {
    "2s": ((2, -1), 1.0 / (2.0 * math.sqrt(2.0)), 0),
    "2p": ((0, 1), 1.0 / (2.0 * math.sqrt(6.0)), 1),
}


def z_matrix_element(bra: str, ket: str) -> float:
    """<bra| z |ket> for the 2s/2p (m = 0) orbitals, integrated exactly.

    The radial factor, the integral of R_a(r) R_b(r) r^3 dr, is a polynomial
    times e^(-r), and the integral of r^k e^(-r) dr is k!, so it equals
    norm_a norm_b sum c_i c_j (i + j + 3)!.  The angular factor
    2 pi * integral Y_a(x) x Y_b(x) dx over x = cos(theta) is
    sqrt(3)^l / (l + 2) for odd l = l_a + l_b and exactly 0 for even l.
    """
    if bra not in _ORBITALS or ket not in _ORBITALS:
        raise ValueError(f"orbital labels must be '2s' or '2p', got {bra!r}, {ket!r}")
    (coeffs_a, norm_a, l_a), (coeffs_b, norm_b, l_b) = _ORBITALS[bra], _ORBITALS[ket]
    l = l_a + l_b
    if l % 2 == 0:
        return 0.0
    moments = sum(a * b * math.factorial(i + j + 3)
                  for i, a in enumerate(coeffs_a) for j, b in enumerate(coeffs_b))
    return norm_a * norm_b * moments * math.sqrt(3.0) ** l / (l + 2)


def dipole_2s2p() -> float:
    """Signed transition dipole <2s| z |2p0> in Bohr radii (magnitude 3)."""
    return z_matrix_element("2s", "2p")


def hydrogen_atom() -> TwoLevelAtom:
    """The 2s-2p pair as a TwoLevelAtom: the Lamb-shift splitting.

    The dipole stays in :func:`dipole_2s2p`; only :func:`field_for_transfer`
    and the ``info`` command read it.
    """
    return TwoLevelAtom(omega21=lamb_shift())


@dataclass(frozen=True)
class FieldRegime:
    """Field parameters realizing complete transfer at a given frequency."""

    omega: float
    wavelength_m: float
    e0: float
    intensity_w_cm2: float

    def __post_init__(self) -> None:
        expected = 2.0 * math.pi * SPEED_OF_LIGHT_AU
        product = (self.wavelength_m / BOHR_RADIUS_M) * self.omega
        if abs(product - expected) > 1e-9 * expected:
            raise ValueError("wavelength and omega are inconsistent")
        expected_i = field_to_intensity(self.e0)
        if abs(self.intensity_w_cm2 - expected_i) > 1e-9 * max(expected_i, 1.0):
            raise ValueError("intensity and field amplitude are inconsistent")


def field_for_transfer(omega: float) -> FieldRegime:
    """Field amplitude, wavelength and intensity for chi = (pi/2) omega.

    The complete-transfer condition fixes the Rabi frequency, and the dipole
    matrix element converts it to a field amplitude: E0 = (pi/2) omega / |d|.
    Intensity uses the peak-field convention.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    e0 = 0.5 * math.pi * omega / abs(dipole_2s2p())
    return FieldRegime(
        omega=omega,
        wavelength_m=omega_to_wavelength(omega),
        e0=e0,
        intensity_w_cm2=field_to_intensity(e0),
    )


@dataclass(frozen=True)
class ValidityReport:
    """Where a drive frequency sits relative to the two-state model's window."""

    splitting_ratio: float  # omega21 / omega
    leakage_bound: float
    verdict: str


def validity_report(omega: float) -> ValidityReport:
    """Classify a drive frequency against omega21 << omega << omega_2s3p.

    "valid" requires a margin of VALIDITY_MARGIN (a decade) on both sides
    (omega >= 10 omega21 and omega <= omega_2s3p / 10); frequencies inside
    the window but within that margin of an edge are "marginal", and
    anything at or beyond an edge is "invalid".  The leakage bound is the
    truncated-series peak estimate of the splitting alone; leakage to the
    other levels is not estimated.  ValueError where that bound overflows
    a double, for a drive far below the splitting.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    omega21 = lamb_shift()
    gap = next_level_gap()
    if VALIDITY_MARGIN * omega21 <= omega <= gap / VALIDITY_MARGIN:
        verdict = "valid"
    elif omega <= omega21 or omega >= gap:
        verdict = "invalid"
    else:
        verdict = "marginal"
    return ValidityReport(
        splitting_ratio=omega21 / omega,
        leakage_bound=leakage_at_peak(omega21, omega),
        verdict=verdict,
    )
