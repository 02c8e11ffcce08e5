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

from .analytic import TRANSFER_ACTION, leakage_at_peak
from .core import TwoLevelAtom, _check_positive, _finite

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
    "lamb_shift",
    "next_level_gap",
    "valid_window",
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
    wavelength_m = _check_positive("wavelength", wavelength_m)
    return 2.0 * math.pi * SPEED_OF_LIGHT_AU / (wavelength_m / BOHR_RADIUS_M)


def omega_to_wavelength(omega: float) -> float:
    """Vacuum wavelength in meters for an angular frequency in Hartree;
    ValueError where it overflows a double, below about 4.8e-306 Hartree."""
    omega = _check_positive("omega", omega)
    return _finite(lambda: (2.0 * math.pi * SPEED_OF_LIGHT_AU / omega) * BOHR_RADIUS_M,
                   "the wavelength")


def field_to_intensity(e0: float) -> float:
    """Peak intensity in W/cm^2 for a field amplitude in atomic units;
    ValueError where it overflows a double, above about 7e145 a.u."""
    return _finite(lambda: e0 * e0 * INTENSITY_AU_W_CM2, "the intensity")


def lamb_shift() -> float:
    """2s-2p splitting (Lamb shift) in Hartree."""
    return ev_to_hartree(_LAMB_SHIFT_EV)


def next_level_gap() -> float:
    """Energy gap from the 2s/2p pair to the next level (3p) in Hartree."""
    return ev_to_hartree(_GAP_2S3P_EV)


def valid_window() -> tuple[float, float]:
    """The "valid" drive frequencies (lo, hi): a decade (VALIDITY_MARGIN)
    inside both edges of omega21 << omega << omega_2s3p."""
    return VALIDITY_MARGIN * lamb_shift(), next_level_gap() / VALIDITY_MARGIN


# --- orbitals and the dipole matrix element ---------------------------------

# Each m = 0 orbital (Z = 1, infinite nuclear mass) as the coefficients c_i of
# its radial polynomial, the inverse square n of its normalization and l:
# R(r) = sum(c_i r^i) * e^(-r/2) / sqrt(n).
_ORBITALS = {
    "2s": ((2, -1), 8, 0),
    "2p": ((0, 1), 24, 1),
}


def z_matrix_element(bra: str, ket: str) -> float:
    """<bra| z |ket> for the 2s/2p (m = 0) orbitals, integrated exactly.

    The radial factor, the integral of R_a(r) R_b(r) r^3 dr, is a polynomial
    times e^(-r), and the integral of r^k e^(-r) dr is k!, so it equals
    sum c_i c_j (i + j + 3)! / sqrt(n_a n_b).  The angular factor
    2 pi * integral Y_a(x) x Y_b(x) dx over x = cos(theta) is
    sqrt(3)^l / (l + 2) for odd l = l_a + l_b and exactly 0 for even l.
    Its square is one ratio of integers, rounded once: the 2s-2p element is -3 exactly.
    """
    if bra not in _ORBITALS or ket not in _ORBITALS:
        raise ValueError(f"orbital labels must be '2s' or '2p', got {bra!r}, {ket!r}")
    (coeffs_a, n_a, l_a), (coeffs_b, n_b, l_b) = _ORBITALS[bra], _ORBITALS[ket]
    l = l_a + l_b
    if l % 2 == 0:
        return 0.0
    moments = sum(a * b * math.factorial(i + j + 3)
                  for i, a in enumerate(coeffs_a) for j, b in enumerate(coeffs_b))
    return math.copysign(math.sqrt(moments**2 * 3**l / (n_a * n_b * (l + 2) ** 2)), moments)


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

    wavelength_m: float
    e0: float
    intensity_w_cm2: float


def field_for_transfer(omega: float) -> FieldRegime:
    """Field amplitude, wavelength and intensity for chi = (pi/2) omega.

    The complete-transfer condition fixes the Rabi frequency, and the dipole
    matrix element converts it to a field amplitude: E0 = (pi/2) omega / |d|.
    Intensity uses the peak-field convention.
    """
    omega = _check_positive("omega", omega)
    e0 = TRANSFER_ACTION * omega / abs(dipole_2s2p())
    return FieldRegime(
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

    It is "valid" inside :func:`valid_window`, "marginal" elsewhere inside
    the window, and "invalid" at or beyond an edge.  The leakage bound is the
    truncated-series peak estimate of the splitting alone; leakage to the
    other levels is not estimated.  ValueError where that bound overflows
    a double, for a drive far below the splitting.
    """
    omega = _check_positive("omega", omega)
    omega21 = lamb_shift()
    lo, hi = valid_window()
    if lo <= omega <= hi:
        verdict = "valid"
    elif omega <= omega21 or omega >= next_level_gap():
        verdict = "invalid"
    else:
        verdict = "marginal"
    return ValidityReport(
        splitting_ratio=omega21 / omega,
        leakage_bound=leakage_at_peak(omega21, omega),
        verdict=verdict,
    )
