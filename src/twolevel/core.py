"""Domain types and pulse evaluation shared across the package.

Atomic units (hbar = e = m_e = 1) are used for every quantity: energies and
angular frequencies in Hartree, times in inverse Hartree, lengths in Bohr
radii.  Conversions to laboratory units live in :mod:`twolevel.hydrogen`.

The coupling matrix element of the monochromatic drive follows the
dipole-interaction sign convention V21(t) = -chi * cos(omega * t), where chi
is the Rabi frequency.  All occupation probabilities computed downstream
depend only on the magnitude of the action integral of V21, so the overall
sign (and the phase convention of the orbitals behind chi) never affects a
population observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "TwoLevelAtom",
    "Cosine",
    "HarmonicSum",
    "GaussianApprox",
    "PulseSpec",
    "AmplitudeState",
    "Trajectory",
    "pulse_value",
    "action",
    "odd_harmonic_action",
    "pulse_from_dict",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: math.erf applied element-wise; keeps scipy out of the runtime dependencies.
_erf = np.frompyfunc(math.erf, 1, 1)


def _check_finite(name: str, value: float) -> float:
    """``float(value)``; ValueError if it is no number or not finite."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def _check_index(k) -> int:
    """A harmonic index as an int; ValueError unless it is a positive odd integer."""
    number = _check_finite("harmonic index", k)
    if isinstance(k, bool) or not number.is_integer():
        raise ValueError(f"harmonic index must be an integer, got {k!r}")
    k = int(k) if isinstance(k, int) else int(number)
    if k < 1 or k % 2 == 0:
        raise ValueError(f"harmonic index must be a positive odd integer, got {k}")
    return k


@dataclass(frozen=True)
class TwoLevelAtom:
    """A pair of discrete levels with the energy zero fixed at the lower one.

    In the dipole approximation the transition dipole enters only through
    the Rabi frequency chi = d E0, which the pulse carries, so the splitting
    alone describes the atom.  The hydrogen 2s-2p dipole lives in
    :func:`twolevel.hydrogen.dipole_2s2p`, where ``field_for_transfer`` and
    the ``info`` command read it.

    Parameters
    ----------
    omega21 : float
        Energy splitting of the two levels in Hartree, >= 0.  With the zero
        of energy at the lower level this is also the upper-level energy.
    """

    omega21: float

    def __post_init__(self) -> None:
        omega21 = _check_finite("omega21", self.omega21)
        if omega21 < 0.0:
            raise ValueError(f"omega21 must be >= 0, got {omega21}")


# --- pulse families -----------------------------------------------------------
#
# Two families: HarmonicSum, whose one-term member Cosine(chi, omega) builds,
# and GaussianApprox.  Each provides value(t), action(t), derivative(t, order),
# the scales period and action_scale, scaled(s) and to_dict(), and
# derivative_bound(t, order): the magnitude sum of the terms derivative adds,
# its rounding scale.

def _check_omega(omega: float) -> float:
    omega = _check_finite("omega", omega)
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return omega


def _check_order(order) -> int:
    """A derivative order as an int; ValueError unless it is an integer >= 0."""
    number = _check_finite("derivative order", order)
    if isinstance(order, bool) or not number.is_integer():
        raise ValueError(f"derivative order must be an integer, got {order!r}")
    order = int(number)
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    return order


def _finite(compute, what: str) -> float:
    """``compute()``, a derivative, its bound, a series bound or the designed
    frequency, named by ``what``; ValueError where it overflows a double (or
    comes out nan)."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} is not a finite double")
    return value


def odd_harmonic_action(omega: float, harmonics, chi, t):
    """Action of V21 = -sum_k chi_k cos(k omega t), for one pulse or many.

    ``chi[j]`` is the coefficient of harmonic ``harmonics[j]``: a number for
    one pulse, or an array with one value per pulse, shaped to broadcast
    against ``t``, for many; chi of shape (len(harmonics), rows, 1) and a
    1-d ``t`` give one row per pulse.  The terms chi_k/(k omega)
    sin(k omega t) are added in harmonic order and the sum is negated last,
    so every row is bit for bit the action of its pulse alone.
    """
    total = 0
    for k, c in zip(harmonics, chi):
        w = k * omega
        total = total + c / w * np.sin(w * t)
    return -total


@dataclass(frozen=True)
class HarmonicSum:
    """Sum of odd harmonics of a base frequency.

    V21(t) = -sum_k chi_k * cos(k * omega * t) over the listed (k, chi_k)
    pairs.  Restricting k to odd integers keeps every member's magnitude
    peaked at t = pi / (2 omega), the same instant as the plain cosine, which
    is what makes the transfer normalization one-dimensional.
    """

    omega: float
    coefficients: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _check_omega(self.omega))
        coeffs = []
        for k, c in self.coefficients:
            k = _check_index(k)
            coeffs.append((k, _check_finite(f"coefficient for k={k}", c)))
        if not coeffs:
            raise ValueError("HarmonicSum needs at least one (k, chi_k) pair")
        if len({k for k, _ in coeffs}) != len(coeffs):
            raise ValueError("duplicate harmonic index")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def value(self, t):
        return -sum(c * np.cos(k * self.omega * t) for k, c in self.coefficients)

    def derivative(self, t: float, order: int) -> float:
        order = _check_order(order)
        w = self.omega
        return _finite(
            lambda: -sum(c * (k * w) ** order * math.cos(k * w * t + 0.5 * math.pi * order)
                         for k, c in self.coefficients),
            f"the order-{order} derivative at t={t}")

    def action(self, t):
        harmonics, chi = zip(*self.coefficients)
        return odd_harmonic_action(self.omega, harmonics, chi, t)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def derivative_bound(self, t: float, order: int) -> float:
        order = _check_order(order)
        return _finite(
            lambda: sum(abs(c) * (k * self.omega) ** order for k, c in self.coefficients),
            f"the order-{order} derivative at t={t}")

    @property
    def action_scale(self) -> float:
        return sum(abs(c) / (k * self.omega) for k, c in self.coefficients)

    def scaled(self, s: float) -> HarmonicSum:
        return HarmonicSum(self.omega, tuple((k, c * s) for k, c in self.coefficients))

    def to_dict(self) -> dict:
        coefficients = [[k, c] for k, c in self.coefficients]
        return {"type": "harmonic_sum", "omega": self.omega, "coefficients": coefficients}


def Cosine(chi: float, omega: float) -> HarmonicSum:
    """Monochromatic drive V21(t) = -chi * cos(omega * t).

    ``chi`` is the Rabi frequency (field amplitude times dipole projection),
    ``omega`` the field angular frequency; both in Hartree.  It is the
    one-term harmonic sum with coefficients ((1, chi),).
    """
    return HarmonicSum(omega, ((1, _check_finite("chi", chi)),))


def _hermite_e(n: int, x: float, sign: float = -1.0) -> float:
    """Probabilists' Hermite polynomial He_n(x) by the three-term recurrence.

    ``sign`` = +1 and x = |x| add every term, a bound on |He_n(x)|.
    """
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for m in range(1, n):
        prev, cur = cur, x * cur + sign * m * prev
    return cur


def _gauss_cdf(x):
    return 0.5 * (1.0 + np.asarray(_erf(x / math.sqrt(2.0)), dtype=float))


@dataclass(frozen=True)
class GaussianApprox:
    """Normalized Gaussian approximant to an instantaneous kick.

    V21(t) = area * N(t; center, width) with N the Gaussian density, so the
    full-line integral of V21 is exactly ``area``.  ``width`` is the Gaussian
    standard deviation and serves as the pulse's ``period``.  Derivatives
    carry Hermite-polynomial prefactors.
    """

    area: float
    center: float
    width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "area", _check_finite("area", self.area))
        object.__setattr__(self, "center", _check_finite("center", self.center))
        width = _check_finite("width", self.width)
        if width <= 0.0:
            raise ValueError(f"width must be > 0, got {width}")
        object.__setattr__(self, "width", width)

    def value(self, t):
        x = (t - self.center) / self.width
        return self.area * np.exp(-0.5 * x * x) / (self.width * _SQRT_2PI)

    def derivative(self, t: float, order: int) -> float:
        order = _check_order(order)
        x = (t - self.center) / self.width
        gauss = math.exp(-0.5 * x * x) / _SQRT_2PI
        sign = -1.0 if order % 2 else 1.0
        return _finite(
            lambda: self.area * sign * _hermite_e(order, x) * gauss / self.width ** (order + 1),
            f"the order-{order} derivative at t={t}")

    def derivative_bound(self, t: float, order: int) -> float:
        order = _check_order(order)
        x = (t - self.center) / self.width
        gauss = math.exp(-0.5 * x * x) / _SQRT_2PI
        return _finite(
            lambda: abs(self.area) * _hermite_e(order, abs(x), 1.0) * gauss
            / self.width ** (order + 1), f"the order-{order} derivative at t={t}")

    def action(self, t):
        lo = _gauss_cdf((0.0 - self.center) / self.width)
        return self.area * (_gauss_cdf((t - self.center) / self.width) - lo)

    @property
    def period(self) -> float:
        return self.width

    @property
    def action_scale(self) -> float:
        return abs(self.area)

    def scaled(self, s: float) -> GaussianApprox:
        return GaussianApprox(area=self.area * s, center=self.center, width=self.width)

    def to_dict(self) -> dict:
        return {"type": "gaussian", "area": self.area, "center": self.center, "width": self.width}


PulseSpec = Union[HarmonicSum, GaussianApprox]


# Module-level spellings of value and action: perfbench/tracer.py wraps them.
def pulse_value(pulse: PulseSpec, t):
    """Coupling matrix element V21 at time ``t`` (scalar or array)."""
    return pulse.value(t)


def action(pulse: PulseSpec, t):
    """Action integral A(t) = integral of V21 from 0 to ``t`` (closed form).

    The action is the single quantity controlling population transfer in the
    degenerate limit: P2 = sin^2 A.  Complete transfer needs |A| to reach an
    odd multiple of pi/2.
    """
    return pulse.action(t)


@dataclass(frozen=True)
class AmplitudeState:
    """Complex amplitude pair (a1, a2) of the two-level wave function."""

    a1: complex
    a2: complex

    # The unit-norm check of the closed-form degenerate_amplitudes reads it.
    @property
    def norm_defect(self) -> float:
        """Absolute deviation of |a1|^2 + |a2|^2 from one."""
        return abs(abs(self.a1) ** 2 + abs(self.a2) ** 2 - 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Amplitudes sampled on a strictly increasing time grid.

    ``times``, ``a1`` and ``a2`` are equal-length one-dimensional arrays; the
    arrays are frozen after construction so trajectories can be shared freely.
    """

    times: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        a1 = np.asarray(self.a1, dtype=complex)
        a2 = np.asarray(self.a2, dtype=complex)
        if times.ndim != 1 or a1.shape != times.shape or a2.shape != times.shape:
            raise ValueError("times, a1, a2 must be equal-length 1-d arrays")
        if times.size < 1:
            raise ValueError("trajectory must contain at least one sample")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        for arr in (times, a1, a2):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    def __len__(self) -> int:
        return self.times.size

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.a1) ** 2

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.a2) ** 2

    def norm_defect(self) -> np.ndarray:
        """|a1|^2 + |a2|^2 - 1 at every grid point (integrator diagnostic)."""
        return np.abs(self.p1 + self.p2 - 1.0)


# --- JSON wire format -------------------------------------------------------
#
# Tagged by a "type" field: "cosine" | "harmonic_sum" | "gaussian".  A pulse
# serializes with its own to_dict(); a "cosine" reads as the one-term harmonic
# sum and so writes back as "harmonic_sum".  Complex numbers never appear in
# the pulse schema; trajectory output keeps real and imaginary parts in
# separate columns.  pulse_from_dict is the one parser of outside input
# (--pulse-json).

def pulse_from_dict(data: dict) -> PulseSpec:
    """Inverse of ``pulse.to_dict()``; raises ValueError on malformed input."""
    try:
        tag = data["type"]
    except (TypeError, KeyError):
        raise ValueError("pulse dict must carry a 'type' tag") from None
    try:
        if tag == "cosine":
            return Cosine(chi=data["chi"], omega=data["omega"])
        if tag == "harmonic_sum":
            return HarmonicSum(omega=data["omega"], coefficients=data["coefficients"])
        if tag == "gaussian":
            return GaussianApprox(area=data["area"], center=data["center"], width=data["width"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {tag!r} pulse dict: {exc}") from None
    raise ValueError(f"unknown pulse type {tag!r}")

