"""Closed-form solutions for the degenerately driven two-level system.

Everything here follows from dropping the level-splitting term in the coupled
amplitude equations, which is legitimate when the splitting omega21 is small
against the drive frequency.  In that limit the amplitudes depend on time only
through the action integral A(t) of the coupling, P2 = sin^2 A, and a cosine
drive with chi/omega = pi/2 transfers the population completely twice per
field period.  The quartic expansion of the probability peak, the frequency
design rule derived from it, the truncated-series leakage bounds for finite
omega21, and the exact derivatives of P2 of every order used for pulse
flattening (one Taylor-coefficient recurrence) all live here as pure functions.

For finite omega21, :func:`first_order_from_action` adds the first-order
interaction-picture term on a time grid, for one pulse or many at once
from their actions, one row each.  It reduces to sin^2 A at omega21 = 0,
where it skips the correction's integrals, which add exactly +0.0 there.
The optimizer ranks a whole generation of candidates on it while
omega/omega21 is large.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AmplitudeState, PulseSpec, _check_order, _finite, action

__all__ = [
    "DesignRequest",
    "degenerate_amplitudes",
    "transfer_populations",
    "quartic_peak_approx",
    "design_frequency",
    "leakage_estimate",
    "leakage_at_peak",
    "populations_from_action",
    "first_order_from_action",
    "p2_derivatives",
    "delta_pulse_populations",
    "detuning_sensitivity",
]


@dataclass(frozen=True)
class DesignRequest:
    """Requested populated-state duration ``t_s`` and leakage budget ``p_cr``.

    ``t_s`` is the full width of the window around the probability peak within
    which the leakage 1 - P2 must stay at or below ``p_cr``.
    """

    t_s: float
    p_cr: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_s) and self.t_s > 0.0):
            raise ValueError(f"t_s must be finite and > 0, got {self.t_s}")
        if not (0.0 < self.p_cr < 1.0):
            raise ValueError(f"p_cr must lie in (0, 1), got {self.p_cr}")


def degenerate_amplitudes(chi: float, omega: float, t: float) -> AmplitudeState:
    """Exact degenerate-limit amplitudes for the cosine drive.

    a1 = cos[(chi/omega) sin(omega t)], a2 = i sin[(chi/omega) sin(omega t)];
    the pair is unit-norm by the Pythagorean identity.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    y = (chi / omega) * math.sin(omega * t)
    return AmplitudeState(complex(math.cos(y)), 1j * math.sin(y))


def transfer_populations(omega: float, t):
    """Populations (P1, P2) for the complete-transfer drive chi/omega = pi/2.

    P2 = sin^2[(pi/2) sin(omega t)] reaches exactly 1 at t = pi/(2 omega) and
    repeats with period pi/omega, half the field period.  Accepts scalar or
    array ``t``.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    y = 0.5 * math.pi * np.sin(omega * np.asarray(t, dtype=float))
    p2 = np.sin(y) ** 2
    p1 = np.cos(y) ** 2
    if np.ndim(t) == 0:
        return float(p1), float(p2)
    return p1, p2


def quartic_peak_approx(omega: float, tau):
    """Quartic flat-top approximation 1 - (pi^2/16)(omega tau)^4 of the peak.

    ``tau`` is the offset from the peak time.  Valid for |omega tau| < 1; the
    raw polynomial value is returned without clamping, so far outside that
    window it goes negative.
    """
    x = omega * np.asarray(tau, dtype=float)
    out = 1.0 - (math.pi**2 / 16.0) * x**4
    if np.ndim(tau) == 0:
        return float(out)
    return out


def design_frequency(request: DesignRequest) -> float:
    """Drive frequency that holds leakage <= p_cr over a window of width t_s.

    Inverting the quartic peak approximation at leakage p_cr and half-width
    t_s/2 gives omega * (t_s/2) = (16 p_cr / pi^2)^(1/4), i.e.
    omega = (4/sqrt(pi)) * p_cr^(1/4) / t_s.  By construction
    quartic_peak_approx(omega, t_s/2) == 1 - p_cr.  ValueError where it
    overflows a double, as it does for a window of a few subnormal a.u.
    """
    return _finite(lambda: 4.0 * request.p_cr**0.25 / (math.sqrt(math.pi) * request.t_s),
                   "the designed frequency")


def leakage_estimate(omega21: float, chi: float, t: float) -> float:
    """Truncated-series leakage (1/4) omega21^2 chi^2 t^4 at elapsed time t.

    First correction to the degenerate-limit populations from a finite level
    splitting; grows like t^4 from the common initial condition.  ValueError
    where it overflows a double.
    """
    return _finite(lambda: 0.25 * omega21**2 * chi**2 * t**4, "the series leakage bound")


def leakage_at_peak(omega21: float, omega: float) -> float:
    """Series bound (1/4)(pi/2)^6 (omega21/omega)^2 on leakage at the first peak.

    Obtained from :func:`leakage_estimate` at t = pi/(2 omega) with the
    complete-transfer amplitude chi = (pi/2) omega.  This is an
    order-of-magnitude bound, not a sharp prediction: integrated dynamics stay
    well below it (the sharp comparison is done numerically in
    :mod:`twolevel.integrator`).  ValueError where it overflows a double,
    as it does for a drive far below the splitting.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return _finite(lambda: 0.25 * (0.5 * math.pi) ** 6 * (omega21 / omega) ** 2,
                   "the series leakage bound")


def populations_from_action(pulse: PulseSpec, t, t0: float = 0.0):
    """Populations (P1, P2) = (cos^2 A, sin^2 A) for an arbitrary pulse shape.

    ``A`` is the action from the preparation time ``t0``, when the state is
    in level 1: A(t) - A(t0), with A from :func:`twolevel.core.action`.  For
    the cosine drive normalized to chi = (pi/2) omega and t0 = 0 this reduces
    exactly to :func:`transfer_populations`.
    """
    a = np.asarray(action(pulse, t), dtype=float)
    a -= action(pulse, t0)
    p1 = np.cos(a) ** 2
    p2 = np.sin(a) ** 2
    if np.ndim(t) == 0:
        return float(p1), float(p2)
    return p1, p2


def first_order_from_action(a: np.ndarray, omega21: float,
                            times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Populations (P1, P2) to first order in the splitting, on the grid ``times``.

    In the frame of the degenerate propagator exp(-i A sigma_x) the splitting
    term reads (omega21/2)(1 - cos 2A sigma_z - sin 2A sigma_y).  One
    first-order step from the lower level at t = 0 gives

        P1 = cos^2 A + (omega21^2/4) [(t - C) cos A - S sin A]^2

    with C = integral of cos 2A and S = integral of sin 2A from 0 to t, and
    P2 = 1 - P1.  At omega21 = 0 this is exactly (cos^2 A, sin^2 A); at a
    peak of P2 the leakage is (omega21^2/4) S^2.  For the transfer cosine
    S(t_peak) = (pi/2) H_0(pi) / omega (Struve function, Abramowitz & Stegun
    12.1.7), a peak leakage of 0.16540 (omega21/omega)^2.

    ``times`` is an increasing 1-d grid that starts at 0, else ValueError;
    C and S are cumulative trapezoid sums over it.  ``a`` is the action on
    it, with shape (..., n) for the n grid points, one pulse per row, and
    ``p1`` and ``p2`` come back in that shape; every row equals the
    populations of its pulse alone bit for bit.  ``a`` may be overwritten:
    it is one of the five arrays of its shape that the computation holds at
    most.  At omega21 = 0 the correction term is +0.0 wherever the action is
    finite, so the populations are computed as (cos^2 A, sin^2 A) directly,
    bit for bit the same, without C and S.
    """
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0:
        raise ValueError("t must be a 1-d grid of at least two points starting at 0")
    a = np.ascontiguousarray(a, dtype=float)
    cos_a = np.cos(a)
    sin_a = np.sin(a, out=a)
    if omega21 == 0.0:
        return np.multiply(cos_a, cos_a, out=cos_a), np.multiply(sin_a, sin_a, out=sin_a)
    half_steps = np.empty_like(times)
    half_steps[0] = 0.0
    np.multiply(0.5, np.diff(times), out=half_steps[1:])

    def cumulative_trapezoid(y, out):
        # Pair sums over the flattened rows, so every operand is contiguous;
        # the sums that wrap from one row's end into the next row's column 0
        # are zeroed.
        flat = y.reshape(-1)
        np.add(flat[1:], flat[:-1], out=out.reshape(-1)[1:])
        out *= half_steps
        out[..., 0] = 0.0
        return np.cumsum(out, axis=-1, out=out)

    work = np.multiply(cos_a, cos_a)
    c = np.multiply(sin_a, sin_a)
    work -= c  # cos 2A
    cumulative_trapezoid(work, out=c)
    np.multiply(sin_a, 2.0, out=work)
    work *= cos_a  # sin 2A
    s = cumulative_trapezoid(work, out=np.empty_like(work))
    del work
    leak = np.subtract(times, c, out=c)
    leak *= cos_a
    s *= sin_a
    leak -= s
    del s
    np.multiply(leak, leak, out=leak)
    leak *= 0.25 * omega21 * omega21
    p1 = np.multiply(cos_a, cos_a, out=cos_a)
    p1 += leak
    p2 = np.multiply(sin_a, sin_a, out=sin_a)
    p2 -= leak
    return p1, p2


def _cos_derivatives(v, s0: float, c0: float, sign: float) -> list[float]:
    """Derivatives 0..n of cos B at t, where B' = 2 V and ``v`` holds V^(0..n-1)(t).

    With the Taylor coefficients b_r = 2 V^(r-1)(t)/r! of B, those of s = sin B
    and c = cos B follow from s_0 = sin B(t), c_0 = cos B(t) and (Griewank &
    Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13)

        k s_k = sum_(j=1..k) j b_j c_(k-j),   k c_k = -sum_(j=1..k) j b_j s_(k-j);

    the k-th derivative is k! c_k.  ``sign`` = -1 gives this.  ``sign`` = +1,
    bounds on |V^(r)| and s_0 = c_0 = 1 add magnitudes instead, which bounds
    the numbers the signed run rounds.
    """
    jb, s, c = [], [s0], [c0]  # jb[j-1] = j b_j = 2 V^(j-1)/(j-1)!
    fact = 1.0
    out = [c0]
    for k, vk in enumerate(v, start=1):
        jb.append(2.0 * vk / fact)
        fact *= k
        s.append(sum(jb[j] * c[k - 1 - j] for j in range(k)) / k)
        c.append(sign * sum(jb[j] * s[k - 1 - j] for j in range(k)) / k)
        out.append(fact * c[k])
    return out


def p2_derivatives(pulse: PulseSpec, t: float, n: int) -> np.ndarray:
    """Derivatives d^k P2/dt^k at ``t`` for k = 0..n, with P2 = sin^2 A.

    P2 = (1 - cos B)/2 with B = 2A, so d^k P2 = -(1/2) d^k cos B for k >= 1,
    and one Taylor recurrence (:func:`_cos_derivatives`) gives every order
    from A(t) and V21^(0..n-1)(t) in O(n^2) operations.  An order above 170
    (171! overflows a double) or a derivative that overflows raises ValueError.
    """
    n = _check_order(n)
    if n > 170:
        raise ValueError(f"derivative order must be <= 170 (171! overflows a double), got {n}")
    a = float(action(pulse, t))
    v = [pulse.derivative(t, r) for r in range(n)]
    cos_b = _cos_derivatives(v, math.sin(2.0 * a), math.cos(2.0 * a), -1.0)
    derivs = np.array([math.sin(a) ** 2] + [-0.5 * d for d in cos_b[1:]])
    if not np.all(np.isfinite(derivs)):
        raise ValueError(f"derivatives of P2 up to order {n} overflow at t={t}")
    return derivs


def delta_pulse_populations(t: float, t0: float) -> tuple[float, float]:
    """Populations under an instantaneous half-cycle kick at ``t0``.

    P1 = 1 - step(t - t0), P2 = step(t - t0); the step takes the value 1 at
    t = t0 (fixed convention for determinism at the measure-zero instant).
    """
    if t >= t0:
        return 0.0, 1.0
    return 1.0, 0.0


def detuning_sensitivity(epsilon: float) -> float:
    """Peak-time P2 when the drive ratio chi/omega misses pi/2 by ``epsilon``.

    At the nominal peak time t = pi/(2 omega) the transferred population is
    sin^2(pi/2 + epsilon) = cos^2(epsilon) = 1 - epsilon^2 + O(epsilon^4),
    which quantifies sensitivity to fluctuations of the drive strength.
    """
    if abs(epsilon) >= 0.5 * math.pi:
        raise ValueError(f"|epsilon| must be < pi/2, got {epsilon}")
    return math.cos(epsilon) ** 2
