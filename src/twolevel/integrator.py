"""Fixed-step RK4 propagation of the coupled amplitude equations.

The equations integrated are

    i da1/dt = V21(t) a2
    i da2/dt = omega21 a2 + V21(t) a1

with V21 evaluated from the pulse.  They are linear, da/dt = -iH(t)a, so one
classic fourth-order Runge-Kutta step on a fixed grid is exactly a 2x2
complex matrix, a_{k+1} = P_k a_k, built from V21 at the step's start,
midpoint and end.  :func:`integrate` evaluates V21, builds the step matrices
with numpy and applies them as a blocked prefix product one chunk of steps
at a time; fixed steps keep output grids exactly reproducible.  No
renormalization is ever applied during integration: norm drift is a
diagnostic of integrator error, and correcting it would only mask that
error.  A trajectory whose drift passes MAX_NORM_DEFECT is refused instead.

:func:`populated_windows` measures the populated window of many P2 rows on
one grid in one array pass, the GA's whole generation at once;
:func:`populated_window` is its one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import (AmplitudeState, PulseSpec, Trajectory, TwoLevelAtom, _check_finite,
                   _check_integer, _check_positive, pulse_value)

__all__ = [
    "IntegrationError",
    "IntegrationConfig",
    "MAX_STEPS",
    "MAX_NORM_DEFECT",
    "integrate",
    "step_halving_error",
    "max_population_deviation",
    "populated_window",
    "populated_windows",
]


#: Largest grid :class:`IntegrationConfig` accepts; integrate peaks near 56
#: bytes per step.
MAX_STEPS = 10**7

#: A trajectory whose norm |a1|^2 + |a2|^2 strays from 1 by more than this
#: has blown up on its grid: its states can stay finite while its P2 reads
#: above 1 - p_cr over a whole period.  :func:`integrate` raises
#: :class:`IntegrationError` for it, so no caller sees such a trajectory.
#: Candidates that drift by 1e-6..1e-3 still reach windows up to 0.19 in
#: seeded RK4-ranked searches and steer the GA's tournaments, so a tighter
#: bound changes its winners.
MAX_NORM_DEFECT = 1e-3

#: Steps propagated together.  The march's workspace is near 450 bytes a step
#: of the chunk, and at 4096 steps it set the peak RSS of `simulate --sweep`
#: on 25-period grids: 33.53 MiB, against 32.65 at 2048 (x86-64 Linux,
#: glibc 2.36, Python 3.11, numpy 2.4).
_CHUNK = 2048


class IntegrationError(RuntimeError):
    """Raised when the integrated state stops being finite or its norm blows up."""

    def __init__(self, message: str, time: float) -> None:
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class IntegrationConfig:
    """The grid and initial condition of :func:`integrate`, checked when built.

    The span is divided into ``n`` equal steps of length ``h``, ``n`` the
    nearest whole number to span / step.  ValueError if the step exceeds the
    span, the grid exceeds MAX_STEPS, the step is no larger than the spacing
    of doubles at the grid end of largest magnitude, where its times could
    not increase, or the initial norm strays from 1 by more than
    MAX_NORM_DEFECT.  Within MAX_STEPS a larger step always gives strictly
    increasing grid times.
    """

    t_start: float
    t_end: float
    step: float
    initial: AmplitudeState = AmplitudeState(1.0 + 0.0j, 0.0 + 0.0j)
    n: int = field(init=False)
    h: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_start", _check_finite("t_start", self.t_start))
        object.__setattr__(self, "t_end", _check_finite("t_end", self.t_end))
        if self.t_end <= self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        object.__setattr__(self, "step", _check_positive("step", self.step))
        span = self.t_end - self.t_start
        if self.step > span:
            raise ValueError(f"the step {self.step:.6g} exceeds the span {span:.6g}")
        n = span / self.step
        if not n <= MAX_STEPS:
            raise ValueError(f"the grid needs {n:.3g} steps, more than the limit of {MAX_STEPS}")
        n = round(n)
        t = max(self.t_start, self.t_end, key=abs)
        if not span / n > math.ulp(t):
            raise ValueError(f"the step {span / n:.6g} does not resolve the time t={t:.6g}, "
                             f"where doubles are {math.ulp(t):.6g} apart")
        if not self.initial.norm_defect <= MAX_NORM_DEFECT:
            raise ValueError(f"the norm of the initial state {self.initial} strays from 1 "
                             f"by {self.initial.norm_defect:.3g}, past {MAX_NORM_DEFECT:g}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", span / n)

    @classmethod
    def per_period(cls, t_start: float, t_end: float, period: float,
                   steps_per_period: int = 1000) -> IntegrationConfig:
        """The grid of step ``period / steps_per_period``, with ``period`` the
        pulse's (field period for harmonic pulses, width for the Gaussian);
        ValueError unless the period is finite and > 0 and steps_per_period
        an integer >= 100."""
        period = _check_positive("period", period)
        steps_per_period = _check_integer("steps_per_period", steps_per_period, 100)
        return cls(t_start, t_end, period / steps_per_period)

    def times(self) -> np.ndarray:
        """The ``n + 1`` grid times of :func:`integrate`, ending exactly at t_end."""
        times = self.t_start + self.h * np.arange(self.n + 1)
        times[-1] = self.t_end
        return times

    def halved(self) -> IntegrationConfig:
        """The ``2n``-step grid that :func:`step_halving_error` integrates,
        whose even-numbered times are :meth:`times`; ValueError where it is
        refused, or where subnormal steps round it onto other times."""
        fine = replace(self, step=self.h / 2)
        if fine.n != 2 * self.n or 2.0 * fine.h != self.h:
            raise ValueError(f"the step {self.h:.6g} has no half on the doubles")
        return fine


def integrate(atom: TwoLevelAtom, pulse: PulseSpec, config: IntegrationConfig) -> Trajectory:
    """Propagate the amplitudes across the configured grid.

    Returns a trajectory whose first state is exactly the supplied initial
    condition.  Raises :class:`IntegrationError` with the grid time of the
    first non-finite pulse value or state if the pulse or the state
    overflows or turns NaN, and with the grid time of the largest defect if
    |a1|^2 + |a2|^2 strays from 1 by more than MAX_NORM_DEFECT anywhere.

    The state is marched across the grid ``_CHUNK`` steps at a time (see
    :func:`_march`).
    """
    states = np.empty((2, config.n + 1), dtype=complex)
    states[:, 0] = config.initial.a1, config.initial.a2
    # Overflow is reported as IntegrationError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        _march(pulse, config, atom.omega21, states)
        traj = Trajectory(times=config.times(), a1=states[0], a2=states[1])
        defect = traj.norm_defect()
    worst = int(np.argmax(defect))
    if not defect[worst] <= MAX_NORM_DEFECT:
        t_bad = float(traj.times[worst])
        raise IntegrationError(
            f"the norm drifted by {defect[worst]:.3g} at t={t_bad}, "
            f"past {MAX_NORM_DEFECT:g}; the step is too long for this pulse", time=t_bad)
    return traj


def _march(pulse: PulseSpec, config: IntegrationConfig, w: float, states: np.ndarray) -> None:
    """Fill ``states[:, 1:]`` by stepping ``states[:, 0]`` across the first
    ``m`` steps of the grid, ``states`` of shape (2, m + 1), ``_CHUNK`` steps
    at a time.

    Each chunk's pulse values are evaluated right before its step matrices.
    IntegrationError with the grid time of the first pulse value or state
    that is not finite.
    """
    t_start, h = config.t_start, config.h
    m = states.shape[1] - 1
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        v = np.asarray(pulse_value(pulse, t_start + 0.5 * h * np.arange(2 * lo, 2 * hi + 1)),
                       dtype=float)
        if not np.all(np.isfinite(v)):
            t_bad = t_start + 0.5 * h * (2 * lo + int(np.argmin(np.isfinite(v))))
            raise IntegrationError(f"pulse is not finite at t={t_bad}", time=t_bad)
        states[:, lo + 1:hi + 1] = _propagate(_step_matrices(v, w, h), states[:, lo].tolist())
        finite = np.isfinite(states[:, lo + 1:hi + 1]).all(axis=0)
        if not finite.all():
            t_bad = t_start + (lo + 1 + int(np.argmin(finite))) * h
            raise IntegrationError(f"non-finite amplitudes at t={t_bad}", time=t_bad)


def _step_matrices(v: np.ndarray, w: float, h: float) -> np.ndarray:
    """RK4 step matrices ``p`` with ``a(t_k + h) = p[:, :, k] @ a(t_k)``.

    ``v`` holds V21 at the grid points and midpoints of the steps, 2n + 1
    values.  RK4 is linear in the state, so one pass of its stages over both
    columns of the identity at once gives the matrices.  ``rate`` is H a,
    with the -i of da/dt = -iHa folded into the stage coefficients.  The
    stages are combined in place, in the operand order of
    ``x + c (k1 + 2 (k2 + k3) + k4)``, so at most five arrays of the chunk's
    size are held at once; the heap that seven left behind raised the peak
    RSS of `simulate --sweep` by 0.14 MiB.
    """
    va, vb, vc = v[:-1:2], v[1::2], v[2::2]
    x = np.zeros((2, 2, va.size), dtype=complex)
    x[0, 0] = x[1, 1] = 1.0

    def rate(vt, y):
        k = vt * y[::-1]  # (V a2, V a1)
        k[1] += w * y[1]
        return k

    k1 = rate(va, x)
    y = x + (-0.5j * h) * k1
    k2 = rate(vb, y)
    np.add(x, np.multiply(-0.5j * h, k2, out=y), out=y)
    k3 = rate(vb, y)
    np.add(x, np.multiply(-1j * h, k3, out=y), out=y)
    k2 += k3
    del k3  # its memory takes k4
    k4 = rate(vc, y)
    k1 += np.multiply(2.0, k2, out=k2)
    k1 += k4
    x += np.multiply(-1j * h / 6.0, k1, out=k1)
    return x


def _propagate(p: np.ndarray, x: list[complex]) -> np.ndarray:
    """States after each step, ``a_{k+1} = p[:, :, k] @ a_k`` from ``a_0 = x``.

    A prefix product in blocks of b ~ sqrt(n/16) steps (Blelloch, "Prefix
    sums and their applications", 1990): the running products within every
    block, looping over the b offsets with all blocks at once; then the
    block-start states, carried through the block totals in Python complex
    arithmetic; then every state in one broadcast multiply.  Returns (2, n).
    """
    n = p.shape[2]
    b = math.ceil(math.sqrt(n / 16))
    m = -(-n // b)
    q = np.empty((2, 2, m * b), dtype=complex)
    q[:, :, :n] = p
    q[:, :, n:] = np.eye(2)[:, :, None]  # identity steps pad the last block
    q = q.reshape(2, 2, m, b)
    for j in range(1, b):
        q[..., j] = q[:, :1, :, j] * q[:1, :, :, j - 1] + q[:, 1:, :, j] * q[1:, :, :, j - 1]
    x1, x2 = x
    s1, s2 = [], []
    for t11, t12, t21, t22 in zip(*q[..., -1].reshape(4, m).tolist()):
        s1.append(x1)
        s2.append(x2)
        x1, x2 = t11 * x1 + t12 * x2, t21 * x1 + t22 * x2
    y = q[:, 0] * np.array(s1)[:, None] + q[:, 1] * np.array(s2)[:, None]
    return y.reshape(2, m * b)[:, :n]


def step_halving_error(atom: TwoLevelAtom, pulse: PulseSpec, config: IntegrationConfig,
                       *, coarse: Trajectory) -> float:
    """Grid-error report: max amplitude change when the step is halved.

    ``coarse`` is ``integrate(atom, pulse, config)``, which the caller
    already holds; the pulse is integrated once more at half the step, and
    the largest amplitude difference on the shared grid points is returned.
    For a fourth-order stepper this is within a few percent of the coarse
    grid's true error.  Purely a report; nothing is refined behind the
    caller's back.  ValueError if ``coarse`` is not on the configured grid.
    """
    if len(coarse) != config.n + 1:
        raise ValueError(f"coarse trajectory has {len(coarse)} points, the grid {config.n + 1}")
    fine = integrate(atom, pulse, config.halved())
    return max(
        float(np.max(np.abs(coarse.a1 - fine.a1[::2]))),
        float(np.max(np.abs(coarse.a2 - fine.a2[::2]))),
    )


def max_population_deviation(
    traj: Trajectory,
    reference: Callable[[float], tuple[float, float]],
    window: Sequence[float],
) -> float:
    """Largest |P2 - P2_ref| over the grid points inside ``window``.

    ``reference`` maps a time to reference populations (P1, P2), e.g.
    :func:`twolevel.analytic.transfer_populations` partially applied.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if t_b < t_a:
        raise ValueError(f"window bounds out of order: [{t_a}, {t_b}]")
    times = traj.times
    if t_a < times[0] - 1e-12 or t_b > times[-1] + 1e-12:
        raise ValueError("window extends outside the trajectory span")
    mask = (times >= t_a) & (times <= t_b)
    if not mask.any():
        raise ValueError("window contains no grid points")
    p2 = traj.p2[mask]
    ref_p2 = np.array([reference(float(t))[1] for t in times[mask]])
    return float(np.max(np.abs(p2 - ref_p2)))


def populated_window(traj, p_cr: float) -> float:
    """Full width of the longest contiguous window where 1 - P2 <= p_cr.

    ``traj`` is a :class:`Trajectory`, or any object with equal-length
    ``times`` and finite ``p2`` arrays.  It is the one-row case of
    :func:`populated_windows`, which windows a model curve such as
    :func:`twolevel.analytic.first_order_from_action`'s.  Raises ValueError
    when no grid point reaches P2 >= 1 - p_cr.
    """
    p2 = traj.p2
    (width,) = populated_windows(traj.times, p2[None], p_cr).tolist()
    threshold = 1.0 - p_cr
    if width == 0.0 and not (p2 >= threshold).any():
        raise ValueError(
            f"peak never reaches threshold: max P2 = {float(p2.max())} < {threshold}"
        )
    return width


def populated_windows(times: np.ndarray, p2: np.ndarray, p_cr: float) -> np.ndarray:
    """:func:`populated_window` of every row of ``p2``, on the common grid ``times``.

    ``p2`` has shape (rows, times.size) and finite values.  Window edges are
    linearly interpolated between the grid points that bracket each
    threshold crossing; a run that touches an end of the grid ends there.
    A row that never reaches P2 >= 1 - p_cr has width 0.0.
    """
    p_cr = _check_finite("p_cr", p_cr)
    if not 0.0 < p_cr <= 1.0:
        raise ValueError(f"p_cr must lie in (0, 1], got {p_cr}")
    threshold = 1.0 - p_cr
    rows, n = p2.shape
    # The mask, padded with False at both ends, changes between padded
    # columns j and j + 1 once at each end of every run, so each row's
    # changes alternate run start, run end.
    mask = np.zeros((rows, n + 2), dtype=bool)
    np.greater_equal(p2, threshold, out=mask[:, 1:-1])
    r, j = np.nonzero(mask[:, 1:] != mask[:, :-1])
    edges = np.where(j == 0, times[0], times[-1])
    # An inner change crosses between grid points k = j - 1 and k + 1.  For a
    # falling crossing the numerator and denominator are the rising form
    # negated, which leaves the quotient exact.
    inner = (j > 0) & (j < n)
    row, k = r[inner], j[inner] - 1
    edges[inner] = times[k] + (threshold - p2[row, k]) / (p2[row, k + 1] - p2[row, k]) * (
        times[k + 1] - times[k])
    widths = np.full(rows, -math.inf)
    np.maximum.at(widths, r[::2], edges[1::2] - edges[::2])
    widths[widths == -math.inf] = 0.0
    return widths
