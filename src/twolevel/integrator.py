"""Fixed-step RK4 propagation of the coupled amplitude equations.

The equations integrated are

    i da1/dt = V21(t) a2
    i da2/dt = omega21 a2 + V21(t) a1

with V21 evaluated from the pulse.  They are linear, da/dt = -iH(t)a, so one
classic fourth-order Runge-Kutta step on a fixed grid is exactly a 2x2
complex matrix, a_{k+1} = P_k a_k, built from V21 at the step's start,
midpoint and end.  :func:`integrate` builds the step matrices with numpy and
applies them as a blocked prefix product, a fixed number of steps at a time;
fixed steps keep output grids exactly reproducible.  No renormalization is
ever applied during integration: norm drift is a diagnostic of integrator
error, and correcting it would only mask that error.  A trajectory whose
drift passes MAX_NORM_DEFECT is refused instead.

:func:`populated_windows` measures the populated window of many P2 rows on
one grid in one array pass, the GA's whole generation at once;
:func:`populated_window` is its one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import AmplitudeState, PulseSpec, Trajectory, TwoLevelAtom, pulse_value

__all__ = [
    "IntegrationError",
    "IntegrationConfig",
    "MAX_STEPS",
    "MAX_NORM_DEFECT",
    "step_count",
    "grid_times",
    "integrate",
    "half_step_grid",
    "step_halving_error",
    "max_population_deviation",
    "populated_window",
    "populated_windows",
]


#: Largest grid :func:`integrate` accepts; it peaks near 60 bytes per step.
MAX_STEPS = 10**7

#: A trajectory whose norm |a1|^2 + |a2|^2 strays from 1 by more than this
#: has blown up on its grid: its states can stay finite while its P2 reads
#: above 1 - p_cr over a whole period.  :func:`integrate` raises
#: :class:`IntegrationError` for it, so no caller sees such a trajectory.
#: Candidates that drift by 1e-6..1e-3 still reach windows up to 0.19 in
#: seeded RK4-ranked searches and steer the GA's tournaments, so a tighter
#: bound changes its winners.
MAX_NORM_DEFECT = 1e-3

#: Steps propagated together; bounds the kernel's workspace to a few MB.
_CHUNK = 4096


class IntegrationError(RuntimeError):
    """Raised when the integrated state stops being finite or its norm blows up."""

    def __init__(self, message: str, time: float) -> None:
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class IntegrationConfig:
    """Grid and initial condition for :func:`integrate`.

    Either give an explicit ``step`` or let the grid derive from
    ``steps_per_period`` and the pulse's ``period`` (field period for
    harmonic pulses, width for the Gaussian).  The span is always divided
    into a whole number of equal steps.
    """

    t_start: float
    t_end: float
    initial: AmplitudeState = field(
        default_factory=lambda: AmplitudeState(1.0 + 0.0j, 0.0 + 0.0j)
    )
    step: float | None = None
    steps_per_period: int = 1000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("t_start and t_end must be finite")
        if self.t_end <= self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if self.step is not None and not self.step > 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.steps_per_period < 100:
            raise ValueError(f"steps_per_period must be >= 100, got {self.steps_per_period}")


def step_count(pulse: PulseSpec, config: IntegrationConfig) -> int:
    """Number of equal steps on the grid.

    ValueError if the step exceeds the span, the grid exceeds MAX_STEPS, or
    the step is no larger than the spacing of doubles at the grid end of
    largest magnitude, where its times could not increase.  Within MAX_STEPS
    a larger step always gives strictly increasing grid times.
    """
    step = config.step
    if step is None:
        step = pulse.period / config.steps_per_period
    span = config.t_end - config.t_start
    if step > span:
        raise ValueError(f"the step {step:.6g} exceeds the span {span:.6g}")
    n = span / step
    if not n <= MAX_STEPS:
        raise ValueError(f"the grid needs {n:.3g} steps, more than the limit of {MAX_STEPS}")
    n = round(n)
    t = max(config.t_start, config.t_end, key=abs)
    if not span / n > math.ulp(t):
        raise ValueError(f"the step {span / n:.6g} does not resolve the time t={t:.6g}, "
                         f"where doubles are {math.ulp(t):.6g} apart")
    return n


def grid_times(pulse: PulseSpec, config: IntegrationConfig) -> np.ndarray:
    """The ``step_count + 1`` grid times of :func:`integrate`, ending exactly at t_end."""
    n = step_count(pulse, config)
    h = (config.t_end - config.t_start) / n
    times = config.t_start + h * np.arange(n + 1)
    times[-1] = config.t_end
    return times


def integrate(atom: TwoLevelAtom, pulse: PulseSpec, config: IntegrationConfig) -> Trajectory:
    """Propagate the amplitudes across the configured grid.

    Returns a trajectory whose first state is exactly the supplied initial
    condition.  Raises :class:`IntegrationError` with the grid time of the
    first non-finite state if the state overflows or turns NaN, and with
    the grid time of the largest defect if |a1|^2 + |a2|^2 strays from 1 by
    more than MAX_NORM_DEFECT anywhere.
    """
    n = step_count(pulse, config)
    h = (config.t_end - config.t_start) / n
    # Overflow is reported as IntegrationError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # Pulse values at the grid points and midpoints, evaluated in one shot.
        v = np.asarray(
            pulse_value(pulse, config.t_start + 0.5 * h * np.arange(2 * n + 1)), dtype=float
        )
        if not np.all(np.isfinite(v)):
            t_bad = config.t_start + 0.5 * h * int(np.argmin(np.isfinite(v)))
            raise IntegrationError(f"pulse is not finite at t={t_bad}", time=t_bad)
        states = np.empty((2, n + 1), dtype=complex)
        states[:, 0] = config.initial.a1, config.initial.a2
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            chunk = _propagate(_step_matrices(v[2 * lo:2 * hi + 1], atom.omega21, h),
                               states[:, lo].tolist())
            finite = np.isfinite(chunk).all(axis=0)
            if not finite.all():
                t_bad = config.t_start + (lo + 1 + int(np.argmin(finite))) * h
                raise IntegrationError(f"non-finite amplitudes at t={t_bad}", time=t_bad)
            states[:, lo + 1:hi + 1] = chunk
        del v, chunk  # 16 bytes per step and the last chunk, no longer needed
        traj = Trajectory(times=grid_times(pulse, config), a1=states[0], a2=states[1])
        defect = traj.norm_defect()
    worst = int(np.argmax(defect))
    if not defect[worst] <= MAX_NORM_DEFECT:
        t_bad = float(traj.times[worst])
        raise IntegrationError(
            f"the norm drifted by {defect[worst]:.3g} at t={t_bad}, "
            f"past {MAX_NORM_DEFECT:g}; the step is too long for this pulse", time=t_bad)
    return traj


def _step_matrices(v: np.ndarray, w: float, h: float) -> np.ndarray:
    """RK4 step matrices ``p`` with ``a(t_k + h) = p[:, :, k] @ a(t_k)``.

    ``v`` holds V21 at the grid points and midpoints of the steps, 2n + 1
    values.  RK4 is linear in the state, so one pass of its stages over both
    columns of the identity at once gives the matrices.  ``rate`` is H a,
    with the -i of da/dt = -iHa folded into the stage coefficients.
    """
    va, vb, vc = v[:-1:2], v[1::2], v[2::2]
    x = np.zeros((2, 2, va.size), dtype=complex)
    x[0, 0] = x[1, 1] = 1.0

    def rate(vt, y):
        k = vt * y[::-1]  # (V a2, V a1)
        k[1] += w * y[1]
        return k

    k1 = rate(va, x)
    k2 = rate(vb, x + (-0.5j * h) * k1)
    k3 = rate(vb, x + (-0.5j * h) * k2)
    k4 = rate(vc, x + (-1j * h) * k3)
    return x + (-1j * h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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


def half_step_grid(pulse: PulseSpec, config: IntegrationConfig) -> IntegrationConfig:
    """The grid of ``config`` at half its step, which :func:`step_halving_error`
    integrates; ValueError where :func:`step_count` rejects either grid."""
    n = step_count(pulse, config)
    fine = IntegrationConfig(t_start=config.t_start, t_end=config.t_end, initial=config.initial,
                             step=(config.t_end - config.t_start) / (2 * n))
    step_count(pulse, fine)
    return fine


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
    n = step_count(pulse, config)
    if len(coarse) != n + 1:
        raise ValueError(f"coarse trajectory has {len(coarse)} points, the grid {n + 1}")
    fine = integrate(atom, pulse, half_step_grid(pulse, config))
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
