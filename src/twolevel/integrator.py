"""Fixed-step RK4 propagation of the coupled amplitude equations.

The equations integrated are

    i da1/dt = V21(t) a2
    i da2/dt = omega21 a2 + V21(t) a1

with V21 evaluated from the pulse.  The state advances as four real
components (Re a1, Im a1, Re a2, Im a2) with the classic fourth-order
Runge-Kutta stepper on a fixed grid; fixed steps keep output grids exactly
reproducible.  No renormalization is ever applied during integration: norm
drift is a diagnostic of integrator error, and correcting it would only mask
that error.
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
    "natural_period",
    "step_count",
    "integrate",
    "step_halving_error",
    "max_population_deviation",
    "populated_window",
]


#: Largest grid :func:`integrate` accepts; it peaks near 320 bytes per step.
MAX_STEPS = 10**7


class IntegrationError(RuntimeError):
    """Raised when the integrated state stops being finite."""

    def __init__(self, message: str, time: float) -> None:
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class IntegrationConfig:
    """Grid and initial condition for :func:`integrate`.

    Either give an explicit ``step`` or let the grid derive from
    ``steps_per_period`` and the pulse's natural period (field period for
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


def natural_period(pulse: PulseSpec) -> float:
    """Grid-defining time scale: 2*pi/omega for harmonic pulses, width for Gaussian."""
    return pulse.period


def step_count(pulse: PulseSpec, config: IntegrationConfig) -> int:
    """Number of equal steps on the grid; ValueError if it exceeds MAX_STEPS."""
    step = config.step
    if step is None:
        step = natural_period(pulse) / config.steps_per_period
    n = (config.t_end - config.t_start) / step
    if not n <= MAX_STEPS:
        raise ValueError(f"the grid needs {n:.3g} steps, more than the limit of {MAX_STEPS}")
    return max(1, round(n))


def integrate(atom: TwoLevelAtom, pulse: PulseSpec, config: IntegrationConfig) -> Trajectory:
    """Propagate the amplitudes across the configured grid.

    Returns a trajectory whose first state is exactly the supplied initial
    condition.  Raises :class:`IntegrationError` with the offending time if
    the state overflows or turns NaN.
    """
    n = step_count(pulse, config)
    span = config.t_end - config.t_start
    h = span / n
    # Pulse values at the grid points and midpoints, evaluated in one shot.
    half_times = config.t_start + 0.5 * h * np.arange(2 * n + 1)
    v = np.asarray(pulse_value(pulse, half_times), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise IntegrationError(
            f"pulse is not finite at t={half_times[bad]}", time=float(half_times[bad])
        )
    v = v.tolist()

    w = atom.omega21
    a1 = complex(config.initial.a1)
    a2 = complex(config.initial.a2)
    x1, y1 = a1.real, a1.imag
    x2, y2 = a2.real, a2.imag
    out_x1 = [x1]
    out_y1 = [y1]
    out_x2 = [x2]
    out_y2 = [y2]

    h2 = 0.5 * h
    h6 = h / 6.0
    isfinite = math.isfinite
    for i in range(n):
        va = v[2 * i]
        vb = v[2 * i + 1]
        vc = v[2 * i + 2]
        # k1 at (t, x)
        ax1 = va * y2
        ay1 = -va * x2
        ax2 = w * y2 + va * y1
        ay2 = -w * x2 - va * x1
        # k2 at (t + h/2, x + h/2 k1)
        tx1 = x1 + h2 * ax1
        ty1 = y1 + h2 * ay1
        tx2 = x2 + h2 * ax2
        ty2 = y2 + h2 * ay2
        bx1 = vb * ty2
        by1 = -vb * tx2
        bx2 = w * ty2 + vb * ty1
        by2 = -w * tx2 - vb * tx1
        # k3 at (t + h/2, x + h/2 k2)
        tx1 = x1 + h2 * bx1
        ty1 = y1 + h2 * by1
        tx2 = x2 + h2 * bx2
        ty2 = y2 + h2 * by2
        cx1 = vb * ty2
        cy1 = -vb * tx2
        cx2 = w * ty2 + vb * ty1
        cy2 = -w * tx2 - vb * tx1
        # k4 at (t + h, x + h k3)
        tx1 = x1 + h * cx1
        ty1 = y1 + h * cy1
        tx2 = x2 + h * cx2
        ty2 = y2 + h * cy2
        dx1 = vc * ty2
        dy1 = -vc * tx2
        dx2 = w * ty2 + vc * ty1
        dy2 = -w * tx2 - vc * tx1

        x1 += h6 * (ax1 + 2.0 * (bx1 + cx1) + dx1)
        y1 += h6 * (ay1 + 2.0 * (by1 + cy1) + dy1)
        x2 += h6 * (ax2 + 2.0 * (bx2 + cx2) + dx2)
        y2 += h6 * (ay2 + 2.0 * (by2 + cy2) + dy2)
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            t_bad = config.t_start + (i + 1) * h
            raise IntegrationError(f"non-finite amplitudes at t={t_bad}", time=t_bad)
        out_x1.append(x1)
        out_y1.append(y1)
        out_x2.append(x2)
        out_y2.append(y2)

    times = config.t_start + h * np.arange(n + 1)
    times[-1] = config.t_end
    return Trajectory(
        times=times,
        a1=np.asarray(out_x1) + 1j * np.asarray(out_y1),
        a2=np.asarray(out_x2) + 1j * np.asarray(out_y2),
    )


def step_halving_error(atom: TwoLevelAtom, pulse: PulseSpec, config: IntegrationConfig) -> float:
    """Grid-error report: max amplitude change when the step is halved.

    Integrates on the configured grid and once more at half the step, and
    returns the largest amplitude difference on the shared grid points.  For
    a fourth-order stepper this is within a few percent of the coarse grid's
    true error.  Purely a report; nothing is refined behind the caller's
    back.
    """
    n = step_count(pulse, config)
    coarse = integrate(atom, pulse, config)
    span = config.t_end - config.t_start
    fine_cfg = IntegrationConfig(
        t_start=config.t_start,
        t_end=config.t_end,
        initial=config.initial,
        step=span / (2 * n),
    )
    fine = integrate(atom, pulse, fine_cfg)
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


def populated_window(traj: Trajectory, p_cr: float) -> float:
    """Full width of the longest contiguous window where 1 - P2 <= p_cr.

    Window edges are linearly interpolated between the grid points that
    bracket each threshold crossing.  Raises ValueError when no grid point
    reaches P2 >= 1 - p_cr.
    """
    if not 0.0 < p_cr <= 1.0:
        raise ValueError(f"p_cr must lie in (0, 1], got {p_cr}")
    times = traj.times
    p2 = traj.p2
    threshold = 1.0 - p_cr
    mask = p2 >= threshold
    if not mask.any():
        raise ValueError(
            f"peak never reaches threshold: max P2 = {float(p2.max())} < {threshold}"
        )
    idx = np.flatnonzero(mask)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1)
    best = 0.0
    for run in runs:
        i, j = int(run[0]), int(run[-1])
        if i == 0:
            left = times[0]
        else:
            frac = (threshold - p2[i - 1]) / (p2[i] - p2[i - 1])
            left = times[i - 1] + frac * (times[i] - times[i - 1])
        if j == len(times) - 1:
            right = times[-1]
        else:
            frac = (p2[j] - threshold) / (p2[j] - p2[j + 1])
            right = times[j] + frac * (times[j + 1] - times[j])
        best = max(best, float(right - left))
    return best
