"""Pulse shaping: transfer normalization, flatness scoring, GA optimization.

The search family is the sum of odd harmonics of a fixed base frequency.
Every member peaks at t0 = pi/(2 omega) like the plain cosine, and every even
time derivative of the coupling vanishes there, so the only knobs that matter
for the flatness of the populated state are the odd coupling derivatives.
Nulling them one by one raises the order of the first non-vanishing
derivative of P2 above four and widens the flat top at a fixed leakage
budget.  A small real-coded genetic algorithm searches the coefficient space.
Where the level splitting is weak it ranks candidates by the window of the
first-order closed-form populations and integrates only the winner with RK4;
otherwise it ranks every candidate on RK4.  The search is deterministic for a
fixed seed.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import HarmonicSum, PulseSpec, Trajectory, TwoLevelAtom, action
from .analytic import (
    MAX_DERIVATIVE_ORDER,
    ModelPopulations,
    first_order_populations,
    nth_derivative_p2,
)
from .integrator import (
    IntegrationConfig,
    IntegrationError,
    grid_times,
    integrate,
    populated_window,
)

__all__ = [
    "MAX_POPULATION",
    "MAX_GENERATIONS",
    "MODEL_RANKING_MIN_RATIO",
    "MODEL_RANKING_MIN_BUDGET",
    "MAX_NORM_DEFECT",
    "ShapingObjective",
    "OptimizerConfig",
    "OptimizationResult",
    "normalize_for_transfer",
    "flatness_order",
    "second_derivative_nulled_pulse",
    "ranks_on_model",
    "run_optimizer",
    "optimize_pulse",
]

HALF_PI = 0.5 * math.pi

#: Derivative magnitudes below 1e-9 * scale^n count as vanished.
FLATNESS_TOL = 1e-9

#: Largest GA population and generation count :class:`OptimizerConfig` accepts.
MAX_POPULATION = 10_000
MAX_GENERATIONS = 10_000

#: The GA ranks candidates on the first-order model only where it ranks like
#: RK4.  With eps = omega21 * horizon / omega, that is where 1/eps is at least
#: MODEL_RANKING_MIN_RATIO and p_cr at least MODEL_RANKING_MIN_BUDGET * eps^2,
#: about 60 times the cosine's first-order peak leakage 0.165 eps^2.  Below
#: that budget the GA cancels the first-order leakage and the terms the model
#: omits decide the ranking: at 1/eps = 30, p_cr = 1e-4 and at 1/eps = 100,
#: p_cr = 1e-5 its winners measured up to 43% narrower on RK4.  Inside these
#: bounds, in 210 seeded runs, the model window of the winner was within
#: 1.3e-4 relative of its RK4 window.  Elsewhere every candidate is ranked
#: on RK4.
MODEL_RANKING_MIN_RATIO = 100.0
MODEL_RANKING_MIN_BUDGET = 10.0

#: An RK4 trajectory whose norm |a1|^2 + |a2|^2 strays from 1 by more than
#: this has blown up on its grid and scores 0: its states can stay finite
#: while its P2 reads above 1 - p_cr over the whole period.  Candidates that
#: drift by 1e-6..1e-3 still reach windows up to 0.19 in seeded RK4-ranked
#: searches and steer the tournaments, so a tighter bound changes winners.
MAX_NORM_DEFECT = 1e-3


@dataclass(frozen=True)
class ShapingObjective:
    """What the optimizer maximizes: window width at a fixed leakage budget.

    ``horizon`` is the number of base-frequency periods to simulate when
    measuring the populated window.
    """

    p_cr: float
    omega: float
    atom: TwoLevelAtom
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_cr < 1.0:
            raise ValueError(f"p_cr must lie in (0, 1), got {self.p_cr}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.horizon >= 1.0:
            raise ValueError(f"horizon must be >= 1 period, got {self.horizon}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Genetic-algorithm knobs; all invented plumbing, none physics."""

    population_size: int = 16
    generations: int = 20
    mutation_scale: float = 0.2
    seed: int = 0
    n_harmonics: int = 2

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError(f"population_size must be >= 4, got {self.population_size}")
        if self.population_size > MAX_POPULATION:
            raise ValueError(
                f"population_size must be <= {MAX_POPULATION}, got {self.population_size}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if self.generations > MAX_GENERATIONS:
            raise ValueError(f"generations must be <= {MAX_GENERATIONS}, got {self.generations}")
        if not self.mutation_scale > 0.0:
            raise ValueError(f"mutation_scale must be > 0, got {self.mutation_scale}")
        if not math.isfinite(self.mutation_scale):
            raise ValueError(f"mutation_scale must be finite, got {self.mutation_scale}")
        if not 1 <= self.n_harmonics <= 8:
            raise ValueError(f"n_harmonics must lie in 1..8, got {self.n_harmonics}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best pulse found, its windows, and the per-generation record.

    ``best_window`` and ``history`` are in the ranking measure: the window of
    :func:`twolevel.analytic.first_order_populations` where the splitting is
    weak against the drive and the budget (see :func:`ranks_on_model`), else
    the RK4 window.
    ``measured_window`` is the winner's window on an RK4 trajectory of the
    same grid, equal to ``best_window`` when the ranking was on RK4.
    """

    best_pulse: PulseSpec
    best_window: float
    measured_window: float
    history: tuple[float, ...]
    objective: ShapingObjective
    config: OptimizerConfig


def normalize_for_transfer(pulse: PulseSpec, t_peak: float) -> PulseSpec:
    """Rescale the pulse so |action| at ``t_peak`` equals exactly pi/2.

    Complete population transfer at ``t_peak`` requires the action to reach an
    odd multiple of pi/2; scaling to the first one preserves the pulse shape.
    Already-normalized pulses come back unchanged.  Raises ValueError for a
    pulse whose action at ``t_peak`` vanishes (down to rounding noise of the
    action amplitude), which no scaling can fix.
    """
    a = abs(float(action(pulse, t_peak)))
    if not math.isfinite(a) or a <= 1e-12 * pulse.action_scale:
        raise ValueError(f"pulse has zero action at t_peak={t_peak}; cannot normalize")
    return pulse.scaled(HALF_PI / a)


def flatness_order(pulse: PulseSpec, t_peak: float, n_max: int = 8) -> int:
    """Order of the first non-vanishing derivative of P2 at ``t_peak``.

    Returns the smallest n in 1..n_max with |d^n P2/dt^n| above the tolerance
    FLATNESS_TOL scaled by the pulse frequency scale to the n-th power, or
    n_max + 1 when every probed derivative vanishes.  Higher order means a
    flatter populated state; the plain cosine scores 4.
    """
    if not 1 <= n_max <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"n_max must lie in 1..{MAX_DERIVATIVE_ORDER}, got {n_max}")
    scale = pulse.frequency_scale
    for n in range(1, n_max + 1):
        if abs(nth_derivative_p2(pulse, t_peak, n)) > FLATNESS_TOL * scale**n:
            return n
    return n_max + 1


def second_derivative_nulled_pulse(omega: float) -> HarmonicSum:
    """Two-harmonic pulse with the action's second derivative nulled at the peak.

    V'(t0) = omega (chi_1 - 3 chi_3) for coefficients (1, chi_1), (3, chi_3),
    so chi_3 = chi_1 / 3 kills the quartic term of the peak expansion; the
    returned pulse is transfer-normalized, giving chi_1 = (9/16) pi omega.
    Its first surviving P2 derivative is of order eight.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    raw = HarmonicSum(omega=omega, coefficients=((1, 1.0), (3, 1.0 / 3.0)))
    return normalize_for_transfer(raw, HALF_PI / omega)


def ranks_on_model(objective: ShapingObjective) -> bool:
    """Whether :func:`run_optimizer` ranks on the first-order model, not on RK4.

    True where eps = omega21 * horizon / omega is at most
    1 / MODEL_RANKING_MIN_RATIO and p_cr at least MODEL_RANKING_MIN_BUDGET * eps^2.
    """
    eps = objective.atom.omega21 * objective.horizon / objective.omega
    return (MODEL_RANKING_MIN_RATIO * eps <= 1.0
            and MODEL_RANKING_MIN_BUDGET * eps * eps <= objective.p_cr)


def _rk4_populations(atom: TwoLevelAtom, pulse: PulseSpec,
                     grid: IntegrationConfig) -> Trajectory | None:
    """RK4 trajectory of the pulse, None if it overflows or its norm drifts
    by more than MAX_NORM_DEFECT."""
    try:
        trajectory = integrate(atom, pulse, grid)
    except IntegrationError:
        return None
    with np.errstate(over="ignore"):
        defect = trajectory.norm_defect().max()
    return trajectory if defect <= MAX_NORM_DEFECT else None


def _model_populations(omega21: float, pulse: PulseSpec,
                       grid: IntegrationConfig) -> ModelPopulations | None:
    """First-order populations on the RK4 grid, None if they are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        model = first_order_populations(pulse, omega21, grid_times(pulse, grid))
    return model if np.isfinite(model.p2).all() else None


def _window(curve: Trajectory | ModelPopulations, p_cr: float) -> float:
    """Populated window of the curve, 0.0 if P2 never reaches 1 - p_cr."""
    try:
        return populated_window(curve, p_cr)
    except ValueError:
        return 0.0


def _evaluate(
    genome: np.ndarray,
    harmonics: tuple[int, ...],
    objective: ShapingObjective,
    t_peak: float,
    populations: Callable[[PulseSpec], Trajectory | ModelPopulations | None],
) -> tuple[float, PulseSpec | None, float]:
    """Fitness of one genome: the populated window of ``populations(pulse)``.

    0.0 if it cannot be normalized or its populations are None.
    """
    try:
        pulse = normalize_for_transfer(
            HarmonicSum(
                omega=objective.omega,
                coefficients=tuple(zip(harmonics, (float(c) for c in genome))),
            ),
            t_peak,
        )
    except ValueError:
        return 0.0, None, math.inf
    curve = populations(pulse)
    if curve is None:
        return 0.0, None, math.inf
    width = _window(curve, objective.p_cr)
    norm = math.sqrt(sum(c * c for _, c in pulse.coefficients))
    return width, pulse, norm


def _better(a: tuple[float, PulseSpec | None, float], b: tuple[float, PulseSpec | None, float]) -> bool:
    """Fitness comparison: wider window wins, ties go to the smaller-norm pulse."""
    if a[0] != b[0]:
        return a[0] > b[0]
    return a[2] < b[2]


def run_optimizer(objective: ShapingObjective, config: OptimizerConfig) -> OptimizationResult:
    """Real-coded GA over odd-harmonic coefficients, elitist and seeded.

    Every candidate is transfer-normalized before evaluation, so the search
    moves only through shapes that reach complete transfer in the degenerate
    limit.  Fitness is the populated-window width on the RK4 grid.  Where
    :func:`ranks_on_model` holds it is the window of the first-order
    populations, and only the final winner is integrated with RK4, to
    measure its window; elsewhere every candidate is integrated.
    Tournament selection (size 2), blend crossover and Gaussian mutation;
    the single elite survivor makes the best fitness monotone non-decreasing
    across generations.  All random draws come from one sequentially
    consumed generator, so a fixed seed reproduces the run bit for bit.

    Raises ValueError when no candidate ever reaches P2 >= 1 - p_cr, in the
    ranking measure or on the winner's RK4 trajectory.
    """
    rng = np.random.default_rng(config.seed)
    harmonics = tuple(2 * i + 1 for i in range(config.n_harmonics))
    t_peak = HALF_PI / objective.omega
    period = 2.0 * math.pi / objective.omega
    grid = IntegrationConfig(t_start=0.0, t_end=objective.horizon * period)
    omega21 = objective.atom.omega21
    ranked_on_model = ranks_on_model(objective)

    def populations(pulse: PulseSpec) -> Trajectory | ModelPopulations | None:
        if ranked_on_model:
            return _model_populations(omega21, pulse, grid)
        return _rk4_populations(objective.atom, pulse, grid)

    def evaluate(genome: np.ndarray) -> tuple[float, PulseSpec | None, float]:
        return _evaluate(genome, harmonics, objective, t_peak, populations)

    n_genes = config.n_harmonics
    cosine_seed = np.zeros(n_genes)
    cosine_seed[0] = 1.0
    population = [cosine_seed]
    for _ in range(config.population_size - 1):
        population.append(cosine_seed + config.mutation_scale * rng.standard_normal(n_genes))
    scores = [evaluate(g) for g in population]

    def best_index() -> int:
        best = 0
        for i in range(1, len(scores)):
            if _better(scores[i], scores[best]):
                best = i
        return best

    history = [scores[best_index()][0]]
    for _ in range(config.generations):
        elite = best_index()
        next_population = [population[elite]]
        next_scores = [scores[elite]]
        while len(next_population) < config.population_size:
            picks = rng.integers(0, config.population_size, size=4)
            mother = picks[0] if _better(scores[picks[0]], scores[picks[1]]) else picks[1]
            father = picks[2] if _better(scores[picks[2]], scores[picks[3]]) else picks[3]
            blend = rng.random()
            child = blend * population[mother] + (1.0 - blend) * population[father]
            child = child + config.mutation_scale * rng.standard_normal(n_genes)
            next_population.append(child)
            next_scores.append(evaluate(child))
        population = next_population
        scores = next_scores
        history.append(scores[best_index()][0])

    winner = scores[best_index()]
    measured = winner[0]
    if ranked_on_model and measured > 0.0:
        trajectory = _rk4_populations(objective.atom, winner[1], grid)
        measured = 0.0 if trajectory is None else _window(trajectory, objective.p_cr)
    if measured <= 0.0:
        raise ValueError(
            f"no candidate reached P2 >= {1.0 - objective.p_cr}; "
            "widen the search or relax p_cr"
        )
    return OptimizationResult(
        best_pulse=winner[1],
        best_window=winner[0],
        measured_window=measured,
        history=tuple(history),
        objective=objective,
        config=config,
    )


def optimize_pulse(objective: ShapingObjective, config: OptimizerConfig) -> tuple[PulseSpec, float]:
    """Best transfer-normalized pulse and its measured window width."""
    result = run_optimizer(objective, config)
    return result.best_pulse, result.measured_window
