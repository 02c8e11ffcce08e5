"""Pulse shaping: transfer normalization, flatness scoring, GA optimization.

The search family is the sum of odd harmonics of a fixed base frequency.
Every member peaks at t0 = pi/(2 omega) like the plain cosine, and every even
time derivative of the coupling vanishes there, so the only knobs that matter
for the flatness of the populated state are the odd coupling derivatives.
Nulling them one by one raises the order of the first non-vanishing
derivative of P2 above four and widens the flat top at a fixed leakage
budget.  A small real-coded genetic algorithm searches the coefficient space.
A generation is an array of genome rows: it is transfer-normalized in one
array pass and windowed in one call, and only the source of the P2 rows it
ranks on differs.  Where the level splitting is weak they are the
first-order closed-form populations, computed for the whole generation in
one array pass, and only the winner is integrated with RK4; otherwise every
candidate is integrated with RK4, one at a time.  Only the winner is built
as a pulse object.  The search is deterministic for a fixed seed.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    HarmonicSum,
    PulseSpec,
    TwoLevelAtom,
    action,
    odd_harmonic_action,
)
from .analytic import _cos_derivatives, first_order_from_action, p2_derivatives
from .integrator import (
    MAX_STEPS,
    IntegrationConfig,
    IntegrationError,
    grid_times,
    integrate,
    populated_window,
    populated_windows,
    step_count,
)

__all__ = [
    "MAX_POPULATION",
    "MAX_GENERATIONS",
    "MODEL_RANKING_MIN_RATIO",
    "MODEL_RANKING_MIN_BUDGET",
    "ShapingObjective",
    "OptimizerConfig",
    "OptimizationResult",
    "normalize_for_transfer",
    "flatness_order",
    "second_derivative_nulled_pulse",
    "ranks_on_model",
    "run_optimizer",
]

HALF_PI = 0.5 * math.pi

#: A derivative of P2 vanishes below ROUNDING_MARGIN * eps * M_n (eps = 2^-52,
#: M_n the magnitudes its recurrence rounds).  Rounding residues measured at
#: most 0.13 eps M_n and true nonzero derivatives at least 2.2e6 eps M_n on the
#: cosine, nulled pulse, maximally flat 3-5 harmonic pulses at omega = 1 and
#: 2.7, Gaussians and a GA winner, so 64 leaves room on both sides.
ROUNDING_MARGIN = 64.0

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
    the first-order model (:func:`twolevel.analytic.first_order_from_action`)
    where the splitting is weak against the drive and the budget (see
    :func:`ranks_on_model`), else the RK4 window.
    ``measured_window`` is the winner's window on an RK4 trajectory of the
    same grid, equal to ``best_window`` when the ranking was on RK4.
    """

    best_pulse: PulseSpec
    best_window: float
    measured_window: float
    history: tuple[float, ...]


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

    Returns the smallest n in 1..n_max with |d^n P2/dt^n| above
    ROUNDING_MARGIN * eps * M_n, or n_max + 1 when every probed derivative
    vanishes.  M_n, the recurrence of :func:`p2_derivatives` run on the
    magnitudes from the pulse's ``derivative_bound``, bounds the numbers whose
    rounding d^n P2 carries.  Higher order means a flatter populated state;
    the plain cosine scores 4.
    """
    derivs = p2_derivatives(pulse, t_peak, n_max)
    bounds = _cos_derivatives([pulse.derivative_bound(t_peak, r) for r in range(n_max)],
                              1.0, 1.0, 1.0)
    threshold = ROUNDING_MARGIN * np.finfo(float).eps * 0.5  # M_n = bounds[n]/2
    for n in range(1, n_max + 1):
        if abs(derivs[n]) > threshold * bounds[n]:
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


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Python's ``sum`` of every row, left to right from 0: bit for bit the
    sum a pulse's own scalar code takes, on every Python version (3.12
    compensates float sums, numpy does not)."""
    return np.array([sum(row) for row in rows.tolist()])


def _normalized_rows(genomes: np.ndarray, harmonics: tuple[int, ...], omega: float,
                     t_peak: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize_for_transfer` of every genome row in one array pass.

    Returns the mask of the usable rows and the coefficient rows.  The
    arithmetic is that of ``normalize_for_transfer(HarmonicSum(omega,
    zip(harmonics, genome)), t_peak)``, so a usable row holds that pulse's
    coefficients bit for bit.  A row is unusable where that call raises
    ValueError: a gene or scaled coefficient is not finite, or the action at
    ``t_peak`` overflows or vanishes against the action scale.
    """
    # A huge finite genome overflows its action; a vanishing action divides by zero.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.abs(odd_harmonic_action(omega, harmonics, genomes.T, t_peak))
        action_scale = _row_sums(np.abs(genomes) / np.array([k * omega for k in harmonics]))
        rows = genomes * (HALF_PI / a)[:, None]
    usable = (np.isfinite(genomes).all(axis=1) & np.isfinite(a)
              & ~(a <= 1e-12 * action_scale) & np.isfinite(rows).all(axis=1))
    return usable, rows


def _model_rows(rows: np.ndarray, harmonics: tuple[int, ...], omega: float, omega21: float,
                times: np.ndarray) -> np.ndarray:
    """First-order P2 of every coefficient row on ``times``, in one array pass;
    a row is not finite where the model overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return first_order_from_action(
            odd_harmonic_action(omega, harmonics, rows.T[:, :, None], times), omega21, times)[1]


def _rk4_rows(atom: TwoLevelAtom, rows: np.ndarray, harmonics: tuple[int, ...], omega: float,
              grid: IntegrationConfig, times: np.ndarray) -> np.ndarray:
    """RK4 P2 of every coefficient row on ``times``, the grid of ``grid``,
    integrated one pulse at a time; a row is NaN where :func:`integrate`
    raises :class:`IntegrationError` (overflow, or a blown-up norm)."""
    p2 = np.empty((len(rows), times.size))
    for row, out in zip(rows.tolist(), p2):
        try:
            out[:] = integrate(atom, HarmonicSum(omega, tuple(zip(harmonics, row))), grid).p2
        except IntegrationError:
            out[:] = math.nan
    return p2


Fitness = tuple[float, float]


def _rank(width: float, norm: float) -> Fitness:
    """Fitness of a pulse with populated window ``width`` and coefficient norm
    ``norm``.  Fitness tuples compare in the fitness order: the wider window
    wins, ties go to the smaller-norm pulse."""
    return width, -norm


#: The fitness of a genome that cannot be normalized or whose populations are unusable.
_UNUSABLE = _rank(0.0, math.inf)


def _fitness(genomes: np.ndarray, harmonics: tuple[int, ...], objective: ShapingObjective,
             t_peak: float, times: np.ndarray,
             p2_rows: Callable[[np.ndarray], np.ndarray]) -> list[Fitness]:
    """:func:`_rank` of every genome row's populated window and coefficient norm.

    The window is that of its transfer-normalized pulse on ``times``, 0.0
    where P2 never reaches 1 - p_cr, with ``p2_rows`` giving the P2 rows of
    the normalized coefficient rows.  A genome that cannot be normalized,
    or whose P2 row is not finite, is unusable.
    """
    usable, rows = _normalized_rows(genomes, harmonics, objective.omega, t_peak)
    fitness = [_UNUSABLE] * len(genomes)
    if usable.any():
        rows = rows[usable]
        p2 = p2_rows(rows)
        finite = np.isfinite(p2).all(axis=1)
        if not finite.all():
            rows, p2 = rows[finite], p2[finite]
            usable[usable] = finite
        widths = populated_windows(times, p2, objective.p_cr)
        # A coefficient past 1e154 (omega near 1e250, say) has an infinite norm,
        # and such rows tie on it.
        with np.errstate(over="ignore"):
            norms = np.sqrt(_row_sums(rows * rows))
        for i, width, norm in zip(np.flatnonzero(usable).tolist(), widths.tolist(),
                                  norms.tolist()):
            fitness[i] = _rank(width, norm)
    return fitness


def run_optimizer(objective: ShapingObjective, config: OptimizerConfig) -> OptimizationResult:
    """Real-coded GA over odd-harmonic coefficients, elitist and seeded.

    Every candidate is transfer-normalized before evaluation, so the search
    moves only through shapes that reach complete transfer in the degenerate
    limit.  A generation is an array of genome rows, normalized in one array
    pass.  Fitness is the populated-window width on the RK4 grid, of one of
    two P2 curves chosen once per run, measured for the whole generation in
    one call.  Where :func:`ranks_on_model` holds they are the first-order
    populations, computed for all new candidates of a generation in one
    array pass, and only the final winner is integrated with RK4, to measure
    its window; elsewhere they are the RK4 trajectories, integrated one
    candidate at a time.  Only the winner is built as a pulse object.
    Tournament selection (size 2), blend crossover and Gaussian mutation;
    the single elite survivor makes the best fitness monotone non-decreasing
    across generations.  All random draws come from one sequentially
    consumed generator, and a generation's children are all drawn before
    any is scored, so a fixed seed reproduces the run bit for bit.

    Raises ValueError before the first generation when its candidates'
    grid steps together exceed MAX_STEPS, and when no candidate ever
    reaches P2 >= 1 - p_cr, in the ranking measure or on the winner's RK4
    trajectory.
    """
    rng = np.random.default_rng(config.seed)
    harmonics = tuple(2 * i + 1 for i in range(config.n_harmonics))
    omega = objective.omega
    t_peak = HALF_PI / omega
    period = 2.0 * math.pi / omega
    grid = IntegrationConfig(t_start=0.0, t_end=objective.horizon * period)
    # Every candidate has the base period, so all share one grid.
    base = HarmonicSum(omega, ((1, 1.0),))
    # A generation's P2 rows hold population x grid points.  Bounding its
    # steps by MAX_STEPS, one integration's limit, admits MAX_POPULATION
    # candidates on the default one-period grid of 1000 steps.
    steps = step_count(base, grid)
    if config.population_size * steps > MAX_STEPS:
        raise ValueError(
            f"a generation of {config.population_size} candidates (--population) on "
            f"{steps} steps each ({objective.horizon:g} periods, --horizon) needs "
            f"{config.population_size * steps:.3g} grid steps, more than the limit of {MAX_STEPS}")
    times = grid_times(base, grid)
    ranked_on_model = ranks_on_model(objective)

    def p2_rows(rows: np.ndarray) -> np.ndarray:
        if ranked_on_model:
            return _model_rows(rows, harmonics, omega, objective.atom.omega21, times)
        return _rk4_rows(objective.atom, rows, harmonics, omega, grid, times)

    def score(genomes: np.ndarray) -> list[Fitness]:
        return _fitness(genomes, harmonics, objective, t_peak, times, p2_rows)

    def best() -> int:
        return max(range(len(fitness)), key=fitness.__getitem__)

    n_genes = config.n_harmonics
    population = np.zeros((config.population_size, n_genes))
    population[:, 0] = 1.0  # every row starts as the cosine
    # An overflowing draw makes a non-finite genome, which scores as unusable.
    with np.errstate(over="ignore", invalid="ignore"):
        for genome in population[1:]:
            genome += config.mutation_scale * rng.standard_normal(n_genes)
    fitness = score(population)

    elite = best()
    history = [fitness[elite][0]]
    for _ in range(config.generations):
        children = np.empty_like(population)
        children[0] = population[elite]
        with np.errstate(over="ignore", invalid="ignore"):
            for child in children[1:]:
                picks = rng.integers(0, config.population_size, size=4)
                mother = picks[0] if fitness[picks[0]] > fitness[picks[1]] else picks[1]
                father = picks[2] if fitness[picks[2]] > fitness[picks[3]] else picks[3]
                blend = rng.random()
                child[:] = blend * population[mother] + (1.0 - blend) * population[father]
                child += config.mutation_scale * rng.standard_normal(n_genes)
        population = children
        fitness = [fitness[elite]] + score(population[1:])
        elite = best()
        history.append(fitness[elite][0])

    width = measured = fitness[elite][0]
    winner = None
    if width > 0.0:
        winner = normalize_for_transfer(
            HarmonicSum(omega, tuple(zip(harmonics, population[elite].tolist()))), t_peak)
        if ranked_on_model:
            try:
                measured = populated_window(integrate(objective.atom, winner, grid),
                                            objective.p_cr)
            except (IntegrationError, ValueError):  # blown up, or P2 never reaches 1 - p_cr
                measured = 0.0
    if measured <= 0.0:
        raise ValueError(
            f"no candidate reached P2 >= {1.0 - objective.p_cr}; "
            "widen the search or relax p_cr"
        )
    return OptimizationResult(
        best_pulse=winner,
        best_window=width,
        measured_window=measured,
        history=tuple(history),
    )

