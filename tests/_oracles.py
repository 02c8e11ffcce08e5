"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: the action oracle is
adaptive quadrature of the pulse value, the derivative oracle is a
high-order central difference whose weights are solved from the Taylor
conditions rather than taken from any closed form under test, the P2
derivative oracle sums Faa di Bruno's formula over the partitions of the
order, where the code under test runs a Taylor-coefficient recurrence, the RK4
oracle advances the four real amplitude components one step at a time in
plain Python, where the integrator under test multiplies step matrices, the
window oracle walks the runs above threshold one at a time, where the code
under test interpolates every crossing of every row in one array
expression, the CSV oracle formats one row at a time with one scalar
analytic call per row, where the writer under test works on whole columns
in chunks, the GA oracle scores one candidate at a time, normalizing each
through its own pulse objects, and compares fitness pair by pair, where the
optimizer under test normalizes, models and windows a whole generation as
arrays and orders fitness by a key, and the first-order oracle allocates a fresh array
for every step of the formula, where the code under test reuses a few
buffers in place.
"""
from __future__ import annotations

import math
import random
import warnings

import numpy as np

from twolevel.analytic import populations_from_action
from twolevel.core import GaussianApprox, HarmonicSum, PulseSpec, Trajectory, pulse_value
from twolevel.integrator import (
    IntegrationConfig,
    IntegrationError,
    integrate,
    populated_window,
    populated_windows,
)
from twolevel.pulses import (
    OptimizationResult,
    normalize_for_transfer,
    ranks_on_model,
)


def action_by_quadrature(pulse, t: float) -> float:
    """Adaptive quadrature of V21 from 0 to t."""
    # Imported here, so that modules run without scipy can use the other oracles.
    from scipy.integrate import IntegrationWarning, quad

    kwargs = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    if isinstance(pulse, GaussianApprox):
        lo, hi = sorted((0.0, float(t)))
        pts = [
            p
            for p in (
                pulse.center - 5.0 * pulse.width,
                pulse.center,
                pulse.center + 5.0 * pulse.width,
            )
            if lo < p < hi
        ]
        if pts:
            kwargs["points"] = pts
    with warnings.catch_warnings():
        # Roundoff-level warnings on long oscillatory spans; accuracy is
        # still far beyond the 1e-9 tolerances asserted against this oracle.
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(lambda x: float(pulse_value(pulse, x)), 0.0, float(t), **kwargs)
    return value


def central_difference_weights(n: int, n_points: int) -> np.ndarray:
    """Symmetric stencil weights for the n-th derivative, h = 1.

    Computed with Fornberg's recurrence, which stays numerically stable where
    a naive Vandermonde solve does not; the stencil is exact for polynomials
    up to degree n_points - 1.
    """
    if n_points % 2 == 0 or n_points <= n:
        raise ValueError("need an odd number of points exceeding the order")
    m = n_points // 2
    grid = np.arange(-m, m + 1, dtype=float)
    c = np.zeros((n_points, n + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = grid[0]
    for i in range(1, n_points):
        mn = min(i, n)
        c2 = 1.0
        c5 = c4
        c4 = grid[i]
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, n]


def central_derivative(f, x: float, n: int, h: float, n_points: int | None = None) -> float:
    """n-th derivative of f at x by central differences with step h."""
    if n_points is None:
        n_points = n + 9 if (n + 9) % 2 == 1 else n + 10
    m = n_points // 2
    w = central_difference_weights(n, n_points)
    values = np.array([f(x + j * h) for j in range(-m, m + 1)])
    return float(np.dot(w, values) / h**n)


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, each a descending tuple."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def p2_derivative_faa_di_bruno(pulse, t: float, n: int) -> float:
    """n-th derivative of P2 = sin^2 A at t, n >= 1, by Faa di Bruno's formula.

    Sums over the multiplicities m_r of the parts r of every partition of n

        n!/prod(m_r! r!^m_r) * F^(m)(A) * prod(A^(r))^m_r,   m = sum m_r,

    with F = sin^2, F^(m)(y) = 2^(m-1) sin(2y + (m-1) pi/2) and
    A^(r) = V21^(r-1).
    """
    y = float(pulse.action(t))
    a_derivs = [float(pulse.derivative(t, r - 1)) for r in range(1, n + 1)]
    total = 0.0
    for parts in _partitions(n, n):
        m = len(parts)
        denom = 1
        power = 1.0
        for r in set(parts):
            m_r = parts.count(r)
            denom *= math.factorial(m_r) * math.factorial(r) ** m_r
            power *= a_derivs[r - 1] ** m_r
        f_m = 2.0 ** (m - 1) * math.sin(2.0 * y + 0.5 * math.pi * (m - 1))
        total += (math.factorial(n) // denom) * f_m * power
    return total


def rk4_reference(atom, pulse, config) -> Trajectory:
    """Classic RK4 on (Re a1, Im a1, Re a2, Im a2), one scalar step at a time.

    Same grid, initial state and non-finite IntegrationError as
    :func:`twolevel.integrator.integrate`, but no norm bound: a blown-up
    trajectory comes back as it is.
    """
    n, h = config.n, config.h
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
    out_a1 = [a1]
    out_a2 = [a2]

    h2 = 0.5 * h
    h6 = h / 6.0
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
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            t_bad = config.t_start + (i + 1) * h
            raise IntegrationError(f"non-finite amplitudes at t={t_bad}", time=t_bad)
        out_a1.append(complex(x1, y1))
        out_a2.append(complex(x2, y2))

    times = config.t_start + h * np.arange(n + 1)
    times[-1] = config.t_end
    return Trajectory(times=times, a1=out_a1, a2=out_a2)


def populated_window_reference(traj, p_cr: float) -> float:
    """Widest run with P2 >= 1 - p_cr, one run at a time in a Python loop.

    Same edge interpolation and ValueError contract as
    :func:`twolevel.integrator.populated_window`.
    """
    times = traj.times
    p2 = traj.p2
    threshold = 1.0 - p_cr
    mask = p2 >= threshold
    if not mask.any():
        raise ValueError(f"peak never reaches threshold {threshold}")
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


def csv_reference(path, traj, analytic_pulse) -> None:
    """Trajectory CSV written row by row with ``format(x, '.17g')``.

    Same header, columns and trailing newline as
    :func:`twolevel.cli._write_trajectory_csv`; the analytic columns come
    from one scalar ``populations_from_action`` call per row, for the state
    prepared at the first grid time.
    """
    header = "t,P1,P2,re_a1,im_a1,re_a2,im_a2"
    if analytic_pulse is not None:
        header += ",P1_analytic,P2_analytic"
    lines = [header]
    columns = (traj.times, traj.p1, traj.p2, traj.a1.real, traj.a1.imag, traj.a2.real, traj.a2.imag)
    for row in zip(*columns):
        fields = [format(float(x), ".17g") for x in row]
        if analytic_pulse is not None:
            fields += [format(x, ".17g")
                       for x in populations_from_action(analytic_pulse, float(row[0]),
                                                        float(traj.times[0]))]
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


def first_order_reference(pulse, omega21, t):
    """(P1, P2) of :func:`twolevel.analytic.first_order_from_action` for one
    pulse, the formula written out with a fresh array for every step."""
    times = np.asarray(t, dtype=float)
    a = np.asarray(pulse.action(times), dtype=float)
    cos_a, sin_a = np.cos(a), np.sin(a)
    half_dt = 0.5 * np.diff(times)
    c = np.zeros_like(times)
    s = np.zeros_like(times)
    cos_2a = cos_a * cos_a - sin_a * sin_a
    sin_2a = 2.0 * sin_a * cos_a
    np.cumsum(half_dt * (cos_2a[1:] + cos_2a[:-1]), out=c[1:])
    np.cumsum(half_dt * (sin_2a[1:] + sin_2a[:-1]), out=s[1:])
    leak = (0.25 * omega21 * omega21) * ((times - c) * cos_a - s * sin_a) ** 2
    return cos_a * cos_a + leak, sin_a * sin_a - leak


def _model_populations(omega21, pulse, grid):
    """First-order (times, P2) on the RK4 grid, None if P2 is not finite."""
    times = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        _, p2 = first_order_reference(pulse, omega21, times)
    return (times, p2) if np.isfinite(p2).all() else None


#: A curve is the pair (times, P2).
Curve = tuple[np.ndarray, np.ndarray]
Score = tuple[float, PulseSpec | None, float]

#: The score of a genome that cannot be normalized or whose populations are unusable.
_UNUSABLE: Score = (0.0, None, math.inf)


def _normalized(genome: np.ndarray, harmonics: tuple[int, ...], omega: float,
                t_peak: float) -> HarmonicSum | None:
    """The genome's transfer-normalized pulse, None if it cannot be normalized."""
    try:
        return normalize_for_transfer(
            HarmonicSum(omega=omega, coefficients=tuple(zip(harmonics, (float(c) for c in genome)))),
            t_peak,
        )
    except ValueError:
        return None


def _score(pulse: PulseSpec, curve: Curve | None, p_cr: float) -> Score:
    """(populated window of ``curve``, pulse, coefficient norm); unusable if
    ``curve`` is None, and the window is 0.0 if P2 never reaches 1 - p_cr."""
    if curve is None:
        return _UNUSABLE
    times, p2 = curve
    width = float(populated_windows(times, p2[None], p_cr)[0])
    norm = math.sqrt(sum(c * c for _, c in pulse.coefficients))
    return width, pulse, norm


def _window(curve, p_cr: float) -> float:
    """Populated window of the curve, 0.0 if P2 never reaches 1 - p_cr."""
    try:
        return populated_window(curve, p_cr)
    except ValueError:
        return 0.0


def _evaluate(genome, harmonics, objective, t_peak, populations):
    """Fitness of one genome: the populated window of ``populations(pulse)``.

    0.0 if it cannot be normalized or its populations are None.
    """
    pulse = _normalized(genome, harmonics, objective.omega, t_peak)
    if pulse is None:
        return _UNUSABLE
    return _score(pulse, populations(pulse), objective.p_cr)


def _better(a, b) -> bool:
    """Fitness comparison: wider window wins, ties go to the smaller-norm pulse."""
    if a[0] != b[0]:
        return a[0] > b[0]
    return a[2] < b[2]


def _rk4_trajectory(atom, pulse, grid):
    """:func:`twolevel.integrator.integrate`, or None where it raises IntegrationError."""
    try:
        return integrate(atom, pulse, grid)
    except IntegrationError:
        return None


def run_optimizer_reference(objective, config) -> OptimizationResult:
    """The GA of :func:`twolevel.pulses.run_optimizer`, one candidate at a time.

    Each child is scored as soon as it is drawn, and on the model side each
    candidate's populations come from its own :func:`first_order_reference`
    call.  Same random draws, results and ValueError contract.
    """
    rng = random.Random(config.seed)
    harmonics = tuple(2 * i + 1 for i in range(config.n_harmonics))
    t_peak = 0.5 * math.pi / objective.omega
    period = 2.0 * math.pi / objective.omega
    grid = IntegrationConfig.per_period(0.0, objective.horizon * period, period)
    omega21 = objective.atom.omega21
    ranked_on_model = ranks_on_model(objective)

    def populations(pulse):
        if ranked_on_model:
            return _model_populations(omega21, pulse, grid)
        trajectory = _rk4_trajectory(objective.atom, pulse, grid)
        return None if trajectory is None else (trajectory.times, trajectory.p2)

    def evaluate(genome):
        return _evaluate(genome, harmonics, objective, t_peak, populations)

    n_genes = config.n_harmonics

    def normals():
        return np.array([rng.gauss(0.0, 1.0) for _ in range(n_genes)])

    cosine_seed = np.zeros(n_genes)
    cosine_seed[0] = 1.0
    population = [cosine_seed]
    for _ in range(config.population_size - 1):
        population.append(cosine_seed + config.mutation_scale * normals())
    scores = [evaluate(g) for g in population]

    def best_index():
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
            picks = [rng.randrange(config.population_size) for _ in range(4)]
            mother = picks[0] if _better(scores[picks[0]], scores[picks[1]]) else picks[1]
            father = picks[2] if _better(scores[picks[2]], scores[picks[3]]) else picks[3]
            blend = rng.random()
            child = blend * population[mother] + (1.0 - blend) * population[father]
            child = child + config.mutation_scale * normals()
            next_population.append(child)
            next_scores.append(evaluate(child))
        population = next_population
        scores = next_scores
        history.append(scores[best_index()][0])

    winner = scores[best_index()]
    measured = winner[0]
    if ranked_on_model and measured > 0.0:
        trajectory = _rk4_trajectory(objective.atom, winner[1], grid)
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
    )
