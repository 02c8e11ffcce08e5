"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
Every tolerance is pinned here, not calibrated elsewhere.
"""
import math
import time

import numpy as np

from twolevel.analytic import (
    DesignRequest,
    design_frequency,
    detuning_sensitivity,
    p2_derivatives,
    populations_from_action,
    quartic_peak_approx,
    transfer_populations,
)
from twolevel.core import Cosine, GaussianApprox, HarmonicSum, TwoLevelAtom
from twolevel.hydrogen import (
    dipole_2s2p,
    field_for_transfer,
    hartree_to_ev,
    lamb_shift,
    next_level_gap,
    wavelength_to_omega,
)
from twolevel.integrator import (
    IntegrationConfig,
    integrate,
    max_population_deviation,
    populated_window,
)
from twolevel.pulses import (
    OptimizerConfig,
    ShapingObjective,
    flatness_order,
    run_optimizer,
    second_derivative_nulled_pulse,
)

from _oracles import central_derivative

DEGENERATE = TwoLevelAtom(omega21=0.0)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def normalized_cosine(omega: float) -> HarmonicSum:
    return Cosine(chi=0.5 * math.pi * omega, omega=omega)


def deviation_near_peak(ratio: float) -> tuple[float, float]:
    """Max |P2 - analytic P2| over the half period centered on the peak."""
    omega = 1.0
    atom = TwoLevelAtom(omega21=omega / ratio)
    started = time.perf_counter()
    traj = integrate(atom, normalized_cosine(omega), IntegrationConfig(0.0, 2 * math.pi))
    elapsed = time.perf_counter() - started
    t0 = math.pi / 2
    quarter = math.pi / 2
    dev = max_population_deviation(
        traj, lambda t: transfer_populations(omega, t), (t0 - quarter, t0 + quarter)
    )
    return dev, elapsed


def test_criterion_01_peak_deviation_reproduction():
    dev10, time10 = deviation_near_peak(10.0)
    dev100, time100 = deviation_near_peak(100.0)
    ok = dev10 < 0.01 and dev100 <= 2e-4 and time10 < 1.0 and time100 < 1.0
    check(
        "criterion 1 (peak deviation at ratios 10 and 100)",
        ok,
        f"dev(10)={dev10:.3e} <1e-2, dev(100)={dev100:.3e} <=2e-4, "
        f"runtimes {time10:.2f}s/{time100:.2f}s <1s",
    )


def test_criterion_02_quadratic_leakage_scaling():
    dev10, _ = deviation_near_peak(10.0)
    dev100, _ = deviation_near_peak(100.0)
    ratio = dev100 / dev10
    ok = 0.005 <= ratio <= 0.02
    check(
        "criterion 2 (deviation scales as (omega21/omega)^2)",
        ok,
        f"dev(100)/dev(10)={ratio:.4f}, within factor 2 of 0.01",
    )


def _degenerate_amp_error(steps_per_period: int) -> float:
    omega = 1.0
    cfg = IntegrationConfig(0.0, 5 * 2 * math.pi, steps_per_period=steps_per_period)
    traj = integrate(DEGENERATE, normalized_cosine(omega), cfg)
    y = 0.5 * math.pi * np.sin(omega * traj.times)
    return max(
        float(np.max(np.abs(traj.a1 - np.cos(y)))),
        float(np.max(np.abs(traj.a2 - 1j * np.sin(y)))),
    )


def test_criterion_03_degenerate_oracle_and_convergence():
    err_coarse = _degenerate_amp_error(1000)
    err_fine = _degenerate_amp_error(2000)
    ratio = err_coarse / err_fine
    ok = err_coarse <= 1e-8 and 12.0 <= ratio <= 20.0
    check(
        "criterion 3 (degenerate-limit amplitudes, 4th-order convergence)",
        ok,
        f"max|amp err|={err_coarse:.2e} <=1e-8 at 1000 steps/period, "
        f"halving-step gain {ratio:.1f}x in [12, 20]",
    )


def test_criterion_04_norm_conservation():
    omega = 1.0
    atom = TwoLevelAtom(omega21=omega / 100.0)
    cfg = IntegrationConfig(0.0, 10 * 2 * math.pi)
    traj = integrate(atom, normalized_cosine(omega), cfg)
    drift = float(np.max(traj.norm_defect()))
    ok = drift <= 1e-10
    check(
        "criterion 4 (norm conservation over 10 periods)",
        ok,
        f"max | |a1|^2+|a2|^2 - 1 | = {drift:.2e} <= 1e-10",
    )


def test_criterion_05_quartic_residual_order():
    omega = 1.0
    t0 = math.pi / 2

    def residual(tau: float) -> float:
        _, p2 = transfer_populations(omega, t0 + tau)
        return abs(p2 - quartic_peak_approx(omega, tau))

    ratio = residual(0.2) / residual(0.1)
    ok = 32.0 <= ratio <= 128.0
    check(
        "criterion 5 (sixth-order residual of the quartic peak expansion)",
        ok,
        f"residual(0.2)/residual(0.1) = {ratio:.1f}, 64x within factor 2",
    )


def test_criterion_06_frequency_design_round_trip():
    rng = np.random.default_rng(2024)
    worst_width = 0.0
    worst_leak = 0.0
    for _ in range(10):
        t_s = float(rng.uniform(5.0, 400.0))
        p_cr = float(10.0 ** rng.uniform(-5.0, -2.0))
        request = DesignRequest(t_s=t_s, p_cr=p_cr)
        omega = design_frequency(request)
        traj = integrate(
            DEGENERATE, normalized_cosine(omega), IntegrationConfig(0.0, 2 * math.pi / omega)
        )
        measured = populated_window(traj, p_cr)
        worst_width = max(worst_width, abs(measured - t_s) / t_s)
        t0 = math.pi / (2 * omega)
        inside = (traj.times >= t0 - t_s / 2) & (traj.times <= t0 + t_s / 2)
        leak = float(np.max(1.0 - traj.p2[inside]))
        worst_leak = max(worst_leak, leak / p_cr)
    ok = worst_width <= 0.20 and worst_leak <= 1.0
    check(
        "criterion 6 (design round-trip for 10 random requests)",
        ok,
        f"worst |T_s error| = {100 * worst_width:.2f}% <= 20%, "
        f"worst in-window leakage = {worst_leak:.3f} x budget <= 1",
    )


def test_criterion_07_detuning_sensitivity():
    omega = 1.0
    worst = 0.0
    for eps in (0.01, 0.05, 0.1):
        analytic_peak = detuning_sensitivity(eps)
        pulse = Cosine(chi=(0.5 * math.pi + eps) * omega, omega=omega)
        traj = integrate(DEGENERATE, pulse, IntegrationConfig(0.0, 2 * math.pi))
        i0 = int(np.argmin(np.abs(traj.times - math.pi / 2)))
        rk4_peak = float(traj.p2[i0])
        err = max(abs(analytic_peak - (1 - eps**2)), abs(rk4_peak - (1 - eps**2)))
        worst = max(worst, err / eps**4)
    ok = worst <= 1.0
    check(
        "criterion 7 (peak P2 equals 1 - eps^2 within eps^4)",
        ok,
        f"worst |P2(t0) - (1 - eps^2)| = {worst:.3f} x eps^4 <= 1, analytic and RK4",
    )


def test_criterion_08_faa_di_bruno_derivatives():
    pulses = [
        normalized_cosine(1.0),
        HarmonicSum(omega=1.0, coefficients=((1, 0.9), (3, 0.3), (5, -0.12))),
    ]
    worst_rel = 0.0
    t = 1.234
    for pulse in pulses:
        def p2_of_t(x):
            return populations_from_action(pulse, x)[1]

        for n in range(1, 7):
            fd = central_derivative(p2_of_t, t, n, h=0.05, n_points=21)
            exact = p2_derivatives(pulse, t, n)[n]
            scale = max(abs(exact), 1e-3)
            worst_rel = max(worst_rel, abs(exact - fd) / scale)
    omega = 1.7
    d4 = p2_derivatives(normalized_cosine(omega), math.pi / (2 * omega), 4)[4]
    d4_expected = -1.5 * math.pi**2 * omega**4
    d4_rel = abs(d4 - d4_expected) / abs(d4_expected)
    ok = worst_rel <= 1e-6 and d4_rel <= 1e-9
    check(
        "criterion 8 (composite-function derivatives vs finite differences)",
        ok,
        f"worst FD mismatch {worst_rel:.2e} <= 1e-6 for n<=6; "
        f"peak d4 off by {d4_rel:.2e} <= 1e-9 relative",
    )


def test_criterion_09_delta_pulse_limit():
    span = 10.0
    width = 1e-3 * span
    pulse = GaussianApprox(area=math.pi / 2, center=span / 2, width=width)
    cfg = IntegrationConfig(0.0, span, step=5e-5)
    traj = integrate(DEGENERATE, pulse, cfg)
    before = traj.times <= span / 2 - 5 * width
    after = traj.times >= span / 2 + 5 * width
    pre = float(np.max(traj.p2[before]))
    post = float(np.min(traj.p2[after]))
    ok = pre <= 1e-4 and post >= 0.9999
    check(
        "criterion 9 (sharp-kick population inversion)",
        ok,
        f"pre-pulse P2 <= {pre:.1e} (<=1e-4), post-pulse P2 >= {post:.6f} (>=0.9999)",
    )


def test_criterion_10_hydrogen_numbers():
    dipole = abs(dipole_2s2p())
    lamb_ev = hartree_to_ev(lamb_shift())
    gap_ev = hartree_to_ev(next_level_gap())
    intensity_um = field_for_transfer(wavelength_to_omega(3e-6)).intensity_w_cm2
    intensity_cm = field_for_transfer(wavelength_to_omega(3e-2)).intensity_w_cm2
    ok = (
        abs(dipole - 3.0) <= 1e-6
        and abs(lamb_ev - 4.37e-6) <= 1e-9 * 4.37e-6
        and abs(gap_ev - 1.89) <= 1e-9 * 1.89
        and 1e11 <= intensity_um <= 1e13
        and 1e3 <= intensity_cm <= 1e5
    )
    check(
        "criterion 10 (hydrogen 2s-2p numbers)",
        ok,
        f"|<2s|z|2p>|={dipole:.7f} (3 +/- 1e-6), splitting {lamb_ev:.3e} eV, "
        f"gap {gap_ev:.3f} eV, I(3um)={intensity_um:.2e}, I(3cm)={intensity_cm:.2e} W/cm^2",
    )


def test_criterion_11_optimizer_properties():
    started = time.perf_counter()
    omega, p_cr = 1.0, 1e-4
    objective = ShapingObjective(p_cr=p_cr, omega=omega, atom=DEGENERATE, horizon=1.0)
    config = OptimizerConfig(
        population_size=12, generations=8, mutation_scale=0.25, seed=3, n_harmonics=3
    )
    first = run_optimizer(objective, config)
    second = run_optimizer(objective, config)
    deterministic = first == second
    monotone = all(b >= a for a, b in zip(first.history, first.history[1:]))

    baseline_traj = integrate(
        DEGENERATE, normalized_cosine(omega), IntegrationConfig(0.0, 2 * math.pi / omega)
    )
    baseline = populated_window(baseline_traj, p_cr)
    beats_baseline = first.best_window >= baseline - 1e-12

    nulled = second_derivative_nulled_pulse(omega)
    nulled_order = flatness_order(nulled, math.pi / (2 * omega))
    nulled_traj = integrate(DEGENERATE, nulled, IntegrationConfig(0.0, 2 * math.pi / omega))
    nulled_window = populated_window(nulled_traj, p_cr)
    elapsed = time.perf_counter() - started
    ok = (
        deterministic
        and monotone
        and beats_baseline
        and nulled_order >= 6
        and nulled_window > baseline
        and elapsed < 60.0
    )
    check(
        "criterion 11 (optimizer determinism, monotonicity, flattened pulse)",
        ok,
        f"deterministic={deterministic}, monotone={monotone}, "
        f"GA T_s={first.best_window:.4f} >= cosine {baseline:.4f}, "
        f"nulled-pulse order {nulled_order} >= 6 with T_s={nulled_window:.4f}, "
        f"{elapsed:.1f}s < 60s",
    )
