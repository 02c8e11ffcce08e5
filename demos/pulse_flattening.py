"""Widening the flat top by shaping the drive.

The populated window is set by the first non-vanishing derivative of P2 at
the peak: order four for the plain cosine.  Adding odd harmonics and nulling
the coupling's first derivative at the peak removes the quartic term; for
odd-harmonic sums the odd action derivatives vanish at the peak anyway, so
the first survivor jumps to order eight and the window more than triples at
the same leakage budget.  A small seeded genetic search over three harmonics
then finds a wider window that is not flatter: its winner scores order four,
like the cosine.  At a fixed leakage budget the widest window comes from
letting 1 - P2 ripple up to the budget, not from nulling the most
derivatives, so maximal flatness is the wrong objective for the window.

Run:  python demos/pulse_flattening.py
"""
import math

from twolevel import (
    IntegrationConfig,
    OptimizerConfig,
    ShapingObjective,
    TwoLevelAtom,
    flatness_order,
    integrate,
    populated_window,
    run_optimizer,
    second_derivative_nulled_pulse,
    transfer_cosine,
    transfer_peak,
)

omega, p_cr = 1.0, 1e-4
atom = TwoLevelAtom(omega21=0.0)
t_peak = transfer_peak(omega)
period = 2 * math.pi / omega
grid = IntegrationConfig.per_period(0.0, period, period)


def window_of(pulse) -> float:
    return populated_window(integrate(atom, pulse, grid), p_cr)


cosine = transfer_cosine(omega)
nulled = second_derivative_nulled_pulse(omega)
nulled_label = "2-harmonic, dV nulled"

print(f"leakage budget p_cr = {p_cr}, base frequency omega = {omega}")
print(f"{'pulse':<24} {'flatness order':>14} {'window T_s':>12}")
print(f"{'cosine':<24} {flatness_order(cosine, t_peak):>14} {window_of(cosine):>12.4f}")
print(f"{nulled_label:<24} {flatness_order(nulled, t_peak):>14} "
      f"{window_of(nulled):>12.4f}")

objective = ShapingObjective(p_cr=p_cr, omega=omega, atom=atom, horizon=1.0)
config = OptimizerConfig(
    population_size=16, generations=12, mutation_scale=0.25, seed=3, n_harmonics=3
)
result = run_optimizer(objective, config)
print(f"{'GA over 3 harmonics':<24} "
      f"{flatness_order(result.best_pulse, t_peak):>14} {result.measured_window:>12.4f}")

print()
print("GA progress (best closed-form window per generation):")
print("  " + " ".join(f"{w:.3f}" for w in result.history))
print()
print("best coefficients (harmonic k, chi_k):")
for k, c in result.best_pulse.coefficients:
    print(f"  k = {k}: {c:+.6f}")
