"""Complete population transfer under a cosine drive.

A two-level pair with negligible splitting driven by V21 = -chi cos(omega t)
transfers population as P2 = sin^2[(chi/omega) sin(omega t)]: the amplitude of
the inner sine times chi/omega caps the transfer, so P2 can only reach 1 when
chi/omega >= pi/2.  At exactly chi/omega = pi/2 the population swings fully
between the two levels twice per field period, with a flat stretch at each
extreme.  This script integrates the exact equations next to the closed form
and prints how well they agree.

Run:  python demos/complete_transfer.py
"""
import math

import numpy as np

from twolevel import (
    Cosine,
    IntegrationConfig,
    TwoLevelAtom,
    integrate,
    transfer_populations,
)

omega = 1.0
atom = TwoLevelAtom(omega21=0.0)
pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)

traj = integrate(atom, pulse, IntegrationConfig(0.0, 2 * 2 * math.pi / omega))
_, p2_exact = transfer_populations(omega, traj.times)

print("cosine drive with chi/omega = pi/2, two field periods")
print(f"  grid points            : {len(traj)}")
print(f"  max |P2_rk4 - P2_exact|: {np.max(np.abs(traj.p2 - p2_exact)):.2e}")
print(f"  norm drift             : {np.max(traj.norm_defect()):.2e}")

# The probability peaks sit at quarter-period offsets: t = pi/2w + k pi/w.
peaks = [math.pi / (2 * omega) + k * math.pi / omega for k in range(4)]
for t_peak in peaks:
    i = int(np.argmin(np.abs(traj.times - t_peak)))
    print(f"  P2({traj.times[i]:6.3f}) = {traj.p2[i]:.12f}")

# A sub-pi/2 ratio never completes the transfer: the action amplitude caps P2.
weak = Cosine(chi=0.8 * 0.5 * math.pi * omega, omega=omega)
weak_traj = integrate(atom, weak, IntegrationConfig(0.0, 2 * 2 * math.pi / omega))
print(f"  chi/omega = 0.8*(pi/2): max P2 = {np.max(weak_traj.p2):.6f}"
      f"  (cap sin^2(0.8 pi/2) = {math.sin(0.8 * math.pi / 2) ** 2:.6f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(traj.times, traj.p2, label="integrated", lw=2)
    ax.plot(traj.times, p2_exact, "--", label="closed form", lw=1)
    ax.plot(weak_traj.times, weak_traj.p2, ":", label="chi/omega = 0.8 (pi/2)")
    ax.set_xlabel("t (a.u.)")
    ax.set_ylabel("P2")
    ax.legend()
    fig.tight_layout()
    fig.savefig("complete_transfer.png", dpi=120)
    print("wrote complete_transfer.png")
except ImportError:
    print("matplotlib not installed; skipping plot")
