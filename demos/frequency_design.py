"""Choosing the drive frequency for a wanted flat-top duration.

Near its peak the transfer probability is quartic: 1 - P2 ~ (pi^2/16)
(omega tau)^4.  Inverting that at a leakage budget p_cr gives the frequency
that keeps the state populated for a window of width t_s:

    omega = (4/sqrt(pi)) * p_cr^(1/4) / t_s

Lower frequency = longer window but (at fixed omega21) more leakage, so the
choice is a trade-off.  This script designs a frequency, verifies the window
on an integrated trajectory, and prints the field the hydrogen 2s-2p pair
would need.

Run:  python demos/frequency_design.py
"""
import math

import numpy as np

from twolevel import (
    Cosine,
    DesignRequest,
    IntegrationConfig,
    TwoLevelAtom,
    design_frequency,
    field_for_transfer,
    integrate,
    populated_window,
    validity_report,
)

request = DesignRequest(t_s=200.0, p_cr=1e-4)
omega = design_frequency(request)
print(f"request: window t_s = {request.t_s} a.u. with leakage <= {request.p_cr}")
print(f"designed omega = {omega:.6e} a.u.")

# Verify on the exact dynamics in the degenerate limit.
atom = TwoLevelAtom(omega21=0.0)
pulse = Cosine(chi=0.5 * math.pi * omega, omega=omega)
traj = integrate(atom, pulse, IntegrationConfig(0.0, 2 * math.pi / omega))
measured = populated_window(traj, request.p_cr)
print(f"measured window = {measured:.2f} a.u. "
      f"({100 * measured / request.t_s:.1f}% of requested)")

t0 = math.pi / (2 * omega)
inside = (traj.times >= t0 - request.t_s / 2) & (traj.times <= t0 + request.t_s / 2)
print(f"max leakage inside the requested window = {np.max(1 - traj.p2[inside]):.2e}")

# What this frequency means for hydrogen 2s-2p.
regime = field_for_transfer(omega)
report = validity_report(omega)
print()
print("hydrogen realization")
print(f"  wavelength = {regime.wavelength_m:.4e} m")
print(f"  E0         = {regime.e0:.4e} a.u.")
print(f"  intensity  = {regime.intensity_w_cm2:.3e} W/cm^2")
print(f"  two-state validity: {report.verdict} "
      f"(omega21/omega = {report.splitting_ratio:.2e})")

# The trade-off: shrink the budget tenfold and the window shrinks ~ 1.8x
# at fixed omega, or the frequency drops ~ 1.8x at fixed window.
for p_cr in (1e-3, 1e-4, 1e-5):
    om = design_frequency(DesignRequest(t_s=request.t_s, p_cr=p_cr))
    print(f"  p_cr = {p_cr:.0e} -> omega = {om:.3e} a.u.")
