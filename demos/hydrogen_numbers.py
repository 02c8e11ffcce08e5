"""The hydrogen 2s-2p pair in numbers.

The 2s-2p splitting is 4.37e-6 eV while the next level (3p) is 1.89 eV away:
more than five decades of drive frequency satisfy
omega21 << omega << omega_2s3p, where the degenerate-limit solution and the
two-state truncation both hold.  The transition dipole, integrated exactly
from the explicit orbitals, converts the complete-transfer condition
chi = (pi/2) omega into laboratory field strengths.

Run:  python demos/hydrogen_numbers.py
"""
import math

from twolevel import (
    dipole_2s2p,
    field_for_transfer,
    lamb_shift,
    next_level_gap,
    validity_report,
)
from twolevel.hydrogen import hartree_to_ev, wavelength_to_omega, z_matrix_element

print("level structure")
print(f"  2s-2p splitting : {lamb_shift():.4e} a.u. = {hartree_to_ev(lamb_shift()):.3e} eV")
print(f"  gap to 3p       : {next_level_gap():.4e} a.u. = "
      f"{hartree_to_ev(next_level_gap()):.3f} eV")
print(f"  ratio           : {next_level_gap() / lamb_shift():.3e}")

print()
# R20 = (2 - r) e^(-r/2) / (2 sqrt 2) and R21 = r e^(-r/2) / (2 sqrt 6), so
# integral R20 R21 r^3 dr = (2 * 4! - 5!) / (8 sqrt 3), since
# integral r^k e^(-r) dr = k!; and 2 pi integral Y00 cos(theta) Y10 = 1/sqrt 3.
radial = (2 * math.factorial(4) - math.factorial(5)) / (8.0 * math.sqrt(3.0))
angular = 1.0 / math.sqrt(3.0)
print("dipole matrix element, integrated exactly")
print(f"  radial factor   = -3 sqrt 3 = {radial:+.15f}")
print(f"  angular factor  =  1/sqrt 3 = {angular:+.15f}")
print(f"  product         = {radial * angular:+.15f} a.u.")
print(f"  <2s|z|2p0>      = {dipole_2s2p():+.15f} a.u.")
print(f"  selection rule  <2s|z|2s> = {z_matrix_element('2s', '2s')} a.u. (exactly, by parity)")

print()
print("field regimes for complete transfer (chi/omega = pi/2)")
print(f"{'wavelength':>12} {'omega (a.u.)':>14} {'E0 (a.u.)':>12} "
      f"{'intensity (W/cm^2)':>20} {'verdict':>9}")
for label, wavelength_m in (("3 um", 3e-6), ("30 um", 3e-5), ("3 mm", 3e-3), ("3 cm", 3e-2)):
    omega = wavelength_to_omega(wavelength_m)
    regime = field_for_transfer(omega)
    verdict = validity_report(omega).verdict
    print(f"{label:>12} {omega:>14.4e} {regime.e0:>12.4e} "
          f"{regime.intensity_w_cm2:>20.3e} {verdict:>9}")

print()
print("micron wavelengths need ~1e12 W/cm^2; centimeter waves only ~1e4 W/cm^2.")
