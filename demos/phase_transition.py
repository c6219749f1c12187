#!/usr/bin/env python3
"""A genuine phase transition in one parameter.

The run-length potential with partial sums s_k = -log zeta(3) - 3 log(k+1)
keeps summable variations, yet its pressure curve beta -> P(beta*phi) hits
zero at beta = 1 and stays there.  The renewal equation certifies the
non-uniqueness (the critical series sums to 1 with finite weighted sum),
and one-sided difference quotients show the kink: the left slope stays
near 1/2 while the right slope vanishes identically.
"""

from thermoshift import (CriticalPowerFamily, diagnose, kink_quotients,
                         pressure_periodic, pressure_renewal)

fam = CriticalPowerFamily(exponent=3.0)

diag = diagnose(fam)
print("diagnosis:", diag.classification)
print(f"  sum of exp(s_k)      = {diag.sum_partial:.12f}"
      f"  (+ tail below {diag.sum_tail_bound:.1e})")
print(f"  weighted sum         = {diag.weighted_partial:.12f}"
      f"  (+ tail below {diag.weighted_tail_bound:.1e})")
print(f"  truncation           K = {diag.truncation_K}")

print("\npressure along the ray:")
betas = [0.5, 0.7, 0.8, 0.9, 0.95, 1.0, 1.1, 1.5]
for beta in betas:
    print(f"  P({beta:4.2f} phi) = {pressure_renewal(fam, beta):.12f}")

beta = 0.8
renewal = pressure_renewal(fam, beta)
periodic = pressure_periodic(fam, beta, 18)
print(f"\ncross-check at beta={beta}: renewal {renewal:.9f}"
      f" vs periodic-orbit {periodic:.9f}  (gap {abs(renewal - periodic):.1e})")

left, right = kink_quotients(fam, kink=1.0)
print("\none-sided difference quotients at the critical point beta=1:")
print("  step     left quotient       right quotient")
for h in (1e-2, 1e-3, 1e-4):
    print(f"  {h:.0e}   {left[h]:.12f}     {right[h]:.12f}")
print("\nthe left slope converges to a positive limit, the right slope is 0:")
print("the pressure is continuous but not differentiable at beta = 1,")
print("so the equilibrium state is not unique there.")
