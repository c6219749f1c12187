#!/usr/bin/env python3
"""Tour of the pressure machinery on the golden mean shift.

A range-2 potential weights each allowed transition.  The script computes
the pressure spectrally, watches the cylinder approximants P_n/n descend
onto it, and verifies the equilibrium identity h + <phi> = P.
"""

import numpy as np

from thermoshift import (LocallyConstantPotential, gibbs_bounds,
                         gibbs_measure, golden_mean_shift, pressure,
                         pressure_Pn)

sft = golden_mean_shift()
pot = LocallyConstantPotential(
    sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})

p = pressure(pot)
print(f"spectral pressure          {p:+.15f}")

print("\ncylinder approximants (upper bounds, decreasing):")
for n in (2, 4, 6, 8, 10, 12, 14):
    pn = pressure_Pn(pot, n)
    print(f"  n={n:2d}   P_n/n = {pn:+.12f}   gap = {pn - p:.3e}")

mu = gibbs_measure(pot)
h = mu.entropy()
mean = mu.expectation()
print(f"\nentropy of the equilibrium  {h:+.15f}")
print(f"mean of the potential       {mean:+.15f}")
print(f"h + <phi> - P               {h + mean - p:+.3e}")

print("\nMarkov form of the equilibrium state:")
print("  pi =", np.array_str(mu.markov.pi, precision=12))
print("  P  =")
for row in mu.markov.P:
    print("      ", np.array_str(row, precision=12))

# uniform comparability of cylinder masses with exp(S_n phi - n P)
b = gibbs_bounds(mu, 10)
print(f"\nGibbs ratio envelope at depth 10: [{b.c_min:.9f}, {b.c_max:.9f}]")
print("  attained by", sft.alphabet.word_string(b.argmin),
      "and", sft.alphabet.word_string(b.argmax))
