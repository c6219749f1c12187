#!/usr/bin/env python3
"""Hausdorff dimension of piecewise linear repellers via the pressure equation.

For a conformal expanding Markov map the dimension of the invariant set is
the unique root of P(-s log|T'|) = 0.  Piecewise linear maps make every
geometric quantity exactly rational, so the numbers here can be checked by
hand.
"""

import numpy as np

from thermoshift import (PiecewiseLinearMarkovMap, acim, bowen_dimension,
                         bowen_root, code, square_coding)

# -- middle-thirds Cantor set --------------------------------------------------

cantor = PiecewiseLinearMarkovMap(
    ["0", "1/3", "2/3", "1"], [(3, (0, 1, 2)), None, (3, (0, 1, 2))])
res = bowen_dimension(cantor)
print(f"middle thirds: dim = {res.dimension:.12f}"
      f"   log 2/log 3 = {np.log(2) / np.log(3):.12f}")
print(f"  pressure residual at the root: {res.residual:.1e}")

# -- uneven repeller: slopes 2 and 4, a hole on (3/4, 1) ------------------------

uneven = PiecewiseLinearMarkovMap(
    ["0", "1/2", "3/4", "1"], [(2, (0, 1, 2)), (4, (0, 1, 2)), None])
res = bowen_dimension(uneven)
# 2^-s + 4^-s = 1 is x + x^2 = 1 in x = 2^-s, so x = 1/phi and s = log2(phi)
root = np.log2((1.0 + np.sqrt(5.0)) / 2.0)
print(f"\nslopes (2,4):  dim = {res.dimension:.12f}")
print(f"  root of 2^-s + 4^-s = 1 in closed form, log2(phi): {root:.12f}"
      f"   (difference {abs(res.dimension - root):.1e})")

# dimension is invariant under passing to the second iterate, whose coding
# is the 2-word shift of T's coding with potential phi(a) + phi(b)
res2 = bowen_root(square_coding(code(uneven).potential))
print(f"  dim of T^2 = {res2.dimension:.12f}"
      f"   (difference {abs(res2.dimension - res.dimension):.1e})")

# -- full-measure case: the doubling map ----------------------------------------

doubling = PiecewiseLinearMarkovMap(
    ["0", "1/2", "1"], [(2, (0, 1)), (2, (0, 1))])
print(f"\ndoubling map:  dim = {bowen_dimension(doubling).dimension:.12f}")

# -- when the map covers, there is an invariant density --------------------------

golden = PiecewiseLinearMarkovMap(
    ["0", "2/3", "1"], [("3/2", (0, 1)), (2, (0,))])
result = acim(golden)
print("\ngolden interval map ([0,2/3] at slope 3/2, [2/3,1] at slope 2):")
for s, i in enumerate(result.coded.symbols):
    lo, hi = golden.interval(i)
    print(f"  density on [{lo}, {hi}] = {result.densities[s]:.12f}")
lo, hi = result.certificate(8)
print(f"  enumerated mass/length ratios at depth 8 lie in"
      f" [{lo:.9f}, {hi:.9f}]")
print("  exact values are 9/8 and 3/4: the acim is not Lebesgue measure")
