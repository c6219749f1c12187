#!/usr/bin/env python3
"""Entropy production: how far a stationary chain is from detailed balance.

The production rate is the relative entropy rate between the forward chain
and its time reversal, read off the chain in closed form:
sum_ab pi_a P_ab log(pi_a P_ab / (pi_b P_ba)).  It vanishes exactly for
reversible chains, and any two-state stationary chain is automatically
reversible, so the smallest irreversible examples live on three states.
"""

import numpy as np

from thermoshift import MarkovMeasure, entropy_production, relative_entropy_direct

cycle = np.array([[0.0, 0.9, 0.1],
                  [0.1, 0.0, 0.9],
                  [0.9, 0.1, 0.0]])

nu = MarkovMeasure.from_transition(cycle)
rev = nu.time_reversal()

ep = entropy_production(nu)
print("biased three-cycle (0.9 with the arrow, 0.1 against):")
print(f"  production rate      {ep:.12f}")
print(f"  closed form 0.8 ln 9 {0.8 * np.log(9.0):.12f}")

print("\n  time-reversed transition matrix:")
for row in rev.P:
    print("   ", np.array_str(row, precision=3, suppress_small=True))

# the finite-depth estimate carries a boundary term of size rate/n, which
# the consecutive-depth increment cancels exactly
d11 = relative_entropy_direct(nu, rev, 11)
d12 = relative_entropy_direct(nu, rev, 12)
print(f"\n  depth-12 cylinder estimate        {d12:.9f}")
print(f"  increment 12*d(12) - 11*d(11)     {12 * d12 - 11 * d11:.9f}")

print("\ntwo-state chains cannot hide an arrow of time:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(5):
    P = rng.uniform(0.05, 1.0, size=(2, 2))
    P /= P.sum(axis=1, keepdims=True)
    two = MarkovMeasure.from_transition(P)
    value = entropy_production(two)
    worst = max(worst, abs(value))
print(f"  production over 5 random 2-state chains: all below {worst:.1e}")

print("\nsymmetrizing the three-cycle kills the production:")
symmetric = 0.5 * (cycle + cycle.T)
symmetric /= symmetric.sum(axis=1, keepdims=True)
balanced = MarkovMeasure.from_transition(symmetric)
value = entropy_production(balanced)
print(f"  production of the symmetrized chain: {value:.1e}")

print("\na periodic chain has a production rate too:")
four = np.array([[0.0, 0.9, 0.0, 0.1],
                 [0.1, 0.0, 0.9, 0.0],
                 [0.0, 0.1, 0.0, 0.9],
                 [0.9, 0.0, 0.1, 0.0]])
value = entropy_production(MarkovMeasure.from_transition(four))
print(f"  biased four-cycle (period 2): {value:.12f}   0.8 ln 9 again")
