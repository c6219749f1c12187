#!/usr/bin/env python3
"""One-dimensional Ising chain, three independent routes to the pressure.

The nearest-neighbour coupling beta*s_i*s_{i+1} has closed form
log(2 cosh beta).  The transfer operator reproduces it spectrally, the
finite ring of n spins reproduces it up to the exact wrap-around excess
log(1 + tanh(beta)^n)/n, and the spin correlation comes out as tanh(beta).
"""

import numpy as np

from thermoshift import (gibbs_measure, ising_match, ising_potential,
                         ising_pressure_exact, lattice_pressure_trace,
                         pressure)

print("beta    closed form        spectral gap   ring n=12 gap   ring n=20 gap")
for beta in (0.25, 0.5, 1.0, 1.5, 2.0):
    pot = ising_potential(beta)
    exact = ising_pressure_exact(beta)
    spectral = pressure(pot)
    ring12 = lattice_pressure_trace(12, pot, 1.0)
    ring20 = lattice_pressure_trace(20, pot, 1.0)
    print(f"{beta:4.2f}   {exact:.12f}   {abs(spectral - exact):.1e}"
          f"        {ring12 - exact:.2e}       {ring20 - exact:.2e}")

print("\nthe ring excess is exactly log(1 + tanh(beta)^n)/n:")
for beta in (0.5, 2.0):
    pot = ising_potential(beta)
    for n in (12, 20):
        excess = lattice_pressure_trace(n, pot, 1.0) - ising_pressure_exact(beta)
        predicted = np.log(1.0 + np.tanh(beta) ** n) / n
        print(f"  beta={beta}  n={n:2d}   excess - predicted = "
              f"{excess - predicted:+.2e}")

print("\nnearest-neighbour correlation <s_0 s_1> vs tanh(beta):")
for beta in (0.3, 0.8, 1.4):
    mu = gibbs_measure(ising_potential(beta))
    corr = mu.expectation(ising_potential(1.0))
    print(f"  beta={beta:3.1f}   {corr:+.12f}   error {corr - np.tanh(beta):+.1e}")

target = 0.25
beta = ising_match(target)
print(f"\ninverse problem: correlation {target} is matched by beta = {beta:.12f}")
print(f"  closed form artanh({target}) = {np.arctanh(target):.12f}")
