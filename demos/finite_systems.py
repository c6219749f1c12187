#!/usr/bin/env python3
"""Finite Gibbs ensembles: derivatives of the log partition function.

On a finite state space the pressure is log sum exp(beta*U) and everything
is computable in closed form, which makes the thermodynamic identities
directly visible: the first derivative in beta is the mean energy, the
second is the (nonnegative) variance, and the mean-energy map is strictly
increasing, so matching a target energy is a well-posed scalar solve.
"""

import numpy as np

from thermoshift import FiniteSystem, finite_equilibrium, solve_beta

U = np.array([-1.0, 0.2, 0.5, 2.0])
beta = 0.7
system = FiniteSystem(U, beta)
eq = finite_equilibrium(system)

print(f"energies U = {U}")
print(f"beta = {beta}")
print(f"log partition  {eq.log_partition:.12f}")
print(f"weights        {np.array_str(eq.mu, precision=9)}")
print(f"mean energy    {eq.mean_energy(U):.12f}")
print(f"energy variance{eq.var_energy(U):14.12f}")

print("\nfinite differences of the log partition:")
for h in (1e-4, 1e-5, 1e-6):
    def p(b):
        return finite_equilibrium(FiniteSystem(U, b)).log_partition
    fd1 = (p(beta + h) - p(beta - h)) / (2 * h)
    print(f"  h={h:.0e}   d/dbeta gap = {fd1 - eq.mean_energy(U):+.2e}")


def mean_energy(b):
    return finite_equilibrium(FiniteSystem(U, b)).mean_energy(U)


print("\nmean energy is increasing in beta:")
for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
    print(f"  beta={b:+4.1f}   <U> = {mean_energy(b):+.9f}")

target = 1.2
matched = solve_beta(FiniteSystem(U), target)
print(f"\nsolving <U> = {target}: beta = {matched:.12f}")
print(f"  mean energy at that beta: {mean_energy(matched):.12f}")
