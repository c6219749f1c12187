"""Finite maximization problems behind the variational principle.

Three finite models are computed exactly: the weighted measure
mu(x) = exp(-p + beta U(x)) on a finite set, the cyclic lattice ring with a
local observable, and the cylinder-maximization pressure approximant
P_n = log sum over admissible n-words of exp(sup of the Birkhoff sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._numerics import bracketed_root, log_trace_power, logsumexp
from .errors import DegenerateObservable, OutOfRange, TargetOutOfRange
from .potentials import LocallyConstantPotential
from .sft import SubshiftOfFiniteType, _word_blocks, full_shift
from .transfer import build, gibbs_measure


@dataclass
class FiniteSystem:
    """Finite state space with an energy observable and inverse temperature."""

    U: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        if self.U.ndim != 1 or len(self.U) < 1:
            raise ValueError("U must be a nonempty vector")


@dataclass
class FiniteEquilibrium:
    """Normalized maximizer mu(x) = exp(-p + beta U(x)) and its log-partition p."""

    mu: np.ndarray
    log_partition: float

    def mean_energy(self, U):
        return float(self.mu @ U)

    def var_energy(self, U):
        mean = self.mean_energy(U)
        return float(self.mu @ (U - mean) ** 2)


def finite_equilibrium(system: FiniteSystem) -> FiniteEquilibrium:
    """Exact equilibrium of a finite system: softmax weights at beta."""
    z = system.beta * system.U
    p = logsumexp(z)
    mu = np.exp(z - p)
    return FiniteEquilibrium(mu=mu, log_partition=p)


def mean_energy_at(U, beta):
    """<U> under the finite equilibrium at inverse temperature beta (stable)."""
    z = beta * np.asarray(U, dtype=float)
    z = z - z.max()
    w = np.exp(z)
    return float((w @ U) / w.sum())


def solve_beta(system: FiniteSystem, target, tol=1e-12):
    """Inverse temperature with prescribed mean energy.

    The map beta -> <U> is strictly increasing with range (min U, max U) for
    a non-constant U, so the solution exists and is unique for any target
    strictly inside that interval.  Bisection brackets the root; Newton steps
    (the derivative is the energy variance) accelerate once inside.
    """
    U = system.U
    lo_val, hi_val = float(U.min()), float(U.max())
    if hi_val - lo_val <= 0:
        raise DegenerateObservable("constant observable has no solvable mean")
    if not (lo_val < target < hi_val):
        raise TargetOutOfRange(
            f"target {target} outside the open range ({lo_val}, {hi_val})")

    def excess(beta):
        eq = finite_equilibrium(FiniteSystem(U, beta))
        return eq.mean_energy(U) - target, eq.var_energy(U)

    return float(bracketed_root(excess, -1.0, 1.0, ftol=tol, with_slope=True)[0])


# -- cyclic lattice ring -------------------------------------------------------


@dataclass
class LatticeEquilibrium:
    """Equilibrium on the ring of n sites: pressure per site and the weight
    of each configuration of A^n, in lexicographic order."""

    n: int
    pressure: float
    masses: np.ndarray

    def configurations(self, alphabet):
        """The configurations spelled by ``alphabet.word_string``, lazily, in
        the order of ``masses``."""
        return map("".join, product(map(str, alphabet.labels), repeat=self.n))


def lattice_equilibrium(n, potential, beta, budget=2 ** 22) -> LatticeEquilibrium:
    """Exact ring equilibrium by enumeration of the m^n configurations.

    The potential must live on a full shift (the ring imposes no transition
    constraints).  Weights are exp(beta * ring sum - n * pressure).
    """
    sft = potential.sft
    _require_full(sft)
    if n < potential.r:
        raise OutOfRange(f"ring size {n} below potential range {potential.r}")
    phi = potential.dense_table
    sums = []
    for block in _word_blocks(sft.transition, n, budget=budget):
        # Birkhoff sum around the ring: site i reads sites i..i+r-1 mod n
        total = np.zeros(len(block))
        for i in range(n):
            total = total + phi[tuple(block[:, (i + j) % n]
                                      for j in range(potential.r))]
        sums.append(beta * total)
    sums = np.concatenate(sums)
    log_z = logsumexp(sums)
    sums -= log_z
    return LatticeEquilibrium(n=n, pressure=log_z / n,
                              masses=np.exp(sums, out=sums))


def lattice_pressure_trace(n, potential, beta) -> float:
    """Ring pressure by transfer-matrix trace, cost m^3 log n.

    Exact identity for range <= 2 potentials on the full alphabet:
    sum over ring configurations of exp(beta S) = trace(A_beta^n).
    """
    _require_full(potential.sft)
    if potential.r > 2:
        raise OutOfRange("trace route needs range <= 2")
    if n < 1:
        raise OutOfRange("ring size must be >= 1")
    return log_trace_power(build(potential.scale(beta)), n) / n


def _require_full(sft):
    if not (sft.transition == 1).all():
        raise OutOfRange("ring sums need a potential on the full shift")


# -- cylinder-maximization pressure ---------------------------------------------


def pressure_Pn(potential, n, budget=10 ** 7) -> float:
    """Finite pressure approximant log sum_w exp(sup_[w] S_n phi), over n.

    The sum runs over the admissible n-cylinders [w] of the potential's
    subshift, each with the sup of the Birkhoff sum over its points.  Works
    for any potential exposing ``sft`` and ``birkhoff_sups``.
    """
    sups = [potential.birkhoff_sups(words) for words in
            _word_blocks(potential.sft.transition, n, budget=budget)]
    return logsumexp(np.concatenate(sups)) / n


# -- named chains -----------------------------------------------------------------


def ising_potential(beta=1.0) -> LocallyConstantPotential:
    """Nearest-neighbour spin product phi(x) = x0 x1 on the full 2-shift, scaled."""
    spin = (1.0, -1.0)   # of the symbols "+" and "-"
    return LocallyConstantPotential.from_function(
        full_shift(labels=["+", "-"]), 2, lambda w: beta * spin[w[0]] * spin[w[1]])


def ising_pressure_exact(beta) -> float:
    """log(2 cosh beta), the closed form for the spin chain."""
    return float(np.log(2.0 * np.cosh(beta)))


def ising_match(target_correlation, tol=1e-12):
    """Inverse temperature reproducing a prescribed nearest-neighbour correlation.

    Solves <x0 x1> = target under the equilibrium chain; the solution is
    artanh(target).  Root-finding runs on the computed Gibbs expectation so
    the result round-trips through the same machinery callers use.
    """
    if not (-1.0 < target_correlation < 1.0):
        raise TargetOutOfRange("correlation must lie strictly inside (-1, 1)")

    spins = ising_potential(1.0)

    def excess(beta):
        return (gibbs_measure(ising_potential(beta)).expectation(spins)
                - target_correlation)

    return float(bracketed_root(excess, -1.0, 1.0, xtol=tol, ftol=tol)[0])


def markov_as_gibbs(Q, labels=None, tol=1e-13) -> GibbsMeasure:
    """Present a primitive stochastic matrix as the Gibbs state of log Q.

    The potential phi(a, b) = log Q[a, b] on the subshift supported by Q has
    pressure zero and its Gibbs state is exactly the chain (pi_Q, Q).
    Forbidden transitions (zero entries) are removed from the subshift
    support.  Q must be primitive: the spectral machinery needs mixing, so a
    merely irreducible periodic chain is rejected.
    """
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    if Q.shape != (m, m):
        raise ValueError("Q must be square")
    if np.max(np.abs(Q.sum(axis=1) - 1.0)) > 1e-9 or (Q < 0).any():
        raise ValueError("Q must be row-stochastic (tolerance 1e-9)")
    if labels is None:
        labels = [str(i) for i in range(m)]
    sft = SubshiftOfFiniteType(labels, (Q > 0).astype(np.int8))
    sft.require_primitive()
    pot = LocallyConstantPotential.from_function(sft, 2, lambda w: np.log(Q[w]))
    return gibbs_measure(pot, tol=tol)
