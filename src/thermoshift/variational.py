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

from ._numerics import bracketed_root, log_trace_power, logsumexp, path_sum_price
from .errors import DegenerateObservable, OutOfRange, TargetOutOfRange, price
from .potentials import LocallyConstantPotential
from .sft import full_shift
from .transfer import build, gibbs_measure

# width of the beta bracket at which ``solve_beta`` and ``ising_match`` stop
_BETA_XTOL = 1e-12


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


def solve_beta(system: FiniteSystem, target):
    """Inverse temperature with prescribed mean energy.

    The map beta -> <U> is strictly increasing with range (min U, max U) for
    a non-constant U, so the solution exists and is unique for any target
    strictly inside that interval.  Bisection brackets the root; Newton steps
    (the derivative is the energy variance) accelerate once inside.  It stops
    when the bracket is within _BETA_XTOL: <U> is flat near its range's ends.
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

    return float(bracketed_root(excess, -1.0, 1.0, xtol=_BETA_XTOL,
                                with_slope=True)[0])


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
    """Exact ring equilibrium over the m^n configurations, summed on the
    array of shape (m,) * n whose C order is their lexicographic order.

    The potential must live on a full shift (the ring imposes no transition
    constraints).  Weights are exp(beta * ring sum - n * pressure).
    """
    sft = potential.sft
    _require_full(sft)
    if n < potential.r:
        raise OutOfRange(f"ring size {n} below potential range {potential.r}")
    # m ** n configurations, never formed past the budget's bits
    k = n if budget is None else min(n, budget.bit_length() + 1)
    price(sft.m ** k, budget, f"listing the {n}-words", counted=True)
    phi = potential.dense_table
    sums = np.zeros((sft.m,) * n)
    for i in range(n):
        # Birkhoff sum around the ring: site i reads sites i..i+r-1 mod n,
        # the table broadcast on those axes without a copy
        window = [(i + j) % n for j in range(potential.r)]
        sums += np.expand_dims(phi.transpose(np.argsort(window)),
                               tuple(set(range(n)) - set(window)))
    with np.errstate(over="ignore"):   # -inf weighs 0, as it would; +inf is refused
        sums *= beta
        if sums.max() == np.inf:
            raise OutOfRange(f"beta = {beta} takes a ring weight past the float range")
        log_z = logsumexp(sums)
        sums -= log_z
    return LatticeEquilibrium(n=n, pressure=log_z / n,
                              masses=np.exp(sums, out=sums).ravel())


def lattice_pressure_trace(n, potential, beta) -> float:
    """Ring pressure log trace(A_beta^n) / n of the matrix of ``build``,
    cost k^3 log n for its size k (m^(r-1) at range r > 2).

    Exact for any range on the full alphabet: the closed paths of length n
    through the (r-1)-blocks are the ring configurations.
    """
    _require_full(potential.sft)
    if n < 1:
        raise OutOfRange("ring size must be >= 1")
    return log_trace_power(build(potential.scale(beta)), n) / n


def _require_full(sft):
    if not (sft.transition == 1).all():
        raise OutOfRange("ring sums need a potential on the full shift")


# -- cylinder-maximization pressure ---------------------------------------------


def pressure_Pn(potential: LocallyConstantPotential, n, budget=10 ** 7) -> float:
    """log sum_w exp(sup_[w] S_n phi) / n over the admissible n-cylinders
    [w]: the last entry of ``pressure_Pn_curve``, one logsumexp taken."""
    for sums in _path_sums(potential, n, budget):
        pass
    return logsumexp(sums) / n


def pressure_Pn_curve(potential: LocallyConstantPotential, n_max,
                      budget=10 ** 7) -> list:
    """P_n/n for n = 1..n_max, from one path sum over the (r-1)-words, r >= 2
    (``_path_sums``)."""
    return [logsumexp(sums) / n
            for n, sums in enumerate(_path_sums(potential, n_max, budget), 1)]


def _path_sums(potential, n_max, budget):
    """For n = 1..n_max, the values whose logsumexp is n P_n.

    They are T_n up to depth r-1 (``_max_plus_tails``), and past it
    L_n(s) + T_{r-1}(s) with L_{r-1} = 0 on every (r-1)-word and, in the log
    domain so that no path underflows, L_{j+1}(s[1:] b) =
    logaddexp_a [L_j(a s[1:]) + phi(a s[1:] b)], phi -inf off the subshift.
    A price of n_max (m^r + 40) over ``budget`` raises DepthTooLarge first.
    """
    r = max(potential.r, 2)
    path_sum_price(n_max, potential.sft.m ** r, budget)
    phi = potential.with_range(r).dense_table
    tails = list(_max_plus_tails(phi, min(n_max, r - 1)))
    yield from (t[~np.isnan(t)] for t in tails)
    phi, tail = (np.where(np.isnan(a), -np.inf, a) for a in (phi, tails[-1]))
    log_paths = np.zeros(tail.shape)
    for _ in range(r, n_max + 1):
        log_paths = np.logaddexp.reduce(log_paths[..., None] + phi, axis=0)
        yield log_paths + tail


def _max_plus_tails(phi, k):
    """T_1..T_k (k < r) of a range-r table: sup_[w] S_n phi is the windows in
    w plus T_j at its last j = min(n, r-1) symbols, the sup of the terms read
    past w.  T_j is U_j maximized over the r-1-j symbols completing a j-word,
    where U_0 = 0 and U_j(s) = fmax_b [phi(s b) + U_{j-1}(s[1:] b)]."""
    u = np.zeros(phi.shape[1:])
    for j in range(1, k + 1):
        u = np.fmax.reduce(phi + u[None], axis=-1)
        yield np.fmax.reduce(u, axis=tuple(range(j, phi.ndim - 1)))


# -- named chains -----------------------------------------------------------------


def ising_potential(beta=1.0) -> LocallyConstantPotential:
    """Nearest-neighbour spin product phi(x) = x0 x1 on the full 2-shift, scaled."""
    spin = (1.0, -1.0)   # of the symbols "+" and "-"
    return LocallyConstantPotential.from_function(
        full_shift(labels=["+", "-"]), 2, lambda w: beta * spin[w[0]] * spin[w[1]])


def ising_pressure_exact(beta) -> float:
    """log(2 cosh beta), the closed form for the spin chain."""
    return float(np.log(2.0 * np.cosh(beta)))


def ising_match(target_correlation):
    """Inverse temperature reproducing a prescribed nearest-neighbour correlation.

    Solves <x0 x1> = target under the equilibrium chain; the solution is
    artanh(target).  Root-finding runs on the computed Gibbs expectation so
    the result round-trips through the same machinery callers use.  It stops
    when the beta bracket is within _BETA_XTOL: the correlation is flat near
    +-1.
    """
    if not (-1.0 < target_correlation < 1.0):
        raise TargetOutOfRange("correlation must lie strictly inside (-1, 1)")

    spins = ising_potential(1.0)

    def excess(beta):
        return (gibbs_measure(ising_potential(beta)).expectation(spins)
                - target_correlation)

    return float(bracketed_root(excess, -1.0, 1.0, xtol=_BETA_XTOL)[0])
