"""Shift-invariant measures in Markov form.

Every Gibbs or equilibrium state this package produces is a stationary Markov
chain (pi, P) on the symbols of a subshift, so that is the concrete measure
type; general invariant measures enter only through finite cylinder tables.
Conventions: natural logarithms throughout, 0 log 0 = 0, and in relative
entropy 0 log(0/0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._numerics import ordered_sum
from .errors import OutOfRange, SupportMismatch, ZeroMassPath
from .sft import SubshiftOfFiniteType, _check_budget, _count_words, _word_blocks

# matches the documented row-stochasticity tolerance: a row-sum defect of
# eps forces a stationarity residual of the same order, so a stricter check
# here would reject inputs the input contract admits
_STATIONARY_TOL = 1e-9


class MarkovMeasure:
    """Stationary Markov chain (pi, P) used as a shift-invariant measure.

    Parameters
    ----------
    pi : array_like
        Stationary probability vector.
    P : array_like
        Row-stochastic transition matrix with pi P = pi.
    sft : SubshiftOfFiniteType, optional
        Subshift the measure lives on; transitions with P[a, b] > 0 must be
        admissible.  When omitted, the support of P defines the subshift
        implicitly.
    """

    def __init__(self, pi, P, sft=None):
        pi = np.asarray(pi, dtype=float)
        P = np.asarray(P, dtype=float)
        m = len(pi)
        if P.shape != (m, m):
            raise ValueError("pi and P have mismatched sizes")
        if (pi < -1e-15).any() or abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi must be a probability vector")
        rows = P.sum(axis=1)
        if (P < -1e-15).any() or np.max(np.abs(rows - 1.0)) > 1e-9:
            raise ValueError("P must be row-stochastic (tolerance 1e-9)")
        if np.max(np.abs(pi @ P - pi)) > _STATIONARY_TOL:
            raise ValueError(f"pi is not stationary for P within {_STATIONARY_TOL}")
        if sft is not None:
            bad = (P > 0) & (sft.transition == 0)
            if bad.any():
                a, b = map(int, np.argwhere(bad)[0])
                raise ValueError(f"P charges a forbidden transition {a}->{b}")
        self.pi = np.clip(pi, 0.0, None)
        self.P = np.clip(P, 0.0, None)
        self.sft = sft

    @classmethod
    def from_transition(cls, P, sft=None):
        """Markov measure with the stationary vector solved from P.

        P must be row-stochastic with a unique stationary distribution.
        """
        P = np.asarray(P, dtype=float)
        pi = stationary_vector(P)
        return cls(pi, P, sft=sft)

    @property
    def m(self):
        return len(self.pi)

    # -- cylinder masses -------------------------------------------------------

    def log_cylinder(self, word):
        """log of the cylinder mass; -inf when the mass is zero.

        Summed with math.fsum so the value is the correctly rounded log-mass,
        independent of word order; for dyadic masses and power-of-two lengths
        the SMB estimator then reproduces the entropy rate bit for bit.
        """
        idx = np.asarray(tuple(word), dtype=np.intp)
        if idx.size == 0:
            return 0.0
        with np.errstate(divide="ignore"):
            start = np.log(self.pi[idx[0]])
            steps = np.log(self.P[idx[:-1], idx[1:]])
        if np.isneginf(start) or np.isneginf(steps).any():
            return float("-inf")
        return math.fsum([float(start), *steps.tolist()])

    def cylinder(self, word):
        word = tuple(word)
        if not word:
            return 1.0
        val = self.pi[word[0]]
        for a, b in zip(word, word[1:]):
            val *= self.P[a, b]
        return float(val)

    def support_words(self, n):
        """Yield (word, mass) for all n-words of positive mass, lex order."""
        for words, mass in self._support_blocks(n):
            yield from zip(map(tuple, words.tolist()), mass)

    def _support_blocks(self, n):
        """support_words as (words, masses) array blocks (see sft._word_blocks)."""
        for words in _word_blocks(self.P > 0, n, self.pi > 0):
            yield words, self._masses(words)

    def _masses(self, words):
        """Cylinder masses of the rows of a word array, multiplied as in cylinder."""
        mass = self.pi[words[:, 0]]
        for j in range(1, words.shape[1]):
            mass = mass * self.P[words[:, j - 1], words[:, j]]
        return mass

    def count_support_words(self, n) -> int:
        return _count_words(self.P > 0, n, self.pi > 0)

    def _guard_depth(self, n, budget):
        _check_budget(self.P > 0, n, budget, self.pi > 0)

    def cylinder_table(self, n, budget=10 ** 7):
        self._guard_depth(n, budget)
        return CylinderTable(n, dict(self.support_words(n)))

    # -- information quantities -------------------------------------------------

    def entropy(self) -> float:
        """Entropy rate -sum pi_a P_ab log P_ab (nats per symbol)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(self.P > 0, self.P * np.log(self.P), 0.0)
        return float(-(self.pi @ terms.sum(axis=1)))

    def expectation(self, potential) -> float:
        """Integral of a locally constant potential against the measure."""
        total = 0.0
        for word, mass in self.support_words(potential.r):
            total += mass * potential.table[word]
        return float(total)

    def time_reversal(self) -> "MarkovMeasure":
        """Reversed chain Q_ab = pi_b P_ba / pi_a; same stationary vector."""
        if (self.pi <= 0).any():
            raise OutOfRange("time reversal needs strictly positive pi")
        Q = (self.P.T * self.pi[None, :]) / self.pi[:, None]
        # the reversed chain lives on the transposed subshift; drop the link
        return MarkovMeasure(self.pi, Q, sft=None)

    # -- sampling ----------------------------------------------------------------

    def sample_path(self, length, seed):
        """Sample a path of the chain, reproducibly.

        Uses a counter-based generator keyed by a 64-bit seed; the raw 64-bit
        words are turned into uniforms by the fixed rule (raw >> 11) * 2**-53
        and each step takes the first symbol whose cumulative row mass exceeds
        the uniform.  The result is therefore bit-identical across platforms.
        """
        if length < 1:
            raise ValueError("path length must be >= 1")
        if not (0 <= int(seed) < 2 ** 64):
            raise OutOfRange("seed must fit in 64 bits")
        u = _uniforms(int(seed), length)
        cum_pi = np.cumsum(self.pi)
        cum_P = np.cumsum(self.P, axis=1)
        path = np.empty(length, dtype=np.int64)
        path[0] = _pick(cum_pi, u[0])
        for t in range(1, length):
            path[t] = _pick(cum_P[path[t - 1]], u[t])
        return path.tolist()

    def __repr__(self):
        return f"MarkovMeasure(m={self.m})"


def stationary_vector(P):
    """Unique stationary probability vector of a row-stochastic matrix.

    Solves (P^T - I) pi = 0 with the normalization row appended; requires the
    chain to have a single recurrent class.
    """
    P = np.asarray(P, dtype=float)
    m = P.shape[0]
    A = P.T - np.eye(m)
    A[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    if (pi < -1e-10).any():
        raise ValueError("stationary vector is not unique or not positive")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _uniforms(seed, count):
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = gen.integers(0, 2 ** 64, size=count, dtype=np.uint64)
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _pick(cdf, u):
    j = int(np.searchsorted(cdf, u, side="right"))
    return min(j, len(cdf) - 1)


@dataclass
class CylinderTable:
    """Finite table of cylinder masses at a fixed depth."""

    depth: int
    masses: dict

    def total(self):
        return float(sum(self.masses.values()))


@dataclass
class GibbsMeasure:
    """Gibbs/equilibrium state of a locally constant potential.

    Carries the Markov form, the potential it equilibrates, the pressure, and
    the eigendata of the transfer operator it was built from.  When the
    potential needed block recoding the measure lives on the recoded subshift
    and ``recoding`` maps original words to block words.
    """

    markov: MarkovMeasure
    potential: object
    pressure: float
    eigen: object
    sft: SubshiftOfFiniteType
    recoding: object = None

    def entropy(self):
        return self.markov.entropy()

    def expectation(self, potential=None):
        return self.markov.expectation(self.potential if potential is None
                                       else potential)

    def cylinder(self, word):
        return self.markov.cylinder(word)

    def cylinder_original(self, word):
        """Mass of a cylinder of the original (pre-recoding) subshift."""
        if self.recoding is None or self.recoding.original_sft is self.sft:
            return self.markov.cylinder(word)
        rec = self.recoding
        k = rec.original_range - 1
        word = tuple(word)
        if not rec.original_sft.is_admissible(word):
            return 0.0
        if len(word) >= k:
            return self.markov.cylinder(rec.encode_word(word))
        total = 0.0
        for block in rec.blocks:
            if block[:len(word)] == word:
                total += self.markov.cylinder((rec.block_index[block],))
        return total


# -- block entropies ------------------------------------------------------------


@dataclass
class BlockEntropies:
    """H_n of the n-blocks plus the two standard entropy-rate estimators."""

    h_n: list
    rates: list          # H_n / n
    increments: list     # H_{n+1} - H_n

    def limit_agrees(self, h, tol):
        return abs(self.rates[-1] - h) <= tol


def entropy_by_blocks(measure, n_max, budget=10 ** 7) -> BlockEntropies:
    """Block entropies H_n for n = 1..n_max by exact cylinder enumeration."""
    measure._guard_depth(n_max, budget)
    h_n = []
    for n in range(1, n_max + 1):
        total = 0.0
        for _, mass in measure._support_blocks(n):
            mass = mass[mass > 0]
            total = ordered_sum(-(mass * np.log(mass)), total)
        h_n.append(float(total))
    rates = [h_n[i] / (i + 1) for i in range(len(h_n))]
    increments = [h_n[i + 1] - h_n[i] for i in range(len(h_n) - 1)]
    return BlockEntropies(h_n=h_n, rates=rates, increments=increments)


# -- relative entropy -------------------------------------------------------------


def relative_entropy(nu: MarkovMeasure, mu: GibbsMeasure) -> float:
    """Specific relative entropy h(nu | mu) of nu with respect to a Gibbs state.

    Closed form: pressure(phi) - integral(phi d nu) - entropy(nu).  Requires
    nu's depth-2 support to sit inside mu's; otherwise the relative entropy
    is infinite and SupportMismatch is raised.
    """
    _check_support(nu, mu)
    value = mu.pressure - nu.expectation(mu.potential) - nu.entropy()
    return float(value)


def relative_entropy_direct(nu: MarkovMeasure, mu: GibbsMeasure, n,
                            budget=10 ** 7) -> float:
    """H_n(nu | mu)/n by exact depth-n cylinder enumeration."""
    nu._guard_depth(n, budget)
    with np.errstate(divide="ignore"):
        log_pi, log_P = np.log(mu.markov.pi), np.log(mu.markov.P)
    total = 0.0
    for words, mass in nu._support_blocks(n):
        words, mass = words[mass > 0], mass[mass > 0]
        # the terms of mu.markov.log_cylinder, one row per word
        logs = np.column_stack((log_pi[words[:, 0]],
                                log_P[words[:, :-1], words[:, 1:]]))
        null = np.isneginf(logs).any(axis=1)
        if null.any():
            word = tuple(words[np.argmax(null)].tolist())
            raise SupportMismatch(f"nu charges the mu-null cylinder {word}")
        log_mu = np.array([math.fsum(row) for row in logs.tolist()])
        total = ordered_sum(mass * (np.log(mass) - log_mu), total)
    return float(total / n)


def _check_support(nu, mu):
    P_mu = mu.markov.P
    pi_mu = mu.markov.pi
    if nu.m != mu.markov.m:
        raise SupportMismatch("alphabet sizes differ")
    for a in range(nu.m):
        if nu.pi[a] > 0 and pi_mu[a] == 0:
            raise SupportMismatch(f"nu charges symbol {a} outside mu's support")
        for b in range(nu.m):
            if nu.pi[a] * nu.P[a, b] > 0 and P_mu[a, b] == 0:
                raise SupportMismatch(
                    f"nu charges transition {a}->{b} outside mu's support")


# -- almost sure convergence of -log mass / n ------------------------------------


def smb_estimate(measure: MarkovMeasure, path) -> float:
    """-(1/n) log of the path's cylinder mass (the entropy-rate estimator)."""
    log_mass = measure.log_cylinder(path)
    if log_mass == -np.inf:
        raise ZeroMassPath("the path has probability zero under the measure")
    return float(-log_mass / len(path))


@dataclass
class AepPartition:
    """Depth-n words split by whether their mass is within exp(-n(h +- alpha))."""

    depth: int
    alpha: float
    entropy_rate: float
    typical: list = field(repr=False)
    typical_mass: float = 0.0
    exceptional_mass: float = 0.0
    typical_count: int = 0
    word_count: int = 0


def aep_partition(measure: MarkovMeasure, n, alpha, budget=10 ** 7) -> AepPartition:
    """Classify depth-n cylinders as typical or exceptional at level alpha."""
    if alpha <= 0:
        raise OutOfRange("alpha must be positive")
    measure._guard_depth(n, budget)
    h = measure.entropy()
    lo, hi = -n * (h + alpha), -n * (h - alpha)
    typical, t_mass, e_mass, count = [], 0.0, 0.0, 0
    for words, mass in measure._support_blocks(n):
        count += len(words)
        with np.errstate(divide="ignore"):
            log_mass = np.log(mass)
        inside = (lo <= log_mass) & (log_mass <= hi)
        typical.extend(map(tuple, words[inside].tolist()))
        t_mass = ordered_sum(mass[inside], t_mass)
        e_mass = ordered_sum(mass[~inside], e_mass)
    return AepPartition(depth=n, alpha=alpha, entropy_rate=h, typical=typical,
                        typical_mass=float(t_mass),
                        exceptional_mass=float(e_mass),
                        typical_count=len(typical), word_count=count)


# -- periodic orbits ---------------------------------------------------------------


def periodic_approximation(sft: SubshiftOfFiniteType, n, word) -> Fraction:
    """Fraction of n-periodic points whose initial symbols spell ``word``.

    Exact rational; converges to the measure of the cylinder under the
    measure of maximal entropy as n grows, at the spectral-gap rate.
    """
    return sft.periodic_fraction(n, tuple(word))


# -- entropy production --------------------------------------------------------------


def entropy_production(mu_plus: GibbsMeasure, mu_minus: GibbsMeasure) -> float:
    """Relative entropy rate of the forward state with respect to the backward one.

    Zero exactly when the two Markov forms coincide (detailed balance for a
    chain and its time reversal).
    """
    return relative_entropy(mu_plus.markov, mu_minus)
