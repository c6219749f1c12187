"""Shift-invariant measures in Markov form.

Every Gibbs or equilibrium state this package produces is a stationary Markov
chain (pi, P) on the symbols of a subshift, so that is the concrete measure
type; general invariant measures enter only through finite cylinder tables.
Conventions: natural logarithms throughout, 0 log 0 = 0, and in relative
entropy 0 log(0/0) = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from ._numerics import chunks, ordered_sum
from .errors import OutOfRange, SupportMismatch, ZeroMassPath
from .sft import SubshiftOfFiniteType, _word_blocks

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
        Row-stochastic transition matrix with pi P = pi; its support is the
        subshift the chain lives on.
    """

    def __init__(self, pi, P):
        pi = np.asarray(pi, dtype=float)
        P = np.asarray(P, dtype=float)
        m = len(pi)
        if P.shape != (m, m):
            raise ValueError("pi and P have mismatched sizes")
        if not (np.isfinite(pi).all() and np.isfinite(P).all()):
            raise ValueError("pi and P must be finite")
        if (pi < -1e-15).any() or abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi must be a probability vector")
        rows = P.sum(axis=1)
        if (P < -1e-15).any() or np.max(np.abs(rows - 1.0)) > 1e-9:
            raise ValueError("P must be row-stochastic (tolerance 1e-9)")
        if np.max(np.abs(pi @ P - pi)) > _STATIONARY_TOL:
            raise ValueError(f"pi is not stationary for P within {_STATIONARY_TOL}")
        self.pi = np.clip(pi, 0.0, None)
        self.P = np.clip(P, 0.0, None)

    @classmethod
    def from_transition(cls, P):
        """Markov measure with the stationary vector solved from P.

        P must be row-stochastic with a unique stationary distribution.
        """
        P = np.asarray(P, dtype=float)
        pi = stationary_vector(P)
        return cls(pi, P)

    @property
    def m(self):
        return len(self.pi)

    # -- cylinder masses -------------------------------------------------------

    def log_cylinder(self, word):
        """log of the cylinder mass; -inf when the mass is zero (``_log_terms``)."""
        row = self._row(word)
        with np.errstate(divide="ignore"):
            return math.fsum(chain.from_iterable(
                logs[0].tolist() for logs in self._log_terms(row)))

    def cylinder(self, word):
        word = tuple(word)
        return float(self._masses(self._row(word))[0]) if word else 1.0

    def _row(self, word):
        """A word as a one-row integer array, an integer array uncopied and
        checked by min and max, which make no temporary the length of a long
        path; ValueError for a non-symbol."""
        row = np.asarray(word).reshape(1, -1)
        row = row if row.dtype.kind in "iu" else row.astype(np.intp)
        if row.size and (row.min() < 0 or row.max() >= self.m):
            bad = row[(row < 0) | (row >= self.m)][0]
            raise ValueError(f"symbol {bad} is outside 0..{self.m - 1}")
        return row

    def _support_blocks(self, n, budget=None):
        """The n-words of positive mass and their masses, in lex order, as a
        generator of (words, masses) array blocks; more than ``budget`` words
        raise DepthTooLarge at the call (sft._word_blocks)."""
        blocks = _word_blocks(self.P > 0, n, self.pi > 0, budget)
        return ((words, self._masses(words)) for words in blocks)

    def _masses(self, words):
        """Cylinder masses of the rows of a word array: pi of the first symbol
        times each step, left to right."""
        mass = self.pi[words[:, 0]]
        for j in range(1, words.shape[1]):
            mass = mass * self.P[words[:, j - 1], words[:, j]]
        return mass

    def _log_terms(self, words):
        """log pi of the first symbol of each row of a word array, then log P
        of its steps, in arrays of at most CHUNK columns (-inf for a null one).

        A cylinder's log-mass is the math.fsum of its row's terms, correctly
        rounded, independent of word order, and a long word costs one chunk
        of Python floats; for dyadic masses and power-of-two lengths the SMB
        estimator then reproduces the entropy rate bit for bit.
        """
        if words.shape[1]:
            yield np.log(self.pi[words[:, :1]])
        for s in chunks(words.shape[1] - 1):
            yield np.log(self.P[words[:, s], words[:, 1:][:, s]])

    def _log_masses(self, words):
        """log cylinder masses of the rows of a word array (``_log_terms``)."""
        with np.errstate(divide="ignore"):
            logs = np.hstack(list(self._log_terms(words)))
        return np.array([math.fsum(row) for row in logs.tolist()])

    # -- information quantities -------------------------------------------------

    def entropy(self) -> float:
        """Entropy rate -sum pi_a P_ab log P_ab (nats per symbol)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(self.P > 0, self.P * np.log(self.P), 0.0)
        return float(-(self.pi @ terms.sum(axis=1)))

    def expectation(self, potential) -> float:
        """Integral of a locally constant potential against the measure."""
        total = 0.0
        for words, mass in self._support_blocks(potential.r):
            values = potential.dense_table[tuple(words.T)]
            if np.isnan(values).any():
                word = tuple(words[np.argmax(np.isnan(values))].tolist())
                raise ValueError(f"the potential is not defined on {word}")
            total = ordered_sum(mass * values, total)
        return float(total)

    def time_reversal(self) -> "MarkovMeasure":
        """Reversed chain Q_ab = pi_b P_ba / pi_a; same stationary vector."""
        if (self.pi <= 0).any():
            raise OutOfRange("time reversal needs strictly positive pi")
        Q = (self.P.T * self.pi[None, :]) / self.pi[:, None]
        return MarkovMeasure(self.pi, Q)

    # -- sampling ----------------------------------------------------------------

    def sample_path(self, length, seed):
        """Sample a path of the chain, reproducibly, as a 1-D array of the
        smallest unsigned dtype that holds the symbols.

        Uses a counter-based generator keyed by a 64-bit seed; the raw 64-bit
        words are turned into uniforms by the fixed rule (raw >> 11) * 2**-53
        and each step takes the first symbol whose cumulative row mass exceeds
        the uniform, or the last symbol when none does.  The result is
        therefore bit-identical across platforms.
        """
        if length < 1:
            raise ValueError("path length must be >= 1")
        if not (0 <= int(seed) < 2 ** 64):
            raise OutOfRange("seed must fit in 64 bits")
        # cumulative rows of P, then of pi as the row of a virtual start
        # state m; an infinite last entry sends a uniform past a row sum
        # below 1 to the last symbol
        cum = np.cumsum(np.vstack((self.P, self.pi)), axis=1)
        cum[:, -1] = np.inf
        cum, state = cum.tolist(), self.m
        # bisect on Python floats makes searchsorted's comparisons, per step
        # without numpy's call overhead
        return np.fromiter((state := bisect_right(cum[state], x)
                            for x in _uniforms(int(seed), length)),
                           np.min_scalar_type(self.m - 1), length)

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
    """``count`` uniforms of the Philox stream keyed by ``seed``, as Python
    floats drawn CHUNK at a time; successive draws continue the stream, so
    they equal one draw of ``count``."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    for s in chunks(count):
        raw = gen.integers(0, 2 ** 64, size=s.stop - s.start, dtype=np.uint64)
        yield from ((raw >> np.uint64(11)).astype(np.float64)
                    * (2.0 ** -53)).tolist()


@dataclass
class GibbsMeasure:
    """Gibbs/equilibrium state of a locally constant potential.

    Carries the Markov form, the range <= 2 potential it equilibrates, the
    pressure, and the eigendata of the transfer operator it was built from.
    The chain lives on ``potential.sft``: a potential of range > 2 is block
    recoded first (``recode_range2``), and the state lives on the block
    subshift.
    """

    markov: MarkovMeasure
    potential: object
    pressure: float
    eigen: object

    def entropy(self):
        return self.markov.entropy()

    def expectation(self, potential=None):
        return self.markov.expectation(self.potential if potential is None
                                       else potential)

    def cylinder(self, word):
        return self.markov.cylinder(word)


# -- block entropies ------------------------------------------------------------


@dataclass
class BlockEntropies:
    """H_n of the n-blocks plus the two standard entropy-rate estimators."""

    h_n: list
    rates: list          # H_n / n
    increments: list     # H_{n+1} - H_n


def entropy_by_blocks(measure, n_max, budget=10 ** 7) -> BlockEntropies:
    """Block entropies H_n for n = 1..n_max by exact cylinder enumeration."""
    # every support word has a successor, so word counts never fall with the
    # depth: the budget guard at n_max, taken first, covers every depth
    deepest = measure._support_blocks(n_max, budget)
    h_n = []
    for n in range(1, n_max + 1):
        total = 0.0
        for _, mass in deepest if n == n_max else measure._support_blocks(n):
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
    total = 0.0
    for words, mass in nu._support_blocks(n, budget):
        words, mass = words[mass > 0], mass[mass > 0]
        log_mu = mu.markov._log_masses(words)
        if np.isneginf(log_mu).any():   # argmin: the first null cylinder
            word = tuple(words[np.argmin(log_mu)].tolist())
            raise SupportMismatch(f"nu charges the mu-null cylinder {word}")
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
    if len(path) == 0:
        raise ValueError("the path is empty")
    log_mass = measure.log_cylinder(path)
    if log_mass == -np.inf:
        raise ZeroMassPath("the path has probability zero under the measure")
    return float(-log_mass / len(path))


@dataclass
class AepPartition:
    """Counts and masses of the depth-n words split by whether their mass is
    within exp(-n(h +- alpha)); the words themselves are not kept."""

    entropy_rate: float
    typical_mass: float
    exceptional_mass: float
    typical_count: int
    word_count: int


def aep_partition(measure: MarkovMeasure, n, alpha, budget=10 ** 7) -> AepPartition:
    """Count and weigh the typical and exceptional depth-n cylinders at
    level alpha, one enumeration block at a time."""
    if alpha <= 0:
        raise OutOfRange("alpha must be positive")
    h = measure.entropy()
    lo, hi = -n * (h + alpha), -n * (h - alpha)
    t_mass, e_mass, t_count, count = 0.0, 0.0, 0, 0
    for words, mass in measure._support_blocks(n, budget):
        count += len(words)
        with np.errstate(divide="ignore"):
            log_mass = np.log(mass)
        inside = (lo <= log_mass) & (log_mass <= hi)
        t_count += int(inside.sum())
        t_mass = ordered_sum(mass[inside], t_mass)
        e_mass = ordered_sum(mass[~inside], e_mass)
    return AepPartition(entropy_rate=h, typical_mass=float(t_mass),
                        exceptional_mass=float(e_mass),
                        typical_count=t_count, word_count=count)


# -- periodic orbits ---------------------------------------------------------------


def periodic_approximation(sft: SubshiftOfFiniteType, n, word) -> Fraction:
    """Fraction of n-periodic points whose initial symbols spell ``word``.

    Exact rational; converges to the measure of the cylinder under the
    measure of maximal entropy as n grows, at the spectral-gap rate.
    OutOfRange when the subshift has no point of period n.
    """
    total = sft.periodic_count(n)
    if total == 0:
        raise OutOfRange(f"no points of period {n}")
    return Fraction(sft.periodic_count_with_prefix(n, tuple(word)), total)


# -- entropy production --------------------------------------------------------------


def entropy_production(mu_plus: GibbsMeasure, mu_minus: GibbsMeasure) -> float:
    """Relative entropy rate of the forward state with respect to the backward one.

    Zero exactly when the two Markov forms coincide (detailed balance for a
    chain and its time reversal).
    """
    return relative_entropy(mu_plus.markov, mu_minus)
