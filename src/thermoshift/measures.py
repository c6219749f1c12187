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
from itertools import chain

import numpy as np

from ._numerics import chunks, ordered_sum, path_sum_price
from .errors import OutOfRange, SupportMismatch, ZeroMassPath
from .sft import _word_blocks

# row sums, probability vectors and stationarity of every chain read or
# built: a row-sum defect of eps forces a stationarity residual of the same
# order, so a stricter check would reject chains the model files may hold
_STOCHASTIC_TOL = 1e-9


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
        if (pi < -1e-15).any() or abs(pi.sum() - 1.0) > _STOCHASTIC_TOL:
            raise ValueError("pi must be a probability vector")
        rows = P.sum(axis=1)
        if (P < -1e-15).any() or np.max(np.abs(rows - 1.0)) > _STOCHASTIC_TOL:
            raise ValueError("P must be row-stochastic (tolerance 1e-9)")
        if np.max(np.abs(pi @ P - pi)) > _STOCHASTIC_TOL:
            raise ValueError(f"pi is not stationary for P within {_STOCHASTIC_TOL}")
        self.pi = np.clip(pi, 0.0, None)
        self.P = np.clip(P, 0.0, None)

    @staticmethod
    def from_transition(P):
        """Markov measure with the stationary vector solved from P.

        P must be row-stochastic with a unique stationary distribution.
        """
        P = np.asarray(P, dtype=float)
        return MarkovMeasure(stationary_vector(P), P)

    @property
    def m(self):
        return len(self.pi)

    # -- cylinder masses -------------------------------------------------------

    def log_cylinder(self, word):
        """log of the cylinder mass (-inf if 0): math.fsum of log pi and log P of
        each step, a chunk of floats at a time (exact SMB on dyadic masses)."""
        w = self._row(word)[0]
        steps = (self.P[w[s], w[1:][s]] for s in chunks(len(w) - 1))
        with np.errstate(divide="ignore"):
            return math.fsum(chain.from_iterable(
                np.log(x).tolist() for x in chain([self.pi[w[:1]]], steps)))

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

    def _masses(self, words):
        """Cylinder masses of the rows of a word array: pi of the first symbol
        times each step, left to right."""
        mass = self.pi[words[:, 0]]
        for j in range(1, words.shape[1]):
            mass = mass * self.P[words[:, j - 1], words[:, j]]
        return mass

    # -- information quantities -------------------------------------------------

    def entropy(self) -> float:
        """Entropy rate -sum pi_a P_ab log P_ab (nats per symbol)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(self.P > 0, self.P * np.log(self.P), 0.0)
        return float(-(self.pi @ terms.sum(axis=1)))

    def expectation(self, potential) -> float:
        """Integral of a range-r potential: ``dense_table`` contracted with
        the r-word masses pi_a0 P_a0a1 ..., built left to right, on the words
        of positive pi and steps, added in lex order (``ordered_sum``); a NaN
        on that support, even where the mass underflowed, is a ValueError."""
        mass, support = self.pi, self.pi > 0
        for _ in range(potential.r - 1):
            mass = mass[..., None] * self.P
            support = support[..., None] & (self.P > 0)
        bad = support & np.isnan(potential.dense_table)
        if bad.any():
            word = tuple(np.argwhere(bad)[0].tolist())
            raise ValueError(f"the potential is not defined on {word}")
        return float(ordered_sum(mass[support] * potential.dense_table[support]))

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
        return f"{type(self).__name__}(m={self.m})"


def stationary_vector(P):
    """Unique stationary probability vector of a row-stochastic matrix, by
    Grassmann-Taksar-Heyman elimination (Oper. Res. 33 (1985)): states are
    censored out from the last down, each pivot the mass its state sends to
    lower ones, so nothing is subtracted, entries are O(m u) accurate and
    transient states exactly 0.  A zero pivot proves its state recurrent, so
    rerun with it last: a zero pivot then is a second recurrent class, and
    the ValueError carries one state of each class as ``states``.  It reads
    no diagonal entry, so for any nonnegative P it gives the stationary
    vector of the jump rates P[a, b], the pi with pi P = pi diag(P 1)."""
    order = np.arange(len(P))
    for _ in range(2):
        A, k = np.asarray(P, float)[np.ix_(order, order)], len(P) - 1
        while k and (pivot := A[k, :k].sum()):
            A[:k, k] /= pivot
            A[:k, :k] += np.outer(A[:k, k], A[k, :k])
            k -= 1
        if not k:
            pi = np.ones(len(A))
            for j in range(1, len(A)):
                pi[j] = (pi[:j] * A[:j, j]).sum()
            return (pi / pi.sum())[np.argsort(order)]
        order = np.r_[order[k], np.delete(order, k)]   # order[k] is recurrent
    states = tuple(sorted(order[:2].tolist()))
    exc = ValueError("states %d and %d lie in different recurrent classes" % states)
    exc.states = states
    raise exc


def _uniforms(seed, count):
    """``count`` uniforms of the Philox stream keyed by ``seed``, as Python
    floats drawn CHUNK at a time; successive draws continue the stream, so
    they equal one draw of ``count``."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    for s in chunks(count):
        raw = gen.integers(0, 2 ** 64, size=s.stop - s.start, dtype=np.uint64)
        yield from ((raw >> np.uint64(11)).astype(np.float64)
                    * (2.0 ** -53)).tolist()


class GibbsMeasure(MarkovMeasure):
    """Gibbs/equilibrium state of a locally constant potential: the
    stationary Markov chain (pi, P) that ``transfer.gibbs_measure`` reads off
    the transfer operator, with the range <= 2 potential it equilibrates,
    the pressure, and the eigendata of that operator.  The chain lives on
    ``potential.sft``: a potential of range > 2 is block recoded first
    (``recode_range2``), and the state lives on the block subshift.
    """

    def __init__(self, pi, P, potential, pressure, eigen):
        super().__init__(pi, P)
        self.potential, self.pressure, self.eigen = potential, pressure, eigen

    def expectation(self, potential=None):
        """Integral of a potential, by default the one the state equilibrates."""
        return super().expectation(self.potential if potential is None
                                   else potential)


# -- block entropies ------------------------------------------------------------


@dataclass
class BlockEntropies:
    """The two standard entropy-rate estimators of the block entropies H_n."""

    rates: list          # H_n / n
    increments: list     # H_{n+1} - H_n


def entropy_by_blocks(measure, n_max, budget=10 ** 7) -> BlockEntropies:
    """Block entropies H_n, n = 1..n_max, from one pass of ``_log_term_sums``."""
    with np.errstate(divide="ignore"):
        h_n = [float(acc.sum()) for acc in _log_term_sums(
            measure, -np.log(measure.pi), -np.log(measure.P), n_max, budget)]
    return BlockEntropies(rates=[h / n for n, h in enumerate(h_n, 1)],
                          increments=[b - a for a, b in zip(h_n, h_n[1:])])


def _log_term_sums(nu, first, step, n_max, budget):
    """For n = 1..n_max, acc(b): the sum over the n-words w ending at b of
    nu[w] (first(w_0) + step(w_0, w_1) + ... + step(w_(n-2), w_(n-1))).

    One forward pass in the expectation semiring (Eisner, ACL 2002), with
    mass(b) the nu-mass of those words: acc <- acc P + mass (P * step) and
    mass <- mass P, by elementwise products and sums (no BLAS).  An infinite
    step from positive mass raises SupportMismatch; a price of n_max (m^2 +
    40) over ``budget`` raises DepthTooLarge first (``path_sum_price``)."""
    path_sum_price(n_max, nu.m ** 2, budget)
    null = (nu.P > 0) & np.isinf(step)
    # (mass, acc) times this block; where P > 0 a step is finite or null
    block = np.block([[nu.P, nu.P * np.where(np.isfinite(step), step, 0.0)],
                      [np.zeros_like(nu.P), nu.P]])
    state = np.concatenate((nu.pi, nu.pi * np.where(nu.pi > 0, first, 0.0)))
    charged = np.flatnonzero(null.any(axis=1)).tolist()
    yield state[nu.m:]
    for n in range(2, n_max + 1):
        if charged and state[charged].any():
            b, c = np.argwhere((state[:nu.m, None] > 0) & null)[0]
            raise SupportMismatch(f"nu charges a mu-null {n}-cylinder at {b}->{c}")
        state = (state[:, None] * block).sum(axis=0)
        yield state[nu.m:]


# -- relative entropy -------------------------------------------------------------


def relative_entropy(nu: MarkovMeasure, mu: GibbsMeasure) -> float:
    """Specific relative entropy h(nu | mu) of nu with respect to a Gibbs state.

    Closed form: pressure(phi) - integral(phi d nu) - entropy(nu).  Requires
    nu's depth-2 support to sit inside mu's; otherwise the relative entropy
    is infinite and SupportMismatch is raised.
    """
    _check_support(nu, mu)
    return float(mu.pressure - nu.expectation(mu.potential) - nu.entropy())


def relative_entropy_direct(nu: MarkovMeasure, mu: MarkovMeasure, n,
                            budget=10 ** 7) -> float:
    """H_n(nu | mu)/n from one forward pass over nu's chain (``_log_term_sums``)
    with the terms log pi - log pi' and log P - log P' of mu = (pi', P')."""
    _check_support(nu, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        first, step = np.log(nu.pi) - np.log(mu.pi), np.log(nu.P) - np.log(mu.P)
    for acc in _log_term_sums(nu, first, step, n, budget):
        pass
    return float(acc.sum() / n)


def _check_support(nu, mu):
    if nu.m != mu.m:
        raise SupportMismatch(
            f"alphabet sizes differ: nu has {nu.m} symbols and mu {mu.m}; "
            "the Gibbs state of a potential of range r > 2 lives on its "
            "subshift of (r-1)-blocks")
    # the first fault row by row: symbol a, then its transitions in order
    faults = np.column_stack(((nu.pi > 0) & (mu.pi == 0),
                              (nu.pi[:, None] * nu.P > 0) & (mu.P == 0)))
    if faults.any():
        a, c = divmod(int(faults.argmax()), nu.m + 1)
        what = f"symbol {a}" if c == 0 else f"transition {a}->{c - 1}"
        raise SupportMismatch(f"nu charges {what} outside mu's support")


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
    for words in _word_blocks(measure.P > 0, n, measure.pi > 0, budget):
        mass = measure._masses(words)
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


# -- entropy production --------------------------------------------------------------


def entropy_production(nu: MarkovMeasure) -> float:
    """Relative entropy rate of a stationary chain against its time reversal
    Q: e_p = sum_ab pi_a P_ab log(pi_a P_ab / (pi_b P_ba)) (Jiang, Qian and
    Qian, LNM 1833), log P_ab - log Q_ab added along each row and the rows
    weighed by pi, in index order.  Zero exactly under detailed balance; a
    transition whose reverse is forbidden raises SupportMismatch."""
    rev = nu.time_reversal()
    _check_support(nu, rev)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(nu.P > 0, np.log(nu.P) - np.log(rev.P), 0.0)
    return float(ordered_sum(nu.pi * [ordered_sum(row) for row in nu.P * step]))
