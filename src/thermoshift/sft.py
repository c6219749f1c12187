"""Subshifts of finite type over a finite alphabet.

A subshift is specified by an ordered alphabet and a 0/1 transition matrix
``M``; the word ``a b`` is admissible iff ``M[a, b] == 1``.  All word-level
data structures use symbol indices (tuples of ints); labels only appear at
the boundary (model files, reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotPrimitive, PeriodTooLarge, ZeroRowOrColumn

Word = tuple  # tuple of symbol indices


class Alphabet:
    """Ordered alphabet of distinct hashable labels, size >= 2."""

    def __init__(self, labels):
        labels = tuple(labels)
        if len(labels) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be distinct")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(range(len(self.labels)))

    def index(self, label):
        return self._index[label]

    def label(self, i):
        return self.labels[i]

    def word_string(self, word):
        """Concatenated labels of a word of symbol indices."""
        return "".join(str(self.labels[i]) for i in word)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __repr__(self):
        return f"Alphabet({list(self.labels)!r})"


@dataclass
class MixingReport:
    """Outcome of primitivity analysis.

    ``p0`` is the smallest power with all entries positive when ``primitive``
    is True, else None.  The search stops at the Wielandt bound
    (m-1)^2 + 1, which is sharp for primitive matrices.
    """

    primitive: bool
    p0: int | None
    wielandt_bound: int


class SubshiftOfFiniteType:
    """Alphabet plus 0/1 transition matrix with no stranded symbols."""

    def __init__(self, alphabet, transition):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        M = np.asarray(transition)
        m = len(alphabet)
        if M.shape != (m, m):
            raise ValueError(f"transition matrix must be {m}x{m}, got {M.shape}")
        if not np.isin(M, (0, 1)).all():
            raise ValueError("transition entries must be 0 or 1")
        M = M.astype(np.int8)
        rows = M.sum(axis=1)
        cols = M.sum(axis=0)
        if (rows == 0).any() or (cols == 0).any():
            bad = [alphabet.label(i) for i in range(m)
                   if rows[i] == 0 or cols[i] == 0]
            raise ZeroRowOrColumn(f"stranded symbols (no successor or no predecessor): {bad}")
        self.alphabet = alphabet
        self.transition = M
        self._succ = [tuple(np.flatnonzero(M[a]).tolist()) for a in range(m)]
        self._mixing = None

    @property
    def m(self):
        return len(self.alphabet)

    def successors(self, a):
        return self._succ[a]

    def is_admissible(self, word) -> bool:
        if any(not (0 <= a < self.m) for a in word):
            return False
        M = self.transition
        return all(M[word[i], word[i + 1]] for i in range(len(word) - 1))

    def validate(self) -> MixingReport:
        """Check primitivity by exact boolean powers up to the Wielandt bound."""
        if self._mixing is None:
            m = self.m
            bound = (m - 1) ** 2 + 1
            B = self.transition.astype(bool)
            power = B.copy()
            p0 = None
            for p in range(1, bound + 1):
                if power.all():
                    p0 = p
                    break
                power = (power.astype(np.int64) @ B.astype(np.int64)) > 0
            self._mixing = MixingReport(primitive=p0 is not None, p0=p0,
                                        wielandt_bound=bound)
        return self._mixing

    def require_primitive(self):
        report = self.validate()
        if not report.primitive:
            raise NotPrimitive(
                f"transition matrix is not primitive (no positive power up to "
                f"the Wielandt bound {report.wielandt_bound})")
        return report

    # -- words and cylinders --------------------------------------------------

    def cylinders(self, n):
        """Yield all admissible words of length n in lexicographic order."""
        if n <= 0:
            raise ValueError("cylinder depth must be >= 1")
        word = [0] * n
        succ = self._succ

        def rec(pos):
            if pos == n:
                yield tuple(word)
                return
            choices = range(self.m) if pos == 0 else succ[word[pos - 1]]
            for a in choices:
                word[pos] = a
                yield from rec(pos + 1)

        yield from rec(0)

    def count_words(self, n) -> int:
        """Exact number of admissible n-words: total of the entries of M^(n-1)."""
        if n <= 0:
            raise ValueError("word length must be >= 1")
        if n == 1:
            return self.m
        P = _int_matrix_power(self.transition.astype(object).tolist(), n - 1)
        return sum(sum(row) for row in P)

    def periodic_count(self, n, cap=4096) -> int:
        """Number of points of period n (not necessarily least): trace of M^n.

        Exact in arbitrary precision.  ``cap`` guards against accidental huge
        requests; the arithmetic itself has no overflow.
        """
        if n <= 0:
            raise ValueError("period must be >= 1")
        if n > cap:
            raise PeriodTooLarge(f"period {n} exceeds cap {cap}")
        P = _int_matrix_power(self.transition.astype(object).tolist(), n)
        return sum(P[i][i] for i in range(self.m))

    def periodic_count_with_prefix(self, n, prefix, cap=4096):
        """Exact count of n-periodic points whose first symbols equal ``prefix``."""
        if n <= 0:
            raise ValueError("period must be >= 1")
        if n > cap:
            raise PeriodTooLarge(f"period {n} exceeds cap {cap}")
        k = len(prefix)
        if k > n:
            raise ValueError("prefix longer than the period")
        if not self.is_admissible(prefix):
            return 0
        if k == 0:
            return self.periodic_count(n, cap=cap)
        # transitions inside the prefix are already checked; close the loop
        # with a path of n - k + 1 steps from the last prefix symbol back to
        # the first (for k == n this closes the word directly).
        if k == n:
            return 1 if self.transition[prefix[-1], prefix[0]] else 0
        P = _int_matrix_power(self.transition.astype(object).tolist(), n - k + 1)
        return P[prefix[-1]][prefix[0]]

    def periodic_fraction(self, n, prefix, cap=4096) -> Fraction:
        """Exact fraction of n-periodic points starting with ``prefix``."""
        total = self.periodic_count(n, cap=cap)
        hits = self.periodic_count_with_prefix(n, prefix, cap=cap)
        return Fraction(hits, total)

    # -- entropy ---------------------------------------------------------------

    def topological_entropy(self, tol=1e-14, max_iter=10 ** 6) -> float:
        """log of the spectral radius of M, by power iteration.

        Requires primitivity.  ``tol`` is the relative residual on both the
        left and right eigenvector equations.
        """
        from .transfer import leading_eigen   # deferred: transfer imports sft
        self.require_primitive()
        eig = leading_eigen(self.transition.astype(float), tol, max_iter)
        return float(np.log(eig.lam))

    def __repr__(self):
        return (f"SubshiftOfFiniteType(m={self.m}, "
                f"labels={list(self.alphabet.labels)!r})")


def full_shift(symbols=2, labels=None) -> SubshiftOfFiniteType:
    """The full shift on ``symbols`` symbols (all transitions allowed)."""
    if labels is None:
        labels = [str(i) for i in range(symbols)]
    m = len(labels)
    return SubshiftOfFiniteType(Alphabet(labels), np.ones((m, m), dtype=np.int8))


def golden_mean_shift() -> SubshiftOfFiniteType:
    """Binary shift forbidding the word 11."""
    return SubshiftOfFiniteType(Alphabet(["0", "1"]), [[1, 1], [1, 0]])


def _int_matrix_power(M, n):
    """M^n for a square matrix given as lists of Python ints (exact)."""
    size = len(M)
    result = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [list(map(int, row)) for row in M]
    e = n
    while e:
        if e & 1:
            result = _int_matmul(result, base)
        e >>= 1
        if e:
            base = _int_matmul(base, base)
    return result


def _int_matmul(A, B):
    size = len(A)
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]

