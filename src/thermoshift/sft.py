"""Subshifts of finite type over a finite alphabet.

A subshift is specified by an ordered alphabet and a 0/1 transition matrix
``M``; the word ``a b`` is admissible iff ``M[a, b] == 1``.  All word-level
data structures use symbol indices (tuples of ints); labels only appear at
the boundary (model files, reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthTooLarge, NotPrimitive, PeriodTooLarge, ZeroRowOrColumn


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
        self._mixing = None

    @property
    def m(self):
        return len(self.alphabet)

    def is_admissible(self, word) -> bool:
        if any(not (0 <= a < self.m) for a in word):
            return False
        M = self.transition
        return all(M[word[i], word[i + 1]] for i in range(len(word) - 1))

    def validate(self) -> MixingReport:
        """Check primitivity by boolean squares up to the Wielandt bound.

        M has no zero column, so M^p > 0 implies M^(p+1) > 0: the exponent
        is one past the largest p with a zero in M^p.  Squaring stops at the
        first positive M^(2^k), or at 2^k >= the bound, which decides
        primitivity; a descent through the squares then finds that p bit by
        bit.  Boolean products are float products thresholded at > 0, exact
        for entries up to m.
        """
        if self._mixing is None:
            m = self.m
            bound = (m - 1) ** 2 + 1
            squares = [self.transition.astype(float)]
            while not squares[-1].all() and 2 ** (len(squares) - 1) < bound:
                squares.append((squares[-1] @ squares[-1] > 0).astype(float))
            p0 = None
            if squares[-1].all():
                power, p = np.eye(m), 0
                for k in reversed(range(len(squares) - 1)):
                    trial = (power @ squares[k] > 0).astype(float)
                    if not trial.all():
                        power, p = trial, p + 2 ** k
                p0 = p + 1
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

    def admissible_mask(self, r):
        """Boolean array of shape (m,) * r, true exactly at the admissible r-words."""
        if r < 1:
            raise ValueError("word length must be >= 1")
        T = self.transition != 0
        mask = np.ones(self.m, dtype=bool)
        for _ in range(r - 1):
            # mask[..., a, b] = mask[..., a] and T[a, b]
            mask = mask[..., None] & T
        return mask

    def count_words(self, n) -> int:
        """Exact number of admissible n-words: total of the entries of M^(n-1)."""
        if n <= 0:
            raise ValueError("word length must be >= 1")
        return _count_words(self.transition, n)

    def periodic_count(self, n) -> int:
        """Number of points of period n (not necessarily least): trace of M^n.

        Exact in arbitrary precision.  ``_PERIOD_CAP`` guards against
        accidental huge requests; the arithmetic itself has no overflow.
        """
        if n <= 0:
            raise ValueError("period must be >= 1")
        if n > _PERIOD_CAP:
            raise PeriodTooLarge(f"period {n} exceeds cap {_PERIOD_CAP}")
        return int(np.trace(np.linalg.matrix_power(self.transition.astype(object), n)))

    # -- entropy ---------------------------------------------------------------

    def topological_entropy(self, tol=1e-14) -> float:
        """log of the spectral radius of M, from ``transfer.leading_eigen``
        (power steps, then squared powers of M for a small spectral gap).

        Requires primitivity.  ``tol`` is the relative residual on both the
        left and right eigenvector equations.
        """
        from .transfer import leading_eigen   # deferred: transfer imports sft
        self.require_primitive()
        eig = leading_eigen(self.transition.astype(float), tol)
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


# most rows in one block of _word_blocks.  Its frontier holds at most one
# block per depth d <= n, of at most max(_BLOCK_ROWS, m) rows of d symbols,
# one byte each for m <= 256: an enumeration at depth n holds at most
# max(_BLOCK_ROWS, m) * n (n + 1) / 2 bytes of words (0.9 MiB at n = 21),
# plus intp indices for the one block it expands
_BLOCK_ROWS = 1 << 12
_PERIOD_CAP = 4096   # periodic counts refuse larger periods


def _word_blocks(T, n, starts=None, budget=None):
    """The length-n paths of the 0/1 matrix T, as a generator of (k, n) arrays
    of the smallest unsigned dtype that holds a symbol.

    A path starts at a symbol where ``starts`` is true (any symbol when
    omitted) and steps a -> b only where T[a, b] is nonzero.  Rows come in
    lexicographic order, at most _BLOCK_ROWS per block: the frontier of
    prefixes is expanded depth-first, a slice at a time, through the
    successor lists of T.  With ``budget`` the paths are counted first
    (``_count_words``), and more than ``budget`` of them raise DepthTooLarge
    here, at the call, before any block is built: this is the enumeration
    budget guard of every enumerator.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if budget is not None and _count_words(T, n, starts, stop_above=budget) > budget:
        raise DepthTooLarge(f"more than {budget} cylinders at depth {n}")
    T = np.asarray(T) != 0
    m = T.shape[0]
    dtype = np.min_scalar_type(m - 1)
    succ = np.nonzero(T)[1].astype(dtype)   # row-major: ascending within a row
    first = np.concatenate(([0], np.cumsum(T.sum(axis=1))))

    def expand(pending):
        while pending:
            block = pending.pop()
            if block.shape[1] == n:
                for lo in range(0, len(block), _BLOCK_ROWS):
                    yield block[lo:lo + _BLOCK_ROWS]
                continue
            last = block[:, -1].astype(np.intp)   # last + 1 must not wrap at 255
            deg = first[last + 1] - first[last]
            ends = np.cumsum(deg)
            cut = max(1, int(np.searchsorted(ends, _BLOCK_ROWS, side="right")))
            if cut < len(block):
                pending.append(block[cut:])
            total = int(ends[cut - 1]) if len(block) else 0
            if total == 0:
                continue
            deg = deg[:cut]
            parent = np.repeat(np.arange(cut), deg)
            # position of each child's symbol in succ: its parent's row start
            # plus its rank among the parent's children
            rank = np.arange(total) - np.repeat(ends[:cut] - deg, deg)
            child = succ[first[last[parent]] + rank]
            pending.append(np.column_stack((block[parent], child)))

    return expand([(np.arange(m) if starts is None
                    else np.flatnonzero(starts)).astype(dtype)[:, None]])


def _count_words(T, n, starts=None, stop_above=None):
    """Exact number of length-n paths of the 0/1 matrix T (see _word_blocks).

    Iterates the vector of path counts per end symbol in Python integers,
    so the count never overflows.  With ``stop_above`` the iteration stops
    once the count of some shorter length exceeds it, and that count is
    returned; every symbol must then have a successor in T, so counts never
    decrease with the length and the true count exceeds ``stop_above`` too.
    """
    T = np.asarray(T) != 0
    m = T.shape[0]
    vec = (np.ones(m, dtype=np.int64) if starts is None
           else (np.asarray(starts) != 0).astype(np.int64)).astype(object)
    # predecessor lists, grouped by end symbol
    end, src = np.nonzero(T.T)
    indeg = np.bincount(end, minlength=m)
    seg = (np.cumsum(indeg) - indeg)[indeg > 0]
    count = sum(vec.tolist())
    for _ in range(n - 1):
        if stop_above is not None and count > stop_above:
            break
        nxt = np.zeros(m, dtype=object)
        if len(src):
            nxt[indeg > 0] = np.add.reduceat(vec[src], seg)
        vec = nxt
        count = sum(vec.tolist())
    return count

