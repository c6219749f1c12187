"""Locally constant potentials on a subshift.

A potential of range r is a function of the first r coordinates, stored as an
exact table over the admissible r-words.  Birkhoff sums over an n-cylinder
are computed with the sup convention: the at most r-1 coordinates that stick
out past the word are maximized over admissible continuations (inf variant
for two-sided certification).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeTooLarge
from .sft import Alphabet, SubshiftOfFiniteType


class LocallyConstantPotential:
    """Range-r potential given by a finite table on admissible r-words.

    Parameters
    ----------
    sft : SubshiftOfFiniteType
        The subshift the potential lives on.
    r : int
        Range; the potential depends on coordinates 0..r-1 only.
    table : dict
        Maps every admissible r-word (tuple of symbol indices) to a float.
        Coverage must be exact: no missing and no extra keys.
    """

    def __init__(self, sft, r, table):
        if r < 1:
            raise ValueError("range must be >= 1")
        admissible = set(sft.cylinders(r))
        keys = set(table)
        if keys != admissible:
            missing = sorted(admissible - keys)[:4]
            extra = sorted(keys - admissible)[:4]
            raise ValueError(
                f"table must cover admissible {r}-words exactly; "
                f"missing {missing}, extra {extra}")
        self.sft = sft
        self.r = r
        self.table = {w: float(v) for w, v in table.items()}

    @classmethod
    def from_function(cls, sft, r, fn):
        return cls(sft, r, {w: fn(w) for w in sft.cylinders(r)})

    @classmethod
    def zero(cls, sft, r=1):
        return cls.from_function(sft, r, lambda w: 0.0)

    def value(self, word):
        return self.table[tuple(word)]

    # -- algebra (used for beta scaling and subgradient perturbations) --------

    def scale(self, c):
        return LocallyConstantPotential(
            self.sft, self.r, {w: c * v for w, v in self.table.items()})

    def shift(self, c):
        return LocallyConstantPotential(
            self.sft, self.r, {w: v + c for w, v in self.table.items()})

    def with_range(self, r2):
        """Same potential written as a table of range r2 >= r."""
        if r2 < self.r:
            raise ValueError("cannot lower the range")
        if r2 == self.r:
            return self
        return LocallyConstantPotential.from_function(
            self.sft, r2, lambda w: self.table[w[:self.r]])

    def __add__(self, other):
        if self.sft is not other.sft and self.sft.alphabet != other.sft.alphabet:
            raise ValueError("potentials live on different subshifts")
        r = max(self.r, other.r)
        a, b = self.with_range(r), other.with_range(r)
        return LocallyConstantPotential(
            self.sft, r, {w: a.table[w] + b.table[w] for w in a.table})

    # -- variation ------------------------------------------------------------

    def var_k(self, k):
        """Oscillation over pairs of points agreeing on the first k coordinates.

        Exact: 0 for k >= r, else the largest in-group spread of the table
        grouped by k-prefix (k = 0 gives the global spread).
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if k >= self.r:
            return 0.0
        groups = {}
        for w, v in self.table.items():
            lo, hi = groups.get(w[:k], (np.inf, -np.inf))
            groups[w[:k]] = (min(lo, v), max(hi, v))
        return max(hi - lo for lo, hi in groups.values())

    def variation_bounds(self, k_max):
        """var_k for k = 0..k_max, plus whether the computed part is summable."""
        vals = [self.var_k(k) for k in range(k_max + 1)]
        return vals, float(sum(vals))

    # -- Birkhoff sums ----------------------------------------------------------

    def _tails(self, last, budget=10 ** 6):
        """Admissible continuations of length r-1 after symbol ``last``, lex order."""
        n_tails = self.sft.m ** (self.r - 1)
        if n_tails > budget:
            raise RangeTooLarge(f"{n_tails} tail continuations exceed budget {budget}")
        tails = [()]
        for _ in range(self.r - 1):
            tails = [t + (b,) for t in tails
                     for b in self.sft.successors(t[-1] if t else last)]
        return tails

    def _birkhoff_split(self, word):
        word = tuple(word)
        n = len(word)
        fixed = 0.0
        for i in range(0, n - self.r + 1):
            fixed += self.table[word[i:i + self.r]]
        start_var = max(0, n - self.r + 1)
        return word, n, fixed, start_var

    def birkhoff_extremes(self, word):
        """(sup, inf, argmax tail, argmin tail) of S_n over the cylinder [word].

        Ties in the maximizing and minimizing tails are broken
        lexicographically (first admissible tail in lex order wins).
        """
        word, n, fixed, start_var = self._birkhoff_split(word)
        if self.r == 1:
            return fixed, fixed, (), ()
        best = worst = None
        best_tail = worst_tail = None
        for tail in self._tails(word[-1]):
            ext = word + tail
            s = sum(self.table[ext[i:i + self.r]] for i in range(start_var, n))
            if best is None or s > best:
                best, best_tail = s, tail
            if worst is None or s < worst:
                worst, worst_tail = s, tail
        return fixed + best, fixed + worst, best_tail, worst_tail

    def birkhoff_sup(self, word):
        return self.birkhoff_extremes(word)[0]

    def slack_bound(self, n):
        """Upper bound for sup - inf of S_n on any n-cylinder.

        Term i of the sum sees coordinates i..i+r-1; inside an n-cylinder the
        first n are pinned, so term i oscillates by at most var_{n-i}.  Only
        the last min(n, r-1) terms contribute.
        """
        return float(sum(self.var_k(k) for k in range(1, min(n, self.r - 1) + 1)))

    def __repr__(self):
        return f"LocallyConstantPotential(r={self.r}, m={self.sft.m})"


@dataclass
class Recoding:
    """Outcome of rewriting a range-r potential as range 2 on a block shift.

    ``blocks[i]`` is the admissible (r-1)-word represented by new symbol i.
    ``encode_word`` maps original admissible words of length >= r-1 to block
    words; cylinder measures computed on the block shift project back exactly
    through this map.
    """

    sft: SubshiftOfFiniteType
    potential: LocallyConstantPotential
    blocks: tuple
    block_index: dict
    original_sft: SubshiftOfFiniteType
    original_range: int

    def encode_word(self, word):
        word = tuple(word)
        k = self.original_range - 1
        if len(word) < k:
            raise ValueError(f"need at least {k} symbols to encode")
        return tuple(self.block_index[word[i:i + k]]
                     for i in range(len(word) - k + 1))


def recode_range2(potential) -> Recoding:
    """Rewrite a locally constant potential as an equivalent range-2 one.

    For r <= 2 this is the identity recoding (blocks are single symbols when
    r == 2, and the potential is reused as is).  For r > 2 the new alphabet
    is the set of admissible (r-1)-words; the overlap condition defines the
    block transitions, and block pressure, entropy and cylinder measures agree
    with the original system.
    """
    sft, r = potential.sft, potential.r
    if r <= 2:
        blocks = tuple((a,) for a in range(sft.m))
        return Recoding(sft=sft, potential=potential, blocks=blocks,
                        block_index={b: i for i, b in enumerate(blocks)},
                        original_sft=sft, original_range=max(r, 2))
    blocks = tuple(sft.cylinders(r - 1))
    index = {b: i for i, b in enumerate(blocks)}
    n2 = len(blocks)
    M2 = np.zeros((n2, n2), dtype=np.int8)
    for i, b in enumerate(blocks):
        for j, c in enumerate(blocks):
            if b[1:] == c[:-1]:
                M2[i, j] = 1
    labels = _block_labels(sft.alphabet, blocks)
    sft2 = SubshiftOfFiniteType(Alphabet(labels), M2)
    table2 = {}
    for i, b in enumerate(blocks):
        for j in np.flatnonzero(M2[i]):
            c = blocks[int(j)]
            table2[(i, int(j))] = potential.table[b + (c[-1],)]
    pot2 = LocallyConstantPotential(sft2, 2, table2)
    return Recoding(sft=sft2, potential=pot2, blocks=blocks, block_index=index,
                    original_sft=sft, original_range=r)


def _block_labels(alphabet, blocks):
    plain = ["".join(str(alphabet.label(a)) for a in b) for b in blocks]
    if len(set(plain)) == len(plain):
        return plain
    return ["|".join(str(alphabet.label(a)) for a in b) for b in blocks]
