"""Locally constant potentials on a subshift.

A potential of range r is a function of the first r coordinates, stored as a
dense array indexed by the r symbols of a word, NaN off the admissible words.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

import numpy as np

from .sft import Alphabet, SubshiftOfFiniteType


class LocallyConstantPotential:
    """Range-r potential given by a finite table on admissible r-words.

    The only stored form is ``dense_table``, a read-only float array of shape
    (m,) * r holding phi(w) at index w for every admissible r-word w and NaN
    elsewhere; lifts, algebra, recoding and the transfer matrix are all
    derived from it.  ``table`` is a read-only dict view built on first use.

    Parameters
    ----------
    sft : SubshiftOfFiniteType
        The subshift the potential lives on.
    r : int
        Range; the potential depends on coordinates 0..r-1 only.
    table : dict
        Maps every admissible r-word (tuple of symbol indices) to a finite
        float.  Coverage must be exact: no missing and no extra keys.
    """

    def __init__(self, sft, r, table):
        if r < 1:
            raise ValueError("range must be >= 1")
        words = np.argwhere(sft.admissible_mask(r))
        keys = list(map(tuple, words.tolist()))
        admissible, given = set(keys), set(table)
        if given != admissible:
            missing = sorted(admissible - given)[:4]
            extra = sorted(given - admissible)[:4]
            raise ValueError(
                f"table must cover admissible {r}-words exactly; "
                f"missing {missing}, extra {extra}")
        values = np.array([table[w] for w in keys], dtype=float)
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))
            raise ValueError(f"potential values must be finite; "
                             f"got {values[i]} on {keys[i]}")
        dense = np.full((sft.m,) * r, np.nan)
        dense[tuple(words.T)] = values
        self.sft, self.r, self.dense_table = sft, r, dense
        dense.flags.writeable = False

    @classmethod
    def _from_dense(cls, sft, dense):
        """A potential on ``sft`` whose dense table is ``dense`` (not copied)."""
        pot = cls.__new__(cls)
        pot.sft, pot.r, pot.dense_table = sft, dense.ndim, dense
        dense.flags.writeable = False
        return pot

    @classmethod
    def from_function(cls, sft, r, fn):
        words = np.argwhere(sft.admissible_mask(r)).tolist()
        return cls(sft, r, {w: fn(w) for w in map(tuple, words)})

    @classmethod
    def zero(cls, sft, r=1):
        return cls._from_dense(sft, np.where(sft.admissible_mask(r), 0.0, np.nan))

    @cached_property
    def table(self):
        """Read-only dict view: admissible r-word -> value, in lex order."""
        words = np.argwhere(~np.isnan(self.dense_table))
        values = self.dense_table[tuple(words.T)].tolist()
        return MappingProxyType(dict(zip(map(tuple, words.tolist()), values)))

    # -- algebra (used for beta scaling and subgradient perturbations) --------

    def scale(self, c):
        return self._from_dense(self.sft, c * self.dense_table)

    def with_range(self, r2):
        """Same potential written as a table of range r2 >= r."""
        if r2 < self.r:
            raise ValueError("cannot lower the range")
        if r2 == self.r:
            return self
        lifted = self.dense_table[(...,) + (None,) * (r2 - self.r)]
        return self._from_dense(
            self.sft, np.where(self.sft.admissible_mask(r2), lifted, np.nan))

    def __add__(self, other):
        if self.sft is not other.sft and self.sft.alphabet != other.sft.alphabet:
            raise ValueError("potentials live on different subshifts")
        r = max(self.r, other.r)
        a = self.with_range(r).dense_table
        b = other.with_range(r).dense_table
        uncovered = ~np.isnan(a) & np.isnan(b)
        if uncovered.any():
            raise ValueError("the second potential does not cover the admissible "
                             f"word {tuple(np.argwhere(uncovered)[0].tolist())}")
        return self._from_dense(self.sft, a + b)

    def __repr__(self):
        return f"LocallyConstantPotential(r={self.r}, m={self.sft.m})"


def recode_range2(potential) -> LocallyConstantPotential:
    """Rewrite a locally constant potential as an equivalent range-2 one.

    For r <= 2 this is the potential itself.  For r > 2 the new potential
    lives on the block subshift whose symbols are the admissible (r-1)-words
    in lexicographic order; the overlap condition defines the block
    transitions, and block pressure, entropy and cylinder measures agree with
    the original system.
    """
    sft, r = potential.sft, potential.r
    if r <= 2:
        return potential
    words = np.argwhere(sft.admissible_mask(r - 1))
    blocks = tuple(map(tuple, words.tolist()))
    # block i may precede block j iff the last r-2 symbols of i are the
    # first r-2 of j; compare those overlaps by their integer codes
    overlap = (sft.m,) * (r - 2)
    tail = np.ravel_multi_index(tuple(words[:, 1:].T), overlap)
    head = np.ravel_multi_index(tuple(words[:, :-1].T), overlap)
    M2 = (tail[:, None] == head[None, :]).astype(np.int8)
    sft2 = SubshiftOfFiniteType(Alphabet(_block_labels(sft.alphabet, blocks)), M2)
    i, j = np.nonzero(M2)
    dense2 = np.full(M2.shape, np.nan)
    dense2[i, j] = potential.dense_table[tuple(words[i].T) + (words[j, -1],)]
    return LocallyConstantPotential._from_dense(sft2, dense2)


def _block_labels(alphabet, blocks):
    plain = ["".join(str(alphabet.label(a)) for a in b) for b in blocks]
    if len(set(plain)) == len(plain):
        return plain
    return ["|".join(str(alphabet.label(a)) for a in b) for b in blocks]
