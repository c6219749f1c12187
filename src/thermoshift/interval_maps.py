"""Piecewise linear expanding Markov maps of the unit interval.

A map is given by breakpoints 0 = u_0 < ... < u_N = 1 and, on some of the
intervals (u_{i-1}, u_i), an affine branch whose image is an exact union of
partition intervals.  Geometry is done in exact rational arithmetic, so the
Markov consistency checks, cylinder lengths and distortion identities are
not subject to rounding.  Intervals without a branch are holes: the map is
then a repeller and only the dimension theory applies, not the invariant
density.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numerics import bracketed_root
from .errors import IsRepeller, NotExpanding, NotMarkov
from .potentials import LocallyConstantPotential
from .sft import Alphabet, SubshiftOfFiniteType, _check_budget, _word_blocks
from .transfer import gibbs_measure


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)   # exact binary value
    raise TypeError(f"cannot convert {x!r} to an exact rational")


@dataclass
class Branch:
    """Affine branch: signed slope and the contiguous run of image intervals."""

    slope: Fraction
    image: tuple   # indices of the partition intervals the branch maps onto


class PiecewiseLinearMarkovMap:
    """Markov partition plus affine branches on (some of) its intervals.

    Parameters
    ----------
    breakpoints : sequence
        Strictly increasing rationals from 0 to 1.
    branches : sequence
        One entry per interval: either None (hole) or a pair
        (slope, image_interval_indices).  Slopes are signed; |slope| must
        exceed 1 and |slope| * interval length must equal the total image
        length exactly.
    """

    def __init__(self, breakpoints, branches):
        pts = [_frac(x) for x in breakpoints]
        if len(pts) < 2 or pts[0] != 0 or pts[-1] != 1:
            raise NotMarkov("breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise NotMarkov("breakpoints must be strictly increasing")
        n_int = len(pts) - 1
        if len(branches) != n_int:
            raise NotMarkov(f"{n_int} intervals but {len(branches)} branch entries")
        self.breakpoints = tuple(pts)
        self.lengths = tuple(b - a for a, b in zip(pts, pts[1:]))
        parsed = []
        for i, entry in enumerate(branches):
            if entry is None:
                parsed.append(None)
                continue
            slope, image = entry
            slope = _frac(slope)
            image = tuple(int(j) for j in image)
            if abs(slope) <= 1:
                raise NotExpanding(f"branch {i} has |slope| {abs(slope)} <= 1")
            if not image:
                raise NotMarkov(f"branch {i} has an empty image")
            if any(not 0 <= j < n_int for j in image):
                raise NotMarkov(f"branch {i} image indices out of range")
            if list(image) != list(range(image[0], image[-1] + 1)):
                raise NotMarkov(f"branch {i} image is not a contiguous run")
            img_len = sum(self.lengths[j] for j in image)
            if abs(slope) * self.lengths[i] != img_len:
                raise NotMarkov(
                    f"branch {i}: |slope| * length = {abs(slope) * self.lengths[i]} "
                    f"but image length = {img_len}")
            parsed.append(Branch(slope=slope, image=image))
        self.branches = tuple(parsed)
        self.branch_ids = tuple(i for i, b in enumerate(self.branches)
                                if b is not None)
        if not self.branch_ids:
            raise NotMarkov("the map has no branches at all")

    @property
    def covering(self):
        return len(self.branch_ids) == len(self.lengths)

    def interval(self, i):
        return self.breakpoints[i], self.breakpoints[i + 1]

    def image_span(self, i):
        b = self.branches[i]
        return self.breakpoints[b.image[0]], self.breakpoints[b.image[-1] + 1]

    def image_length(self, i) -> Fraction:
        lo, hi = self.image_span(i)
        return hi - lo

    def affine(self, i):
        """(slope, intercept) with T(x) = slope x + intercept on interval i."""
        b = self.branches[i]
        lo, _ = self.interval(i)
        img_lo, img_hi = self.image_span(i)
        if b.slope > 0:
            intercept = img_lo - b.slope * lo
        else:
            intercept = img_hi - b.slope * lo
        return b.slope, intercept

    def preimage_in_branch(self, i, lo, hi):
        """Exact preimage of [lo, hi] under branch i (subset of its image)."""
        s, c = self.affine(i)
        a, b = (lo - c) / s, (hi - c) / s
        return (a, b) if a <= b else (b, a)

    def squared(self) -> "PiecewiseLinearMarkovMap":
        """The second iterate as a piecewise linear Markov map.

        Branch intervals of the square are the 2-cylinders; their images are
        the original branch images, re-expressed in the refined partition.
        """
        cyl = {}
        for a in self.branch_ids:
            for b in self.branch_ids:
                if b in self.branches[a].image:
                    lo, hi = self.interval(b)
                    cyl[(a, b)] = self.preimage_in_branch(a, lo, hi)
        points = set(self.breakpoints)
        for lo, hi in cyl.values():
            points.add(lo)
            points.add(hi)
        pts = sorted(points)
        index_of = {}
        for k in range(len(pts) - 1):
            index_of[(pts[k], pts[k + 1])] = k
        n_new = len(pts) - 1
        branches = [None] * n_new
        for (a, b), (lo, hi) in cyl.items():
            i_new = index_of[(lo, hi)]
            img_lo, img_hi = self.image_span(b)
            image = tuple(k for k in range(n_new)
                          if img_lo <= pts[k] and pts[k + 1] <= img_hi)
            slope = self.branches[a].slope * self.branches[b].slope
            branches[i_new] = (slope, image)
        return PiecewiseLinearMarkovMap(pts, branches)


@dataclass
class CodedSystem:
    """Symbolic coding of a map: subshift, geometric potential, exact lengths."""

    map: PiecewiseLinearMarkovMap
    sft: SubshiftOfFiniteType
    potential: LocallyConstantPotential   # -log |slope|, range 1
    symbols: tuple                        # symbol -> partition interval index

    def cylinder_length(self, word) -> Fraction:
        """Exact length of the interval cylinder coded by the word."""
        word = tuple(word)
        if not self.sft.is_admissible(word):
            return Fraction(0)
        total = self.map.lengths[self.symbols[word[-1]]]
        for sym in word[:-1]:
            total /= abs(self.map.branches[self.symbols[sym]].slope)
        return total


def code(imap: PiecewiseLinearMarkovMap) -> CodedSystem:
    """Symbolic coding: symbol j follows i iff interval j sits in T(interval i)."""
    ids = imap.branch_ids
    n = len(ids)
    if n < 2:
        raise NotMarkov("coding needs at least two branch intervals")
    M = np.zeros((n, n), dtype=np.int8)
    for si, i in enumerate(ids):
        img = set(imap.branches[i].image)
        for sj, j in enumerate(ids):
            if j in img:
                M[si, sj] = 1
    labels = [f"I{i}" for i in ids]
    sft = SubshiftOfFiniteType(Alphabet(labels), M)
    table = {(s,): float(-np.log(float(abs(imap.branches[i].slope))))
             for s, i in enumerate(ids)}
    pot = LocallyConstantPotential(sft, 1, table)
    return CodedSystem(map=imap, sft=sft, potential=pot, symbols=ids)


@dataclass
class DistortionCertificate:
    """Extremes of |I_w| * |(T^n)'| over depth-n words, raw and normalized.

    The raw product equals the image length of the final branch, so dividing
    by it is exactly 1 for every piecewise linear Markov map; for maps whose
    branches all surject onto [0,1] the raw ratio itself is exactly 1.
    """

    depth: int
    ratio_min: float
    ratio_max: float
    constant: float
    normalized_exact: bool


def distortion_certificate(coded: CodedSystem, n, budget=10 ** 6) -> DistortionCertificate:
    _check_budget(coded.sft.transition, n, budget)
    imap = coded.map
    lo = hi = None
    normalized_ok = True
    for word in coded.sft.cylinders(n):
        length = coded.cylinder_length(word)
        deriv = Fraction(1)
        for sym in word:
            deriv *= abs(imap.branches[coded.symbols[sym]].slope)
        raw = length * deriv
        normalized_ok &= (raw == imap.image_length(coded.symbols[word[-1]]))
        lo = raw if lo is None or raw < lo else lo
        hi = raw if hi is None or raw > hi else hi
    c = max(float(hi), 1.0 / float(lo))
    return DistortionCertificate(depth=n, ratio_min=float(lo),
                                 ratio_max=float(hi), constant=c,
                                 normalized_exact=bool(normalized_ok))


@dataclass
class AcimResult:
    """Absolutely continuous invariant measure of a covering linear Markov map."""

    coded: CodedSystem
    measure: object            # GibbsMeasure of -log|T'|
    pressure_residual: float
    densities: dict            # symbol -> density value on its interval

    def certificate(self, depth, budget=10 ** 6):
        """Enumerated extremes of mass(w) / |I_w| at the given depth."""
        T = self.coded.sft.transition
        _check_budget(T, depth, budget)
        lo, hi = np.inf, -np.inf
        for words in _word_blocks(T, depth):
            lengths = [float(self.coded.cylinder_length(word))
                       for word in words.tolist()]
            ratio = self.measure.markov._masses(words) / np.array(lengths)
            lo, hi = min(lo, ratio.min()), max(hi, ratio.max())
        return float(lo), float(hi)


def acim(imap: PiecewiseLinearMarkovMap, tol=1e-13) -> AcimResult:
    """Invariant density via the Gibbs state of the geometric potential.

    Requires the branches to cover [0,1]; the pressure of -log|T'| is then 0
    (up to the eigen residual) and the Gibbs state, divided by the interval
    lengths, is the piecewise constant invariant density.
    """
    if not imap.covering:
        raise IsRepeller("branches do not cover [0,1]; no invariant density")
    coded = code(imap)
    meas = gibbs_measure(coded.sft, coded.potential, tol=tol)
    if meas.pressure < -1e-10:
        raise IsRepeller(f"geometric pressure {meas.pressure} < 0")
    densities = {s: float(meas.markov.pi[s] / float(imap.lengths[i]))
                 for s, i in enumerate(coded.symbols)}
    return AcimResult(coded=coded, measure=meas,
                      pressure_residual=abs(meas.pressure), densities=densities)


@dataclass
class DimensionResult:
    """Root of s -> pressure(s * geometric potential), with certification data."""

    dimension: float
    residual: float
    iterations: int     # pressure evaluations of the root search
    bracket: tuple      # the interval the search started from


def bowen_dimension(imap: PiecewiseLinearMarkovMap, tol=1e-12,
                    max_iter=200) -> DimensionResult:
    """Hausdorff dimension of the invariant set from the pressure equation.

    The map s -> P(-s log|T'|) is strictly decreasing (slope at most
    -log of the expansion constant), positive at s = 0, so its unique root
    is bracketed in [0, P(0)/log(alpha) + 1].  Bisection plus Newton steps
    (the derivative is the Gibbs expectation of the potential) stop when
    |P| <= tol.
    """
    coded = code(imap)
    sft, pot = coded.sft, coded.potential
    residual = []

    def minus_pressure(s):
        g = gibbs_measure(sft, pot.scale(s))
        residual[:] = [abs(g.pressure)]
        return -g.pressure, -g.expectation(pot)

    alpha = min(float(abs(imap.branches[i].slope)) for i in imap.branch_ids)
    p0 = gibbs_measure(sft, pot.scale(0.0)).pressure
    if p0 <= 0:
        raise IsRepeller("pressure at s = 0 is not positive; nothing to bisect")
    bracket = (0.0, p0 / np.log(alpha) + 1.0)
    s, steps = bracketed_root(minus_pressure, *bracket, ftol=tol,
                              with_slope=True, f_lo=-p0, max_steps=max_iter)
    return DimensionResult(dimension=float(s), residual=residual[0],
                           iterations=steps, bracket=bracket)
