"""Piecewise linear expanding Markov maps of the unit interval.

A map is given by breakpoints 0 = u_0 < ... < u_N = 1 and, on some of the
intervals (u_{i-1}, u_i), an affine branch whose image is an exact union of
partition intervals.  Geometry is done in exact rational arithmetic, so the
Markov consistency checks are not subject to rounding.  Intervals without a
branch are holes: the map is then a repeller and only the dimension theory
applies, not the invariant density.  A branch image is a contiguous run of
partition intervals, held as a ``range`` of their indices, so its endpoints
are two breakpoints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numerics import bracketed_root
from .errors import IsRepeller, NotExpanding, NotMarkov
from .potentials import LocallyConstantPotential
from .sft import Alphabet, SubshiftOfFiniteType, _word_blocks
from .transfer import gibbs_measure


@dataclass
class Branch:
    """Affine branch: signed slope and the contiguous run of image intervals.

    The image is the ``range`` of the partition indices it covers, so the
    image interval is [u_start, u_stop].
    """

    slope: Fraction
    image: range


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
        if any(isinstance(x, float) and not math.isfinite(x) for x in breakpoints):
            raise NotMarkov("breakpoints must be finite numbers")
        pts = [Fraction(x) for x in breakpoints]
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
            if isinstance(slope, float) and not math.isfinite(slope):
                raise NotMarkov(f"branch {i} slope {slope} is not finite")
            slope = Fraction(slope)
            image = tuple(int(j) for j in image)
            if abs(slope) <= 1:
                raise NotExpanding(f"branch {i} has |slope| {abs(slope)} <= 1")
            if not image:
                raise NotMarkov(f"branch {i} has an empty image")
            if any(not 0 <= j < n_int for j in image):
                raise NotMarkov(f"branch {i} image indices out of range")
            span = range(image[0], image[-1] + 1)
            if image != tuple(span):
                raise NotMarkov(f"branch {i} image is not a contiguous run")
            img_len = pts[span.stop] - pts[span.start]
            if abs(slope) * self.lengths[i] != img_len:
                raise NotMarkov(
                    f"branch {i}: |slope| * length = {abs(slope) * self.lengths[i]} "
                    f"but image length = {img_len}")
            parsed.append(Branch(slope=slope, image=span))
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
        image = self.branches[i].image
        return self.breakpoints[image.start], self.breakpoints[image.stop]

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
        cyl = [(a, b, self.preimage_in_branch(a, *self.interval(b)))
               for a in self.branch_ids for b in self.branches[a].image
               if self.branches[b] is not None]
        pts = sorted(set(self.breakpoints).union(*(span for _, _, span in cyl)))
        branches = [None] * (len(pts) - 1)
        for a, b, (lo, _) in cyl:
            img_lo, img_hi = self.image_span(b)
            slope = self.branches[a].slope * self.branches[b].slope
            branches[bisect_left(pts, lo)] = (
                slope, range(bisect_left(pts, img_lo), bisect_left(pts, img_hi)))
        return PiecewiseLinearMarkovMap(pts, branches)


@dataclass
class CodedSystem:
    """Symbolic coding of a map: the geometric potential on the coding
    subshift (its ``sft``) and the interval of each symbol."""

    map: PiecewiseLinearMarkovMap
    potential: LocallyConstantPotential   # -log |slope|, range 1
    symbols: tuple                        # symbol -> partition interval index


def code(imap: PiecewiseLinearMarkovMap) -> CodedSystem:
    """Symbolic coding: symbol j follows i iff interval j sits in T(interval i)."""
    ids = imap.branch_ids
    n = len(ids)
    if n < 2:
        raise NotMarkov("coding needs at least two branch intervals")
    M = np.array([[j in imap.branches[i].image for j in ids] for i in ids],
                 dtype=np.int8)
    labels = [f"I{i}" for i in ids]
    sft = SubshiftOfFiniteType(Alphabet(labels), M)
    table = {(s,): float(-np.log(float(abs(imap.branches[i].slope))))
             for s, i in enumerate(ids)}
    pot = LocallyConstantPotential(sft, 1, table)
    return CodedSystem(map=imap, potential=pot, symbols=ids)


@dataclass
class AcimResult:
    """Absolutely continuous invariant measure of a covering linear Markov map."""

    coded: CodedSystem
    measure: object            # GibbsMeasure of -log|T'|
    pressure_residual: float
    densities: dict            # symbol -> density value on its interval

    def certificate(self, depth, budget=10 ** 6):
        """Extremes of mass(w) / |I_w| over the admissible depth-n words.

        Each ratio is one product of O(1) factors, pi(w_0) prod_i P(w_i,
        w_(i+1)) |T'(I_(w_i))| / |I_(w_(n-1))|: the Gibbs chain gives the
        masses and the map's slopes and lengths the geometry.  Its 2n
        roundings keep it within about 2n u of the exact ratio of the
        chain's floats; over ``budget`` words raise DepthTooLarge first."""
        imap, mu, ids = self.coded.map, self.measure, self.coded.symbols
        stretch = np.array([float(abs(imap.branches[i].slope)) for i in ids])
        length = np.array([float(imap.lengths[i]) for i in ids])
        step = mu.P * stretch[:, None]
        lo, hi = np.inf, -np.inf
        T = self.coded.potential.sft.transition
        for words in _word_blocks(T, depth, budget=budget):
            ratio = mu.pi[words[:, 0]]
            for j in range(1, depth):
                ratio = ratio * step[words[:, j - 1], words[:, j]]
            ratio = ratio / length[words[:, -1]]
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
    meas = gibbs_measure(coded.potential, tol=tol)
    if meas.pressure < -1e-10:
        raise IsRepeller(f"geometric pressure {meas.pressure} < 0")
    densities = {s: float(meas.pi[s] / float(imap.lengths[i]))
                 for s, i in enumerate(coded.symbols)}
    return AcimResult(coded=coded, measure=meas,
                      pressure_residual=abs(meas.pressure), densities=densities)


@dataclass
class DimensionResult:
    """Root of s -> pressure(s * geometric potential), with certification data."""

    dimension: float
    residual: float
    iterations: int     # pressure evaluations of the root search


def bowen_dimension(imap: PiecewiseLinearMarkovMap, tol=1e-12) -> DimensionResult:
    """Hausdorff dimension of the invariant set from the pressure equation.

    The map s -> P(-s log|T'|) is strictly decreasing (slope at most
    -log of the expansion constant), positive at s = 0, so its unique root
    is bracketed in [0, P(0)/log(alpha) + 1].  Bisection plus Newton steps
    (the derivative is the Gibbs expectation of the potential) stop when
    |P| <= tol.
    """
    coded = code(imap)
    pot = coded.potential
    residual = []

    def minus_pressure(s):
        g = gibbs_measure(pot.scale(s))
        residual[:] = [abs(g.pressure)]
        return -g.pressure, -g.expectation(pot)

    alpha = min(float(abs(imap.branches[i].slope)) for i in imap.branch_ids)
    p0 = gibbs_measure(pot.scale(0.0)).pressure
    if p0 <= 0:
        raise IsRepeller("pressure at s = 0 is not positive; nothing to bisect")
    s, steps = bracketed_root(minus_pressure, 0.0, p0 / np.log(alpha) + 1.0,
                              ftol=tol, with_slope=True, f_lo=-p0)
    return DimensionResult(dimension=float(s), residual=residual[0],
                           iterations=steps)
