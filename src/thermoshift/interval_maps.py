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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numerics import bracketed_root, path_sum_price
from .errors import IsRepeller, NotExpanding, NotMarkov
from .potentials import LocallyConstantPotential, _block_labels
from .sft import Alphabet, SubshiftOfFiniteType
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


def square_coding(pot: LocallyConstantPotential) -> LocallyConstantPotential:
    """The coding of T^2 from the range-1 coding potential phi of T.

    It is the second higher power shift (Lind-Marcus, Symbolic Dynamics and
    Coding, 1.4): its symbols are the admissible 2-words ab in lex order,
    ab -> cd is allowed iff b -> c is, and ab carries phi(a) + phi(b).  Every
    symbol of a subshift has a successor and a predecessor, so every 2-word
    has both too.
    """
    sft = pot.sft
    a, b = np.nonzero(sft.transition)
    labels = _block_labels(sft.alphabet, zip(a.tolist(), b.tolist()))
    sft2 = SubshiftOfFiniteType(Alphabet(labels), sft.transition[np.ix_(b, a)])
    phi = pot.dense_table
    return LocallyConstantPotential._from_dense(sft2, phi[a] + phi[b])


@dataclass
class AcimResult:
    """Absolutely continuous invariant measure of a covering linear Markov map."""

    coded: CodedSystem
    measure: object            # GibbsMeasure of -log|T'|
    pressure_residual: float
    densities: dict            # symbol -> density value on its interval

    def certificate(self, depth, budget=10 ** 7):
        """Extremes of mass(w) / |I_w| over the admissible depth-n words.

        A ratio pi(w_0) prod_i P(w_i, w_(i+1)) |T'(I_(w_i))| / |I_(w_(n-1))|
        rounds 2n times left to right, within about 2n u of the exact ratio of
        the chain's floats.  Rounding is monotone on positive factors, so one
        forward (min, x) and (max, x) pass gives the rounded extremes exactly;
        over ``budget`` it raises DepthTooLarge first (``path_sum_price``)."""
        imap, mu, ids = self.coded.map, self.measure, self.coded.symbols
        T = self.coded.potential.sft.transition != 0
        path_sum_price(depth, T.size, budget)
        stretch = np.array([float(abs(imap.branches[i].slope)) for i in ids])
        length = np.array([float(imap.lengths[i]) for i in ids])
        step = mu.P * stretch[:, None]
        lo = hi = mu.pi
        for _ in range(depth - 1):
            lo = (lo[:, None] * step).min(axis=0, initial=np.inf, where=T)
            hi = (hi[:, None] * step).max(axis=0, initial=-np.inf, where=T)
        return float((lo / length).min()), float((hi / length).max())


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
    """Hausdorff dimension of the invariant set: ``bowen_root`` of -log|T'|."""
    return bowen_root(code(imap).potential, tol=tol)


def bowen_root(pot: LocallyConstantPotential, tol=1e-12) -> DimensionResult:
    """Root of s -> P(s phi) for a range-1 geometric potential phi = -log|T'|.

    The map is strictly decreasing (slope at most -log of the expansion
    constant alpha = exp(-max phi)), positive at s = 0, so its unique root
    is bracketed in [0, P(0)/log(alpha) + 1].  Bisection plus Newton steps
    (the derivative is the Gibbs expectation of phi) stop when |P| <= tol.
    """
    residual = []

    def minus_pressure(s):
        g = gibbs_measure(pot.scale(s))
        residual[:] = [abs(g.pressure)]
        return -g.pressure, -g.expectation(pot)

    p0 = gibbs_measure(pot.scale(0.0)).pressure
    if p0 <= 0:
        raise IsRepeller("pressure at s = 0 is not positive; no root to bracket")
    s, steps = bracketed_root(minus_pressure, 0.0,
                              p0 / -np.nanmax(pot.dense_table) + 1.0,
                              ftol=tol, with_slope=True, f_lo=-p0)
    return DimensionResult(dimension=float(s), residual=residual[0],
                           iterations=steps)
