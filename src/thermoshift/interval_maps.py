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

from ._numerics import bracketed_root
from .errors import IsRepeller, NotExpanding, NotMarkov, NotPrimitive
from .measures import MarkovMeasure
from .sft import Alphabet, SubshiftOfFiniteType


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
        length exactly.  A branch's |slope| must be a finite double and its
        length must not round to 0, so no float the engines read overflows
        and no transition of the Gibbs chain underflows.
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
            if abs(slope) > np.finfo(float).max or not float(self.lengths[i]):
                raise NotMarkov(f"branch {i}: its |slope| or its length is "
                                "outside the range of a double")
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


def code(imap: PiecewiseLinearMarkovMap) -> LocallyConstantPotential:
    """Symbolic coding: the geometric potential -log |slope| (range 1) on the
    subshift where symbol j follows i iff interval j sits in T(interval i);
    symbol s codes the interval ``imap.branch_ids[s]``."""
    from .potentials import LocallyConstantPotential

    ids = imap.branch_ids
    if len(ids) < 2:
        raise NotMarkov("coding needs at least two branch intervals")
    M = np.array([[j in imap.branches[i].image for j in ids] for i in ids],
                 dtype=np.int8)
    labels = [f"I{i}" for i in ids]
    sft = SubshiftOfFiniteType(Alphabet(labels), M)
    table = {(s,): float(-np.log(float(abs(imap.branches[i].slope))))
             for s, i in enumerate(ids)}
    return LocallyConstantPotential(sft, 1, table)


def square_coding(pot: LocallyConstantPotential) -> LocallyConstantPotential:
    """The coding of T^2 from the range-1 coding potential phi of T.

    It is the second higher power shift (Lind-Marcus, Symbolic Dynamics and
    Coding, 1.4): its symbols are the admissible 2-words ab in lex order,
    ab -> cd is allowed iff b -> c is, and ab carries phi(a) + phi(b).  Every
    symbol of a subshift has a successor and a predecessor, so every 2-word
    has both too.
    """
    from .potentials import LocallyConstantPotential, _block_labels

    sft = pot.sft
    a, b = np.nonzero(sft.transition)
    labels = _block_labels(sft.alphabet, zip(a.tolist(), b.tolist()))
    sft2 = SubshiftOfFiniteType(Alphabet(labels), sft.transition[np.ix_(b, a)])
    phi = pot.dense_table
    return LocallyConstantPotential._from_dense(sft2, phi[a] + phi[b])


@dataclass
class AcimResult:
    """Absolutely continuous invariant measure of a covering linear Markov map."""

    measure: MarkovMeasure     # the Gibbs chain of -log|T'|
    pressure_residual: float
    densities: dict            # interval -> density value on it


def acim(imap: PiecewiseLinearMarkovMap) -> AcimResult:
    """Invariant density of a covering map, read off the Gibbs chain of
    -log|T'| with no eigen solve: the lengths x solve A x = x for its
    transfer operator A_ab = [I_b in T(I_a)] / |T'_a|, so the chain is
    P(a, b) = |I_b| / (|T'_a| |I_a|), each entry rounded once from the
    rationals.  pi / x is the density, 0 on a transient interval, and every
    cylinder w has mass(w) / |I_w| = pi(w_0) / |I_(w_0)| (Boyarsky-Gora,
    Laws of Chaos, 1997); two recurrent classes raise NotPrimitive.
    ``pressure_residual`` is the Collatz-Wielandt bound
    max_a |log((A x)_a / x_a)| on |P(-log|T'|)|."""
    if not imap.covering:
        raise IsRepeller("branches do not cover [0,1]; no invariant density")
    P = np.zeros((len(imap.lengths),) * 2)
    for a, (branch, length_a) in enumerate(zip(imap.branches, imap.lengths)):
        for b in branch.image:
            P[a, b] = imap.lengths[b] / (abs(branch.slope) * length_a)
    try:
        mu = MarkovMeasure.from_transition(P)
    except ValueError as exc:
        if not hasattr(exc, "states"):
            raise
        a, b = ("[%s, %s]" % imap.interval(i) for i in exc.states)
        raise NotPrimitive(f"intervals {a} and {b} lie in different "
                           "recurrent classes") from None
    stretch = np.array([float(abs(b.slope)) for b in imap.branches])
    length = np.array([float(x) for x in imap.lengths])
    ax = np.where(P > 0, length, 0.0).sum(axis=1) / stretch
    return AcimResult(mu, float(np.abs(np.log(ax / length)).max()),
                      dict(enumerate((mu.pi / length).tolist())))


@dataclass
class DimensionResult:
    """Root of s -> pressure(s * geometric potential), with certification data."""

    dimension: float
    residual: float
    iterations: int     # pressure evaluations of the root search


def bowen_dimension(imap: PiecewiseLinearMarkovMap) -> DimensionResult:
    """Hausdorff dimension of the invariant set: ``bowen_root`` of -log|T'|."""
    return bowen_root(code(imap))


def bowen_root(pot: LocallyConstantPotential) -> DimensionResult:
    """Root of s -> P(s phi) for a range-1 negative potential phi, such as
    the geometric potential -log|T'|.

    P(s phi) is convex and strictly decreasing in s, with slope the Gibbs
    expectation of phi, and positive at s = 0.  The search starts from
    [0, 1]: for a linear Markov map P(-log|T'|) <= 0, since its n-cylinder
    sums are sum_w |I_w| / |T^n I_w| <= 1 / min_j |I_j|, so the root lies
    in [0, 1].  For any other negative phi the upper end moves outward, the
    width doubling, until P < 0 (``bracketed_root``).  Bisection plus Newton
    steps stop when |P| <= 1e-12, and the result is ``bracketed_root``'s
    Newton end: the point s + P / chi of that last evaluation, chi = -E(phi)
    the Lyapunov exponent of its Gibbs state, kept inside the bracket the
    evaluations proved.  It is h(mu_s) / chi(mu_s), since P = h - s chi, and
    ``residual`` is the last |P|.
    """
    from .transfer import gibbs_measure, pressure

    def minus_pressure(s):
        g = gibbs_measure(pot.scale(s))
        return -g.pressure, -g.expectation(pot)

    p0 = pressure(pot.scale(0.0))
    if p0 <= 0:
        raise IsRepeller("pressure at s = 0 is not positive; no root to bracket")
    s, steps, minus_p = bracketed_root(minus_pressure, 0.0, 1.0, ftol=1e-12,
                                       with_slope=True, f_lo=-p0)
    return DimensionResult(dimension=float(s), residual=abs(minus_p),
                           iterations=steps)
