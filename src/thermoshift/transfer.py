"""Transfer operator of a locally constant potential, and the Gibbs state.

For a range-2 potential on a primitive subshift the operator acts on
functions of the first symbol and is the m x m matrix

    A[a, b] = M[a, b] * exp(phi(a, b)),

indexed so that A[a, b] weighs the transition a -> b and the operator sends
f to (Lf)(b) = sum_a A[a, b] f(a).  Its spectral radius is exp(pressure),
bracketed by the ratios (A v) / v of the right Perron vector v, the one
vector solved; stochasticizing A with v gives the Gibbs chain, and GTH
elimination its stationary vector.  ``build`` block-recodes a potential of
higher range to range 2 first (``recode_range2``), so ``pressure`` and
``gibbs_measure`` take any range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import chunks, path_sum_price, rescaled_product
from .errors import NoConvergence, OutOfRange


@dataclass
class EigenData:
    """Leading eigendata of a transfer matrix.

    v is the positive right eigenvector, normalized to sum 1, and [lo, hi]
    the Collatz-Wielandt bracket of its ratios (A v)_a / v_a, each end moved
    outward by gamma_(m+1) = (m + 1) u / (1 - (m + 1) u), the rounding bound
    of a ratio (u = 2^-53), and then one ulp: it holds the spectral radius,
    and lam = sum(A v) / sum(v) lies in it.  iterations counts the rounds of
    ``leading_eigen``, squarings the matrix squarings among them.
    """

    lam: float
    v: np.ndarray
    lo: float
    hi: float
    iterations: int
    squarings: int = 0


def build(potential) -> np.ndarray:
    """The matrix A of the operator of a locally constant potential on its
    subshift (see the module docstring).  A potential of range r > 2 is
    block-recoded first (``recode_range2``), so A is indexed by its
    admissible (r-1)-words; a potential of range <= 2 gives the (m, m) matrix.

    Raises OutOfRange when the weight exp(phi) of an admissible transition
    is 0 or not finite as a double: the matrix would drop that transition
    or carry inf, and the spectral data would be wrong or undefined.
    """
    from .potentials import recode_range2

    potential.sft.require_primitive()   # mixing iff its block presentation is
    potential = recode_range2(potential)
    phi = potential.with_range(2).dense_table
    admissible = potential.sft.transition != 0
    with np.errstate(over="ignore"):
        weights = np.exp(phi)
    lost = admissible & ~((weights > 0.0) & (weights < np.inf))
    if lost.any():
        a, b = np.argwhere(lost)[0]
        raise OutOfRange(
            f"transition {a} -> {b}: weight exp({phi[a, b]}) is not a "
            "positive finite double")
    return np.where(admissible, weights, 0.0)


# power steps before any squaring: a gap that lets them converge this soon
# (|lambda_2| / lambda <= 0.6 at tol 1e-13) never pays for a matrix product
_PLAIN_ROUNDS = 64
# A^(2^64) resolves every gap a double can hold, so squaring stops there
_MAX_SQUARINGS = 64
_MAX_ROUNDS = 10 ** 6
_U = 2.0 ** -53     # unit roundoff


def _positive(x) -> bool:
    return bool(np.all((x > 0) & np.isfinite(x)))


def leading_eigen(A, tol=1e-13) -> EigenData:
    """Leading eigenvalue and right eigenvector of a primitive matrix A, such
    as the transfer matrix from ``build``.

    Each round evaluates A v and the ratios r = (A v) / v, whose extremes,
    each moved one ulp outward, are the Collatz-Wielandt bracket
    lo <= lam <= hi (Meyer, Matrix Analysis, 8.3).  The result is returned
    once hi <= (1 + tol) lo, so tol bounds the relative error of lam up to
    the rounding of the ratios, by which the returned bracket is widened
    (see ``EigenData``), and to first order v is the Perron vector to
    tol / gap entry by entry (gap 1 - |lambda_2| / lambda).  A ratio that is 0 or not finite raises
    NoConvergence at once: an entry of v left the float range.

    The first max(m, 64) rounds (m the size of A) are power steps from the
    uniform start, so a gap that lets them converge never pays for a matrix
    product, which costs about m matrix-vector products.  Each later round
    squares B once and moves the iterate to Bv, where B is A^(2^k) in the
    scale of the iterate v0 of the first squaring, diag(v0)^-1 A^(2^k)
    diag(v0), divided by its largest entry before every product
    (``rescaled_product``).  A spectral gap g then costs about log2(1/g)
    rounds instead of log(1/tol) / g.  In that scale the entries of A are at
    most (A v0)_i / v0_i, so wide weights do not underflow in the products;
    should Bv still have a zero or non-finite entry, squaring stops for
    good, as it does after ``_MAX_SQUARINGS``, and power steps go on.
    Once squaring has stopped, max(m, 64) rounds in a row that bring the
    width hi / lo - 1 to no new minimum end the power steps on A, as does a
    check, every max(m, 64) rounds, that finds the width would reach tol
    only past ``_MAX_ROUNDS`` at the rate it fell since the last check.
    Squaring cannot split lambda from an eigenvalue near -lambda within
    rounding: the squared iterates keep an error of about u / gap in that
    direction.  So the power steps go on with A + lam I, lam the estimate
    at that round, which has the same Perron vector and maps that
    eigenvalue near 0.  A second such stall raises NoConvergence: the width
    falls too slowly, or rounding keeps it above a tol below about 2 ulps.
    ``_MAX_ROUNDS`` caps the rounds; a tol that is not positive and finite
    raises OutOfRange.
    """
    if not 0 < tol < np.inf:
        raise OutOfRange(f"tol must be a positive finite number, got {tol}")
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    v = np.full(m, 1.0 / m)
    B, squarings, accelerate, shift = None, 0, True, 0.0
    plain = max(m, _PLAIN_ROUNDS)
    best, best_it = np.inf, 0
    for it in range(1, _MAX_ROUNDS + 1):
        Av = A @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            r = Av / v
        if not _positive(r):
            raise NoConvergence("a Perron vector entry left the float range")
        lo = float(np.nextafter(r.min(), 0.0))
        hi = float(np.nextafter(r.max(), np.inf))
        lam = min(max(float(Av.sum()) / float(v.sum()), lo), hi)
        if hi <= (1.0 + tol) * lo:
            gamma = (m + 1) * _U / (1.0 - (m + 1) * _U)
            return EigenData(lam, v, float(np.nextafter(lo - lo * gamma, 0.0)),
                             float(np.nextafter(hi + hi * gamma, np.inf)),
                             it, squarings)
        width = hi / lo - 1.0
        if width < best:
            best, best_it = width, it
        if accelerate and squarings < _MAX_SQUARINGS:
            mark, mark_width = it, width
        elif it - best_it >= plain or it - mark >= plain:
            # at the rate since the mark, tol lies past _MAX_ROUNDS
            slow = ((it - mark) * np.log(width / tol)
                    > (_MAX_ROUNDS - it) * np.log(mark_width / width))
            if it - best_it >= plain or slow:
                if shift:
                    raise NoConvergence(
                        f"no Perron eigendata within tol={tol}: the bracket "
                        f"width falls too slowly; it stalled at {best:.2g} "
                        f"after {it} rounds")
                shift, best_it = lam, it
            mark, mark_width = it, width
        if it > plain and accelerate and squarings < _MAX_SQUARINGS:
            if B is None:
                scale = v
                B = A * scale[None, :] / scale[:, None]
                B = B / B.max()
            B = rescaled_product(B, B)[0]
            squarings += 1
            Bv = scale * (B @ (v / scale))
            if _positive(Bv):
                v = Bv / Bv.sum()
                continue
            accelerate = False
        v = Av + shift * v
        v = v / v.sum()
    raise NoConvergence(
        f"no Perron eigendata within tol={tol} in {_MAX_ROUNDS} rounds")


def pressure(potential) -> float:
    """Topological pressure of a locally constant potential of any range on
    its subshift (nats): log of the spectral radius of ``build(potential)``,
    at ``leading_eigen``'s default tol.
    """
    return float(np.log(leading_eigen(build(potential)).lam))


def gibbs_measure(potential) -> GibbsMeasure:
    """Gibbs state of the potential on its subshift, in stationary Markov form.

    P[a, b] = A[a, b] v_b / (A v)_a, row-stochastic by construction, for
    the Perron vector v of ``leading_eigen``, and pi = (A v) w normalized,
    for w the ``stationary_vector`` of the rates A[a, b] v_b: the left
    Perron vector up to scale, so pi is as accurate as v entry by entry and
    stationary for P to O(m u), also where an entry of P underflows.  For
    range > 2 the state lives on the block subshift of ``recode_range2``,
    the ``sft`` of its potential.
    """
    from .measures import GibbsMeasure, stationary_vector
    from .potentials import recode_range2

    A = build(potential)
    potential = recode_range2(potential)
    eig = leading_eigen(A)
    W = A * eig.v[None, :]
    Av = W.sum(axis=1)
    pi = Av * stationary_vector(W)
    return GibbsMeasure(pi / pi.sum(), W / Av[:, None], potential=potential,
                        pressure=float(np.log(eig.lam)), eigen=eig)


@dataclass
class GibbsBounds:
    """Extreme Gibbs ratios at depth n, each at its lexicographically first word."""

    c_min: float
    c_max: float
    argmin: tuple
    argmax: tuple


def gibbs_bounds(measure: GibbsMeasure, n, budget=10 ** 7) -> GibbsBounds:
    """Extremes of mass(w) / exp(sup_[w] S_n phi - n * pressure) at depth n.

    log ratio(w) = log pi(w_0) + step(w_0, w_1) + ... + tail(w_(n-1)), with
    tail(a) = pressure - max_b phi(a, b) and step = log P - phi + pressure,
    whose terms cancel in the equality case (the zero potential on the full
    2-, 3- or 4-shift gives 1.0 exactly).  A backward (min, +) pass on step
    and on -step, G_k(a) = min_b (step[a, b] + G_(k-1)(b)) from G_0 = tail,
    points back to the smallest such b; from the smallest extreme a of
    log pi + G_(n-1), they spell the lexicographically first extreme word.
    A price of n (m^2 + 40) over ``budget`` raises DepthTooLarge first.
    """
    m, p = measure.m, measure.pressure
    path_sum_price(n, m * m, budget)
    phi = measure.potential.with_range(2).dense_table
    with np.errstate(divide="ignore"):
        log_pi, step = np.log(measure.pi), np.log(measure.P) - phi + p
    # admissible entries only are read: phi is NaN off the subshift
    steps = np.where(measure.potential.sft.transition != 0,
                     np.stack((step, -step)), np.inf)
    tail = p - np.nanmax(phi, axis=1)
    best = np.stack((tail, -tail))
    pointers = np.empty((n - 1, 2, m), dtype=np.min_scalar_type(m - 1))
    for k in range(n - 1):
        paths = steps + best[:, None, :]
        pointers[k] = paths.argmin(axis=2)
        best = paths.min(axis=2)
    best += np.stack((log_pi, -log_pi))
    words = [[a] for a in best.argmin(axis=1).tolist()]
    for s in chunks(n - 1, 2 * m):   # Python ints a chunk at a time
        for rows in pointers[::-1][s].tolist():
            for word, row in zip(words, rows):
                word.append(row[word[-1]])
    return GibbsBounds(c_min=float(np.exp(best[0, words[0][0]])),
                       c_max=float(np.exp(-best[1, words[1][0]])),
                       argmin=tuple(words[0]), argmax=tuple(words[1]))
