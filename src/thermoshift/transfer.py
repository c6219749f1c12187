"""Transfer operator of a locally constant potential, and the Gibbs state.

For a range-2 potential on a primitive subshift the operator acts on
functions of the first symbol and is the m x m matrix

    A[a, b] = M[a, b] * exp(phi(a, b)),

indexed so that A[a, b] weighs the transition a -> b and the operator sends
f to (Lf)(b) = sum_a A[a, b] f(a).  Its spectral radius is exp(pressure);
stochasticizing A with the right eigenvector gives the Gibbs state in Markov
form.  Potentials of higher range are block-recoded to range 2 first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import rescaled_product
from .errors import NoConvergence, OutOfRange, RangeTooLarge
from .sft import _word_blocks


@dataclass
class EigenData:
    """Leading eigendata of a transfer matrix.

    lam is the spectral radius; v the entrywise positive right eigenvector
    normalized to sum 1; u the left eigenvector normalized by u . v = 1.
    residual is the final sup-norm residual of both eigen equations.
    iterations counts the rounds, each one evaluation of both residuals, and
    squarings the matrix squarings among them (see ``leading_eigen``).
    """

    lam: float
    v: np.ndarray
    u: np.ndarray
    residual: float
    iterations: int
    squarings: int = 0


def build(potential) -> np.ndarray:
    """The (m, m) matrix A of the operator of a range <= 2 potential on its
    subshift (see the module docstring).

    Raises OutOfRange when the weight exp(phi) of an admissible transition
    is 0 or not finite as a double: the matrix would drop that transition
    or carry inf, and the spectral data would be wrong or undefined.
    """
    if potential.r > 2:
        raise RangeTooLarge("matrix form needs range <= 2; recode first")
    potential.sft.require_primitive()
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


def _positive(x) -> bool:
    return bool(np.all((x > 0) & np.isfinite(x)))


def leading_eigen(A, tol=1e-13) -> EigenData:
    """Leading eigenvalue and both eigenvectors of a primitive matrix A, such
    as the transfer matrix from ``build``.

    Each round evaluates Av, uA, lam = u.Av / u.v and the sup-norm residuals
    of A v = lam v and u A = lam u.  The result is returned once both are at
    most tol * lam with Av and uA entrywise positive: a positive vector that
    passes this test is the Perron vector.

    The first max(m, 64) rounds (m the size of A) are power steps from the
    uniform start, so a gap that lets them converge never pays for a matrix
    product, which costs about m matrix-vector products.  Each later round
    squares B once and moves the iterates to Bv and uB, where B is A^(2^k) in
    the scale of the iterate v0 of the first squaring, diag(v0)^-1 A^(2^k)
    diag(v0), divided by its largest entry before every product
    (``rescaled_product``).  A spectral gap g then costs about log2(1/g)
    rounds instead of log(1/tol) / g.  In that scale the entries of A are at
    most (A v0)_i / v0_i, so wide weights do not underflow in the products;
    should Bv or uB still have a zero or non-finite entry, squaring stops for
    good, as it does after ``_MAX_SQUARINGS``, and power steps go on.
    Once squaring has stopped, max(m, 64) rounds in a row that bring the
    residual to no new minimum raise NoConvergence: the tol is below what
    rounding lets the residual reach.  ``_MAX_ROUNDS`` caps the rounds.  A tol
    that is not a positive finite number raises OutOfRange.
    """
    if not 0 < tol < np.inf:
        raise OutOfRange(f"tol must be a positive finite number, got {tol}")
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    v = np.full(m, 1.0 / m)
    u = np.full(m, 1.0 / m)
    B, squarings, accelerate = None, 0, True
    plain = max(m, _PLAIN_ROUNDS)
    best, best_it = np.inf, 0
    for it in range(1, _MAX_ROUNDS + 1):
        Av = A @ v
        uA = u @ A
        lam = float(u @ Av) / float(u @ v)
        res = max(float(np.max(np.abs(Av - lam * v))),
                  float(np.max(np.abs(uA - lam * u))))
        sv, su = Av.sum(), uA.sum()
        if sv <= 0 or su <= 0 or not np.isfinite(lam):
            raise NoConvergence("power iteration collapsed")
        if res <= tol * lam:
            if not (_positive(Av) and _positive(uA)):
                raise NoConvergence("an entry of the Perron vectors underflowed")
            v = Av / sv
            u = uA / su
            v = v / v.sum()
            u = u / float(u @ v)
            return EigenData(lam=lam, v=v, u=u, residual=res, iterations=it,
                             squarings=squarings)
        if res < best:
            best, best_it = res, it
        elif (it - best_it >= plain
              and not (accelerate and squarings < _MAX_SQUARINGS)):
            raise NoConvergence(
                f"no Perron eigendata within tol={tol}: the residual stalled "
                f"at {best:.2g} after {it} rounds")
        if it > plain and accelerate and squarings < _MAX_SQUARINGS:
            if B is None:
                scale = v
                B = A * scale[None, :] / scale[:, None]
                B = B / B.max()
            B = rescaled_product(B, B)[0]
            squarings += 1
            Bv, uB = scale * (B @ (v / scale)), (u * scale) @ B / scale
            if _positive(Bv) and _positive(uB):
                v = Bv / Bv.sum()
                u = uB / uB.sum()
                continue
            accelerate = False
        v = Av / sv
        u = uA / su
    raise NoConvergence(
        f"no Perron eigendata within tol={tol} in {_MAX_ROUNDS} rounds")


def pressure(potential, tol=1e-13) -> float:
    """Topological pressure of a locally constant potential on its subshift
    (nats).

    Range > 2 potentials are block-recoded internally; the value is
    log of the spectral radius of the transfer matrix either way.
    """
    from .potentials import recode_range2

    eig = leading_eigen(build(recode_range2(potential)), tol=tol)
    return float(np.log(eig.lam))


def gibbs_measure(potential, tol=1e-13) -> GibbsMeasure:
    """Gibbs state of the potential on its subshift, in stationary Markov form.

    P[a, b] = A[a, b] v_b / (lam v_a) and pi_a = u_a v_a; cylinder masses of
    the returned measure satisfy the two-sided Gibbs inequalities with
    constants read off the eigenvectors.  For range > 2 the state lives on
    the block subshift of ``recode_range2``, the ``sft`` of its potential.
    """
    from .measures import GibbsMeasure, MarkovMeasure
    from .potentials import recode_range2

    potential = recode_range2(potential)
    A = build(potential)
    eig = leading_eigen(A, tol=tol)
    v, u, lam = eig.v, eig.u, eig.lam
    P = A * v[None, :] / (lam * v[:, None])
    # remove residual drift so the measure passes strict stationarity checks
    P = P / P.sum(axis=1, keepdims=True)
    pi = u * v
    pi = pi / pi.sum()
    return GibbsMeasure(markov=MarkovMeasure(pi, P), potential=potential,
                        pressure=float(np.log(lam)), eigen=eig)


@dataclass
class GibbsBounds:
    """Enumerated extremes of mass / exp(S_n^sup - n * pressure) at depth n."""

    c_min: float
    c_max: float
    argmin: tuple
    argmax: tuple


def gibbs_bounds(measure: GibbsMeasure, n, budget=10 ** 7) -> GibbsBounds:
    """Extremes of mass(w) / exp(sup_[w] S_n phi - n * pressure) at depth n.

    The log-ratio is accumulated transition by transition, pairing each
    log P[a, b] with phi(a, b) - pressure, so the terms cancel exactly in
    the equality case (zero potential on a full shift gives ratio 1.0, not
    1.0 up to rounding).
    """
    phi = measure.potential.with_range(2).dense_table
    p = measure.pressure
    with np.errstate(divide="ignore"):
        log_pi = np.log(measure.markov.pi)
        log_P = np.log(measure.markov.P)
    # admissible entries only are read: phi is NaN off the subshift
    step = log_P - phi + p
    tail = p - np.nanmax(phi, axis=1)
    c_min, c_max = np.inf, -np.inf
    argmin = argmax = None
    for words in _word_blocks(measure.potential.sft.transition, n, budget=budget):
        log_ratio = log_pi[words[:, 0]] + tail[words[:, -1]]
        for j in range(1, n):
            log_ratio = log_ratio + step[words[:, j - 1], words[:, j]]
        ratio = np.exp(log_ratio)
        lo, hi = int(np.argmin(ratio)), int(np.argmax(ratio))
        # first occurrence, so ties go to the lexicographically first word
        if ratio[lo] < c_min:
            c_min, argmin = ratio[lo], tuple(words[lo].tolist())
        if ratio[hi] > c_max:
            c_max, argmax = ratio[hi], tuple(words[hi].tolist())
    return GibbsBounds(c_min=float(c_min), c_max=float(c_max),
                       argmin=argmin, argmax=argmax)
