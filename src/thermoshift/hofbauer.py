"""Hofbauer-type potentials on the full binary shift.

The potential takes the value a_k on the cylinder of points that open with
exactly k ones before the first zero, and 0 at the all-ones fixed point; a
family is held as its run-length series a_k alone, with no subshift,
Birkhoff sums or ``scale``.  With s_k = a_0 + ... + a_k, the equilibrium
state of phi is non-unique exactly when sum_k exp(s_k) = 1 and sum_k (k+1)
exp(s_k) < infinity; the pressure of beta * phi solves the renewal equation

    G(P) = sum_k exp(beta s_k - (k+1) P) = 1

whenever sum_k exp(beta s_k) > 1, and is 0 otherwise.  One ``RenewalSeries``
per potential and beta evaluates G: a partial sum of exp(beta s_k) plus
the family's estimate of the dropped tail with a certified bound on its
error (``HofbauerPotential.tail``).  By default that
estimate centres the geometric bound, for P > 0; ``CriticalPowerFamily``
sums its tail by Euler-Maclaurin, so its depth stays fixed however close the
root is to 0.  ``diagnose`` reads the same series and tails at P = 0.  No
result is reported from a bare truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import EXPINT_RTOL, bracketed_root, expint
from .errors import OutOfRange, TailUncertified, UndeterminedTail


class HofbauerPotential:
    """Base class: a family a_k < 0, a_k -> 0, nondecreasing for k >= 1, held
    as its series alone, with no subshift, Birkhoff sums or ``scale``."""

    # subclasses provide a_array(K) -> a_0..a_{K-1}, and may certify ``tail``
    def a_array(self, K):
        raise NotImplementedError

    def s_array(self, K):
        return np.cumsum(self.a_array(K))

    def tail(self, beta, K, P, s_K):
        """(estimate, error, slope) for T = sum_{k >= K} exp(beta s_k - (k+1) P).

        |T - estimate| <= error, and slope approximates dT/dP, steering Newton
        steps; at P = 0, -slope must bound the weighted tail sum_{k >= K}
        (k+1) exp(beta s_k), or be inf.  This default centres the geometric
        bound b = exp(beta s_K) e^-(K+1)P / (1 - e^-P) from nonincreasing s_k,
        for P > 0: estimate and error are b / 2, and slope is -(K+1) b / 2,
        since every weight k + 1 in dT/dP is at least K + 1.  At P = 0
        nothing certifies T: estimate and error are inf, and slope is -inf.
        """
        if not P > 0:
            return np.inf, np.inf, -np.inf
        half = 0.5 * np.exp(beta * s_K) * np.exp(-(K + 1) * P) / (-np.expm1(-P))
        return half, half, -(K + 1) * half


_EM_TERMS = 4   # Bernoulli terms of the Euler-Maclaurin tails
_BERNOULLI_DIV = (12.0, -720.0, 30240.0, -1209600.0)   # (2s)! / B_2s
_ULP = 2.0 ** -52


def _power_exp_tail(r, P, N):
    """(estimate, error) for sum_{n >= N} f(n), f(x) = x^-r e^-Px, r >= 0.

    Euler-Maclaurin (DLMF 2.10.1) with m = _EM_TERMS Bernoulli terms:

        sum = N^(1-r) E_r(PN) + f(N) / 2 + t_1 + ... + t_m + R,
        t_s = -B_2s / (2s)! f^(2s-1)(N)
            = B_2s / (2s)! f(N) N^(1-2s) sum_i C(2s-1, i) (r)_i (PN)^(2s-1-i),

    the integral being DLMF 8.19.1 for E_r.  f is completely monotone, so
    f^(2m) >= 0, and B_2m - B~_2m(x) has the sign of B_2m and modulus at most
    2 |B_2m| (DLMF 24.9.1): the remainder after t_(m-1), int_N^inf
    (B_2m - B~_2m(x)) / (2m)! f^(2m)(x) dx, lies between 0 and 2 t_m, so
    |R| <= |t_m|.  The error adds EXPINT_RTOL of the integral term and
    2 (1 + PN) ulps of the sum, the rounding of PN carried through e^-PN and
    E_r(PN).  Needs P > 0, or P = 0 and r > 1 (the tail of zeta(r)).

    Past r ~ 1.1e44 the rising factorial (r)_(2m-1) overflows, and the sum
    is below the least subnormal: f(n) <= f(N) (N/n)^r gives sum_{n > N}
    f(n) <= f(N) N / (r - 1) <= f(N), so the sum is at most 2 f(N) <=
    2^(1-r) for N >= 2 (the callers' N is 64 or K + 1 > 4096).  There the
    estimate is 0 and the error that least subnormal.
    """
    rising = [1.0]
    for i in range(2 * _EM_TERMS - 1):
        rising.append(rising[-1] * (r + i))
    if rising[-1] == math.inf:
        return 0.0, math.ulp(0.0)
    y = P * N
    head = N ** -r * math.exp(-y)
    integral = N ** (1.0 - r) * expint(r, y)
    total, last = integral + 0.5 * head, 0.0
    for s in range(1, _EM_TERMS + 1):
        j = 2 * s - 1
        poly = sum(math.comb(j, i) * rising[i] * y ** (j - i) for i in range(j + 1))
        last = head * N ** -j * poly / _BERNOULLI_DIV[s - 1]
        total += last
    rounding = 2.0 * (1.0 + y) * _ULP * total
    return total, abs(last) + EXPINT_RTOL * integral + rounding


class CriticalPowerFamily(HofbauerPotential):
    """a_k = -q log((k+1)/k) for k >= 1, a_0 = -log zeta(q) - depression.

    At depression 0 the family is critical: exp(s_k) = (k+1)^-q / zeta(q),
    so sum_k exp(s_k) = 1 exactly, and the weighted sum is finite for q > 2.
    A positive depression shifts every s_k down and makes the series sum to
    exp(-depression) < 1; one below -log zeta(q) (a_0 > 0) raises OutOfRange.
    zeta(q) sums k^-q to 63 plus its Euler-Maclaurin tail (|t_4| < 1e-16 zeta).
    """

    def __init__(self, exponent=3.0, depression=0.0):
        if not (math.isfinite(exponent) and math.isfinite(depression)):
            raise OutOfRange("exponent and depression must be finite")
        if exponent <= 1.0:
            raise OutOfRange("exponent must exceed 1")
        self.exponent = float(exponent)
        self.depression = float(depression)
        zeta = sum(float(k) ** -self.exponent for k in range(63, 0, -1))
        zeta += _power_exp_tail(self.exponent, 0.0, 64)[0]
        self.a0 = -float(np.log(zeta)) - self.depression
        if self.a0 > 0.0:
            raise OutOfRange(f"depression must be at least -log zeta(exponent) "
                             f"= {-float(np.log(zeta))}, got {self.depression}")

    def a_array(self, K):
        if K <= 0:
            return np.empty(0)
        ks = np.arange(1, K)
        out = np.empty(K)
        out[0] = self.a0
        out[1:] = -self.exponent * np.log1p(1.0 / ks)
        return out

    def s_array(self, K):
        # telescoping: s_k = a_0 - q log(k+1), exact and cheap
        if K <= 0:
            return np.empty(0)
        return self.a0 - self.exponent * np.log(np.arange(1, K + 1))

    def tail(self, beta, K, P, s_K):
        """Euler-Maclaurin estimate of T = C sum_{n > K} n^-p e^-nP, with
        C = exp(beta a_0) and p = q beta; see ``_power_exp_tail`` for the
        remainder bound.  T diverges at P = 0 when p <= 1 (estimate and error
        inf).  For p >= 1 the slope is -(estimate + error) of -dT/dP =
        C sum_{n > K} n^(1-p) e^-nP, -inf at P = 0 when p <= 2; for p < 1 it
        falls back to -(K+1) times the estimate.
        """
        p, coef = self.exponent * beta, float(np.exp(beta * self.a0))
        if P == 0.0 and p <= 1.0:
            return np.inf, np.inf, -np.inf
        estimate, error = _power_exp_tail(p, P, K + 1)
        if P == 0.0 and p <= 2.0:
            slope = -np.inf
        elif p >= 1.0:
            slope = -sum(_power_exp_tail(p - 1.0, P, K + 1))
        else:
            slope = -(K + 1) * estimate
        return coef * estimate, coef * error, coef * slope


class InverseSquareFamily(HofbauerPotential):
    """a_k = -scale / (k+1)^2; summable variations, so a unique Gibbs state.

    exp(s_k) tends to the positive constant exp(-scale * zeta(2)), so the
    defining series diverges and the partial sums cross 1 at a finite depth;
    no tail bound is needed on that path (and none exists at P = 0).
    """

    def __init__(self, scale=1.0):
        if not math.isfinite(scale):
            raise OutOfRange("scale must be finite")
        if scale <= 0:
            raise OutOfRange("scale must be positive")
        self.c = float(scale)

    def a_array(self, K):
        if K <= 0:
            return np.empty(0)
        return -self.c / np.arange(1, K + 1) ** 2


@dataclass
class TransitionDiagnostic:
    """Certified classification of uniqueness for the equilibrium state."""

    classification: str        # "non-unique" | "unique" | "undetermined"
    sum_partial: float         # partial sum of exp(s_k) up to K
    sum_tail_bound: float      # certified bound for the dropped tail
    weighted_partial: float
    weighted_tail_bound: float
    truncation_K: int


_SERIES_K_MAX = 2 ** 23     # deepest truncation of a renewal series
_DIAGNOSE_TOL = 1e-8        # margin of ``diagnose``'s comparisons with 1
_RENEWAL_TOL = 1e-12        # certified error of ``pressure_renewal``


class RenewalSeries:
    """G(P) = sum_k exp(beta s_k - (k+1) P) for one potential and one beta.

    Each evaluation at P reads s_0..s_K through ``potential.s_array``, sums
    the first K terms exp(beta s_k - (k+1) P) and their slope weights
    (k + 1) in one pass, and adds the family's tail estimate from s_K, whose
    error bound is the error of G up to rounding.
    """

    def __init__(self, potential, beta):
        self.potential = potential
        self.beta = float(beta)
        self.K = 4096           # the first depth evaluations try

    def __call__(self, P, settled):
        """(partial, tail estimate, tail error, weighted partial, tail slope)
        at depth K, doubled first until ``settled(partial, estimate, error)``
        holds; G'(P) is the tail slope minus the weighted partial, sum_{k < K}
        (k + 1) times term k.  At P = 0 no factor e^-(k+1)P = 1 is computed.

        Raises UndeterminedTail when the family has no tail bound and
        TailUncertified when K would pass _SERIES_K_MAX.
        """
        while True:
            K = self.K
            s = self.potential.s_array(K + 1)
            weighted = np.exp(self.beta * s[:K])
            if P != 0.0:
                weighted = weighted * np.exp(-P * np.arange(1.0, K + 1.0))
            partial = float(weighted.sum())
            estimate, error, slope = self.potential.tail(
                self.beta, K, P, float(s[K]))
            if settled(partial, estimate, error):
                n = np.arange(1.0, K + 1.0)
                return partial, estimate, error, float(n @ weighted), slope
            if K >= _SERIES_K_MAX:
                if not np.isfinite(error):
                    raise UndeterminedTail(
                        "family has no analytic tail bound for this series")
                raise TailUncertified(
                    f"the tail estimate and its error ({estimate}, {error}) "
                    f"do not settle the series at K={K} "
                    f"(beta={self.beta}, P={P})")
            self.K = 2 * K


def diagnose(potential: HofbauerPotential) -> TransitionDiagnostic:
    """Decide uniqueness from the two series, with certified tails.

    Both are read off one ``RenewalSeries`` at beta = 1 and P = 0, whose K
    doubles from 4096 until the partial sum exceeds 1 + tol (unique), or the
    tail estimate plus its error, ``sum_tail_bound``, is at most tol / 10,
    for tol = _DIAGNOSE_TOL.  Then [partial, partial + sum_tail_bound] below
    1 - tol is unique; within tol of 1 it is non-unique if the weighted tail
    bound, minus the tail slope, is finite (unique, on the fixed point, if
    not); otherwise undetermined.  The series' refusals pass through.
    """
    tol = _DIAGNOSE_TOL
    series = RenewalSeries(potential, 1.0)
    partial, estimate, error, weighted, slope = series(
        0.0, lambda partial, estimate, error:
        partial > 1.0 + tol or estimate + error <= tol / 10.0)
    tail = estimate + error
    if partial > 1.0 + tol or partial + tail < 1.0 - tol:
        cls = "unique"
    elif partial >= 1.0 - tol and partial + tail <= 1.0 + tol:
        cls = "non-unique" if np.isfinite(slope) else "unique"
    else:
        cls = "undetermined"
    return TransitionDiagnostic(
        classification=cls, sum_partial=partial, sum_tail_bound=tail,
        weighted_partial=weighted, weighted_tail_bound=-slope,
        truncation_K=series.K)


# bound on |computed G - G| where G is near 1: the settled tail error,
# at most 5e-16 (G + 1), plus the rounding of exp, product and pairwise
# sum over at most 2^23 terms (about 32 roundings deep)
_G_ERROR = 2e-14


def _check_beta(beta):
    if not beta < np.inf:
        raise OutOfRange(f"beta must be finite, got {beta}")
    if beta < 0:
        raise OutOfRange("beta must be nonnegative")


def _tail_settled(partial, estimate, error):
    return error <= 5e-16 * (partial + 1.0)


def pressure_renewal(potential: HofbauerPotential, beta) -> float:
    """Pressure of beta * phi from the renewal equation, certified.

    Every evaluation of G(P) = sum_k exp(beta s_k - (k+1) P) comes from one
    ``RenewalSeries``: the partial sum to depth K (4096 to start) plus the
    family's tail estimate, K doubling until the tail error is at most
    5e-16 (partial + 1).  For ``CriticalPowerFamily`` the Euler-Maclaurin
    tail meets that at K = 4096 for every P >= 0.

    Write tol for _RENEWAL_TOL, 1e-12.  Returns 0 when G(0) =
    sum_k exp(beta s_k) is certified at most 1 + 2 tol (the true root is
    then at most log of that, below 2 tol).  Otherwise the strictly
    decreasing, convex G has a unique positive root of 1 - G, found by
    Newton steps guarded by bisection from [0, 1].  Newton reaches the root
    of this concave deficit from one side, so it also stops once
    |1 - G(P)| <= tol / (1 + tol) - _G_ERROR: as |G'| >= G (every weight
    k + 1 >= 1), that certifies |P - root| <= tol.  The value returned is
    ``bracketed_root``'s Newton end, the Newton point of that last
    evaluation kept inside the proven bracket: from the left it lies between
    the evaluated point and the root, from the right it falls short of the
    root by at most |1 - G| / |G'| <= tol, so the certificate holds and the
    error is Newton's, far below tol.  A beta that is not a nonnegative
    finite number raises OutOfRange.
    """
    _check_beta(beta)
    tol = _RENEWAL_TOL
    series = RenewalSeries(potential, beta)
    cut = 1.0 + 2.0 * tol

    def decided(partial, estimate, error):
        # a partial sum above the cut needs no tail; an infinite error
        # makes the tail enclosure nan or inf, which decides nothing
        return (partial > cut or partial + estimate - error > cut
                or partial + estimate + error <= cut)

    # phase 1: compare the P = 0 series with 1
    partial, estimate, error, _, _ = series(0.0, decided)
    if partial + estimate + error <= cut:
        return 0.0

    def deficit(P):
        partial, estimate, _, weighted, slope = series(P, _tail_settled)
        return 1.0 - (partial + estimate), weighted - slope

    # G(0) > 1 was just certified, so the root lies above P = 0
    ftol = max(tol / (1.0 + tol) - _G_ERROR, 0.0)
    return float(bracketed_root(deficit, 0.0, 1.0, xtol=tol, ftol=ftol,
                                with_slope=True, f_lo=-1.0)[0])


def pressure_periodic(potential: HofbauerPotential, beta, n) -> float:
    """Pressure estimate log(Z_n)/n from the period-n partition sum.

    A period-n point with a zero splits cyclically into blocks 1^(l-1) 0 of
    weight w_l = exp(beta (a_0 + ... + a_(l-1))), read off ``a_array``, never
    the series engine's ``s_array``.  By the renewal recursion c_0 = 1,
    c_j = sum_l w_l c_(j-l), Z_n = 1 + sum_l l w_l c_(n-l): the block that
    holds site 0 has l sites, and 1 is the all-ones fixed point.  The sums
    are taken in logs on w_l e^(-l t), adding n t back; t = log(Z_n - 1)/n,
    from a first pass, keeps each log c_j near 0, where it rounds least.

    Serves as the independent cross-check for pressure_renewal; the two agree
    up to the O(1/n) defect of finite-period sums.  A beta that is not a
    nonnegative finite number raises OutOfRange.
    """
    _check_beta(beta)
    if n < 1:
        raise OutOfRange("period must be at least 1")
    n = int(n)
    log_w = beta * np.cumsum(potential.a_array(n))
    blocks = np.arange(1.0, n + 1)
    shift = 0.0
    for _ in range(2):
        shifted = log_w - shift * blocks
        log_c = np.zeros(n)
        for j in range(1, n):
            log_c[j] = np.logaddexp.reduce(shifted[:j] + log_c[j - 1::-1])
        log_z = n * shift + np.logaddexp.reduce(np.log(blocks) + shifted + log_c[::-1])
        shift = log_z / n if log_z > -np.inf else 0.0
    return float(np.logaddexp(log_z, 0.0) / n)


_KINK_STEPS = (1e-2, 1e-3, 1e-4)   # the steps h of ``kink_quotients``


def kink_quotients(potential: HofbauerPotential, kink=1.0, known=None):
    """One-sided difference quotients of beta -> P(beta * phi) at ``kink``:
    the dicts step h -> (P(kink - h) - P(kink)) / h and step h ->
    (P(kink + h) - P(kink)) / h, for h in _KINK_STEPS.

    ``known`` maps betas to renewal pressures already solved; they are not
    solved again.  Every other value is ``pressure_renewal``, so it carries
    that function's certified tail.

    The left quotient stays above a positive constant while the right
    quotient is identically zero past a first-order transition; both are
    difference-quotient estimates, reported with their step, not certified
    derivatives.
    """
    known = dict(known or {})

    def at(beta):
        if beta not in known:
            known[beta] = pressure_renewal(potential, beta)
        return known[beta]

    p0 = at(kink)
    return ({h: (at(kink - h) - p0) / h for h in _KINK_STEPS},
            {h: (at(kink + h) - p0) / h for h in _KINK_STEPS})
