"""Hofbauer-type potentials on the full binary shift.

The potential takes the value a_k on the cylinder of points that open with
exactly k ones before the first zero, and 0 at the all-ones fixed point.
With s_k = a_0 + ... + a_k, the equilibrium state of phi is non-unique
exactly when sum_k exp(s_k) = 1 and sum_k (k+1) exp(s_k) < infinity; the
pressure of beta * phi solves the renewal equation

    G(P) = sum_k exp(beta s_k - (k+1) P) = 1

whenever sum_k exp(beta s_k) > 1, and is 0 otherwise.  One ``RenewalSeries``
per potential and beta evaluates G: a partial sum over a cached array of
exp(beta s_k) plus the family's estimate of the dropped tail with a
certified bound on its error (``HofbauerPotential.tail``).  By default that
estimate centres an analytic upper bound; ``CriticalPowerFamily`` sums its
tail by Euler-Maclaurin, so its depth stays fixed however close the root is
to 0.  No result is reported from a bare truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import (_BERNOULLI_DIV, EXPINT_RTOL, bracketed_root, expint,
                        log_trace_power, zeta)
from .errors import OutOfRange, TailUncertified, UndeterminedTail
from .sft import full_shift

_ONE = 1  # symbol index of "1" in the canonical binary alphabet


class HofbauerPotential:
    """Base class: a family a_k < 0, a_k -> 0, nondecreasing for k >= 1."""

    def __init__(self):
        self.sft = full_shift(2, labels=["0", "1"])

    # subclasses provide a_array(K) -> a_0..a_{K-1} and the tail bounds
    def a_array(self, K):
        raise NotImplementedError

    def s_array(self, K):
        return np.cumsum(self.a_array(K))

    def tail_bounds(self, beta, K):
        """Certified upper bounds for sum_{k >= K} exp(beta s_k) and for
        sum_{k >= K} (k+1) exp(beta s_k); inf where nothing certifies."""
        return np.inf, np.inf

    def tail(self, beta, K, P, s_K):
        """(estimate, error, slope) for T = sum_{k >= K} exp(beta s_k - (k+1) P).

        |T - estimate| <= error, and slope approximates dT/dP; it only steers
        Newton steps.  This default centres a certified bound b on T, the
        smaller of the family bound times e^-(K+1)P and, for P > 0, the
        geometric bound from nonincreasing s_k; b is inf if neither certifies
        (an inf family bound stays out of the product, where an underflowed
        exp would make it nan).  Estimate and error are b / 2, and slope is
        -(K+1) b / 2, since every weight k + 1 in dT/dP is at least K + 1.
        """
        bounds = []
        family = self.tail_bounds(beta, K)[0]
        if np.isfinite(family):
            bounds.append(family * np.exp(-(K + 1) * P))
        if P > 0:
            bounds.append(np.exp(beta * s_K) * np.exp(-(K + 1) * P) / (-np.expm1(-P)))
        half = 0.5 * float(min(bounds, default=np.inf))
        return half, half, -(K + 1) * half

    # -- Birkhoff sums ---------------------------------------------------------

    def birkhoff_sups(self, words):
        """Sup of S_n phi over the cylinder of each row of a (k, n) word array.

        The sup is attained by the all-ones continuation: a position whose
        run of ones reaches the end of the word then sees the fixed point and
        contributes 0, any other position a_(distance to the next zero).
        """
        n = words.shape[1]
        a = self.a_array(n + 1)
        sups = []
        for word in words.tolist():
            sup = 0.0
            next_zero = n
            for i in range(n - 1, -1, -1):
                if word[i] != _ONE:
                    next_zero = i
                if next_zero < n:
                    sup += a[next_zero - i]
            sups.append(sup)
        return np.array(sups)

    def scale(self, beta):
        if beta <= 0:
            raise OutOfRange("scale factor must be positive")
        return _ScaledHofbauer(self, beta)


class _ScaledHofbauer(HofbauerPotential):
    """beta * phi for a positive beta; its sups are beta times the base's."""

    def __init__(self, base, beta):
        super().__init__()
        self.base = base
        self.beta = float(beta)

    def a_array(self, K):
        return self.beta * self.base.a_array(K)

    def birkhoff_sups(self, words):
        return self.beta * self.base.birkhoff_sups(words)

    def tail_bounds(self, beta, K):
        return self.base.tail_bounds(beta * self.beta, K)


_EM_TERMS = 4   # Bernoulli terms of the Euler-Maclaurin tails
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
    E_r(PN).  Needs P > 0, or P = 0 and r > 1 (the zeta tail, as in
    ``zeta``).

    Past r ~ 1.1e44 the rising factorial (r)_(2m-1) overflows, and the sum
    is below the least subnormal: f(n) <= f(N) (N/n)^r gives sum_{n > N}
    f(n) <= f(N) N / (r - 1) <= f(N), so the sum is at most 2 f(N) <=
    2^(1-r) for N >= 2 (the callers' N = K + 1 exceeds 4096).  There the
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
    exp(-depression) < 1.
    """

    def __init__(self, exponent=3.0, depression=0.0):
        super().__init__()
        if not (math.isfinite(exponent) and math.isfinite(depression)):
            raise OutOfRange("exponent and depression must be finite")
        if exponent <= 1.0:
            raise OutOfRange("exponent must exceed 1")
        self.exponent = float(exponent)
        self.depression = float(depression)
        self.a0 = -float(np.log(zeta(self.exponent))) - self.depression

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

    def _coef(self, beta):
        return float(np.exp(beta * self.a0))

    def tail_bounds(self, beta, K):
        p, coef = self.exponent * beta, self._coef(beta)
        if K < 1:
            return np.inf, np.inf
        return (coef * K ** (1.0 - p) / (p - 1.0) if p > 1.0 else np.inf,
                coef * K ** (2.0 - p) / (p - 2.0) if p > 2.0 else np.inf)

    def tail(self, beta, K, P, s_K):
        """Euler-Maclaurin estimate of T = C sum_{n > K} n^-p e^-nP, with
        C = exp(beta a_0) and p = q beta; see ``_power_exp_tail`` for the
        remainder bound.  T diverges at P = 0 when p <= 1 (estimate and error
        inf), and the slope -C sum_{n > K} n^(1-p) e^-nP is -inf at P = 0 when
        p <= 2; for p < 1 it falls back to -(K+1) times the estimate.
        """
        p, coef = self.exponent * beta, self._coef(beta)
        if P == 0.0 and p <= 1.0:
            return np.inf, np.inf, -np.inf
        estimate, error = _power_exp_tail(p, P, K + 1)
        if P == 0.0 and p <= 2.0:
            slope = -np.inf
        elif p >= 1.0:
            slope = -_power_exp_tail(p - 1.0, P, K + 1)[0]
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
        super().__init__()
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
_DIAGNOSE_K_MAX = 2 ** 22   # deepest truncation ``diagnose`` tries


class RenewalSeries:
    """G(P) = sum_k exp(beta s_k - (k+1) P) for one potential and one beta.

    exp(beta s_k) is read through ``potential.s_array`` once and kept; when
    the depth K must grow, the cached array is extended, never rebuilt.  An
    evaluation at P sums the first K terms and their slope weights (k + 1)
    in one pass and adds the family's tail estimate, whose error bound is
    the error of G up to rounding.
    """

    def __init__(self, potential, beta):
        self.potential = potential
        self.beta = float(beta)
        self.K = 4096           # the first depth evaluations try
        self._s = np.empty(0)
        self._terms = np.empty(0)

    def terms(self, K):
        """exp(beta s_k) for k < K; s_K is cached too, for the tail."""
        done = len(self._s)
        if done <= K:
            s = self.potential.s_array(K + 1)
            self._terms = np.concatenate((self._terms, np.exp(self.beta * s[done:])))
            self._s = s
        return self._terms[:K]

    def __call__(self, P, settled):
        """(partial, tail estimate, tail error, G'(P)) at the current depth K,
        doubled first until ``settled(partial, estimate, error)`` holds.

        Raises UndeterminedTail when the family has no tail bound and
        TailUncertified when K would pass _SERIES_K_MAX.
        """
        while True:
            K = self.K
            n = np.arange(1.0, K + 1.0)
            weighted = self.terms(K) * np.exp(-P * n)
            partial = float(weighted.sum())
            estimate, error, d_tail = self.potential.tail(
                self.beta, K, P, float(self._s[K]))
            if settled(partial, estimate, error):
                return partial, estimate, error, d_tail - float(n @ weighted)
            if K >= _SERIES_K_MAX:
                if not np.isfinite(error):
                    raise UndeterminedTail(
                        "family has no analytic tail bound for this series")
                raise TailUncertified(
                    f"tail error {error} not certified at K={K} "
                    f"(beta={self.beta}, P={P})")
            self.K = 2 * K


def diagnose(potential: HofbauerPotential, tol=1e-8) -> TransitionDiagnostic:
    """Decide uniqueness from the two series, with certified tails.

    Truncation depth adapts: K doubles from 1024 up to _DIAGNOSE_K_MAX until
    either the partial sum provably exceeds 1 (unique), or the certified
    upper bound ``tail_bounds`` gives for the dropped tail is below tol/10
    and the enclosure settles the comparison with 1.  The partial sums read
    the cached terms of a ``RenewalSeries`` at beta = 1; the reported tail is
    the bound, not an estimate.  A tol that is not a positive finite number
    raises OutOfRange.
    """
    if not 0 < tol < np.inf:
        raise OutOfRange(f"tol must be a positive finite number, got {tol}")
    series = RenewalSeries(potential, 1.0)
    K = 1024
    while True:
        terms = series.terms(K)
        partial = float(terms.sum())
        weighted_partial = float((np.arange(1, K + 1) * terms).sum())
        tail, wtail = map(float, potential.tail_bounds(1.0, K))
        if partial > 1.0 + tol:
            cls, tail = "unique", 0.0
            break
        if np.isfinite(tail) and tail <= tol / 10.0:
            if partial + tail < 1.0 - tol:
                cls = "unique"
            elif partial >= 1.0 - tol and partial + tail <= 1.0 + tol:
                cls = "non-unique" if np.isfinite(wtail) else "unique"
            else:
                cls = "undetermined"
            break
        if K >= _DIAGNOSE_K_MAX:
            if not np.isfinite(tail):
                raise UndeterminedTail(
                    "family has no analytic tail bound for the defining series")
            raise TailUncertified(
                f"tail bound {tail} not below {tol / 10} at K={_DIAGNOSE_K_MAX}")
        K *= 2
    return TransitionDiagnostic(
        classification=cls, sum_partial=partial, sum_tail_bound=tail,
        weighted_partial=weighted_partial, weighted_tail_bound=wtail,
        truncation_K=K)


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


def pressure_renewal(potential: HofbauerPotential, beta, tol=1e-12) -> float:
    """Pressure of beta * phi from the renewal equation, certified.

    Every evaluation of G(P) = sum_k exp(beta s_k - (k+1) P) comes from one
    ``RenewalSeries``: the partial sum to depth K (4096 to start) plus the
    family's tail estimate, K doubling until the tail error is at most
    5e-16 (partial + 1).  For ``CriticalPowerFamily`` the Euler-Maclaurin
    tail meets that at K = 4096 for every P >= 0.

    Returns 0 when G(0) = sum_k exp(beta s_k) is certified at most 1 + 2 tol
    (the true root is then at most log of that, below 2 tol).  Otherwise the
    strictly decreasing, convex G has a unique positive root of 1 - G, found
    by Newton steps guarded by bisection from [0, 1].  Newton reaches the
    root of this concave deficit from one side, so it also stops once
    |1 - G(P)| <= tol / (1 + tol) - _G_ERROR: as |G'| >= G (every weight
    k + 1 >= 1), that certifies |P - root| <= tol.  The value returned is
    the Newton point of that last evaluation: from the left it lies between
    the evaluated point and the root, from the right it falls short of the
    root by at most |1 - G| / |G'| <= tol, so the certificate holds and the
    error is Newton's, far below tol.  A tol that is not a positive finite
    number, or a beta that is not a nonnegative finite one, raises
    OutOfRange.
    """
    _check_beta(beta)
    if not 0 < tol < np.inf:
        raise OutOfRange(f"tol must be a positive finite number, got {tol}")
    series = RenewalSeries(potential, beta)
    cut = 1.0 + 2.0 * tol

    def decided(partial, estimate, error):
        # a partial sum above the cut needs no tail; an infinite error
        # makes the tail enclosure nan or inf, which decides nothing
        return (partial > cut or partial + estimate - error > cut
                or partial + estimate + error <= cut)

    # phase 1: compare the P = 0 series with 1
    partial, estimate, error, _ = series(0.0, decided)
    if partial + estimate + error <= cut:
        return 0.0

    evaluations = {}

    def deficit(P):
        partial, estimate, _, slope = series(P, _tail_settled)
        evaluations[P] = (1.0 - (partial + estimate), -slope)
        return evaluations[P]

    # G(0) > 1 was just certified, so the root lies above P = 0
    ftol = max(tol / (1.0 + tol) - _G_ERROR, 0.0)
    P, _ = bracketed_root(deficit, 0.0, 1.0, xtol=tol, ftol=ftol,
                          with_slope=True, f_lo=-1.0)
    value, slope = evaluations.get(P, (0.0, 0.0))
    return float(P - value / slope) if slope > 0 else float(P)


_RUN_STATES = 64   # run states of the period-n trace, at least n of them


def _runlength_matrix(potential, beta, states):
    """Weighted transition matrix of the leading-run chain, states 0..states-1.

    State k holds the points opening with exactly k ones before a zero; the
    shift sends k to k - 1 and state 0 to any state.  Edge weights carry
    exp(beta * a_source), so weighted cycle sums reproduce Birkhoff sums of
    beta * phi over periodic points that contain a zero.
    """
    w = np.exp(beta * potential.a_array(states))
    T = np.diag(w[1:], -1)
    T[0, :] = w[0]
    return T


def pressure_periodic(potential: HofbauerPotential, beta, n) -> float:
    """Pressure estimate log(Z_n)/n from the period-n partition sum.

    Z_n sums exp(beta * S_n phi) over all period-n points.  Points containing
    a zero are the length-n cycles of the leading-run chain, so Z_n is a
    matrix trace over max(_RUN_STATES, n) run states plus 1 for the
    all-ones fixed point (whose Birkhoff sum vanishes).  The trace is exact,
    not truncated: a period-n cycle never reaches run length n, so any state
    count >= n gives the identical value.

    Serves as the independent cross-check for pressure_renewal; the two agree
    up to the O(1/n) defect of finite-period sums.  A beta that is not a
    nonnegative finite number raises OutOfRange.
    """
    _check_beta(beta)
    if n < 1:
        raise OutOfRange("period must be at least 1")
    T = _runlength_matrix(potential, beta, max(_RUN_STATES, int(n)))
    log_trace = log_trace_power(T, n)
    return float(np.logaddexp(log_trace, 0.0) / n)


@dataclass
class PressureCurve:
    """Sampled beta -> pressure map with slope data and the kink study."""

    betas: np.ndarray
    pressures: np.ndarray
    left_quotients: dict     # step -> (P(kink-h) - P(kink)) / h
    right_quotients: dict    # step -> (P(kink+h) - P(kink)) / h


def pressure_curve(potential: HofbauerPotential, betas, kink=1.0,
                   kink_steps=(1e-2, 1e-3, 1e-4), tol=1e-12,
                   pressures=None) -> PressureCurve:
    """Evaluate the renewal pressure on a grid and probe the kink.

    ``pressures``, when given, are the renewal pressures already computed at
    ``betas`` (same order, same tol); they and the kink, when it lies on the
    grid, are not solved again.  Every other value is ``pressure_renewal``,
    so it carries that function's certified tail.

    The left quotient (P(kink - h) - P(kink)) / h stays above a positive
    constant while the right quotient is identically zero past a first-order
    transition; both are difference-quotient estimates, reported with their
    step, not certified derivatives.
    """
    known = {} if pressures is None else dict(zip(betas, pressures))

    def at(beta):
        if beta not in known:
            known[beta] = pressure_renewal(potential, beta, tol=tol)
        return known[beta]

    betas = np.asarray(sorted(betas), dtype=float)
    values = np.array([at(b) for b in betas])
    p0 = at(kink)
    left, right = {}, {}
    for h in kink_steps:
        left[h] = (at(kink - h) - p0) / h
        right[h] = (at(kink + h) - p0) / h
    return PressureCurve(betas=betas, pressures=values, left_quotients=left,
                         right_quotients=right)
