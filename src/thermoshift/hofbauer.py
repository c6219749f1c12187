"""Hofbauer-type potentials on the full binary shift.

The potential takes the value a_k on the cylinder of points that open with
exactly k ones before the first zero, and 0 at the all-ones fixed point.
With s_k = a_0 + ... + a_k, the equilibrium state of phi is non-unique
exactly when sum_k exp(s_k) = 1 and sum_k (k+1) exp(s_k) < infinity; the
pressure of beta * phi solves the renewal equation

    sum_k exp(beta s_k - (k+1) P) = 1

whenever sum_k exp(beta s_k) > 1, and is 0 otherwise.  All series are
evaluated with certified analytic tail bounds; no result is reported from a
bare truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import bracketed_root, log_trace_power, zeta
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

    def a(self, k):
        return float(self.a_array(k + 1)[k])

    def s_array(self, K):
        return np.cumsum(self.a_array(K))

    def tail_bound(self, beta, K, P=0.0):
        """Certified upper bound for sum_{k >= K} exp(beta s_k - (k+1) P).

        Combines the geometric bound from monotone s_k with any family
        integral bound; returns inf when nothing certifies.  The inf case is
        kept out of the arithmetic: inf times an underflowed exp would be nan.
        """
        bounds = []
        fam = self._family_tail(beta, K)
        if np.isfinite(fam):
            bounds.append(fam * np.exp(-(K + 1) * P))
        if P > 0:
            s_K = float(self.s_array(K + 1)[K])
            geom = np.exp(beta * s_K) * np.exp(-(K + 1) * P) / (-np.expm1(-P))
            bounds.append(geom)
        return float(min(bounds)) if bounds else float("inf")

    def _family_tail(self, beta, K):
        """Upper bound for sum_{k >= K} exp(beta s_k); inf if uncertified."""
        return np.inf

    def weighted_tail_bound(self, beta, K):
        """Upper bound for sum_{k >= K} (k+1) exp(beta s_k); inf if uncertified."""
        return np.inf

    # -- pointwise values and Birkhoff sums ------------------------------------

    def var_k(self, k):
        """Oscillation over points sharing the first k symbols.

        Points opening with 1^k realize the values {a_k, a_{k+1}, ..., 0};
        with a_j nondecreasing for j >= 1 the spread is |a_k| for k >= 1,
        and max(|a_0|, |a_1|) for k = 0.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return float(max(-self.a(0), -self.a(1)))
        return float(-self.a(k))

    def birkhoff_extremes(self, word):
        """(sup, inf, None, None) of S_n phi over the cylinder [word].

        The sup is attained by the all-ones continuation (positions whose run
        of ones reaches the end of the word contribute 0); the inf by the
        continuation that opens with a zero (those positions contribute
        a_{run length}, the most negative choice for a monotone family).
        """
        word = tuple(word)
        n = len(word)
        a = self.a_array(n + 1)
        sup = 0.0
        next_zero = n
        for i in range(n - 1, -1, -1):
            if word[i] != _ONE:
                next_zero = i
            if next_zero < n:
                sup += a[next_zero - i]
        trailing = n - 1 - max(
            (i for i in range(n) if word[i] != _ONE), default=-1)
        inf = sup + float(a[1:trailing + 1].sum())
        return float(sup), float(inf), None, None

    def birkhoff_sup(self, word):
        return self.birkhoff_extremes(word)[0]

    def birkhoff_sups(self, words):
        """birkhoff_extremes' sup and tail (None) for each row of a word array."""
        ext = [self.birkhoff_extremes(word) for word in words.tolist()]
        return np.array([e[0] for e in ext]), [e[2] for e in ext]

    def slack_exact(self, word):
        """sup - inf on the cylinder: sum of var_j over the trailing ones run."""
        sup, inf, _, _ = self.birkhoff_extremes(word)
        return sup - inf

    def scale(self, beta):
        if beta <= 0:
            raise OutOfRange("scale factor must be positive")
        return _ScaledHofbauer(self, beta)


class _ScaledHofbauer(HofbauerPotential):
    """beta * phi for a positive beta; sup/inf scale with the same extremals."""

    def __init__(self, base, beta):
        super().__init__()
        self.base = base
        self.beta = float(beta)

    def a_array(self, K):
        return self.beta * self.base.a_array(K)

    def birkhoff_extremes(self, word):
        sup, inf, tmax, tmin = self.base.birkhoff_extremes(word)
        return self.beta * sup, self.beta * inf, tmax, tmin

    def _family_tail(self, beta, K):
        return self.base._family_tail(beta * self.beta, K)

    def weighted_tail_bound(self, beta, K):
        return self.base.weighted_tail_bound(beta * self.beta, K)


class CriticalPowerFamily(HofbauerPotential):
    """a_k = -q log((k+1)/k) for k >= 1, a_0 = -log zeta(q) - depression.

    At depression 0 the family is critical: exp(s_k) = (k+1)^-q / zeta(q),
    so sum_k exp(s_k) = 1 exactly, and the weighted sum is finite for q > 2.
    A positive depression shifts every s_k down and makes the series sum to
    exp(-depression) < 1.
    """

    def __init__(self, exponent=3.0, depression=0.0):
        super().__init__()
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

    def _family_tail(self, beta, K):
        p = self.exponent * beta
        if p <= 1.0 or K < 1:
            return np.inf
        return self._coef(beta) * K ** (1.0 - p) / (p - 1.0)

    def weighted_tail_bound(self, beta, K):
        p = self.exponent * beta
        if p <= 2.0 or K < 1:
            return np.inf
        return self._coef(beta) * K ** (2.0 - p) / (p - 2.0)

    def series_closed_form(self, beta):
        """sum_k exp(beta s_k) = exp(beta a_0) zeta(q beta), for q beta > 1."""
        p = self.exponent * beta
        if p <= 1.0:
            return np.inf
        return self._coef(beta) * float(zeta(p))


class InverseSquareFamily(HofbauerPotential):
    """a_k = -scale / (k+1)^2; summable variations, so a unique Gibbs state.

    exp(s_k) tends to the positive constant exp(-scale * zeta(2)), so the
    defining series diverges and the partial sums cross 1 at a finite depth;
    no tail bound is needed on that path (and none exists at P = 0).
    """

    def __init__(self, scale=1.0):
        super().__init__()
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
    tol: float


def diagnose(potential: HofbauerPotential, tol=1e-8, K_max=2 ** 22) -> TransitionDiagnostic:
    """Decide uniqueness from the two series, with certified tails.

    Truncation depth adapts: K doubles until either the partial sum provably
    exceeds 1 (unique), or the tail bound is below tol/10 and the enclosure
    settles the comparison with 1.
    """
    K = 1024
    while True:
        s = potential.s_array(K)
        terms = np.exp(s)
        partial = float(terms.sum())
        weighted_partial = float((np.arange(1, K + 1) * terms).sum())
        if partial > 1.0 + tol:
            return TransitionDiagnostic(
                classification="unique", sum_partial=partial,
                sum_tail_bound=0.0, weighted_partial=weighted_partial,
                weighted_tail_bound=float(potential.weighted_tail_bound(1.0, K)),
                truncation_K=K, tol=tol)
        tail = potential.tail_bound(1.0, K, 0.0)
        if np.isfinite(tail) and tail <= tol / 10.0:
            wtail = float(potential.weighted_tail_bound(1.0, K))
            if partial + tail < 1.0 - tol:
                cls = "unique"
            elif partial >= 1.0 - tol and partial + tail <= 1.0 + tol:
                cls = "non-unique" if np.isfinite(wtail) else "unique"
            else:
                cls = "undetermined"
            return TransitionDiagnostic(
                classification=cls, sum_partial=partial, sum_tail_bound=tail,
                weighted_partial=weighted_partial, weighted_tail_bound=wtail,
                truncation_K=K, tol=tol)
        if K >= K_max:
            if not np.isfinite(tail):
                raise UndeterminedTail(
                    "family has no analytic tail bound for the defining series")
            raise TailUncertified(
                f"tail bound {tail} not below {tol / 10} at K={K_max}")
        K *= 2


def _series_at(potential, beta, P, K_start=2048, K_max=2 ** 23):
    """(partial, tail bound, K) for sum_k exp(beta s_k - (k+1) P)."""
    K = K_start
    while True:
        s = potential.s_array(K)
        partial = float(np.exp(beta * s - np.arange(1, K + 1) * P).sum())
        tail = potential.tail_bound(beta, K, P)
        if np.isfinite(tail) and tail <= 1e-15 * (partial + 1.0):
            return partial, tail, K
        if K >= K_max:
            if not np.isfinite(tail):
                raise UndeterminedTail(
                    "family has no analytic tail bound for this series")
            raise TailUncertified(
                f"tail bound {tail} not certified at K={K_max} (beta={beta}, P={P})")
        K *= 2


def pressure_renewal(potential: HofbauerPotential, beta, tol=1e-12,
                     K_max=2 ** 23) -> float:
    """Pressure of beta * phi from the renewal equation, certified.

    Returns 0 when the certified series sum_k exp(beta s_k) is at most
    1 + 2 tol (the true root is then at most log of that, below 2 tol).
    Otherwise brackets the unique positive root of the strictly decreasing
    G(P) = sum_k exp(beta s_k - (k+1) P) and bisects to width tol.
    """
    if beta < 0:
        raise OutOfRange("beta must be nonnegative")
    # phase 1: compare the P = 0 series with 1
    K = 4096
    while True:
        s = potential.s_array(K)
        partial = float(np.exp(beta * s).sum())
        if partial > 1.0 + 2.0 * tol:
            break
        tail = potential.tail_bound(beta, K, 0.0)
        if np.isfinite(tail) and partial + tail <= 1.0 + 2.0 * tol:
            return 0.0
        if K >= K_max:
            if not np.isfinite(tail):
                raise UndeterminedTail(
                    "family has no analytic tail bound at P = 0")
            raise TailUncertified(
                f"series vs 1 undecided at K={K_max} (enclosure "
                f"[{partial}, {partial + tail}])")
        K *= 2

    def deficit(P):
        partial, tail, _ = _series_at(potential, beta, P, K_max=K_max)
        return 1.0 - (partial + 0.5 * tail)

    # G(0) > 1 was just certified, so the root lies above P = 0
    return float(bracketed_root(deficit, 0.0, 1.0, xtol=tol,
                                f_lo=1.0 - partial)[0])


def _runlength_matrix(potential, beta, states):
    """Weighted transition matrix of the leading-run chain, states 0..states-1.

    State k holds the points opening with exactly k ones before a zero; the
    shift sends k to k - 1 and state 0 to any state.  Edge weights carry
    exp(beta * a_source), so weighted cycle sums reproduce Birkhoff sums of
    beta * phi over periodic points that contain a zero.
    """
    a = potential.a_array(states)
    w = np.exp(beta * a)
    T = np.zeros((states, states))
    T[0, :] = w[0]
    for k in range(1, states):
        T[k, k - 1] = w[k]
    return T


def pressure_periodic(potential: HofbauerPotential, beta, n, states=64) -> float:
    """Pressure estimate log(Z_n)/n from the period-n partition sum.

    Z_n sums exp(beta * S_n phi) over all period-n points.  Points containing
    a zero are the length-n cycles of the leading-run chain, so Z_n is a
    matrix trace over at most max(states, n) run states plus 1 for the
    all-ones fixed point (whose Birkhoff sum vanishes).  The trace is exact,
    not truncated: a period-n cycle never reaches run length n, so any state
    count >= n gives the identical value.

    Serves as the independent cross-check for pressure_renewal; the two agree
    up to the O(1/n) defect of finite-period sums.
    """
    if beta < 0:
        raise OutOfRange("beta must be nonnegative")
    if n < 1:
        raise OutOfRange("period must be at least 1")
    T = _runlength_matrix(potential, beta, max(int(states), int(n)))
    log_trace = log_trace_power(T, n)
    return float(np.logaddexp(log_trace, 0.0) / n)


@dataclass
class PressureCurve:
    """Sampled beta -> pressure map with slope data and the kink study."""

    betas: np.ndarray
    pressures: np.ndarray
    kink: float
    kink_steps: tuple
    left_quotients: dict     # step -> (P(kink-h) - P(kink)) / h
    right_quotients: dict    # step -> (P(kink+h) - P(kink)) / h

    def grid_quotients(self):
        """Per-point one-sided slopes along the sampled grid (nan at the ends)."""
        b, p = self.betas, self.pressures
        left = np.full_like(p, np.nan)
        right = np.full_like(p, np.nan)
        left[1:] = (p[1:] - p[:-1]) / (b[1:] - b[:-1])
        right[:-1] = (p[1:] - p[:-1]) / (b[1:] - b[:-1])
        return left, right


def pressure_curve(potential: HofbauerPotential, betas, kink=1.0,
                   kink_steps=(1e-2, 1e-3, 1e-4), tol=1e-12) -> PressureCurve:
    """Evaluate the renewal pressure on a grid and probe the kink.

    The left quotient (P(kink - h) - P(kink)) / h stays above a positive
    constant while the right quotient is identically zero past a first-order
    transition; both are difference-quotient estimates, reported with their
    step, not certified derivatives.
    """
    betas = np.asarray(sorted(betas), dtype=float)
    pressures = np.array([pressure_renewal(potential, b, tol=tol) for b in betas])
    p0 = pressure_renewal(potential, kink, tol=tol)
    left, right = {}, {}
    for h in kink_steps:
        left[h] = (pressure_renewal(potential, kink - h, tol=tol) - p0) / h
        right[h] = (pressure_renewal(potential, kink + h, tol=tol) - p0) / h
    return PressureCurve(betas=betas, pressures=pressures, kink=kink,
                         kink_steps=tuple(kink_steps), left_quotients=left,
                         right_quotients=right)
