"""The numerical primitives shared by the engines, one copy each, on numpy."""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def logsumexp(a) -> float:
    """log sum_i exp(a_i) of a nonempty vector by scipy.special.logsumexp's
    formula, log1p(sum_{a_i < max} exp(a_i - max) / k) + log k + max with k
    maximal entries, so the two agree bit for bit."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    k = float(np.count_nonzero(at_top))
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(rest / k) + np.log(k) + top)


def ordered_sum(values, start=0.0):
    """start + v_0 + v_1 + ..., added left to right as a Python loop would.

    Carry the result into the next call to continue the same sum.  np.sum
    adds pairwise and the built-in sum compensates on Python >= 3.12, so
    neither reproduces the loop bit for bit."""
    return np.cumsum(np.concatenate(([start], values)))[-1]


ZETA_N = 10
_BERNOULLI_DIV = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,   # (2k)!/B_2k
                  -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12)


def zeta(q) -> float:
    """Riemann zeta(q), q > 1, by Euler-Maclaurin (DLMF 25.2.9) at N = ZETA_N
    with 8 Bernoulli terms.  As |B~_17| <= 2 * 17! zeta(17) / (2 pi)^17, the
    dropped remainder is at most 2 zeta(17) q (q+1)...(q+15) N^(-q-16) / (2 pi)^17,
    below 1e-16 zeta(q) for every q > 1."""
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"zeta needs q > 1, got {q}")
    head = ZETA_N ** -q
    terms, rising, power = [], 1.0, head
    for j, div in enumerate(_BERNOULLI_DIV):
        rising *= q + 2 * j
        power /= ZETA_N
        terms.append(rising * power / div)
        rising *= q + (2 * j + 1)
        power /= ZETA_N
    # smallest terms first and the leading 1 last keep the rounding low
    tail = sum(reversed(terms)) + (head * ZETA_N / (q - 1.0) - 0.5 * head)
    for k in range(ZETA_N, 1, -1):
        tail += float(k) ** -q
    return 1.0 + tail


def rescaled_product(X, Y):
    """(X @ Y / peak, log peak) for nonnegative X, Y, where peak is the largest
    entry of the product: the step of every matrix power that must not
    overflow however fast the powers grow."""
    product = X @ Y
    peak = product.max()
    product /= peak
    return product, np.log(peak)


def log_trace_power(A, n) -> float:
    """log trace(A^n), A nonnegative square, n >= 1, by repeated squaring with
    ``rescaled_product``, carrying the logs of the dropped scales."""
    result, rlog = np.eye(len(A)), 0.0
    base, blog = np.array(A, dtype=float), 0.0
    m = int(n)
    while m:
        if m & 1:
            result, log_peak = rescaled_product(result, base)
            rlog = rlog + blog + log_peak
        m >>= 1
        if m:
            base, log_peak = rescaled_product(base, base)
            blog = blog * 2.0 + log_peak
    return float(np.log(np.trace(result)) + rlog)


def bracketed_root(f, lo, hi, *, xtol=0.0, ftol=0.0, with_slope=False,
                   f_lo=None, max_steps=200):
    """(root, evaluations of f) for an increasing f, searched from [lo, hi].

    Without a sign change the bracket moves outward, the old end becoming the
    other bound and the width doubling.  Inside, each step bisects, unless
    ``with_slope`` (f returns (value, slope)) gives a Newton point strictly
    inside.  Stops at |f| <= ftol or width <= xtol; raises NoConvergence after
    ``max_steps`` evaluations.  ``f_lo`` is f(lo), or any number of its sign.
    """
    steps = 0

    def evaluate(x):
        nonlocal steps
        if steps == max_steps:
            raise NoConvergence(f"no root within {max_steps} evaluations")
        steps += 1
        return f(x) if with_slope else (f(x), None)

    if f_lo is None:
        f_lo = evaluate(lo)[0]
    f_hi = evaluate(hi)[0]
    while f_lo > 0 or f_hi < 0:
        if f_lo > 0:
            lo, hi, f_hi = lo - 2.0 * (hi - lo), lo, f_lo
            f_lo = evaluate(lo)[0]
        else:
            lo, hi, f_lo = hi, hi + 2.0 * (hi - lo), f_hi
            f_hi = evaluate(hi)[0]
    x = 0.5 * (lo + hi)
    while hi - lo > xtol:
        fx, slope = evaluate(x)
        if abs(fx) <= ftol:
            break
        if fx < 0:
            lo = x
        else:
            hi = x
        newton = x - fx / slope if slope else None
        x = newton if newton is not None and lo < newton < hi else 0.5 * (lo + hi)
    return x, steps
