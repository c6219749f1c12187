"""The numerical primitives shared by the engines, one copy each, on numpy."""

from __future__ import annotations

import math

import numpy as np

from .errors import DepthTooLarge, NoConvergence


def logsumexp(a) -> float:
    """log sum_i exp(a_i) of a nonempty vector by scipy.special.logsumexp's
    formula, log1p(sum_{a_i < max} exp(a_i - max) / k) + log k + max with k
    maximal entries, so the two agree bit for bit."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    k = float(np.count_nonzero(at_top))
    rest = a - top   # the one float array: its exp is taken in place
    rest[at_top] = -np.inf - top   # nan where top is -inf, as in scipy
    rest = np.exp(rest, out=rest).sum()
    return float(np.log1p(rest / k) + np.log(k) + top)


def path_sum_price(n, width, budget):
    """Refuse a path sum to depth n over ``width`` table entries a step, before
    its first step: ValueError for n < 1, DepthTooLarge over n (width + 40)
    word-equivalents (a step, 5-8 us on 2 x86-64 vCPUs, is ~40 words)."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    if (price := n * (width + 40)) > budget:
        raise DepthTooLarge(f"the path sum to depth {n} costs {price} "
                            f"word-equivalents, over the budget {budget}")


# entries a chunk wherever a long array becomes Python objects
CHUNK = 1 << 14


def chunks(n, width=1):
    """The slices that cut range(n) into runs of CHUNK // width (at least
    one), the last shorter: rows of ``width`` entries, CHUNK entries a run."""
    run = max(1, CHUNK // width)
    return (slice(lo, min(lo + run, n)) for lo in range(0, n, run))


def ordered_sum(values, start=0.0):
    """start + v_0 + v_1 + ..., added left to right as a Python loop would.

    Carry the result into the next call to continue the same sum.  np.sum
    adds pairwise and the built-in sum compensates on Python >= 3.12, so
    neither reproduces the loop bit for bit."""
    return np.cumsum(np.concatenate(([start], values)))[-1]


EXPINT_RTOL = 1e-14


def _expint_cf(p, z):
    """E_p(z) for z >= 1 by the continued fraction DLMF 8.19.17, evaluated
    with the modified Lentz method until a step changes it by < 1e-16."""
    b = z + p
    c, d = 1.0 / 1e-300, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (p + i - 1.0)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-16:
            return h * math.exp(-z)
    raise NoConvergence(f"E_{p}({z}): continued fraction did not settle")


def expint(p, z) -> float:
    """Generalised exponential integral E_p(z) = int_1^inf exp(-z t) t^-p dt
    (DLMF 8.19.1) for real p >= 0 and z >= 0, with z > 0 when p <= 1.

    For z >= 1 it is the continued fraction DLMF 8.19.17.  Below 1 the order
    p is first lowered by an integer n to p0 in [1, 2) (or kept, if p < 1),
    and with a = 1 - p0, L = -log z, E_p0(z) = z^-a Gamma(a, z) is

        z^-a E_p0(1) + sum_j (-1)^j / j! * (z^-a - z^j) / (a + j),

    the sum being z^-a int_z^1 t^(a-1) e^-t dt expanded in e^-t.  Where
    |(a + j) L| < 1 the quotient is z^j expm1((a + j) L) / (a + j) (L at
    a + j = 0), so no term cancels however close p is to an integer.  The forward recurrence E_(q+1) = (e^-z - z E_q) / q
    (DLMF 8.19.12) then climbs back to p; for z < 1 and q >= 1 it damps
    errors by z / q and cancels at most a factor 2.5.  The relative error
    is below EXPINT_RTOL = 1e-14 for 1 < p <= 6 and 0 <= z <= 700 (checked
    against mpmath in the tests).  E_p(0) = 1 / (p - 1), and E_0(z) = e^-z / z.
    """
    p, z = float(p), float(z)
    if not (p >= 0.0 and z >= 0.0) or (z == 0.0 and p <= 1.0):
        raise ValueError(f"expint needs p >= 0 and z >= 0 (z > 0 for p <= 1), "
                         f"got p={p}, z={z}")
    if z == 0.0:
        return 1.0 / (p - 1.0)
    if p == 0.0:
        return math.exp(-z) / z
    if z >= 1.0:
        return _expint_cf(p, z)
    steps = max(int(math.floor(p)) - 1, 0)
    q = p - steps
    a, L = 1.0 - q, -math.log(z)
    za = math.exp(a * L)
    series, coef, j = 0.0, 1.0, 0
    while True:
        c, zj = a + j, z ** j
        if abs(c * L) < 1.0:
            quotient = zj * math.expm1(c * L) / c if c != 0.0 else L
        else:
            quotient = (za - zj) / c
        term = coef * quotient
        series += term
        if abs(term) <= 1e-17 * abs(series):
            break
        j += 1
        coef /= -j
    value = za * _expint_cf(q, 1.0) + series
    decay = math.exp(-z)
    for _ in range(steps):
        value = (decay - z * value) / q
        q += 1.0
    return value


def rescaled_product(X, Y):
    """(X @ Y / peak, log peak) for nonnegative X, Y, where peak is the largest
    entry of the product: the step of every matrix power that must not
    overflow however fast the powers grow.  A zero product, whose every entry
    underflowed, is returned as it is with log peak = -inf."""
    product = X @ Y
    peak = product.max()
    if peak == 0.0:
        return product, -math.inf
    product /= peak
    return product, np.log(peak)


def log_trace_power(A, n) -> float:
    """log trace(A^n), A nonnegative square, n >= 1, by repeated squaring with
    ``rescaled_product``, carrying the logs of the dropped scales; -inf when
    the trace is zero or underflowed.  A is rescaled to peak 1 first, so its
    first square cannot leave the float range."""
    result, rlog = np.eye(len(A)), 0.0
    base, blog = rescaled_product(result, np.asarray(A, dtype=float))
    m = int(n)
    while m:
        if m & 1:
            result, log_peak = rescaled_product(result, base)
            rlog = rlog + blog + log_peak
        m >>= 1
        if m:
            base, log_peak = rescaled_product(base, base)
            blog = blog * 2.0 + log_peak
    trace = np.trace(result)
    return float(np.log(trace) + rlog) if trace > 0 else -math.inf


ROOT_STEPS = 200   # evaluations a root search may spend


def bracketed_root(f, lo, hi, *, xtol=0.0, ftol=0.0, with_slope=False,
                   f_lo=None):
    """(root, evaluations of f) for an increasing f, searched from [lo, hi].

    Without a sign change the bracket moves outward, the old end becoming the
    other bound and the width doubling.  Inside, each step bisects, unless
    ``with_slope`` (f returns (value, slope)) gives a Newton point strictly
    inside.  Stops at |f| <= ftol or width <= xtol; raises NoConvergence after
    ROOT_STEPS evaluations.  ``f_lo`` is f(lo), or any number of its sign.
    """
    steps = 0

    def evaluate(x):
        nonlocal steps
        if steps == ROOT_STEPS:
            raise NoConvergence(f"no root within {ROOT_STEPS} evaluations")
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
