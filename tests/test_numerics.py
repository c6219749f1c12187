"""The shared numerical primitives, checked against scipy and exact arithmetic."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from thermoshift import _numerics
from thermoshift._numerics import (EXPINT_RTOL, bracketed_root, expint,
                                   log_trace_power, logsumexp)
from thermoshift.errors import NoConvergence, OutOfRange
from thermoshift.hofbauer import CriticalPowerFamily

# ties with the maximum come from the sampled values
_ENTRY = st.one_of(st.sampled_from([0.0, 2.5, -3.0, 700.0]),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@given(st.lists(_ENTRY, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_logsumexp_is_bitwise_scipy(values):
    a = np.array(values)
    assert logsumexp(a) == float(scipy.special.logsumexp(a))


def logsumexp_with_mask(a):
    """The formula logsumexp used before it kept one float array: a bool mask
    of the maximal entries, then the np.where copy and its exp."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    k = float(np.count_nonzero(at_top))
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(rest / k) + np.log(k) + top)


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("values", [
    [1.5, 1.5, 1.5, -2.0],              # repeated maxima
    [3.0, -1.0, 3.0],
    [np.inf, 2.0, np.inf], [np.inf, -np.inf],
    [-np.inf, 4.0, -np.inf],
    [np.nan, 1.0], [1.0, np.nan, np.inf],
    [0.25], [-np.inf], [np.inf], [np.nan],
    [-np.inf, -np.inf, -np.inf],        # nan by the formula, not -inf
])
def test_logsumexp_is_bitwise_its_masked_formula(values):
    with np.errstate(all="ignore"):
        assert _bits(logsumexp(values)) == _bits(logsumexp_with_mask(values))
        if all(v == -np.inf for v in values):
            assert math.isnan(logsumexp(values))


def test_logsumexp_holds_one_float_array():
    a = np.random.default_rng(3).normal(size=2 ** 16)
    logsumexp(a)   # numpy's first-call caches
    tracemalloc.start()
    try:
        logsumexp(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a - top (8 bytes an entry) and the mask of the maxima (1 byte)
    assert peak < 9.5 * len(a)


def test_zeta_matches_scipy_with_certified_remainder():
    # a_0 = -log zeta(q), zeta(q) summed to k = 63 plus its Euler-Maclaurin
    # tail from 64: zeta within 2e-15 of scipy's moves a_0 by at most 2e-15
    # (1 + 2e-15), plus the roundings of the two logs
    grid = np.concatenate([np.linspace(1.001, 60.0, 600),
                           [1.0001, 1.5, 2.0, 3.0, 4.0, 10.0]])
    for q in grid:
        ref = float(scipy.special.zeta(q))
        a0 = CriticalPowerFamily(q).a0
        assert abs(a0 + math.log(ref)) <= 2.1e-15 + math.ulp(abs(a0)), q
        # the remainder |t_4| of the tail, B_8 / 8! (q)_7 64^(-q-7), that
        # _power_exp_tail drops
        t4 = math.prod(q + j for j in range(7)) * 64.0 ** (-q - 7.0) / 1209600.0
        assert t4 < 1e-16 * ref
    assert CriticalPowerFamily(3.0).a0 == -np.log(scipy.special.zeta(3.0))
    with pytest.raises(OutOfRange):
        CriticalPowerFamily(1.0)


def test_expint_matches_mpmath_within_its_stated_error():
    mpmath.mp.dps = 30
    rng = np.random.default_rng(8)
    orders = np.concatenate([rng.uniform(1.0, 6.0, 12),
                             [1.0 + 1e-9, 1.5, 2.0, 2.0 - 1e-12, 2.0 + 1e-12,
                              3.0, 3.0 - 1e-12, 3.0 + 1e-12, 4.0, 6.0]])
    args = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 0.5, 1.0 - 1e-12, 1.0,
                            2.0, 700.0],
                           10.0 ** rng.uniform(-9.0, 0.0, 10),
                           rng.uniform(1.0, 700.0, 6)])
    for p in orders:
        for z in args:
            mp_p, mp_z = mpmath.mpf(float(p)), mpmath.mpf(float(z))
            ref = 1 / (mp_p - 1) if z == 0 else mpmath.expint(mp_p, mp_z)
            assert abs(expint(p, z) - ref) <= EXPINT_RTOL * ref, (p, z)
    # the orders below 1 that the Euler-Maclaurin slopes use, and E_0
    for p, z in ((0.5, 0.3), (0.999, 2e-4), (1e-9, 0.7), (0.5, 3.0)):
        ref = mpmath.expint(mpmath.mpf(p), mpmath.mpf(z))
        assert abs(expint(p, z) - ref) <= 1e-13 * ref
    assert expint(0.0, 2.0) == math.exp(-2.0) / 2.0
    with pytest.raises(ValueError):
        expint(1.0, 0.0)
    with pytest.raises(ValueError):
        expint(2.0, -1.0)


def test_bracketed_root_expands_a_bracket_that_misses():
    up, steps_up, _ = bracketed_root(lambda x: x - 100.0, 0.0, 1.0, xtol=1e-12)
    assert abs(up - 100.0) <= 1e-12
    down, _, _ = bracketed_root(lambda x: x + 50.0, 0.0, 1.0, xtol=1e-12)
    assert abs(down + 50.0) <= 1e-12
    # a linear function is solved by the first Newton step after expansion
    newton, steps, _ = bracketed_root(lambda x: (x - 100.0, 1.0), 0.0, 1.0,
                                      ftol=1e-9, with_slope=True)
    assert abs(newton - 100.0) <= 1e-9 and steps < steps_up


_OFFSET = st.floats(1e-3, 60.0)


@given(a=st.floats(0.1, 10.0), b=st.floats(0.0, 5.0), r=st.floats(-50.0, 50.0),
       below=_OFFSET, above=_OFFSET, side=st.sampled_from([-1, 0, 1]),
       xtol=st.floats(1e-10, 1e-2), ftol=st.floats(0.0, 1e-3),
       give_f_lo=st.booleans())
@settings(max_examples=300, deadline=None)
def test_bracketed_root_ends_at_the_newton_point_of_its_last_evaluation(
        a, b, r, below, above, side, xtol, ftol, give_f_lo):
    # side 0: the start [lo, hi] holds r; -1 or 1: it lies wholly below or above
    lo, hi = {0: (r - below, r + above), -1: (r - below - above, r - below),
              1: (r + below, r + below + above)}[side]
    evaluations = []

    def f(x):
        value = a * (x - r) + b * (x - r) ** 3
        evaluations.append((x, value, a + 3.0 * b * (x - r) ** 2))
        return evaluations[-1][1:]

    f_lo = f(lo)[0] if give_f_lo else None
    evaluations.clear()
    root, steps, f_last = bracketed_root(f, lo, hi, xtol=xtol, ftol=ftol,
                                         with_slope=True, f_lo=f_lo)
    assert steps == len(evaluations)
    known = evaluations + ([(lo, f_lo)] if give_f_lo else [])
    proven = (max([x for x, v, *_ in known if v < 0], default=-math.inf),
              min([x for x, v, *_ in known if v > 0], default=math.inf))
    x, value, slope = evaluations[-1]
    assert f_last == value
    assert root == min(max(x - value / slope, proven[0]), proven[1])
    assert proven[0] <= root <= proven[1]


def test_bracketed_root_raises_at_the_step_cap(monkeypatch):
    calls = []

    def no_root(x):
        calls.append(x)
        return -1.0

    monkeypatch.setattr(_numerics, "ROOT_STEPS", 25)
    with pytest.raises(NoConvergence):
        bracketed_root(no_root, 0.0, 1.0)
    assert len(calls) == 25
    # a tolerance below the float spacing is never met: no unconverged value
    with pytest.raises(NoConvergence):
        bracketed_root(lambda x: x * x - 2.0, 0.0, 4.0, xtol=1e-300)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_log_trace_power_matches_exact_integer_power(seed, n):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    A = rng.integers(0, 4, size=(m, m))
    A[0, 0] = max(A[0, 0], 1)            # keep the trace positive
    exact = np.linalg.matrix_power(A.astype(object), n)
    ref = math.log(sum(exact[i, i] for i in range(m)))
    assert abs(log_trace_power(A, n) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_trace_power_of_an_underflowed_power_is_minus_inf():
    # A is rescaled before its first square: 1e-200 squared would underflow
    # to 0, but the trace of the power is 4e-400, and its log is finite
    ref = math.log(4.0) - 400.0 * math.log(10.0)
    assert abs(log_trace_power(np.full((2, 2), 1e-200), 2) - ref) <= 1e-12 * abs(ref)
    # a zero matrix, and a power whose one diagonal entry underflows against
    # its peak 1e-200: the trace is 0, its log -inf, with no nan or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_trace_power(np.array([[1e-200, 1.0], [0.0, 0.0]]), 2) == -math.inf
        assert log_trace_power(np.zeros((3, 3)), 5) == -math.inf


def test_log_trace_power_of_a_huge_matrix_does_not_overflow():
    # an entry past 1e154 once overflowed in the first square
    A = np.array([[1e300, 1.0], [1.0, 1e-300]])
    ref = 2.0 * 300.0 * math.log(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(log_trace_power(A, 2) - ref) <= 1e-12 * ref


def test_log_trace_power_does_not_overflow():
    # trace of the all-ones 2x2 matrix to the n is 2^n, far past the float range
    assert abs(log_trace_power(np.ones((2, 2)), 5000) / 5000 - math.log(2)) < 1e-14
