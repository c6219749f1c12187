"""The shared numerical primitives, checked against scipy and exact arithmetic."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from thermoshift import _numerics
from thermoshift._numerics import (EXPINT_RTOL, ZETA_N, bracketed_root, expint,
                                   log_trace_power, logsumexp, zeta)
from thermoshift.errors import NoConvergence

# ties with the maximum come from the sampled values
_ENTRY = st.one_of(st.sampled_from([0.0, 2.5, -3.0, 700.0]),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@given(st.lists(_ENTRY, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_logsumexp_is_bitwise_scipy(values):
    a = np.array(values)
    assert logsumexp(a) == float(scipy.special.logsumexp(a))


def test_zeta_matches_scipy_with_certified_remainder():
    grid = np.concatenate([np.linspace(1.001, 60.0, 600),
                           [1.0001, 1.5, 2.0, 3.0, 4.0, 10.0]])
    for q in grid:
        ref = float(scipy.special.zeta(q))
        assert abs(zeta(q) - ref) <= 2e-15 * ref
        # the truncation bound stated in zeta's docstring, zeta(17) rounded up
        bound = (2.0 * 1.0000077 * math.prod(q + j for j in range(16))
                 * ZETA_N ** (-q - 16.0) / (2.0 * math.pi) ** 17)
        assert bound < 1e-16 * ref
    assert zeta(3.0) == float(scipy.special.zeta(3.0))
    with pytest.raises(ValueError):
        zeta(1.0)


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
    up, steps_up = bracketed_root(lambda x: x - 100.0, 0.0, 1.0, xtol=1e-12)
    assert abs(up - 100.0) <= 1e-12
    down, _ = bracketed_root(lambda x: x + 50.0, 0.0, 1.0, xtol=1e-12)
    assert abs(down + 50.0) <= 1e-12
    # a linear function is solved by the first Newton step after expansion
    newton, steps = bracketed_root(lambda x: (x - 100.0, 1.0), 0.0, 1.0,
                                   ftol=1e-9, with_slope=True)
    assert abs(newton - 100.0) <= 1e-9 and steps < steps_up


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
    # 1e-200 squared underflows to 0: the trace is 0, its log -inf, no nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_trace_power(np.full((2, 2), 1e-200), 2) == -math.inf
        assert log_trace_power(np.zeros((3, 3)), 5) == -math.inf


def test_log_trace_power_does_not_overflow():
    # trace of the all-ones 2x2 matrix to the n is 2^n, far past the float range
    assert abs(log_trace_power(np.ones((2, 2)), 5000) / 5000 - math.log(2)) < 1e-14
