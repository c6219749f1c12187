"""Renewal pressure, phase transition diagnosis, and the periodic cross-check."""

import itertools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

from thermoshift import (CriticalPowerFamily, InverseSquareFamily, diagnose,
                         pressure_curve, pressure_periodic, pressure_renewal)
from thermoshift import hofbauer
from thermoshift.errors import OutOfRange, UndeterminedTail
from thermoshift.hofbauer import HofbauerPotential, RenewalSeries

P_08 = 0.10838656549867665  # renewal root for the cubic family at beta = 0.8


def cubic():
    return CriticalPowerFamily(exponent=3.0)


# -- the family itself ---------------------------------------------------------------


def test_s_array_matches_cumsum_of_a():
    fam = cubic()
    assert np.max(np.abs(fam.s_array(500) - np.cumsum(fam.a_array(500)))) < 1e-12


def series_closed_form(fam, beta):
    """Oracle: sum_k exp(beta s_k) = exp(beta a_0) zeta(q beta), q beta > 1."""
    return float(np.exp(beta * fam.a0)) * float(zeta(fam.exponent * beta))


def test_critical_series_sums_to_one():
    assert abs(series_closed_form(cubic(), 1.0) - 1.0) < 1e-14
    # depression shifts the sum to exp(-d)
    fam = CriticalPowerFamily(exponent=3.0, depression=0.25)
    assert abs(series_closed_form(fam, 1.0) - np.exp(-0.25)) < 1e-14


def test_variation_decay_is_logarithmic():
    fam = cubic()
    # the variation over points sharing the first k >= 1 symbols is |a_k|
    a = fam.a_array(41)
    for k in (1, 5, 40):
        assert abs(-a[k] - 3.0 * np.log1p(1.0 / k)) < 1e-15


def test_birkhoff_sups_hand_words():
    fam = cubic()
    a = fam.a_array(6)
    cases = {
        (0,): a[0],
        (1,): 0.0,
        (1, 1, 0, 1): a[2] + a[1] + a[0],
        (0, 0, 1, 1, 1): 2 * a[0],
    }
    for word, sup in cases.items():
        (got,) = fam.birkhoff_sups(np.array([word]))
        assert abs(got - sup) < 1e-15


def test_scale_is_linear_on_extremes():
    fam = cubic()
    scaled = fam.scale(2.5)
    words = np.array([(1, 1, 0, 1, 0), (0, 1, 1, 1, 1)])
    sups, base = scaled.birkhoff_sups(words), fam.birkhoff_sups(words)
    assert np.max(np.abs(sups - 2.5 * base)) < 1e-15
    assert np.max(np.abs(scaled.a_array(50) - 2.5 * fam.a_array(50))) < 1e-15
    with pytest.raises(OutOfRange):
        fam.scale(0.0)
    with pytest.raises(OutOfRange):
        CriticalPowerFamily(exponent=0.9)
    with pytest.raises(OutOfRange):
        InverseSquareFamily(scale=-1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_families_reject_non_finite_parameters(bad):
    with pytest.raises(OutOfRange, match="finite"):
        CriticalPowerFamily(exponent=bad)
    with pytest.raises(OutOfRange, match="finite"):
        CriticalPowerFamily(depression=bad)
    with pytest.raises(OutOfRange, match="finite"):
        InverseSquareFamily(scale=bad)


# -- uniqueness diagnosis ---------------------------------------------------------------


def test_diagnose_critical_cubic_is_non_unique():
    report = diagnose(cubic())
    assert report.classification == "non-unique"
    assert abs(report.sum_partial + report.sum_tail_bound - 1.0) < 1e-8
    assert np.isfinite(report.weighted_tail_bound)
    # the weighted series converges to zeta(2)/zeta(3) for this family
    target = float(zeta(2.0) / zeta(3.0))
    assert abs(report.weighted_partial + report.weighted_tail_bound - target) < 1e-2


def test_diagnose_inverse_square_is_unique():
    report = diagnose(InverseSquareFamily(scale=1.0))
    assert report.classification == "unique"
    assert report.sum_partial > 1.0


def test_diagnose_depressed_family_is_unique():
    report = diagnose(CriticalPowerFamily(exponent=3.0, depression=0.1))
    assert report.classification == "unique"
    assert report.sum_partial + report.sum_tail_bound < 1.0


def test_diagnose_critical_with_infinite_mean_return():
    # sum exp(s_k) = 1 but the weighted series diverges (q <= 2): the
    # equilibrium state stays unique, carried by the fixed point.  The
    # K^(-1/2) tail cannot certify 1e-8, and the refusal is explicit
    from thermoshift.errors import TailUncertified

    with pytest.raises(TailUncertified):
        diagnose(CriticalPowerFamily(exponent=1.5))
    report = diagnose(CriticalPowerFamily(exponent=1.5), tol=5e-3)
    assert report.classification == "unique"
    assert not np.isfinite(report.weighted_tail_bound)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_diagnose_refuses_a_tol_that_is_not_positive_finite(tol):
    # tol -1 once classified the critical family "unique", tol 0 or nan ran
    # K to 2^22 before failing
    with pytest.raises(OutOfRange, match="positive finite"):
        diagnose(cubic(), tol=tol)


class BareCubic(HofbauerPotential):
    """Same a_k as the cubic family but with no analytic tail bounds."""

    def a_array(self, K):
        return cubic().a_array(K)


def test_missing_tail_bound_is_refused_not_guessed(monkeypatch):
    monkeypatch.setattr(hofbauer, "_DIAGNOSE_K_MAX", 2 ** 13)
    monkeypatch.setattr(hofbauer, "_SERIES_K_MAX", 2 ** 13)
    with pytest.raises(UndeterminedTail):
        diagnose(BareCubic())
    with pytest.raises(UndeterminedTail):
        pressure_renewal(BareCubic(), 1.0)


def test_default_tail_centres_the_certified_bound():
    fam = InverseSquareFamily(scale=1.0)
    s_K = float(fam.s_array(101)[100])
    assert fam.tail_bounds(0.5, 100) == (np.inf, np.inf)
    # no family bound: the geometric bound from nonincreasing s_k
    bound = np.exp(0.5 * s_K) * np.exp(-101 * 0.01) / (-np.expm1(-0.01))
    estimate, error, slope = fam.tail(0.5, 100, 0.01, s_K)
    assert estimate == error == 0.5 * bound
    assert slope == -101 * estimate
    # nothing certifies the bare family at P = 0
    assert BareCubic().tail(1.0, 100, 0.0, s_K) == (np.inf, np.inf, -np.inf)


def test_inverse_square_pressures_unchanged():
    fam = InverseSquareFamily(scale=1.0)
    frozen = {0.5: 0.4321727899646248, 1.0: 0.238230097448195,
              2.0: 0.04940908970320379, 4.0: 0.0014659289422525035}
    for beta, p in frozen.items():
        assert abs(pressure_renewal(fam, beta) - p) < 1e-12


def test_positive_pressure_needs_no_family_tail(monkeypatch):
    # for P > 0 the geometric tail certifies on its own, so the bare family
    # reproduces the closed-form route wherever the root is positive
    monkeypatch.setattr(hofbauer, "_SERIES_K_MAX", 2 ** 16)
    assert abs(pressure_renewal(BareCubic(), 0.8) - P_08) < 1e-9


# -- renewal pressure ----------------------------------------------------------------


def test_pressure_at_beta_zero_is_topological_entropy():
    assert abs(pressure_renewal(cubic(), 0.0) - np.log(2.0)) < 1e-9


def test_pressure_vanishes_past_the_transition():
    fam = cubic()
    for beta in (1.0, 1.2, 1.5):
        assert pressure_renewal(fam, beta) == 0.0


def test_pressure_frozen_value_below_transition():
    assert abs(pressure_renewal(cubic(), 0.8) - P_08) < 1e-9
    assert abs(pressure_renewal(cubic(), 0.9) - 0.05203476018186848) < 1e-12


# -- the certified series evaluator --------------------------------------------------


def mp_series(p, P, coef):
    """coef * sum_{n >= 1} n^-p e^-nP = coef Li_p(e^-P), in mpmath."""
    return coef * mpmath.polylog(p, mpmath.exp(-mpmath.mpf(P)))


@pytest.mark.parametrize("beta", [0.5, 0.8, 1.0 - 1e-6, 1.0, 1.4])
def test_series_matches_lerch_oracle_within_remainder_bound(beta):
    mpmath.mp.dps = 30
    fam = cubic()
    series = RenewalSeries(fam, beta)
    # the family's own coefficient and exponent, so that only the summation
    # of the tail is under test
    coef = mpmath.mpf(math.exp(beta * fam.a0))
    p, N = mpmath.mpf(fam.exponent * beta), series.K + 1
    for P in (0.0, 1e-9, 1e-6, 1e-4, 1e-2, 0.1, math.log(2.0)):
        partial, estimate, error, slope = series(P, lambda *_: True)
        x = mpmath.exp(-mpmath.mpf(P))
        # sum_{n >= N} n^-p x^n = x^N Phi(x, p, N), the Lerch transcendent
        tail = coef * (mpmath.zeta(p, N) if P == 0.0
                       else x ** N * mpmath.lerchphi(x, p, N))
        assert abs(estimate - float(tail)) <= error, P
        total = float(mp_series(p, P, coef))
        assert abs(partial + estimate - total) <= error + 2e-14 * total
        d_total = -float(coef * mpmath.polylog(p - 1, x)) if P > 0 else None
        if d_total is not None:
            assert abs(slope - d_total) <= 1e-12 * abs(d_total)


@pytest.mark.parametrize("j", [4, 5, 6, 7, 8])
def test_roots_near_the_kink_are_fast_and_within_tol(j):
    mpmath.mp.dps = 30
    beta = 1.0 - 10.0 ** -j
    fam = cubic()
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        P = pressure_renewal(fam, beta)
        elapsed.append(time.perf_counter() - t0)
    p = 3 * mpmath.mpf(beta)
    coef = mpmath.zeta(3) ** -mpmath.mpf(beta)
    root = mpmath.findroot(lambda x: mp_series(p, x, coef) - 1, P)
    assert abs(P - float(root)) <= 1e-12
    assert min(elapsed) < 0.05


def test_cubic_family_evaluations_stay_at_depth_4096(monkeypatch):
    fam = cubic()
    depths = []
    call = RenewalSeries.__call__

    def spy(self, P, settled):
        out = call(self, P, settled)
        depths.append(self.K)
        return out

    monkeypatch.setattr(RenewalSeries, "__call__", spy)
    for beta in (0.0, 0.3, 0.8, 0.9, 1.0 - 1e-8, 1.0, 1.5):
        pressure_renewal(fam, beta)
    # and directly at every scale of P down to 0, for p = 3 beta >= 1.5
    for beta in (0.5, 0.8, 1.0 - 1e-8, 1.0, 2.0):
        series = RenewalSeries(fam, beta)
        for P in (0.0, 1e-300, 1e-12, 1e-6, 1e-2, 1.0):
            series(P, hofbauer._tail_settled)
    assert max(depths) == 4096
    # diagnose keeps its own schedule
    assert diagnose(fam).truncation_K == 32768


def test_periodic_oracle_never_uses_the_series_evaluator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call the renewal series")

    monkeypatch.setattr(RenewalSeries, "__init__", refuse)
    with pytest.raises(AssertionError):
        pressure_renewal(cubic(), 0.8)
    assert abs(pressure_periodic(cubic(), 0.8, 18) - 0.11553570842560774) < 1e-12


def test_pressure_monotone_convex_nonnegative():
    fam = cubic()
    betas = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    values = [pressure_renewal(fam, b) for b in betas]
    assert all(v >= 0.0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    for i in range(1, len(betas) - 1):
        mid = values[i]
        chord = 0.5 * (values[i - 1] + values[i + 1])
        assert mid <= chord + 1e-9


def test_pressure_rejects_negative_beta():
    with pytest.raises(OutOfRange):
        pressure_renewal(cubic(), -0.1)
    with pytest.raises(OutOfRange):
        pressure_periodic(cubic(), -0.1, 8)
    with pytest.raises(OutOfRange):
        pressure_periodic(cubic(), 0.5, 0)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_pressure_rejects_non_finite_beta(beta):
    with pytest.raises(OutOfRange, match="finite"):
        pressure_renewal(cubic(), beta)
    with pytest.raises(OutOfRange, match="finite"):
        pressure_periodic(cubic(), beta, 5)


@pytest.mark.parametrize("beta", [300.0, 1000.0, 1e4, 1e44])
def test_periodic_pressure_is_zero_when_the_weights_underflow(beta):
    # every run-length weight exp(beta * a_k) underflows: the trace is 0, so
    # Z_n holds only the all-ones fixed point, not a nan from a 0 / 0 rescale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pressure_periodic(cubic(), beta, 18) == 0.0


@pytest.mark.parametrize("beta", [1e44, 1e300])
def test_huge_beta_has_zero_pressure_fast(beta):
    # past p ~ 1.1e44 the Euler-Maclaurin terms overflow while f(K+1)
    # underflows; the tail is then 0 within the least subnormal, not nan
    fam = cubic()
    estimate, error, _ = fam.tail(beta, 4096, 0.0, float(fam.s_array(4097)[4096]))
    assert estimate == 0.0 and 0.0 <= error <= math.ulp(0.0)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert pressure_renewal(fam, beta) == 0.0
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.05


# -- periodic cross-check ---------------------------------------------------------------


def brute_periodic_sum(fam, beta, n):
    """log(Z_n)/n over all 2^n period-n points, runs read cyclically."""
    a = fam.a_array(n + 1)
    total = 0.0
    for word in itertools.product((0, 1), repeat=n):
        if all(s == 1 for s in word):
            total += 1.0  # the fixed point contributes exp(0)
            continue
        s = 0.0
        for i in range(n):
            run = 0
            while word[(i + run) % n] == 1:
                run += 1
            s += a[run]
        total += np.exp(beta * s)
    return float(np.log(total) / n)


@pytest.mark.parametrize("n", [6, 10])
def test_periodic_sum_matches_brute_enumeration(n):
    fam = cubic()
    for beta in (0.4, 0.8, 1.1):
        assert abs(pressure_periodic(fam, beta, n) -
                   brute_periodic_sum(fam, beta, n)) < 1e-12


def test_periodic_sum_counts_points_at_beta_zero():
    fam = cubic()
    for n in (3, 9, 17):
        assert abs(pressure_periodic(fam, 0.0, n) - np.log(2.0)) < 1e-12


def test_periodic_sum_state_count_invariance(monkeypatch):
    fam = cubic()
    vals = []
    for states in (5, 64, 300):
        monkeypatch.setattr(hofbauer, "_RUN_STATES", states)
        vals.append(pressure_periodic(fam, 0.8, 18))
    assert max(vals) - min(vals) < 1e-14


def test_periodic_sums_converge_to_renewal_pressure():
    fam = cubic()
    p = pressure_renewal(fam, 0.8)
    gaps = [abs(pressure_periodic(fam, 0.8, n) - p) for n in (18, 64, 256)]
    assert gaps[0] < 5e-2
    assert gaps[1] < gaps[0]
    assert gaps[2] < 1e-10


# -- the kink at beta = 1 -----------------------------------------------------------------


def test_kink_quotients():
    fam = cubic()
    curve = pressure_curve(fam, betas=[0.5, 0.8, 1.0, 1.2],
                           kink=1.0, kink_steps=(1e-2, 1e-3, 1e-4))
    for h, q in curve.right_quotients.items():
        assert q == 0.0
    for h, q in curve.left_quotients.items():
        assert q > 0.1
    frozen = {1e-2: 0.499205440564765,
              1e-3: 0.49630801231614896,
              1e-4: 0.49588927595323185}
    for h, q in frozen.items():
        assert abs(curve.left_quotients[h] - q) < 1e-8
    assert np.all(np.diff(curve.pressures) <= 1e-12)
    assert curve.pressures[-1] == 0.0


def test_pressure_curve_reuses_the_computed_grid(monkeypatch):
    fam = cubic()
    betas = [0.8, 1.0, 0.9]
    grid = [pressure_renewal(fam, b) for b in betas]
    solved = []
    real = hofbauer.pressure_renewal

    def spy(potential, beta, tol=1e-12):
        solved.append(beta)
        return real(potential, beta, tol=tol)

    monkeypatch.setattr(hofbauer, "pressure_renewal", spy)
    curve = pressure_curve(fam, betas, kink_steps=(1e-2,), pressures=grid)
    assert solved == [1.0 - 1e-2, 1.0 + 1e-2]
    assert list(curve.betas) == [0.8, 0.9, 1.0]
    assert list(curve.pressures) == [grid[0], grid[2], grid[1]]
    solved.clear()
    again = pressure_curve(fam, betas, kink_steps=(1e-2,))
    assert sorted(solved) == [0.8, 0.9, 1.0 - 1e-2, 1.0, 1.0 + 1e-2]
    assert again.left_quotients == curve.left_quotients


def test_grid_quotients_shape():
    curve = pressure_curve(cubic(), betas=[0.2, 0.6, 1.0], kink_steps=(1e-2,))
    # the pressure falls along the grid: every one-sided slope is <= 0
    slopes = np.diff(curve.pressures) / np.diff(curve.betas)
    assert len(slopes) == 2 and np.all(slopes <= 0.0)
