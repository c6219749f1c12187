"""Spectral pressure and Gibbs states against dense eigensolves.

The oracles are numpy's full eigendecomposition of the weighted transition
matrix, closed-form eigendata and a plain power loop written here; none of
them shares code with ``leading_eigen``'s power steps and rescaled squarings.
Gibbs chains on wide weights are compared entry by entry with 60-digit mpmath
eigenvectors.
"""

import itertools
import time
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (LocallyConstantPotential, full_shift, gibbs_bounds,
                         gibbs_measure, golden_mean_shift, pressure,
                         stationary_vector)
from thermoshift import transfer
from thermoshift.errors import (DepthTooLarge, NoConvergence, NotPrimitive,
                               OutOfRange)
from thermoshift.potentials import recode_range2
from thermoshift.sft import SubshiftOfFiniteType
from thermoshift.transfer import build, leading_eigen
from thermoshift.variational import ising_potential, ising_pressure_exact

from gibbs_oracle import mp_perron
from test_enumeration import random_primitive_sft

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def dense_log_radius(sft, pot):
    pot2 = pot.with_range(2)
    A = np.zeros((sft.m, sft.m))
    for (a, b), val in pot2.table.items():
        A[a, b] = np.exp(val)
    return float(np.log(np.max(np.abs(np.linalg.eigvals(A)))))


def run_weights():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential(
        sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    return sft, pot


def test_pressure_matches_dense_eig_run_weights():
    sft, pot = run_weights()
    assert abs(pressure(pot) - dense_log_radius(sft, pot)) < 1e-10


def test_pressure_matches_dense_eig_ising():
    sft = full_shift(2, labels=["+", "-"])
    for beta in (0.5, 1.0, 2.0):
        pot = ising_potential(beta)
        p = pressure(pot)
        assert abs(p - dense_log_radius(sft, pot)) < 1e-10
        assert abs(p - ising_pressure_exact(beta)) < 1e-10


def test_pressure_zero_potential_is_entropy():
    sft = golden_mean_shift()
    p = pressure(LocallyConstantPotential.zero(sft))
    assert abs(p - np.log(GOLDEN)) < 1e-12


def test_constant_shift_moves_pressure_by_constant():
    _, pot = run_weights()
    c = 0.37
    shifted = pot + LocallyConstantPotential.from_function(pot.sft, 1,
                                                           lambda w: c)
    assert abs(pressure(shifted) - (pressure(pot) + c)) < 1e-12


def widened(tol, m):
    """Largest width hi / lo of a bracket the engine returns at tol on an
    m x m matrix: tol, each end moved out by gamma_(m+1), the rounding bound
    of a ratio (A v)_a / v_a, and then one ulp, which also covers the
    rounding of the move."""
    gamma = (m + 1) * EPS / 2 / (1 - (m + 1) * EPS / 2)
    return (1.0 + tol) * (1.0 + 2 * gamma + 4 * EPS)


def test_leading_eigen_contract():
    _, pot = run_weights()
    tm = build(pot)
    eig = leading_eigen(tm)
    # the bracket holds the ratios of v and lam, and is tol wide plus the
    # rounding of the ratios
    ratios = tm @ eig.v / eig.v
    assert eig.lo < ratios.min() <= ratios.max() < eig.hi
    assert eig.lo <= eig.lam <= eig.hi <= widened(1e-13, 2) * eig.lo
    assert abs(eig.v.sum() - 1.0) < 1e-12
    assert np.all(eig.v > 0)
    assert np.max(np.abs(tm @ eig.v - eig.lam * eig.v)) < 1e-12 * eig.lam


def test_build_recodes_wide_potentials():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_function(
        sft, 3, lambda w: 0.1 * w[0] - 0.3 * w[2])
    # the golden mean shift has three admissible 2-words, the block states
    assert build(pot).shape == (3, 3)
    assert np.array_equal(build(pot), build(recode_range2(pot)))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_build_refuses_weights_outside_the_float_range(sign):
    # exp(-800) underflows to 0 and exp(800) overflows: either would drop a
    # transition or poison the matrix, so both raise, with no RuntimeWarning
    sft = full_shift(3)
    pot = LocallyConstantPotential.from_function(
        sft, 2, lambda w: sign * 800.0 * (w[0] != w[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            build(pot)
        with pytest.raises(OutOfRange):
            gibbs_measure(pot)
    # a weight just inside the range is kept
    near = LocallyConstantPotential.from_function(
        sft, 2, lambda w: sign * 700.0 * (w[0] != w[1]))
    assert np.all(build(near) > 0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_that_is_not_positive_finite_is_refused(tol):
    # tol 0 would spin max_iter power rounds
    _, pot = run_weights()
    start = time.perf_counter()
    with pytest.raises(OutOfRange):
        leading_eigen(build(pot), tol=tol)
    assert time.perf_counter() - start < 1.0


def test_gibbs_measure_is_stationary():
    _, pot = run_weights()
    mu = gibbs_measure(pot)
    pi, P = mu.pi, mu.P
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-14
    # pi inherits the power-iteration stopping residual, tol * lam = 1e-13
    assert np.max(np.abs(pi @ P - pi)) < 1e-13
    assert abs(pi.sum() - 1.0) < 1e-14
    assert np.all(pi > 0)


def test_gibbs_measure_attains_the_pressure():
    # the variational functional h + integral(phi) equals P at the Gibbs state
    cases = [run_weights()[1],
             LocallyConstantPotential.zero(golden_mean_shift()),
             ising_potential(1.0)]
    for pot in cases:
        mu = gibbs_measure(pot)
        value = mu.entropy() + mu.expectation() - mu.pressure
        assert abs(value) < 1e-10


def test_parry_measure_closed_form():
    sft = golden_mean_shift()
    mu = gibbs_measure(LocallyConstantPotential.zero(sft))
    g = GOLDEN
    P_expected = np.array([[1.0 / g, 1.0 / g ** 2], [1.0, 0.0]])
    pi_expected = np.array([g ** 2, 1.0]) / (1.0 + g ** 2)
    assert np.max(np.abs(mu.P - P_expected)) < 1e-12
    assert np.max(np.abs(mu.pi - pi_expected)) < 1e-12


def test_gibbs_ratio_is_exactly_one_on_full_shift():
    # every word ties, so both extremes are at the first word, 0...0; on the
    # 2- and 3-shift each step cancels exactly, so 60 of them still give 1.0
    for m in (2, 3):
        mu = gibbs_measure(LocallyConstantPotential.zero(full_shift(m)))
        for n in (1, 4, 8, 12, 60):
            b = gibbs_bounds(mu, n)
            assert b.c_min == 1.0 and b.c_max == 1.0
            assert b.argmin == b.argmax == (0,) * n


def envelope(mu):
    # telescoping the transition products leaves u[first] * v[last] * tail,
    # with u = pi / v the left vector, so state-wise extremes of those
    # factors bound the enumerated ratios
    eig = mu.eigen
    u = mu.pi / eig.v
    pot2 = mu.potential.with_range(2)
    sft = mu.potential.sft
    tail = np.array([np.exp(mu.pressure -
                            max(v for w, v in pot2.table.items() if w[0] == a))
                     for a in range(sft.m)])
    last = eig.v * tail
    return (float(u.min() * last.min()), float(u.max() * last.max()))


@pytest.mark.parametrize("case", ["parry", "ising"])
def test_gibbs_ratios_inside_analytic_envelope(case):
    if case == "parry":
        sft = golden_mean_shift()
        pot = LocallyConstantPotential.zero(sft)
    else:
        sft = full_shift(2, labels=["+", "-"])
        pot = ising_potential(1.0)
    mu = gibbs_measure(pot)
    b = gibbs_bounds(mu, 10)
    lo, hi = envelope(mu)
    assert 0.0 < b.c_min <= b.c_max
    assert b.c_min >= lo - 1e-9
    assert b.c_max <= hi + 1e-9


def test_gibbs_bounds_depth_budget():
    sft = full_shift(2)
    mu = gibbs_measure(LocallyConstantPotential.zero(sft))
    with pytest.raises(DepthTooLarge):
        gibbs_bounds(mu, 30, budget=1000)


def rpf_convergence(A, f, n):
    """Sup-norm distance between lam^-n L^n f and its limit (sum_a f_a v_a) u,
    for the operator (Lf)(b) = sum_a A[a, b] f(a) of the transfer matrix A,
    with u the left vector, u . v = 1: the stationary vector of the rates
    A[a, b] v_b is u up to scale.  lam is accurate to the bracket's width,
    and lam^-n multiplies that error by n, so the limit is solved at tol
    1e-15, below the distances measured."""
    eigen = leading_eigen(A, tol=1e-15)
    u = stationary_vector(A * eigen.v[None, :])
    u = u / float(u @ eigen.v)
    iterate = f.copy()
    for _ in range(n):
        iterate = A.T @ iterate / eigen.lam
    return float(np.max(np.abs(iterate - float(f @ eigen.v) * u)))


def spectral_ratio(A):
    """|second eigenvalue| / spectral radius of A, from the full spectrum."""
    eigs = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
    return float(eigs[1] / eigs[0])


def test_iterates_converge_at_the_spectral_rate():
    _, pot = run_weights()
    tm = build(pot)
    f = np.array([1.0, 0.3])
    d = {n: rpf_convergence(tm, f, n) for n in (5, 10, 20, 30)}
    assert d[30] < d[20] < d[10] < d[5]
    assert d[30] < 1e-9
    rate = (d[30] / d[10]) ** (1.0 / 20.0)
    assert rate <= spectral_ratio(tm) * 1.05


def test_rpf_convergence_does_not_overflow():
    # lam = 2 e^5 on the full 2-shift: lam^130 alone is past the float range
    sft = full_shift(2)
    pot = LocallyConstantPotential(
        sft, 2, {(0, 0): 5.0, (0, 1): 5.3, (1, 0): 4.8, (1, 1): 5.1})
    tm = build(pot)
    f = np.array([1.0, 0.3])
    with np.errstate(over="raise", invalid="raise"):
        far, near = rpf_convergence(tm, f, 500), rpf_convergence(tm, f, 30)
    assert np.isfinite(far) and far <= near


def random_range2(seed):
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        sft = golden_mean_shift()
    else:
        sft = full_shift(2)
    table = {}
    for a in range(sft.m):
        for b in np.flatnonzero(sft.transition[a]).tolist():
            table[(a, b)] = float(rng.uniform(-1.5, 1.5))
    return sft, LocallyConstantPotential(sft, 2, table)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_potentials_agree_with_dense_eig(seed):
    sft, pot = random_range2(seed)
    assert abs(pressure(pot) - dense_log_radius(sft, pot)) < 1e-10


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_gibbs_states_are_equilibria(seed):
    _, pot = random_range2(seed)
    mu = gibbs_measure(pot)
    assert np.max(np.abs(mu.pi @ mu.P - mu.pi)) < 1e-12
    assert abs(mu.entropy() + mu.expectation() - mu.pressure) < 1e-8


# -- the Perron engine: closed forms, the plain loop, dense eig ----------------

EPS = np.finfo(float).eps


def gap_matrix(c, d, pi, g):
    """c D ((1 - g) I + g 1 pi^T) D^-1: Perron root c with right vector D 1,
    every other eigenvalue c (1 - g)."""
    m = len(d)
    M = (1.0 - g) * np.eye(m) + g * np.outer(np.ones(m), pi)
    return c * (d[:, None] * M / d[None, :])


@given(st.integers(2, 6), st.floats(-8.0, -1.0), st.floats(0.0, 150.0),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_gap_family_meets_its_closed_form(m, log10_gap, spread, seed):
    rng = np.random.default_rng(seed)
    g = 10.0 ** log10_gap
    c = float(rng.uniform(0.1, 10.0))
    d = np.exp(rng.uniform(-spread, spread, m))
    pi = rng.dirichlet(np.ones(m))
    A = gap_matrix(c, d, pi, g)
    eig = leading_eigen(A)
    lam, v = eig.lam, eig.v
    assert abs(lam - c) <= 1e-13 * c
    assert eig.lo <= lam <= eig.hi <= widened(1e-13, m) * eig.lo
    assert np.all(v > 0)
    # w = D^-1 v = alpha 1 + z with pi . z = 0, and M z = (1 - g) z, so the
    # residual r = A v - lam v gives ((1 - g) - lam / c) z = (I - 1 pi^T) D^-1 r / c
    # and |z| <= 2 |D^-1 r| / (c (g - |lam / c - 1|)).  r is its computed value
    # plus the rounding of the residual and of the ~6 operations building A.
    r = np.abs(A @ v - lam * v) + (m + 8) * EPS * (np.abs(A) @ v + lam * v)
    z_bound = 2.0 * np.max(r / d) / (c * (g - abs(lam / c - 1.0)))
    w = v / d
    alpha = float(pi @ w)
    assert np.max(np.abs(w - alpha)) <= z_bound + 4 * EPS * np.max(w)


def plain_power_loop(A, tol=1e-13):
    """Power steps from the uniform vector until the ratios Av / v, widened
    one ulp each way, agree to a relative tol: the engine without squaring.
    The bracket it returns is widened by gamma_(m+1) and one more ulp."""
    m = A.shape[0]
    v = np.full(m, 1.0 / m)
    for it in itertools.count(1):
        Av = A @ v
        lo = np.nextafter(np.min(Av / v), 0.0)
        hi = np.nextafter(np.max(Av / v), np.inf)
        if hi <= (1.0 + tol) * lo:
            lam = min(max(float(Av.sum()) / float(v.sum()), lo), hi)
            gamma = (m + 1) * 2.0 ** -53 / (1.0 - (m + 1) * 2.0 ** -53)
            return (lam, v, np.nextafter(lo - lo * gamma, 0.0),
                    np.nextafter(hi + hi * gamma, np.inf), it)
        v = Av / Av.sum()


def test_fast_gaps_never_square_and_match_the_plain_loop():
    rng = np.random.default_rng(5)
    chain = rng.uniform(0.0, 1.0, (100, 100)) * (rng.random((100, 100)) < 0.3)
    chain[np.arange(100), (np.arange(100) + 1) % 100] += 1.0
    golden = golden_mean_shift().transition.astype(float)
    for A in (chain, golden):
        eig = leading_eigen(A)
        lam, v, lo, hi, it = plain_power_loop(A)
        assert eig.squarings == 0 and eig.iterations == it
        assert (eig.lam, eig.lo, eig.hi) == (lam, lo, hi)
        assert np.array_equal(eig.v, v)
    assert 1 < it <= 64   # the golden mean takes tens of power steps


def dense_perron(A):
    w, V = np.linalg.eig(A)
    k = int(np.argmax(w.real))
    v = np.abs(V[:, k].real)
    second = np.sort(np.abs(w))[-2]
    return float(w[k].real), v / v.sum(), 1.0 - second / w[k].real


def assert_matches_dense_eig(A, eig):
    lam, v, gap = dense_perron(A)
    assert abs(eig.lam - lam) <= 1e-13 * lam
    # eigenvector error ~ residual / (lam * gap), plus eig's own rounding
    assert np.max(np.abs(eig.v - v)) <= 4 * 1e-13 / gap + 1e-14


def test_weights_spanning_e300_square_in_the_iterate_scale():
    d = np.exp([150.0, 0.0, -150.0])
    A = gap_matrix(1.3, d, np.full(3, 1.0 / 3.0), 1e-3)
    assert A.max() / A.min() > np.exp(590.0)
    eig = leading_eigen(A)
    assert eig.squarings > 0 and eig.iterations < 100
    assert_matches_dense_eig(A, eig)


def coupled(g):
    """State 1 is coupled by e^-400 to states 0 and 2, which are coupled by
    g: the Gibbs mass u_1 v_1 ~ e^-800 of state 1 is not a double, though
    u_1 and v_1 each are, and the gap is about g."""
    tiny = np.exp(-400.0)
    return np.array([[1.0, tiny, g], [tiny, 1e-3, tiny], [g, tiny, 1.0 - g]])


def test_gibbs_masses_below_the_float_range_still_square():
    # the mass u_1 v_1 underflows, but the squared step Bv needs only v,
    # which stays in range: every gap squares to the end, in about
    # log2(1 / g) rounds past the power steps
    rounds = {}
    for g in (0.05, 1e-3, 1e-5):
        eig = leading_eigen(coupled(g))
        rounds[g] = (eig.iterations, eig.squarings)
        assert np.all(eig.v > 0)
        assert_matches_dense_eig(coupled(g), eig)
    assert rounds == {0.05: (72, 7), 1e-3: (78, 13), 1e-5: (84, 19)}


def test_power_steps_that_cannot_reach_tol_end_at_once():
    # a weighted 3-cycle, weights 1e-10, 1 and 1e10, with a loop of 1e-30:
    # primitive, but its other eigenvalues are lambda e^(+-2 pi i / 3) to
    # within 1e-30, so the squared powers only rotate v and the power steps
    # on A stall.  The shift is the estimate lam at that round, about
    # 3e-10 lambda, and on A + lam I the width then falls like 1 / k: it
    # would reach tol only far past _MAX_ROUNDS, and the rate check ends the
    # run after 20353 rounds (without it, all 10^6 rounds run)
    A = np.array([[1e-30, 1e-10, 0.0], [0.0, 0.0, 1.0], [1e10, 0.0, 0.0]])
    spectrum = np.linalg.eigvals(A)
    assert np.allclose(np.abs(spectrum), 1.0, rtol=1e-15, atol=0.0)
    with pytest.raises(NoConvergence,
                       match="falls too slowly; .* after 20353 rounds"):
        leading_eigen(A)


def test_primitivity_is_decided_on_the_base_subshift():
    # the (r-1)-block presentation is conjugate to the base, so build checks
    # the 2 symbols of the base and never the 4 blocks of a range-3 potential
    values = {w: 0.1 * i for i, w in enumerate(itertools.product(range(2), repeat=3))}
    pot = LocallyConstantPotential.from_function(full_shift(2), 3, values.get)
    validate = SubshiftOfFiniteType.validate
    seen = []

    def spy(self):
        seen.append(self.m)
        return validate(self)

    with mock.patch.object(SubshiftOfFiniteType, "validate", spy):
        lam = pressure(pot)
        mu = gibbs_measure(pot)
    assert seen and set(seen) == {2}
    assert mu.m == 4 and mu.pressure == lam
    # a base that is not mixing is refused, with the base's Wielandt bound
    flip = SubshiftOfFiniteType(["a", "b"], [[0, 1], [1, 0]])
    with pytest.raises(NotPrimitive, match=r"Wielandt bound 2\)"):
        pressure(LocallyConstantPotential.from_function(flip, 3, lambda w: 0.0))


def test_perron_entry_below_the_float_range_is_refused():
    # a path 0 - 1 - 2 with couplings 1e-200 puts v_2 near 1e-400
    A = np.array([[1.0, 1e-200, 0.0], [1e-200, 0.0, 1e-200], [0.0, 1e-200, 0.0]])
    with pytest.raises(NoConvergence):
        leading_eigen(A)


def test_leading_eigen_calls_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("leading_eigen called a dense eigensolver")

    A = gap_matrix(2.0, np.array([1.0, 3.0]), np.array([0.4, 0.6]), 1e-6)
    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    eig = leading_eigen(A)
    monkeypatch.undo()
    assert eig.squarings > 0
    assert_matches_dense_eig(A, eig)


# -- a small spectral gap ----------------------------------------------------------


def small_gap():
    """phi = 3 on the transition 1 -> 2 of a 4-symbol subshift and 0
    elsewhere: |lambda_2| / lambda = 0.99949."""
    sft = SubshiftOfFiniteType(list("abcd"), [[0, 1, 0, 1], [1, 0, 1, 0],
                                              [0, 1, 0, 0], [0, 0, 1, 1]])
    return sft, LocallyConstantPotential.from_function(
        sft, 2, lambda w: 3.0 if tuple(w) == (1, 2) else 0.0)


def test_a_small_gap_converges_at_the_default_tol():
    # lambda_2 is near -lambda: the squared iterates stall at residual
    # 5.9e-13 lambda, and the power steps on A + lam I take it below 1e-13
    sft, pot = small_gap()
    A = sft.transition.astype(float)
    A[1, 2] = np.exp(3.0)
    spectrum = sorted(np.linalg.eigvals(A), key=abs)
    assert -0.9996 < spectrum[-2].real / spectrum[-1].real < -0.9994
    eig = leading_eigen(build(pot))
    assert eig.squarings == transfer._MAX_SQUARINGS
    assert abs(np.log(eig.lam) - dense_log_radius(sft, pot)) < 1e-12


def test_a_tol_below_the_rounding_floor_stalls_fast_and_typed():
    # the residual cannot fall below about 1e-16 lambda, on A or on A + lam I
    sft, pot = small_gap()
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="stalled"):
        leading_eigen(build(pot), tol=1e-18)
    assert time.perf_counter() - start < 1.0


def stalling_chain_matrix(seed, m):
    """A block matrix that test_enumeration's chain-pass property draws,
    whose second eigenvalue is near -lambda: its random primitive m-symbol
    subshift at this rng seed, with 4 N(0, 1) on each 3-word."""
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, m)
    return build(LocallyConstantPotential.from_function(
        sft, 3, lambda w: 4.0 * float(rng.normal())))


# the squared iterates stall at residual 0.019 and 3.2e-8; the power steps
# on A + lam I finish them
@pytest.mark.parametrize("seed, m, gap", [(15416825, 3, 1e-10), (53, 2, 1e-8)])
def test_a_gap_at_minus_lambda_converges_at_tol_1e_10(seed, m, gap):
    A = stalling_chain_matrix(seed, m)
    spectrum = sorted(np.linalg.eigvals(A), key=abs)
    lam, second = abs(spectrum[-1]), spectrum[-2]
    assert abs(second.imag) < 1e-12 * lam and -1.0 < second.real / lam < -1.0 + gap
    assert abs(leading_eigen(A, tol=1e-10).lam - lam) <= 1e-9 * lam


# -- the Gibbs chain entry by entry: 60-digit mpmath ---------------------------


def mp_gibbs_chain(A, dps=60):
    """lam, the gap 1 - |lambda_2| / lam, P[a][b] = A[a, b] v_b / (lam v_a)
    and pi_a = u_a v_a of the double matrix A at dps digits."""
    m = len(A)
    with mpmath.workdps(dps):
        lam, gap, v, u = mp_perron(A, dps)
        P = [[A[a, b] * v[b] / (lam * v[a]) for b in range(m)] for a in range(m)]
        return lam, gap, P, [x * y for x, y in zip(u, v)]


def entrywise_error(x, exact):
    """Largest relative error of x against exact over entries above 1e-280;
    below that a mass is a subnormal double or 0, rounding rather than error,
    and x must be there too."""
    worst = 0.0
    for got, want in zip(np.ravel(x).tolist(), exact):
        if want > 1e-280:
            worst = max(worst, float(abs(got - want) / want))
        else:
            assert got < 1e-270
    return worst


@given(st.integers(2, 8), st.floats(0.5, 12.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gibbs_chain_is_the_mpmath_chain_entry_by_entry(m, sigma, seed):
    # a positive v whose ratios agree to a relative width d is, to first
    # order, the Perron vector to d / gap entry by entry: P reads v_b / v_a,
    # and pi = (A v) w with w GTH's left vector, O(m u) off for the v it is
    # given.  The bound is 4 d / gap + 8 m u: over 600 draws (m 2-8, sigma
    # 0.5-12) the worst error was 1.98 d / gap, while a pi accurate only in
    # the sup norm is up to 1e18 off at sigma = 12
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, m)
    pot = LocallyConstantPotential(sft, 2, {
        (a, b): float(rng.normal(0.0, sigma))
        for a in range(m) for b in np.flatnonzero(sft.transition[a]).tolist()})
    A = build(pot)
    mu = gibbs_measure(pot)
    eig = mu.eigen
    lam, gap, P, pi = mp_gibbs_chain(A)
    # the bracket is widened by the rounding of the ratios (A v)_a / v_a,
    # gamma_(m+1) for a sum of m nonnegative products and a division, so it
    # holds lam; one ulp alone missed it in 4 draws of 1000
    assert eig.lo <= eig.lam <= eig.hi
    assert eig.lo <= lam <= eig.hi
    # d is the width the engine stopped at, before that widening
    ratios = A @ eig.v / eig.v
    d = np.nextafter(ratios.max(), np.inf) / np.nextafter(ratios.min(), 0.0) - 1.0
    bound = 4.0 * d / float(gap) + 8 * m * EPS
    assert entrywise_error(mu.P, [x for row in P for x in row]) <= bound
    assert entrywise_error(mu.pi, pi) <= bound


def dense_left(A):
    values, vectors = np.linalg.eig(A.T)
    return np.abs(vectors[:, np.argmax(values.real)].real)


# at beta 400 the roots e^400 +- e^-400 are one double, so dense eig cannot
# split them; the symmetric matrix has the left vector (1, 1)
@pytest.mark.parametrize("A, u", [(build(ising_potential(400.0)), np.ones(2)),
                                  (coupled(0.05), dense_left(coupled(0.05)))],
                         ids=["ising-400", "coupled-e-400"])
def test_rates_a_v_give_the_left_vector_where_the_chain_underflows(A, u):
    # P[a, b] = A[a, b] v_b / (A v)_a drops a transition of A (e^-800
    # underflows), so GTH on P would see the wrong classes; the rates
    # A[a, b] v_b keep every transition, and their stationary vector is the
    # left Perron vector up to scale
    v = leading_eigen(A).v
    P = A * v[None, :] / (A @ v)[:, None]
    assert np.count_nonzero(P) < np.count_nonzero(A)
    w = stationary_vector(A * v[None, :])
    assert np.max(np.abs(w / w.max() - u / u.max())) <= 1e-13
