"""Spectral pressure and Gibbs states against dense eigensolves.

The oracles are numpy's full eigendecomposition of the weighted transition
matrix, closed-form eigendata and a plain power loop written here; none of
them shares code with ``leading_eigen``'s power steps and rescaled squarings.
"""

import itertools
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (CriticalPowerFamily, LocallyConstantPotential,
                         full_shift, gibbs_bounds, gibbs_measure,
                         golden_mean_shift, pressure, pressure_renewal)
from thermoshift import transfer
from thermoshift.errors import (DepthTooLarge, NoConvergence, NotPrimitive,
                               OutOfRange)
from thermoshift.potentials import recode_range2
from thermoshift.sft import SubshiftOfFiniteType
from thermoshift.transfer import build, leading_eigen
from thermoshift.variational import ising_potential, ising_pressure_exact

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
    assert abs(pressure(pot.shift(c)) - (pressure(pot) + c)) < 1e-12


def test_leading_eigen_contract():
    _, pot = run_weights()
    tm = build(pot)
    eig = leading_eigen(tm)
    assert eig.residual <= 1e-13 * eig.lam
    assert abs(eig.v.sum() - 1.0) < 1e-12
    assert abs(float(eig.u @ eig.v) - 1.0) < 1e-12
    assert np.all(eig.v > 0) and np.all(eig.u > 0)
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
    # tol 0 would spin max_iter power rounds, a negative tol divides by zero
    # in the renewal root's stopping rule
    _, pot = run_weights()
    start = time.perf_counter()
    with pytest.raises(OutOfRange):
        pressure(pot, tol=tol)
    with pytest.raises(OutOfRange):
        pressure_renewal(CriticalPowerFamily(exponent=3.0), 1.0, tol=tol)
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
    # so state-wise extremes of those factors bound the enumerated ratios
    eig = mu.eigen
    pot2 = mu.potential.with_range(2)
    sft = mu.potential.sft
    tail = np.array([np.exp(mu.pressure -
                            max(v for w, v in pot2.table.items() if w[0] == a))
                     for a in range(sft.m)])
    last = eig.v * tail
    return (float(eig.u.min() * last.min()), float(eig.u.max() * last.max()))


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
    for the operator (Lf)(b) = sum_a A[a, b] f(a) of the transfer matrix A."""
    eigen = leading_eigen(A)
    iterate = f.copy()
    for _ in range(n):
        iterate = A.T @ iterate / eigen.lam
    return float(np.max(np.abs(iterate - float(f @ eigen.v) * eigen.u)))


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
    assert eig.residual <= 1e-13 * lam
    assert np.all(v > 0) and np.all(eig.u > 0)
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
    """Power steps until both residuals are <= tol * lam: the engine as it
    stood before squaring."""
    m = A.shape[0]
    v = np.full(m, 1.0 / m)
    u = np.full(m, 1.0 / m)
    for it in itertools.count(1):
        Av, uA = A @ v, u @ A
        lam = float(u @ Av) / float(u @ v)
        res = max(float(np.max(np.abs(Av - lam * v))),
                  float(np.max(np.abs(uA - lam * u))))
        v, u = Av / Av.sum(), uA / uA.sum()
        if res <= tol * lam:
            v = v / v.sum()
            return lam, v, u / float(u @ v), res, it


def test_fast_gaps_never_square_and_match_the_plain_loop():
    rng = np.random.default_rng(5)
    chain = rng.uniform(0.0, 1.0, (100, 100)) * (rng.random((100, 100)) < 0.3)
    chain[np.arange(100), (np.arange(100) + 1) % 100] += 1.0
    golden = golden_mean_shift().transition.astype(float)
    for A in (chain, golden):
        eig = leading_eigen(A)
        lam, v, u, res, it = plain_power_loop(A)
        assert eig.squarings == 0 and eig.iterations == it
        assert eig.lam == lam and eig.residual == res
        assert np.array_equal(eig.v, v) and np.array_equal(eig.u, u)
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


def test_underflowed_squares_fall_back_to_power_steps():
    # state 1 is coupled by e^-400, so its Gibbs mass u_1 v_1 ~ e^-800 is not
    # a double and the first squared step has a zero entry
    tiny, g = np.exp(-400.0), 0.05
    A = np.array([[1.0, tiny, g], [tiny, 1e-3, tiny], [g, tiny, 1.0 - g]])
    eig = leading_eigen(A)
    # the first squared step already has the zero, and squaring stops for good
    assert eig.squarings == 1
    assert eig.iterations > transfer._PLAIN_ROUNDS + 2
    assert np.all(eig.v > 0) and np.all(eig.u > 0)
    assert_matches_dense_eig(A, eig)


def test_power_steps_that_cannot_reach_tol_end_at_once():
    # the matrix above with a small coupling g: the power steps after the
    # one squaring converge at a rate of about 1 - g, and at g = 1e-5 the
    # residual would reach tol only past _MAX_ROUNDS (it once crept on for
    # 763,504 rounds, 20-32 s, before it raised)
    tiny = np.exp(-400.0)

    def coupled(g):
        return np.array([[1.0, tiny, g], [tiny, 1e-3, tiny], [g, tiny, 1.0 - g]])

    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="falls too slowly"):
        leading_eigen(coupled(1e-5))
    assert time.perf_counter() - start < 1.0
    eig = leading_eigen(coupled(1e-3))
    assert (eig.iterations, eig.squarings) == (9793, 1)
    assert_matches_dense_eig(coupled(1e-3), eig)


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
        pressure(pot, tol=1e-18)
    assert time.perf_counter() - start < 1.0


def stalling_chain_matrix(seed, m):
    """A block matrix that test_enumeration's chain-pass property draws,
    whose second eigenvalue is near -lambda: its random primitive m-symbol
    subshift at this rng seed, with 4 N(0, 1) on each 3-word."""
    from test_enumeration import random_primitive_sft

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
