"""Markov measures: information quantities against hand-derived closed forms."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermoshift import (LocallyConstantPotential, MarkovMeasure,
                         SubshiftOfFiniteType, aep_partition,
                         entropy_by_blocks, entropy_production,
                         full_shift, gibbs_measure, golden_mean_shift,
                         relative_entropy, relative_entropy_direct,
                         smb_estimate, stationary_vector)
from thermoshift import _numerics
from thermoshift.errors import (DepthTooLarge, OutOfRange, SupportMismatch,
                                ZeroMassPath)
from thermoshift.measures import _check_support
from thermoshift.sft import _count_words, _word_blocks

from gibbs_oracle import exact_stationary, gibbs_of_chain, recurrent_classes

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
LOG_GOLDEN = float(np.log(GOLDEN))


def bernoulli(p):
    row = np.array([p, 1.0 - p])
    return MarkovMeasure(row.copy(), np.vstack([row, row]))


def parry():
    sft = golden_mean_shift()
    return gibbs_measure(LocallyConstantPotential.zero(sft))


THREE_CYCLE = np.array([[0.0, 0.9, 0.1],
                        [0.1, 0.0, 0.9],
                        [0.9, 0.1, 0.0]])


# -- construction and stationarity --------------------------------------------------


def test_stationary_vector_two_state_closed_form():
    a, b = 0.3, 0.7
    P = np.array([[1 - a, a], [b, 1 - b]])
    pi = stationary_vector(P)
    assert np.max(np.abs(pi - np.array([b, a]) / (a + b))) < 1e-14


def test_stationary_vector_doubly_stochastic_is_uniform():
    pi = stationary_vector(THREE_CYCLE)
    assert np.max(np.abs(pi - 1.0 / 3.0)) < 1e-14


def _chain_with_transients(seed, m):
    """A random chain on m states: one closed recurrent class, periodic with a
    random period when it splits into cyclic groups, and transient states that
    each step to the class or to an earlier transient state, besides random
    steps anywhere; the states are then shuffled.  Rows are integer weights
    1..1024 divided by their sums."""
    rng = np.random.default_rng(seed)
    period = int(rng.integers(1, min(m, 3) + 1))
    r = period * int(rng.integers(1, m // period + 1))
    group = np.arange(r) % period
    W = np.zeros((m, m))
    W[:r, :r] = (group[None, :] == (group[:, None] + 1) % period) \
        & (rng.random((r, r)) < 0.5)
    W[np.arange(r), (np.arange(r) + 1) % r] = 1    # a ring: irreducible
    for t in range(r, m):
        W[t] = rng.random(m) < 0.3
        W[t, rng.integers(0, t)] = 1
    W *= rng.integers(1, 1025, size=(m, m))
    perm = rng.permutation(m)
    W = W[np.ix_(perm, perm)]
    return W / W.sum(axis=1, keepdims=True)


def _exact_stationary(P):
    """The exact stationary vector of the chain whose off-diagonal floats the
    elimination reads: P's off-diagonal entries exactly, and on the diagonal
    1 minus their row sum."""
    Q = [[Fraction(x) for x in row] for row in P.tolist()]
    for i, row in enumerate(Q):
        row[i] = 1 - sum(x for j, x in enumerate(row) if j != i)
    return exact_stationary(Q)


# O'Cinneide (Numer. Math. 65 (1993)): GTH is accurate entry by entry to
# O(m u).  Over 3000 of these chains the largest error was 0.98 m u, so c = 2
# leaves twice that; a LAPACK solve of the same chains was up to 41 m u off
_GTH_C = 2


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_stationary_vector_is_the_exact_solve_entry_by_entry(seed, m):
    P = _chain_with_transients(seed, m)
    pi, exact = stationary_vector(P), _exact_stationary(P)
    for x, e in zip(pi.tolist(), exact):
        assert abs(Fraction(x) - e) <= _GTH_C * m * 2.0 ** -53 * e


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_transient_states_get_exactly_zero(seed, m):
    P = _chain_with_transients(seed, m)
    pi = stationary_vector(P)
    assert ((pi == 0.0) == ~recurrent_classes(P)[0]).all()


@pytest.mark.parametrize("P, states", [
    (np.eye(2), (0, 1)),
    ([[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]], (0, 2)),
    # two periodic classes {0, 2} and {1, 3}, and a transient state 4
    ([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
      [0.2, 0.2, 0.2, 0.2, 0.2]], (0, 1)),
])
def test_two_recurrent_classes_are_named(P, states):
    with pytest.raises(ValueError, match="^states %d and %d lie in different "
                                         "recurrent classes$" % states):
        stationary_vector(P)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        MarkovMeasure([0.5, 0.5], [[0.9, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovMeasure([0.9, 0.1], np.full((2, 2), 0.5))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_constructor_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [bad, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        MarkovMeasure([bad, 0.5], np.full((2, 2), 0.5))


# -- cylinder masses ---------------------------------------------------------------


def test_log_cylinder_is_fsum_exact_for_dyadic_masses():
    mu = bernoulli(0.5)
    for n in (64, 512, 1024):
        word = [0, 1] * (n // 2)
        assert mu.log_cylinder(word) == n * math.log(0.5)


def cylinder_mass(mu, word):
    """Mass of a cylinder: pi of the first symbol times each step."""
    return math.prod([mu.pi[word[0]]] + [mu.P[a, b] for a, b in zip(word, word[1:])])


def test_log_cylinder_matches_product_and_support():
    mu = parry()
    assert mu.log_cylinder((1, 1)) == -np.inf
    word = (0, 1, 0, 0, 1)
    assert abs(np.exp(mu.log_cylinder(word)) - cylinder_mass(mu, word)) < 1e-15


@pytest.mark.parametrize("word", [(-1,), (0, 7), (2,)])
def test_cylinder_masses_refuse_a_non_symbol(word):
    mu = parry()
    with pytest.raises(ValueError, match="outside 0..1"):
        mu.log_cylinder(word)
    assert mu.log_cylinder(()) == 0.0


def support_words(mu, n):
    """(word, mass) pairs of the n-words of positive mass, from the blocks."""
    return [(w, mass) for words in _word_blocks(mu.P > 0, n, mu.pi > 0)
            for w, mass in zip(map(tuple, words.tolist()), mu._masses(words))]


def test_support_words_partition_unit_mass():
    mu = parry()
    for n in range(1, 7):
        words = support_words(mu, n)
        assert len(words) == _count_words(mu.P > 0, n, mu.pi > 0)
        assert [w for w, _ in words] == sorted(w for w, _ in words)
        assert abs(math.fsum(m for _, m in words) - 1.0) < 1e-14


def test_support_depth_budget():
    mu = bernoulli(0.5)
    assert abs(sum(m for _, m in support_words(mu, 10)) - 1.0) < 1e-12
    with pytest.raises(DepthTooLarge):
        entropy_by_blocks(mu, 30, budget=1000)


# -- entropy and expectations --------------------------------------------------------


def test_entropy_closed_forms():
    assert abs(bernoulli(0.5).entropy() - np.log(2.0)) < 1e-15
    p = 0.25
    target = -(p * np.log(p) + (1 - p) * np.log(1 - p))
    assert abs(bernoulli(p).entropy() - target) < 1e-15
    # the Parry measure maximizes entropy, attaining log of the golden ratio
    assert abs(parry().entropy() - LOG_GOLDEN) < 1e-12


def test_expectation_hand_value():
    mu = bernoulli(0.25)
    sft = full_shift(2)
    pot = LocallyConstantPotential(sft, 1, {(0,): 2.0, (1,): -1.0})
    assert abs(mu.expectation(pot) - (0.25 * 2.0 - 0.75)) < 1e-15
    pot2 = LocallyConstantPotential(
        sft, 2, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): -1.0})
    assert abs(mu.expectation(pot2) - (0.25 * 0.25 - 0.75 * 0.75)) < 1e-15


def test_expectation_refuses_an_undefined_word_whose_mass_underflowed():
    # pi_1 P_11 = 1e-200 * 1e-200 is 0 in floats, yet the chain steps 1 -> 1,
    # which the golden mean forbids: the potential is not defined there
    mu = MarkovMeasure([1.0, 1e-200], [[1.0, 1e-200], [1.0, 1e-200]])
    assert mu.pi[1] * mu.P[1, 1] == 0.0 < mu.pi[1]
    pot = LocallyConstantPotential.zero(golden_mean_shift(), 2)
    with pytest.raises(ValueError, match=r"not defined on \(1, 1\)"):
        mu.expectation(pot)
    assert mu.expectation(LocallyConstantPotential.zero(full_shift(2), 2)) == 0.0


def test_time_reversal_involution_and_transpose():
    mu = MarkovMeasure.from_transition(THREE_CYCLE)
    rev = mu.time_reversal()
    # uniform pi makes the reversal the transpose, up to the pi round-off ulp
    assert np.max(np.abs(rev.P - THREE_CYCLE.T)) < 1e-15
    back = rev.time_reversal()
    assert np.array_equal(back.P, mu.P)
    assert np.array_equal(back.pi, mu.pi)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_chain(rng, m=3)
        b = m.time_reversal().time_reversal()
        assert np.max(np.abs(b.P - m.P)) < 1e-15
        assert np.array_equal(b.pi, m.pi)


# -- sampling ----------------------------------------------------------------------


def test_sample_path_reproducible():
    mu = parry()
    a = mu.sample_path(200, seed=42)
    assert a.dtype == np.uint8 and a.shape == (200,)
    assert np.array_equal(a, mu.sample_path(200, seed=42))
    assert not np.array_equal(a, mu.sample_path(200, seed=43))


@given(st.integers(0, 2 ** 64 - 1))
@settings(max_examples=40, deadline=None)
def test_sample_paths_stay_on_the_subshift(seed):
    mu = parry()
    path = mu.sample_path(60, seed=seed)
    assert all(s in (0, 1) for s in path)
    assert (1, 1) not in set(zip(path, path[1:]))


def test_sample_path_frequencies_near_stationary():
    mu = parry()
    path = mu.sample_path(10 ** 4, seed=7)
    freq0 = np.count_nonzero(path == 0) / len(path)
    assert abs(freq0 - mu.pi[0]) < 0.02


def philox_uniforms(seed, count):
    """The sampler's documented uniforms: Philox keyed by the seed, raw 64-bit
    words mapped by (raw >> 11) * 2**-53."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = gen.integers(0, 2 ** 64, size=count, dtype=np.uint64)
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def searchsorted_walk(mu, u):
    """One np.searchsorted per step over the cumulative rows, clamped to the
    last symbol: the sampling rule written out step by step."""
    m = len(mu.pi)
    cum_P = np.cumsum(mu.P, axis=1)
    path = [min(int(np.searchsorted(np.cumsum(mu.pi), u[0], side="right")), m - 1)]
    for x in u[1:]:
        path.append(min(int(np.searchsorted(cum_P[path[-1]], x, side="right")), m - 1))
    return path


def sparse_chain(m, seed):
    """A random irreducible chain with about half its transitions at zero."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 1.0, (m, m)) * (rng.random((m, m)) < 0.5)
    P[np.arange(m), (np.arange(m) + 1) % m] += 0.5
    return MarkovMeasure.from_transition(P / P.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("m", [2, 5, 100, 400])
def test_sample_path_equals_the_searchsorted_walk(m):
    mu = sparse_chain(m, m)
    assert (mu.P == 0).any()
    for seed in (0, 7, 2 ** 64 - 1):
        path = mu.sample_path(3000, seed=seed)
        assert path.dtype == (np.uint8 if m <= 256 else np.uint16)
        assert np.array_equal(path, searchsorted_walk(mu, philox_uniforms(seed, 3000)))


def test_sample_path_at_ties_and_past_the_row_sum(monkeypatch):
    # rows summing to 1 - 1e-10 (inside the 1e-9 tolerance) leave uniforms
    # above the last cumulative mass, which go to the last symbol; a uniform
    # equal to a cumulative mass goes to the next symbol
    P = np.array([[0.5, 0.5 - 1e-10, 0.0], [0.0, 0.5, 0.5 - 1e-10],
                  [0.5 - 1e-10, 0.0, 0.5]])
    mu = MarkovMeasure(np.full(3, 1.0 / 3.0), P)
    u = np.array([1.0 - 2.0 ** -53, 0.2, 1.0 - 2.0 ** -53, 0.7, 1.0 - 1e-11,
                  0.0, 0.5])
    monkeypatch.setattr("thermoshift.measures._uniforms", lambda seed, n: u[:n])
    path = mu.sample_path(len(u), seed=1)
    assert np.array_equal(path, searchsorted_walk(mu, u))
    assert path.tolist() == [2, 0, 2, 2, 2, 0, 1]


@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.integers(1, 100),
       st.integers(0, 2 ** 64 - 1))
@settings(max_examples=60, deadline=None)
def test_chunked_sampling_and_smb_equal_one_full_pass(m, chain_seed, length, seed):
    # seven steps a chunk puts chunk boundaries inside every path longer
    # than seven: the chunked draws, walk and log-mass sum must equal one
    # full Philox draw, one walk and one fsum over the whole path
    mu = sparse_chain(m, chain_seed)
    with mock.patch.object(_numerics, "CHUNK", 7):
        path = mu.sample_path(length, seed=seed)
        est = smb_estimate(mu, path)
    assert np.array_equal(path, searchsorted_walk(mu, philox_uniforms(seed, length)))
    masses = np.concatenate(([mu.pi[path[0]]], mu.P[path[:-1], path[1:]]))
    assert est == -math.fsum(np.log(masses).tolist()) / length


# -- Shannon-McMillan-Breiman -------------------------------------------------------


def test_smb_is_bitwise_entropy_for_fair_coin():
    mu = bernoulli(0.5)
    for n in (64, 512, 1024):
        path = mu.sample_path(n, seed=5)
        assert smb_estimate(mu, path) == np.log(2.0)


def test_smb_long_path_near_entropy():
    mu = parry()
    path = mu.sample_path(10 ** 5, seed=20260817)
    assert abs(smb_estimate(mu, path) - LOG_GOLDEN) < 0.01


def test_smb_rejects_null_paths():
    with pytest.raises(ZeroMassPath):
        smb_estimate(parry(), [0, 1, 1, 0])


def test_smb_rejects_an_empty_path():
    with pytest.raises(ValueError, match="empty"):
        smb_estimate(parry(), [])


def test_a_long_path_and_its_smb_estimate_cost_bytes_not_objects():
    # with the path a list of Python ints and its log-mass one list of
    # floats, this peaked at 61.5 MiB of traced memory; a fifth of that bounds
    # a one-byte-per-step path and chunked Python objects
    mu = sparse_chain(5, 5)
    tracemalloc.start()
    try:
        path = mu.sample_path(10 ** 6, seed=3)
        smb_estimate(mu, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 61.5 * 2 ** 20 / 5


# -- block entropies ----------------------------------------------------------------


def test_block_entropy_increments_are_exact_for_markov():
    mu = parry()
    blocks = entropy_by_blocks(mu, 8)
    h = mu.entropy()
    # H_n = H(pi) + (n-1) h for a Markov chain, so increments equal h
    assert all(abs(inc - h) < 1e-12 for inc in blocks.increments)
    assert all(b > a for a, b in zip(blocks.rates[1:], blocks.rates))
    assert abs(blocks.rates[-1] - h) <= (blocks.rates[0] - h) / 8 + 1e-12
    assert abs(blocks.rates[-1] - h) > 1e-3


# -- relative entropy ---------------------------------------------------------------


def test_relative_entropy_closed_form_value():
    target = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    value = relative_entropy(bernoulli(0.5), gibbs_of_chain(bernoulli(0.25).P))
    assert abs(value - target) < 1e-14
    assert abs(value - 0.143841) < 1e-6


def test_direct_route_is_depth_independent_for_products():
    nu = bernoulli(0.5)
    mu = gibbs_of_chain(bernoulli(0.25).P)
    closed = relative_entropy(nu, mu)
    for n in range(1, 13):
        assert abs(relative_entropy_direct(nu, mu, n) - closed) < 1e-12


def test_relative_entropy_of_self_is_zero():
    nu = bernoulli(0.25)
    assert relative_entropy(nu, gibbs_of_chain(nu.P)) == 0.0


def test_parry_versus_maximal_entropy_of_full_shift():
    nu = parry()
    sft2 = full_shift(2)
    mme = gibbs_measure(LocallyConstantPotential.zero(sft2))
    closed = relative_entropy(nu, mme)
    assert abs(closed - (np.log(2.0) - LOG_GOLDEN)) < 1e-12
    assert abs(closed - 0.211935) < 1e-6
    assert abs(relative_entropy_direct(nu, mme, 12) - 0.211935) < 0.06


def test_support_mismatch_both_routes():
    nu = bernoulli(0.5)
    mu = parry()
    with pytest.raises(SupportMismatch):
        relative_entropy(nu, mu)
    with pytest.raises(SupportMismatch):
        relative_entropy_direct(nu, mu, 4)


def test_direct_route_refuses_a_null_cylinder_behind_a_near_zero_pi():
    # nu reaches symbol 2, where pi is 0, through 0 -> 2 of weight eps, and
    # then 2 -> 2, which mu forbids: no symbol or transition of nu's
    # stationary support is mu-null, yet nu charges the cylinder (0, 2, 2)
    eps = 1e-10
    nu = MarkovMeasure([0.5, 0.5, 0.0], [[0.5 - eps, 0.5, eps], [0.5, 0.5, 0.0],
                                         [0.0, 0.5, 0.5]])
    mu = MarkovMeasure([0.5, 0.5, 0.0], [[0.5 - eps, 0.5, eps], [0.5, 0.5, 0.0],
                                         [0.0, 1.0, 0.0]])
    assert relative_entropy_direct(nu, mu, 1) == 0.0
    assert relative_entropy_direct(nu, mu, 2) == 0.0
    for n in (3, 12):
        with pytest.raises(SupportMismatch, match="mu-null"):
            relative_entropy_direct(nu, mu, n)


def test_direct_route_refuses_a_gibbs_state_on_blocks():
    # the range-3 Gibbs state lives on the 3 admissible 2-blocks, the chain
    # on the 2 symbols: both routes refuse with the same size message
    sft = golden_mean_shift()
    mu = gibbs_measure(LocallyConstantPotential.from_function(
        sft, 3, lambda w: 0.25 * w[0] - 0.5 * w[2]))
    nu = MarkovMeasure.from_transition([[0.5, 0.5], [1.0, 0.0]])
    messages = []
    for route in (lambda: relative_entropy(nu, mu),
                  lambda: relative_entropy_direct(nu, mu, 6)):
        with pytest.raises(SupportMismatch) as err:
            route()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("alphabet sizes differ: nu has 2 symbols and mu 3")


def loop_support_fault(nu, mu):
    """The first fault of the pre-array double loop: symbol a, then the
    transitions out of a, row by row."""
    for a in range(nu.m):
        if nu.pi[a] > 0 and mu.pi[a] == 0:
            return f"nu charges symbol {a} outside mu's support"
        for b in range(nu.m):
            if nu.pi[a] * nu.P[a, b] > 0 and mu.P[a, b] == 0:
                return f"nu charges transition {a}->{b} outside mu's support"
    return None


@pytest.mark.parametrize("route", [
    relative_entropy, lambda nu, mu: relative_entropy_direct(nu, mu, 1)])
def test_support_faults_are_reported_in_row_order(route):
    uniform = MarkovMeasure.from_transition(np.full((3, 3), 1 / 3))
    # mu: symbol 2 is transient and 0->0 is null; row 0's transition fault
    # comes before symbol 2's fault, at depth 1 too
    mu = MarkovMeasure([0.5, 0.5, 0.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                         [0.5, 0.5, 0.0]])
    with pytest.raises(SupportMismatch,
                       match=r"^nu charges transition 0->0 outside mu's support$"):
        route(uniform, mu)
    # mu: symbol 0 is transient and 0->0 is null; symbol 0's fault comes
    # before its row's transitions
    mu = MarkovMeasure([0.0, 0.5, 0.5], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                         [0.0, 1.0, 0.0]])
    with pytest.raises(SupportMismatch,
                       match=r"^nu charges symbol 0 outside mu's support$"):
        route(uniform, mu)


def test_array_support_check_matches_the_double_loop():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        pi, P = rng.random(m) * (rng.random(m) < 0.8), rng.random((m, m))
        P = P * (rng.random((m, m)) < 0.7)
        nu = SimpleNamespace(m=m, pi=pi, P=P)
        mu = SimpleNamespace(m=m, pi=pi * (rng.random(m) < 0.8),
                             P=P * (rng.random((m, m)) < 0.8))
        want = loop_support_fault(nu, mu)
        if want is None:
            _check_support(nu, mu)
        else:
            with pytest.raises(SupportMismatch, match=f"^{want}$"):
                _check_support(nu, mu)


def random_chain(rng, m=2):
    P = rng.uniform(0.05, 1.0, size=(m, m))
    P /= P.sum(axis=1, keepdims=True)
    return MarkovMeasure.from_transition(P)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_relative_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    nu = random_chain(rng)
    mu = gibbs_of_chain(random_chain(rng).P)
    assert relative_entropy(nu, mu) >= -1e-13


# -- asymptotic equipartition --------------------------------------------------------


def test_aep_partition_frozen_masses():
    mu = bernoulli(0.25)
    frozen = {8: 0.68853759765625,
              10: 0.46815013885498047,
              12: 0.31602543592453003,
              14: 0.5395930223166943}
    masses = {}
    for n, expected in frozen.items():
        part = aep_partition(mu, n, alpha=0.1)
        assert abs(part.exceptional_mass - expected) < 1e-12
        assert abs(part.typical_mass + part.exceptional_mass - 1.0) < 1e-12
        assert part.typical_count <= part.word_count == 2 ** n
        masses[n] = part.exceptional_mass
    # the masses fall across 8,10,12; the rebound at 14 is a lattice effect:
    # binomial mass atoms cross the band edge in discrete jumps
    assert masses[8] > masses[10] > masses[12]
    assert masses[14] < masses[8]


def brute_aep(mu, n, alpha):
    """(word count, typical count, typical mass, exceptional mass) over every
    n-word of positive mass, each mass a left-to-right product, summed in lex
    order."""
    h = mu.entropy()
    words, count, t_mass, e_mass = 0, 0, 0.0, 0.0
    for word in itertools.product(range(mu.m), repeat=n):
        mass = mu.pi[word[0]]
        for a, b in zip(word, word[1:]):
            mass *= mu.P[a, b]
        if mass == 0.0:
            continue
        words += 1
        if -n * (h + alpha) <= math.log(mass) <= -n * (h - alpha):
            count, t_mass = count + 1, t_mass + mass
        else:
            e_mass += mass
    return words, count, t_mass, e_mass


@pytest.mark.parametrize("seed", range(12))
def test_aep_partition_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    # a cycle keeps the chain irreducible; other transitions drop at random
    keep = (rng.random((m, m)) < 0.6) | np.roll(np.eye(m, dtype=bool), 1, axis=1)
    P = np.where(keep, rng.uniform(0.05, 1.0, (m, m)), 0.0)
    mu = MarkovMeasure.from_transition(P / P.sum(axis=1, keepdims=True))
    alpha = float(rng.uniform(0.02, 0.5))
    for n in range(1, {2: 11, 3: 7, 4: 6}[m]):
        part = aep_partition(mu, n, alpha)
        assert (part.word_count, part.typical_count, part.typical_mass,
                part.exceptional_mass) == brute_aep(mu, n, alpha)


def test_aep_partition_edges():
    mu = bernoulli(0.25)
    with pytest.raises(OutOfRange):
        aep_partition(mu, 8, alpha=0.0)
    wide = aep_partition(mu, 8, alpha=10.0)
    assert wide.exceptional_mass == 0.0
    assert wide.typical_count == wide.word_count
    assert abs(wide.entropy_rate - mu.entropy()) < 1e-15


# -- entropy production ---------------------------------------------------------------


FOUR_CYCLE = np.array([[0.0, 0.9, 0.0, 0.1],
                       [0.1, 0.0, 0.9, 0.0],
                       [0.0, 0.1, 0.0, 0.9],
                       [0.9, 0.0, 0.1, 0.0]])

# 0.8 ln 9 = 1.7577796618689756038..., rounded to the nearest double
EIGHT_TENTHS_LN_9 = 1.7577796618689756


def test_entropy_production_biased_cycle():
    nu = MarkovMeasure.from_transition(THREE_CYCLE)
    value = entropy_production(nu)
    assert abs(value - EIGHT_TENTHS_LN_9) <= math.ulp(EIGHT_TENTHS_LN_9)


def test_entropy_production_of_a_periodic_chain():
    # period 2: the chain is irreducible but not primitive, and its
    # production is read off (pi, P) like any other chain's
    nu = MarkovMeasure.from_transition(FOUR_CYCLE)
    value = entropy_production(nu)
    assert abs(value - EIGHT_TENTHS_LN_9) <= math.ulp(EIGHT_TENTHS_LN_9)


def test_entropy_production_refuses_a_one_way_transition():
    # 0 -> 1 is allowed and 1 -> 0 is not: the reversal is null where nu is not
    nu = MarkovMeasure.from_transition([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5],
                                        [0.5, 0.0, 0.5]])
    with pytest.raises(SupportMismatch,
                       match=r"^nu charges transition 0->1 outside mu's support$"):
        entropy_production(nu)


def test_entropy_production_refuses_a_transient_state():
    nu = MarkovMeasure([0.5, 0.5, 0.0], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                         [0.5, 0.0, 0.5]])
    with pytest.raises(OutOfRange, match="strictly positive pi"):
        entropy_production(nu)


def test_entropy_production_direct_increment():
    # H_n grows by exactly the production rate per added symbol, so the
    # depth-12 increment of the direct route recovers the closed form
    nu = MarkovMeasure.from_transition(THREE_CYCLE)
    d11 = relative_entropy_direct(nu, nu.time_reversal(), 11)
    d12 = relative_entropy_direct(nu, nu.time_reversal(), 12)
    assert abs((12 * d12 - 11 * d11) - 0.8 * np.log(9.0)) < 1e-12


def test_two_state_chains_are_reversible():
    # stationarity in two states forces detailed balance, so production vanishes
    rng = np.random.default_rng(11)
    for _ in range(10):
        assert abs(entropy_production(random_chain(rng))) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_production_zero_iff_reversible(seed):
    rng = np.random.default_rng(seed)
    nu = random_chain(rng, m=3)
    value = entropy_production(nu)
    assert value >= -1e-13
    balanced = np.max(np.abs(nu.pi[:, None] * nu.P -
                             (nu.pi[:, None] * nu.P).T)) < 1e-13
    if balanced:
        assert abs(value) < 1e-10
    else:
        assert value > 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_production_matches_the_gibbs_route(seed):
    """On a random primitive chain of m <= 8 states whose support is
    symmetric, the closed form agrees with h(mu_P | mu_Q) between the Gibbs
    states of log P and log Q within 1e-12 times max(1, e_p): the Gibbs
    route reads both chains back through a Perron solve (2000 chains here:
    at most 1.3e-13 apart, 1.4e-12 relative)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    support = rng.random((m, m)) < rng.uniform(0.3, 1.0)
    support |= support.T
    assume(support.any(axis=1).all())
    W = np.where(support, rng.uniform(0.01, 1.0, (m, m)), 0.0)
    assume(SubshiftOfFiniteType([str(a) for a in range(m)],
                                support.astype(np.int8)).validate().primitive)
    nu = MarkovMeasure.from_transition(W / W.sum(axis=1, keepdims=True))
    value = entropy_production(nu)
    gibbs = relative_entropy(gibbs_of_chain(nu.P),
                             gibbs_of_chain(nu.time_reversal().P))
    assert abs(value - gibbs) <= 1e-12 * max(1.0, value)


def original_cylinder(mu, sft, r, word):
    """Mass of a cylinder of ``sft`` under the Gibbs state ``mu`` of a range-r
    potential, r > 2.  The state lives on the block subshift whose symbols
    are the admissible (r-1)-words of ``sft`` in lexicographic order, and a
    word of length >= r-1 encodes as the blocks of its (r-1)-windows."""
    k = r - 1
    blocks = [b for b in itertools.product(range(sft.m), repeat=k)
              if sft.is_admissible(b)]
    index = {b: i for i, b in enumerate(blocks)}
    word = tuple(word)
    if len(word) < k:
        return math.fsum(mu.pi[i] for i, b in enumerate(blocks)
                         if b[:len(word)] == word)
    windows = [word[i:i + k] for i in range(len(word) - k + 1)]
    if not all(w in index for w in windows):
        return 0.0
    return cylinder_mass(mu, [index[w] for w in windows])


def test_cylinder_original_matches_the_range4_lift():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_function(
        sft, 3, lambda w: 0.3 * w[0] - 0.2 * w[1] + 0.15 * w[2] - 0.1 * w[0] * w[2])
    mu3 = gibbs_measure(pot)
    # an independent route: the range-4 lift recodes to a different block shift
    mu4 = gibbs_measure(pot.with_range(4))
    assert mu3.potential.sft.m == 3 and mu4.potential.sft.m == 5
    for n in range(1, 6):
        masses = []
        for word in itertools.product(range(2), repeat=n):
            mass = original_cylinder(mu3, sft, 3, word)
            assert abs(mass - original_cylinder(mu4, sft, 4, word)) < 1e-12
            assert mass > 0 if sft.is_admissible(word) else mass == 0.0
            masses.append(mass)
        assert abs(math.fsum(masses) - 1.0) < 1e-12


@st.composite
def primitive_potentials(draw):
    """A potential of range 1-3 on a primitive 0/1 subshift of m <= 5 symbols."""
    m = draw(st.integers(2, 5))
    flat = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    T = np.array(flat, dtype=np.int8).reshape(m, m)
    assume(T.any(axis=0).all() and T.any(axis=1).all())
    sft = SubshiftOfFiniteType([str(a) for a in range(m)], T)
    assume(sft.validate().primitive)
    values = st.floats(-3.0, 3.0, allow_nan=False)
    return LocallyConstantPotential.from_function(sft, draw(st.integers(1, 3)),
                                                  lambda w: draw(values))


@settings(max_examples=60, deadline=None)
@given(primitive_potentials())
def test_the_gibbs_chain_charges_exactly_the_subshift_of_its_potential(pot):
    g = gibbs_measure(pot)
    assert np.array_equal(g.P > 0, g.potential.sft.transition != 0)
