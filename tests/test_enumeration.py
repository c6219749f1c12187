"""The block enumerator, the exact word counter and the reductions built on them.

Every reference here walks ``itertools.product`` word by word in plain
Python, so none of them shares the enumeration engine it checks.  Where the
engine keeps the per-word arithmetic order the results must agree bit for
bit.
"""

import itertools
import math
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (CriticalPowerFamily, LocallyConstantPotential,
                         MarkovMeasure, PiecewiseLinearMarkovMap,
                         SubshiftOfFiniteType, acim, aep_partition,
                         entropy_by_blocks, full_shift, gibbs_bounds,
                         gibbs_measure, lattice_equilibrium, pressure_Pn,
                         relative_entropy_direct)
from thermoshift import sft as sft_module
from thermoshift.cli import main
from thermoshift._numerics import logsumexp
from thermoshift.errors import DepthTooLarge, ZeroRowOrColumn


def brute_words(T, n, starts=None):
    """Admissible n-words of a 0/1 matrix, in lexicographic order."""
    m = len(T)
    return [w for w in itertools.product(range(m), repeat=n)
            if (starts is None or starts[w[0]])
            and all(T[a][b] for a, b in zip(w, w[1:]))]


def dict_count(T, n, starts=None):
    """Number of n-words by dynamic programming over a dict of end counts."""
    m = len(T)
    succ = [np.flatnonzero(T[a]).tolist() for a in range(m)]
    counts = {a: 1 for a in range(m) if starts is None or starts[a]}
    for _ in range(n - 1):
        nxt = defaultdict(int)
        for a, c in counts.items():
            for b in succ[a]:
                nxt[b] += c
        counts = nxt
    return sum(counts.values())


@st.composite
def zero_one_matrices(draw):
    m = draw(st.integers(1, 5))
    flat = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    return np.array(flat, dtype=np.int8).reshape(m, m)


@st.composite
def chains(draw):
    """A chain whose support is a random pattern plus a cycle; with
    ``transient`` nothing enters state 0, so pi[0] = 0."""
    m = draw(st.integers(2, 4))
    transient = draw(st.booleans())
    mask = np.array(draw(st.lists(st.booleans(), min_size=m * m,
                                  max_size=m * m))).reshape(m, m)
    first = 1 if transient else 0
    for a in range(first, m):
        mask[a, first + (a - first + 1) % (m - first)] = True
    if transient:
        mask[:, 0] = False
        mask[0, 1] = True
    weights = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]),
                                     min_size=m * m, max_size=m * m)))
    P = np.where(mask, weights.reshape(m, m), 0.0)
    return MarkovMeasure.from_transition(P / P.sum(axis=1, keepdims=True))


# -- the enumerator and the counter ------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(zero_one_matrices(), st.integers(1, 7), st.data())
def test_word_blocks_match_product_words_across_block_sizes(T, n, data):
    m = len(T)
    starts = data.draw(st.none() | st.lists(st.booleans(), min_size=m,
                                            max_size=m).map(np.array))
    expected = brute_words(T, n, starts)
    for rows in (1, 3, sft_module._BLOCK_ROWS):
        with mock.patch.object(sft_module, "_BLOCK_ROWS", rows):
            blocks = list(sft_module._word_blocks(T, n, starts))
        assert all(0 < len(b) <= rows and b.shape[1] == n for b in blocks)
        assert [tuple(w) for b in blocks for w in b.tolist()] == expected
    assert sft_module._count_words(T, n, starts) == len(expected)


def product_mass(mu, word):
    """Reference cylinder mass: pi of the first symbol times each step, in
    the order the block kernel multiplies them."""
    mass = mu.pi[word[0]]
    for a, b in zip(word, word[1:]):
        mass *= mu.P[a, b]
    return float(mass)


@settings(max_examples=60, deadline=None)
@given(chains(), st.integers(1, 6))
def test_support_words_masses_equal_cylinder(mu, n):
    expected = brute_words(mu.P > 0, n, mu.pi > 0)
    for rows in (1, 3):
        with mock.patch.object(sft_module, "_BLOCK_ROWS", rows):
            got = [(w, mass) for words, masses in mu._support_blocks(n)
                   for w, mass in zip(map(tuple, words.tolist()), masses)]
        assert [w for w, _ in got] == expected
        assert all(mass == product_mass(mu, w) == mu.cylinder(w)
                   for w, mass in got)
    assert sft_module._count_words(mu.P > 0, n, mu.pi > 0) == len(expected)


# -- budget guards on large alphabets ------------------------------------------------


def test_count_words_400_symbols_matches_dict_dp_and_guard_is_fast():
    rng = np.random.default_rng(400)
    M = (rng.random((400, 400)) < 0.25).astype(np.int8)
    sft = SubshiftOfFiniteType([f"s{i}" for i in range(400)], M)
    assert sft.count_words(30) == dict_count(M, 30)
    pot = LocallyConstantPotential.zero(sft)
    # the guard stops counting at the first depth past the budget, so a
    # deep request costs no more than a shallow one
    for depth in (30, 2000):
        start = time.perf_counter()
        with pytest.raises(DepthTooLarge):
            pressure_Pn(pot, depth, budget=10 ** 7)
        assert time.perf_counter() - start < 2.0


def _coin():
    return MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])


def _periodic_check(n, budget):
    """`thermoshift periodic --check`, which reports DepthTooLarge as exit 2;
    raised again here so every entry point is checked alike."""
    golden = Path(__file__).parent.parent / "demos" / "models" / "golden-mean.yaml"
    if main(["periodic", str(golden), "--n", str(n), "--check",
             "--budget", str(budget)]) == 2:
        raise DepthTooLarge("exit 2")


def _relative_entropy_direct(n, budget):
    mu = gibbs_measure(LocallyConstantPotential.zero(full_shift(2)))
    relative_entropy_direct(_coin(), mu, n, budget=budget)


def _acim_certificate(n, budget):
    doubling = PiecewiseLinearMarkovMap(["0", "1/2", "1"],
                                        [(2, (0, 1)), (2, (0, 1))])
    acim(doubling).certificate(n, budget=budget)


GUARDED = {
    "relative_entropy_direct": _relative_entropy_direct,
    "aep_partition": lambda n, budget: aep_partition(_coin(), n, 0.1, budget=budget),
    "AcimResult.certificate": _acim_certificate,
    "periodic --check": _periodic_check,
}


@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_deep_request_over_budget_is_refused_fast(entry, capsys):
    start = time.perf_counter()
    with pytest.raises(DepthTooLarge):
        GUARDED[entry](2000, 1000)
    assert time.perf_counter() - start < 2.0
    if entry == "periodic --check":
        assert capsys.readouterr().err.startswith("budget exceeded:")


def test_entropy_by_blocks_refuses_before_its_first_block():
    # 2^10 words fit the budget at depth 10, 2^30 do not at depth 30: the
    # refusal must come before the shallow depths are enumerated
    built = []
    masses = MarkovMeasure._masses
    with mock.patch.object(MarkovMeasure, "_masses",
                           lambda self, words: built.append(words) or masses(self, words)):
        with pytest.raises(DepthTooLarge):
            entropy_by_blocks(_coin(), 30, budget=1 << 10)
        assert built == []
        entropy_by_blocks(_coin(), 10, budget=1 << 10)
    assert len(built) == 10


def test_count_support_words_100_state_chain_matches_dict_dp():
    rng = np.random.default_rng(100)
    mask = rng.random((100, 100)) < 0.08
    mask[np.arange(1, 100), (np.arange(1, 100) % 99) + 1] = True
    mask[:, 0] = False           # state 0 is transient: pi[0] = 0
    mask[0, 1] = True
    P = np.where(mask, rng.random((100, 100)) + 0.1, 0.0)
    mu = MarkovMeasure.from_transition(P / P.sum(axis=1, keepdims=True))
    assert mu.pi[0] == 0.0
    for n in (1, 2, 25):
        assert (sft_module._count_words(mu.P > 0, n, mu.pi > 0)
                == dict_count(mask, n, mu.pi > 0))


# -- brute-force oracles for the reductions ------------------------------------------


def random_primitive_sft(rng, m):
    while True:
        M = (rng.random((m, m)) < 0.7).astype(np.int8)
        try:
            sft = SubshiftOfFiniteType([str(i) for i in range(m)], M)
        except ZeroRowOrColumn:
            continue
        if sft.validate().primitive:
            return sft


def random_potential(rng, sft, r):
    # values on a coarse grid so that tails and words tie
    return LocallyConstantPotential.from_function(
        sft, r, lambda w: float(rng.integers(-2, 3)) * 0.25)


def brute_sup(pot, word):
    """sup of the Birkhoff sum over [word]: the sum inside the word plus the
    max over admissible tails of the at most r-1 terms that read past it."""
    T, r, n = pot.sft.transition, pot.r, len(word)
    fixed = 0.0
    for i in range(n - r + 1):
        fixed += pot.table[word[i:i + r]]
    if r == 1:
        return fixed
    best = None
    for tail in itertools.product(range(pot.sft.m), repeat=r - 1):
        ext = word + tail
        if not all(T[a][b] for a, b in zip(ext[n - 1:], ext[n:])):
            continue
        s = 0.0
        for i in range(max(0, n - r + 1), n):
            s += pot.table[ext[i:i + r]]
        if best is None or s > best:
            best = s
    return fixed + best


@pytest.mark.parametrize("seed", range(8))
def test_pressure_Pn_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, int(rng.integers(2, 4)))
    pot = random_potential(rng, sft, 1 + seed % 3)
    for n in (1, 2, 5):
        words = brute_words(sft.transition, n)
        ref = [brute_sup(pot, w) for w in words]
        assert pot.birkhoff_sups(np.array(words)).tolist() == ref
        with mock.patch.object(sft_module, "_BLOCK_ROWS", 4):
            value = pressure_Pn(pot, n)
        assert value == logsumexp(ref) / n


def brute_hofbauer_sup(pot, word):
    """Max of S_n phi over the points word.t.0^inf, t in {0,1}^4, and
    word.1^inf; phi at a point is a_k for k leading ones, 0 at 1^inf."""
    n = len(word)
    a = pot.a_array(n + 5)

    def phi(x, ones_forever):
        k = 0
        while k < len(x) and x[k] == 1:
            k += 1
        return 0.0 if k == len(x) and ones_forever else a[k]

    sums = [sum(phi(word[i:] + t, False) for i in range(n))
            for t in itertools.product((0, 1), repeat=4)]
    sums.append(sum(phi(word[i:], True) for i in range(n)))
    return max(sums)


def test_pressure_Pn_on_a_hofbauer_potential_matches_per_word_sups():
    pot = CriticalPowerFamily(exponent=3.0).scale(0.8)
    for n in range(1, 7):
        words = list(itertools.product(range(2), repeat=n))
        sups = [brute_hofbauer_sup(pot, w) for w in words]
        with mock.patch.object(sft_module, "_BLOCK_ROWS", 5):
            value = pressure_Pn(pot, n)
        assert abs(value - logsumexp(sups) / n) < 1e-14
        assert np.max(np.abs(pot.birkhoff_sups(np.array(words)) - sups)) < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_gibbs_bounds_match_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, int(rng.integers(2, 4)))
    mu = gibbs_measure(random_potential(rng, sft, 1 + seed % 2))
    pot2 = mu.potential.with_range(2)
    p = mu.pressure
    with np.errstate(divide="ignore"):
        log_pi, log_P = np.log(mu.markov.pi), np.log(mu.markov.P)
    tail = [p - max(v for w, v in pot2.table.items() if w[0] == a)
            for a in range(sft.m)]
    for n in (1, 3, 6):
        c_min, c_max, argmin, argmax = np.inf, -np.inf, None, None
        for w in brute_words(sft.transition, n):
            log_ratio = log_pi[w[0]] + tail[w[-1]]
            for a, b in zip(w, w[1:]):
                log_ratio += log_P[a, b] - pot2.table[(a, b)] + p
            ratio = np.exp(log_ratio)
            if ratio < c_min:
                c_min, argmin = ratio, w
            if ratio > c_max:
                c_max, argmax = ratio, w
        with mock.patch.object(sft_module, "_BLOCK_ROWS", 3):
            b = gibbs_bounds(mu, n)
        assert (b.c_min, b.c_max, b.argmin, b.argmax) == (c_min, c_max,
                                                          argmin, argmax)


@pytest.mark.parametrize("seed", range(6))
def test_relative_entropy_direct_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, 3)
    mu = gibbs_measure(random_potential(rng, sft, 2))
    P = np.where(sft.transition == 1, rng.random((3, 3)) + 0.2, 0.0)
    nu = MarkovMeasure.from_transition(P / P.sum(axis=1, keepdims=True))
    for n in (1, 4, 7):
        total = 0.0
        for w in itertools.product(range(3), repeat=n):
            if nu.pi[w[0]] == 0 or any(nu.P[a, b] == 0 for a, b in zip(w, w[1:])):
                continue
            mass = nu.pi[w[0]]
            for a, b in zip(w, w[1:]):
                mass *= nu.P[a, b]
            if mass <= 0:
                continue
            log_mu = math.fsum([float(np.log(mu.markov.pi[w[0]]))] +
                               [float(np.log(mu.markov.P[a, b]))
                                for a, b in zip(w, w[1:])])
            total += mass * (np.log(mass) - log_mu)
        with mock.patch.object(sft_module, "_BLOCK_ROWS", 5):
            assert relative_entropy_direct(nu, mu, n) == float(total / n)


@pytest.mark.parametrize("seed", range(6))
def test_lattice_equilibrium_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    m, r = 2 + seed % 2, 1 + seed % 3
    pot = random_potential(rng, full_shift(m), r)
    beta, n = 0.7, 6
    words = list(itertools.product(range(m), repeat=n))
    sums = []
    for w in words:
        total = 0.0
        for i in range(n):
            total += pot.table[tuple(w[(i + j) % n] for j in range(r))]
        sums.append(beta * total)
    log_z = logsumexp(sums)
    with mock.patch.object(sft_module, "_BLOCK_ROWS", 7):
        eq = lattice_equilibrium(n, pot, beta)
    assert eq.pressure == log_z / n
    # itertools.product runs in lexicographic order, the order of eq.masses
    weights = np.exp(np.array(sums) - log_z)
    assert np.array_equal(eq.masses, weights)
