"""The block enumerator, the exact word counter and the reductions built on them.

Every reference here walks ``itertools.product`` word by word in plain
Python, so none of them shares the enumeration engine it checks.  Where the
engine keeps the per-word arithmetic order the results must agree bit for
bit; a path sum over the chain or the (r-1)-words agrees within a rounding
bound derived beside its test.
"""

import contextlib
import io
import itertools
import math
import re
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, MarkovMeasure,
                         SubshiftOfFiniteType, aep_partition,
                         entropy_by_blocks, full_shift,
                         gibbs_bounds, gibbs_measure, lattice_equilibrium,
                         pressure_Pn, pressure_Pn_curve,
                         relative_entropy_direct)
from thermoshift import measures
from thermoshift import sft as sft_module
from thermoshift import variational
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


def test_blocks_hold_the_smallest_unsigned_dtype_of_a_symbol():
    for m, dtype in ((2, np.uint8), (256, np.uint8), (257, np.uint16)):
        T = np.ones((m, m), dtype=np.int8)
        blocks = list(sft_module._word_blocks(T, 2))
        assert {b.dtype for b in blocks} == {np.dtype(dtype)}
        assert sum(map(len, blocks)) == m * m


def test_symbol_255_of_a_256_symbol_cycle_does_not_wrap():
    # a step to itself or to the next symbol mod 256: 255 -> 0 and 255 -> 255
    # are words, and the successors of 255 are read at first[255 + 1]
    m = 256
    T = np.zeros((m, m), dtype=np.int8)
    T[np.arange(m), np.arange(m)] = 1
    T[np.arange(m), (np.arange(m) + 1) % m] = 1
    succ = [[b for b in range(m) if T[a][b]] for a in range(m)]
    expected = [(a, b, c) for a in range(m) for b in succ[a] for c in succ[b]]
    with mock.patch.object(sft_module, "_BLOCK_ROWS", 100):
        got = [tuple(w) for b in sft_module._word_blocks(T, 3)
               for w in b.tolist()]
    assert got == expected


def test_depth_21_enumeration_holds_one_byte_a_symbol():
    # the frontier holds one block per depth: 4096 rows of d symbols at each
    # d <= 21 is 0.9 MiB at a byte a symbol, where int64 words peaked at
    # 6.6 MiB of traced memory
    T = np.ones((2, 2), dtype=np.int8)
    for _ in sft_module._word_blocks(T, 4):   # numpy's first-call caches
        pass
    tracemalloc.start()
    try:
        count = sum(len(b) for b in sft_module._word_blocks(T, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 ** 21
    assert peak < 1.5 * 2 ** 20


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
            got = [(w, mass)
                   for words in sft_module._word_blocks(mu.P > 0, n, mu.pi > 0)
                   for w, mass in zip(map(tuple, words.tolist()), mu._masses(words))]
        assert [w for w, _ in got] == expected
        assert all(mass == product_mass(mu, w) for w, mass in got)
    assert sft_module._count_words(mu.P > 0, n, mu.pi > 0) == len(expected)


def enumerated_expectation(mu, potential):
    """The expectation as the cylinder enumeration summed it: the r-words of
    positive pi and steps in lex order, each mass times its table entry,
    added left to right; the first word where the table is NaN raises."""
    total = 0.0
    for w in brute_words(mu.P > 0, potential.r, mu.pi > 0):
        value = potential.dense_table[w]
        if math.isnan(value):
            raise ValueError(f"the potential is not defined on {w}")
        total += product_mass(mu, w) * value
    return total


@settings(max_examples=200, deadline=None)
@given(chains(), st.integers(1, 4), st.booleans(), st.data())
def test_expectation_is_the_enumerated_sum(mu, r, inside, data):
    # the potential lives on a random subshift that holds the chain's
    # support when ``inside``, and otherwise may miss some of its words
    m = mu.m
    allowed = np.array(data.draw(st.lists(st.booleans(), min_size=m * m,
                                          max_size=m * m))).reshape(m, m)
    allowed[np.arange(m), (np.arange(m) + 1) % m] = True   # no stranded symbol
    if inside:
        allowed |= mu.P > 0
    sft = SubshiftOfFiniteType([str(a) for a in range(m)], allowed.astype(np.int8))
    values = np.reshape(data.draw(st.lists(
        st.floats(-1e3, 1e3, allow_subnormal=False), min_size=m ** r,
        max_size=m ** r)), (m,) * r)
    pot = LocallyConstantPotential.from_function(sft, r, lambda w: values[w])
    try:
        expected = enumerated_expectation(mu, pot)
    except ValueError as exc:
        assert not inside
        with pytest.raises(ValueError) as got:
            mu.expectation(pot)
        assert str(got.value) == str(exc)
    else:
        assert mu.expectation(pot) == expected


# -- budget guards on large alphabets ------------------------------------------------


def test_count_words_400_symbols_matches_dict_dp_and_guard_is_fast():
    rng = np.random.default_rng(400)
    M = (rng.random((400, 400)) < 0.25).astype(np.int8)
    sft = SubshiftOfFiniteType([f"s{i}" for i in range(400)], M)
    assert sft.count_words(30) == dict_count(M, 30)
    pot = LocallyConstantPotential.zero(sft)
    # the recursion is priced before its first step, so a deep request
    # costs no more than a shallow one
    for depth in (100, 2000):
        start = time.perf_counter()
        with pytest.raises(DepthTooLarge):
            pressure_Pn(pot, depth, budget=10 ** 7)
        assert time.perf_counter() - start < 2.0


def _coin():
    return MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])


def _periodic_check(n, budget):
    """`thermoshift periodic --check`, which reports DepthTooLarge as exit 2
    with its message on stderr; raised again here so every entry point is
    checked alike."""
    golden = Path(__file__).parent.parent / "demos" / "models" / "golden-mean.yaml"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["periodic", str(golden), "--n", str(n), "--check",
                     "--budget", str(budget)])
    if code == 2:
        raise DepthTooLarge(err.getvalue().removeprefix("budget exceeded: "))


def _relative_entropy_direct(n, budget):
    mu = gibbs_measure(LocallyConstantPotential.zero(full_shift(2)))
    relative_entropy_direct(_coin(), mu, n, budget=budget)


def _zero():
    return LocallyConstantPotential.zero(full_shift(2))


# every caller of the one guard, errors.price
GUARDED = {
    "pressure_Pn": lambda n, budget: pressure_Pn(_zero(), n, budget=budget),
    "gibbs_bounds": lambda n, budget: gibbs_bounds(gibbs_measure(_zero()), n,
                                                   budget=budget),
    "relative_entropy_direct": _relative_entropy_direct,
    "entropy_by_blocks": lambda n, budget: entropy_by_blocks(_coin(), n,
                                                             budget=budget),
    "aep_partition": lambda n, budget: aep_partition(_coin(), n, 0.1, budget=budget),
    "periodic --check": _periodic_check,
    "lattice_equilibrium": lambda n, budget: lattice_equilibrium(
        n, _zero(), 1.0, budget=budget),
    "periodic_count": lambda n, budget: full_shift(12).periodic_count(
        n, budget=budget),
}

# what was priced, its cost in word-equivalents and the budget; a count
# that stopped once past the budget is only known to be more
REFUSAL = re.compile(r"^(the path sum to depth 2000|listing the 2000-words|the "
                     r"trace of M\^2000 over 12 symbols) costs (\d+|more than "
                     r"1000) word-equivalents, over the budget 1000$")


@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_deep_request_over_budget_is_refused_fast(entry):
    start = time.perf_counter()
    with pytest.raises(DepthTooLarge) as refused:
        GUARDED[entry](2000, 1000)
    assert time.perf_counter() - start < 2.0
    assert REFUSAL.match(str(refused.value).strip()), str(refused.value)


def test_a_walk_that_never_branches_is_priced_by_its_depth():
    # the support of a 2-cycle is two words at every depth, so the count
    # never passes the budget; its steps and the walk's blocks are priced
    # instead, and refused before the first at 10^6 and 10^8, where 10^5
    # took 3.1 s on a 2-vCPU x86-64 machine
    flip = MarkovMeasure([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    for n in (10 ** 6, 10 ** 8):
        start = time.perf_counter()
        with pytest.raises(DepthTooLarge, match=rf"^listing the {n}-words costs "
                           r"more than 10000000 word-equivalents"):
            aep_partition(flip, n, 0.1)
        assert time.perf_counter() - start < 0.1
    part = aep_partition(flip, 1000, 0.1)
    assert part.word_count == 2 and part.typical_mass == 1.0


def test_entropy_by_blocks_refuses_before_its_first_block():
    # the pass is priced before its first step: 10 (2^2 + 40) word-equivalents
    # fit a budget of 2^10 and 30 (2^2 + 40) do not, and a refused call
    # yields no depth, however deep the request
    steps = []
    forward = measures._log_term_sums

    def spy(*args):
        for acc in forward(*args):
            steps.append(acc)
            yield acc

    with mock.patch.object(measures, "_log_term_sums", spy):
        for n in (30, 10 ** 12):
            start = time.perf_counter()
            with pytest.raises(DepthTooLarge):
                entropy_by_blocks(_coin(), n, budget=1 << 10)
            assert time.perf_counter() - start < 1.0
        assert steps == []
        entropy_by_blocks(_coin(), 10, budget=1 << 10)
    assert len(steps) == 10


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


U = 2.0 ** -53


def pn_rounding_bound(pot, n, words):
    """Bound on |P_n - logsumexp(sups)/n| between the path-sum recursion and
    the enumeration of ``words``, from rounding alone (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.1 and §4.2).

    With N = n + r, Phi = max |phi| and V = N (Phi + log m), every value
    either route forms lies in [-V, V], and gamma_k <= 2ku.  The sups and
    tail sups are float sums of at most N terms: gamma_N V each.  A
    logsumexp of k values shifts by the maximum (2uV), exponentiates (u),
    sums (gamma_k) and adds back log1p, log k and the maximum (3uV): at most
    u (5V + 1) + 2ku.  Each of the N recursion steps adds phi (uV) and folds
    m terms by m - 1 logaddexps, each of which subtracts (2uV), takes
    exp and log1p (2u) and adds the maximum (uV); logaddexp is 1-Lipschitz
    in the max norm, so errors carried in are not amplified.  The last
    logsumexp, over W words or m^(r-1) states, follows adding the tail sup
    (uV), and dividing by n rounds each side by u |P_n| <= uV/n.  In all,
    n |dP_n| <= u (N (3mV + 4V + 2m) + 13V + 2W + 2m^(r-1) + 2).
    """
    phi = np.abs(np.nan_to_num(pot.dense_table))
    m, r = pot.sft.m, max(pot.r, 2)
    N = n + r
    V = N * (float(phi.max()) + math.log(m))
    return U * (N * (3 * m * V + 4 * V + 2 * m) + 13 * V + 2 * len(words)
                + 2 * m ** (r - 1) + 2) / n


def windows_and_tail(pot, words):
    """The sup of S_n over each word's cylinder: the windows inside the word,
    summed left to right, plus the engine's max-plus tail sup at its last
    min(n, r - 1) symbols."""
    words = np.array(words)
    n, r = words.shape[1], pot.r
    fixed = np.zeros(len(words))
    for i in range(n - r + 1):
        fixed = fixed + pot.dense_table[tuple(words[:, i:i + r].T)]
    k = min(n, r - 1)
    if k == 0:
        return fixed
    *_, tail = variational._max_plus_tails(pot.dense_table, k)
    return fixed + tail[tuple(words[:, n - k:].T)]


@pytest.mark.parametrize("seed", range(8))
def test_pressure_Pn_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, int(rng.integers(2, 4)))
    pot = random_potential(rng, sft, 1 + seed % 3)
    for n in (1, 2, 5):
        words = brute_words(sft.transition, n)
        ref = [brute_sup(pot, w) for w in words]
        assert windows_and_tail(pot, words).tolist() == ref
        assert (abs(pressure_Pn(pot, n) - logsumexp(ref) / n)
                <= pn_rounding_bound(pot, n, words))


@pytest.mark.parametrize("seed", range(8))
def test_birkhoff_sups_at_range_4_and_5_match_word_by_word_reference(seed):
    # real values: the tail sup sums right to left and the reference left
    # to right, so the two may differ in the last bit
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, int(rng.integers(2, 4)))
    for r in (4, 5):
        pot = LocallyConstantPotential.from_function(
            sft, r, lambda w: float(rng.normal()))
        for n in (1, 3, 6):
            words = brute_words(sft.transition, n)
            ref = [brute_sup(pot, w) for w in words]
            assert np.max(np.abs(windows_and_tail(pot, words) - ref)) < 1e-14
            assert (abs(pressure_Pn(pot, n) - logsumexp(ref) / n)
                    <= pn_rounding_bound(pot, n, words))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pressure_Pn_is_the_enumerated_sum_within_its_rounding_bound(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m, r = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 5))
    sft = random_primitive_sft(rng, m)
    if data.draw(st.booleans()):
        pot = random_potential(rng, sft, r)
    else:
        scale = data.draw(st.sampled_from([0.1, 1.0, 30.0]))
        pot = LocallyConstantPotential.from_function(
            sft, r, lambda w: scale * float(rng.normal()))
    # the brute words and sups walk m^n words and m^(r-1) tails each
    n = data.draw(st.integers(1, max(n for n in range(1, 13)
                                     if m ** (n + r - 1) <= 4096)))
    words = brute_words(sft.transition, n)
    ref = logsumexp([brute_sup(pot, w) for w in words]) / n
    curve = pressure_Pn_curve(pot, n)
    assert abs(curve[-1] - ref) <= pn_rounding_bound(pot, n, words)
    # one implementation: every depth of the curve is pressure_Pn bit for bit
    assert curve == [pressure_Pn(pot, j) for j in range(1, n + 1)]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pressure_Pn_keeps_every_path_at_phi_800(sign):
    # exp(800) overflows and exp(-800) underflows: a linear pass rescaled
    # once per step would lose the paths that later dominate
    pot = LocallyConstantPotential.from_function(
        full_shift(3), 2, lambda w: sign * 800.0 * (w[0] != w[1]))
    curve = pressure_Pn_curve(pot, 8)
    for n in range(1, 9):
        words = brute_words(pot.sft.transition, n)
        ref = logsumexp([brute_sup(pot, w) for w in words]) / n
        assert abs(curve[n - 1] - ref) <= pn_rounding_bound(pot, n, words)


def gamma(k):
    """Higham's gamma_k = ku / (1 - ku): a float sum or product of k + 1
    terms errs by at most gamma_k times the sum of their absolute values."""
    return k * U / (1 - k * U)


def brute_gibbs_log_ratios(mu, n):
    """(log-ratio, word) of every admissible n-word of mu's subshift, summed
    left to right: log pi(w_0) + tail(w_(n-1)), then each step
    log P - phi + pressure; and V, the largest |term| of those sums."""
    pot2 = mu.potential.with_range(2)
    p = mu.pressure
    with np.errstate(divide="ignore"):
        log_pi, log_P = np.log(mu.pi), np.log(mu.P)
    tail = [p - max(v for w, v in pot2.table.items() if w[0] == a)
            for a in range(mu.m)]
    steps = {(a, b): log_P[a, b] - v + p for (a, b), v in pot2.table.items()}
    sums = []
    for w in brute_words(mu.potential.sft.transition, n):
        log_ratio = log_pi[w[0]] + tail[w[-1]]
        for a, b in zip(w, w[1:]):
            log_ratio += steps[(a, b)]
        sums.append((log_ratio, w))
    V = max(map(abs, [*log_pi, *tail, *steps.values()]))
    return sums, V


def gibbs_bounds_log_error(n, V):
    """Bound on the distance between the path sum's extreme log-ratios and
    the enumeration's (Higham, §4.2).  Both add the same n + 1 doubles,
    log pi, the n - 1 steps and the tail, each at most V: the enumeration
    left to right, the (min, +) pass right to left.  Each order errs by at
    most gamma_n (n + 1) V, so one word's two sums differ by at most
    2 gamma_n (n + 1) V, and a min or max over the words moves by no more
    than its terms do."""
    return 2 * gamma(n) * (n + 1) * V


def check_gibbs_bounds_against_words(mu, n):
    """gibbs_bounds(mu, n) against the word-by-word enumeration.

    With delta from ``gibbs_bounds_log_error`` and exp rounded to within
    two ulps (4u relative) on each side, each extreme ratio c is within
    c expm1(delta + 9u) of the enumeration's, and so is the enumeration's
    ratio of the word returned with it.  That word must be the
    enumeration's, its lexicographically first, wherever the runner-up, the
    most extreme ratio of another word, lies beyond the best by a factor
    over exp(2 (delta + 9u)): no rounding within the bounds can then reorder
    the two.
    """
    sums, V = brute_gibbs_log_ratios(mu, n)
    rel = math.expm1(gibbs_bounds_log_error(n, V) + 9 * U)
    b = gibbs_bounds(mu, n)
    ratios = {w: float(np.exp(s)) for s, w in sums}
    for got, word, sign in ((b.c_min, b.argmin, 1), (b.c_max, b.argmax, -1)):
        best_word = min(ratios, key=lambda w: sign * ratios[w])
        best = ratios[best_word]
        assert abs(got - best) <= best * rel
        assert abs(ratios[word] - got) <= got * rel
        others = [r for w, r in ratios.items() if w != best_word]
        if others and (sign * math.log(min(others, key=lambda r: sign * r) / best)
                       > 2 * math.log1p(rel)):
            assert word == best_word


@pytest.mark.parametrize("seed", range(8))
def test_gibbs_bounds_match_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, int(rng.integers(2, 4)))
    mu = gibbs_measure(random_potential(rng, sft, 1 + seed % 2))
    for n in (1, 3, 6):
        check_gibbs_bounds_against_words(mu, n)


def random_chain_under(rng, mu):
    """A chain with random positive weights on the support of mu's."""
    P = np.where(mu.P > 0, rng.random(mu.P.shape) + 0.2, 0.0)
    return MarkovMeasure.from_transition(P / P.sum(axis=1, keepdims=True))


def brute_relent(nu, mu, n):
    """(H_n(nu | mu), words): the sum over nu's n-words of positive mass of
    mass * (log mass - log mu[w]), left to right, each mass a product of
    pi and the steps and each log mu[w] the fsum of its log terms."""
    total, words = 0.0, brute_words(nu.P > 0, n, nu.pi > 0)
    for w in words:
        mass = nu.pi[w[0]]
        for a, b in zip(w, w[1:]):
            mass *= nu.P[a, b]
        if mass <= 0:
            continue
        log_mu = math.fsum([float(np.log(mu.pi[w[0]]))] +
                           [float(np.log(mu.P[a, b])) for a, b in zip(w, w[1:])])
        total += mass * (np.log(mass) - log_mu)
    return total, words


def log_extent(*arrays):
    """L, the largest |log x| over the positive entries of the arrays."""
    return max(float(np.abs(np.log(x[x > 0])).max()) for x in arrays)


def forward_pass_error(m, n, L):
    """Bound on the rounding of the forward pass's H_n (Higham, §3.1 and
    §4.2), the terms being logs or differences of logs of entries at most
    L in |log|: each term is at most 2L, so every sum of |mass * term| over
    the words, whose masses add up to one, is at most 2nL.  The pass rounds
    each term by at most 4uL (two logs and a difference), n 4uL over a
    word.  Its state entries are sums of products of nonnegative masses
    with those terms: the first state is one product, each step forms
    P * step once (u), multiplies the state in (u) and sums 2m products
    (gamma_2m), and the last sum adds m entries, so in all
    gamma_((2m + 2) n + m + 1) on at most 2nL."""
    return 4 * n * U * L + gamma((2 * m + 2) * n + m + 1) * 2 * n * L


def relent_rounding_bound(nu, mu, n, words):
    """Bound on |H_n(nu | mu)/n| between the forward pass and
    ``brute_relent`` over ``words``, to first order in u.  The pass errs by
    ``forward_pass_error``.  The reference forms each word's mass by n - 1
    products (gamma_n relative), its log (u nL, plus |log(1 + gamma_n)| <=
    2 gamma_n), the fsum of n rounded logs (n uL + u nL) and their
    difference (2u nL): at most 2 gamma_n + 5u nL a word.  The product with
    the mass adds u + gamma_n relative on at most 2nL, and the ordered sum
    of the W words gamma_W on at most 2nL.  Dividing by n rounds each side
    by u |H_n/n| <= 2uL."""
    m, L, W = nu.m, log_extent(nu.pi, nu.P, mu.pi, mu.P), len(words)
    reference = (2 * gamma(n) + 5 * n * U * L
                 + (U + gamma(n) + gamma(W)) * 2 * n * L)
    return (forward_pass_error(m, n, L) + reference) / n + 4 * U * L


@pytest.mark.parametrize("seed", range(6))
def test_relative_entropy_direct_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    sft = random_primitive_sft(rng, 3)
    mu = gibbs_measure(random_potential(rng, sft, 2))
    nu = random_chain_under(rng, mu)
    for n in (1, 4, 7):
        total, words = brute_relent(nu, mu, n)
        assert (abs(relative_entropy_direct(nu, mu, n) - total / n)
                <= relent_rounding_bound(nu, mu, n, words))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chain_passes_are_the_enumerated_sums_within_their_rounding_bounds(data):
    # gibbs_bounds, relative_entropy_direct and entropy_by_blocks on random
    # primitive subshifts with m <= 4, r <= 3 and n <= 12; a range-3 Gibbs
    # state lives on the 2-blocks, whose n-words are (n + 1)-words
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m, r = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
    sft = random_primitive_sft(rng, m)
    if data.draw(st.booleans()):
        pot = random_potential(rng, sft, r)
    else:
        scale = data.draw(st.sampled_from([0.1, 1.0, 4.0]))
        pot = LocallyConstantPotential.from_function(
            sft, r, lambda w: scale * float(rng.normal()))
    mu = gibbs_measure(pot)
    n = data.draw(st.integers(1, max(n for n in range(1, 13)
                                     if m ** (n + max(r, 2) - 1) <= 4096)))
    check_gibbs_bounds_against_words(mu, n)
    nu = random_chain_under(rng, mu)
    total, words = brute_relent(nu, mu, n)
    assert (abs(relative_entropy_direct(nu, mu, n) - total / n)
            <= relent_rounding_bound(nu, mu, n, words))
    # -sum mass log mass: the relative entropy's terms with mu's logs at 0,
    # so its bound covers them
    rates = entropy_by_blocks(nu, n).rates
    for j in range(1, n + 1):
        words = brute_words(nu.P > 0, j, nu.pi > 0)
        masses = [nu.pi[w[0]] * math.prod(nu.P[a, b] for a, b in zip(w, w[1:]))
                  for w in words]
        h = 0.0
        for mass in masses:
            h -= mass * math.log(mass) if mass > 0 else 0.0
        assert abs(rates[j - 1] - h / j) <= relent_rounding_bound(nu, nu, j, words)


def test_relative_entropy_direct_is_the_exact_identity_at_depth_10000():
    # H_n(nu | mu) = KL(pi || pi') + (n - 1) sum_a pi_a KL(P_a || P'_a) for
    # a stationary chain nu = (pi, P) and mu = (pi', P'); this chain's pi
    # is stationary in floats (dyadic and doubly stochastic), so the pass
    # errs by its rounding alone, and mpmath sums the identity exactly.  The
    # bound is far below the 1/n term (KL(pi || pi') - rate)/n, which a pass
    # one step short or long would miss by
    P = np.array([[4, 2, 1, 1], [1, 4, 2, 1], [1, 1, 4, 2], [2, 1, 1, 4]]) / 8
    nu = MarkovMeasure([0.25] * 4, P)
    rng = np.random.default_rng(11)
    mu = gibbs_measure(LocallyConstantPotential.from_function(
        full_shift(4), 2, lambda w: float(rng.normal())))
    n = 10 ** 4
    with mpmath.workdps(40):
        log = mpmath.log
        kl_pi = mpmath.fsum(a * (log(a) - log(b)) for a, b in zip(nu.pi, mu.pi))
        rate = mpmath.fsum(nu.pi[a] * P[a, b] * (log(P[a, b]) - log(mu.P[a, b]))
                           for a in range(4) for b in range(4))
        exact = float((kl_pi + (n - 1) * rate) / n)
    L = log_extent(nu.pi, nu.P, mu.pi, mu.P)
    bound = forward_pass_error(4, n, L) / n + 2 * U * L
    assert abs(relative_entropy_direct(nu, mu, n) - exact) <= bound
    assert bound < abs(float(kl_pi - rate)) / n / 100


@pytest.mark.parametrize("seed", range(8))
def test_lattice_equilibrium_matches_word_by_word_reference(seed):
    rng = np.random.default_rng(seed)
    # seeds 6 and 7: a window spanning the whole ring (n = r) and one that
    # wraps around it (n = r + 1)
    m, r, n = (2 + seed % 2, 1 + seed % 3, 6) if seed < 6 else (3, 3, seed - 3)
    pot = random_potential(rng, full_shift(m), r)
    beta = 0.7
    words = list(itertools.product(range(m), repeat=n))
    sums = []
    for w in words:
        total = 0.0
        for i in range(n):
            total += pot.table[tuple(w[(i + j) % n] for j in range(r))]
        sums.append(beta * total)
    log_z = logsumexp(sums)
    eq = lattice_equilibrium(n, pot, beta)
    assert eq.pressure == log_z / n
    # itertools.product runs in lexicographic order, the order of eq.masses
    weights = np.exp(np.array(sums) - log_z)
    assert np.array_equal(eq.masses, weights)
