"""Subshift combinatorics against brute-force enumeration oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (Alphabet, MixingReport, NotPrimitive,
                         PeriodTooLarge, SubshiftOfFiniteType,
                         ZeroRowOrColumn, full_shift, golden_mean_shift)
from thermoshift.sft import _word_blocks

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def brute_periodic_count(M, n):
    """Count length-n words that close up cyclically, symbol by symbol."""
    m = len(M)
    count = 0
    for word in itertools.product(range(m), repeat=n):
        ok = all(M[word[i]][word[(i + 1) % n]] for i in range(n))
        count += ok
    return count


def brute_word_count(M, n):
    m = len(M)
    count = 0
    for word in itertools.product(range(m), repeat=n):
        ok = all(M[word[i]][word[i + 1]] for i in range(n - 1))
        count += ok
    return count


TEST_MATRICES = [
    [[1, 1], [1, 1]],
    [[1, 1], [1, 0]],
    [[0, 1], [1, 1]],
    [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[1, 1, 1], [1, 0, 0], [1, 0, 0]],
]


@pytest.mark.parametrize("M", TEST_MATRICES)
def test_periodic_count_matches_brute_cycles(M):
    labels = [chr(ord("a") + i) for i in range(len(M))]
    sft = SubshiftOfFiniteType(Alphabet(labels), np.array(M))
    for n in range(1, 13):
        assert sft.periodic_count(n) == brute_periodic_count(M, n)


@pytest.mark.parametrize("M", TEST_MATRICES)
def test_count_words_matches_brute(M):
    labels = [chr(ord("a") + i) for i in range(len(M))]
    sft = SubshiftOfFiniteType(Alphabet(labels), np.array(M))
    for n in range(1, 10):
        assert sft.count_words(n) == brute_word_count(M, n)


def test_golden_mean_periodic_sequence():
    sft = golden_mean_shift()
    got = [sft.periodic_count(n) for n in range(1, 11)]
    assert got == [1, 3, 4, 7, 11, 18, 29, 47, 76, 123]


def test_golden_mean_word_counts_are_fibonacci():
    sft = golden_mean_shift()
    fib = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert [sft.count_words(n) for n in range(1, 11)] == fib


def cylinders(sft, n):
    """The rows of the enumerator's blocks as a list of word tuples."""
    return [tuple(w) for block in _word_blocks(sft.transition, n)
            for w in block.tolist()]


def test_cylinder_enumeration_hand_lists():
    sft = golden_mean_shift()
    assert sorted(cylinders(sft, 2)) == [(0, 0), (0, 1), (1, 0)]
    assert sorted(cylinders(sft, 3)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert cylinders(sft, 1) == [(0,), (1,)]


def test_cylinders_agree_with_count():
    sft = SubshiftOfFiniteType(Alphabet(["a", "b", "c"]),
                               np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    for n in (1, 3, 6):
        words = cylinders(sft, n)
        assert len(words) == sft.count_words(n)
        assert len(set(words)) == len(words)
        assert all(sft.is_admissible(w) for w in words)


def test_admissibility():
    sft = golden_mean_shift()
    assert sft.is_admissible((0, 1, 0, 1))
    assert not sft.is_admissible((0, 1, 1))
    assert sft.is_admissible(())
    assert sft.transition.tolist() == [[1, 1], [1, 0]]


def test_entropy_golden_mean():
    # the growth rate solves x^2 = x + 1
    sft = golden_mean_shift()
    assert abs(sft.topological_entropy() - math.log(GOLDEN)) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_entropy_full_shift(m):
    sft = full_shift(m)
    assert abs(sft.topological_entropy() - math.log(m)) < 1e-12


def test_entropy_matches_word_growth():
    M = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    sft = SubshiftOfFiniteType(Alphabet(["a", "b", "c"]), np.array(M))
    h = sft.topological_entropy()
    # independent oracle: dominant root of the characteristic polynomial
    lam = max(abs(z) for z in np.roots(np.poly(np.array(M, dtype=float))))
    assert abs(h - math.log(lam)) < 1e-10


def test_periodic_count_refuses_a_period_outside_one_to_its_cap():
    sft = golden_mean_shift()
    with pytest.raises(ValueError, match="period must be >= 1"):
        sft.periodic_count(0)
    with pytest.raises(PeriodTooLarge, match="period 4097 exceeds cap 4096"):
        sft.periodic_count(4097)
    # the trace of M^n on the golden mean shift is the Lucas number L_n
    lucas = [2, 1]
    while len(lucas) <= 4096:
        lucas.append(lucas[-1] + lucas[-2])
    assert sft.periodic_count(4096) == lucas[4096]


def test_mixing_report():
    report = golden_mean_shift().validate()
    assert report.primitive and report.p0 == 2
    # a pure 2-cycle is irreducible but not primitive
    swap = SubshiftOfFiniteType(Alphabet(["a", "b"]),
                                np.array([[0, 1], [1, 0]]))
    assert not swap.validate().primitive
    with pytest.raises(NotPrimitive):
        swap.require_primitive()


def primitivity_exponent_by_steps(M):
    """Smallest p <= (m-1)^2 + 1 with M^p > 0, one boolean power at a time."""
    m = len(M)
    B = np.asarray(M).astype(bool)
    power = B.copy()
    for p in range(1, (m - 1) ** 2 + 2):
        if power.all():
            return p
        power = (power.astype(np.int64) @ B.astype(np.int64)) > 0
    return None


def test_mixing_report_matches_power_steps():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 400:
        m = int(rng.integers(2, 9))
        M = (rng.random((m, m)) < rng.uniform(0.1, 0.7)).astype(np.int8)
        if not (M.sum(axis=0).all() and M.sum(axis=1).all()):
            continue
        report = SubshiftOfFiniteType(Alphabet([str(i) for i in range(m)]),
                                      M).validate()
        assert report.p0 == primitivity_exponent_by_steps(M)
        assert report.primitive == (report.p0 is not None)
        assert report.wielandt_bound == (m - 1) ** 2 + 1
        checked += 1
    # Wielandt's matrices attain the bound
    for m in range(2, 13):
        W = np.zeros((m, m), dtype=np.int8)
        W[np.arange(m - 1), np.arange(1, m)] = 1
        W[m - 1, :2] = 1
        report = SubshiftOfFiniteType(Alphabet([str(i) for i in range(m)]),
                                      W).validate()
        assert report.p0 == (m - 1) ** 2 + 1 == primitivity_exponent_by_steps(W)


def test_large_bipartite_shift_is_not_primitive():
    B = np.zeros((160, 160), dtype=np.int8)
    B[:80, 80:] = B[80:, :80] = 1
    sft = SubshiftOfFiniteType(Alphabet([f"s{i}" for i in range(160)]), B)
    assert sft.validate() == MixingReport(primitive=False, p0=None,
                                          wielandt_bound=159 ** 2 + 1)
    with pytest.raises(NotPrimitive):
        sft.require_primitive()


def test_stranded_symbol_rejected():
    with pytest.raises(ZeroRowOrColumn):
        SubshiftOfFiniteType(Alphabet(["a", "b"]),
                             np.array([[1, 1], [0, 0]]))
    with pytest.raises(ZeroRowOrColumn):
        SubshiftOfFiniteType(Alphabet(["a", "b"]),
                             np.array([[1, 0], [1, 0]]))


def test_alphabet_round_trip():
    al = Alphabet(["x", "y", "z"])
    assert al.index("y") == 1
    assert al.label(2) == "z"
    assert al.word_string((0, 2, 1)) == "xzy"
    assert len(al) == 3


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
def test_word_counts_submultiplicative(n, k):
    # gluing counts: every (n+k)-word splits into an n-word and a k-word
    sft = golden_mean_shift()
    assert sft.count_words(n + k) <= sft.count_words(n) * sft.count_words(k)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_primitive_matrices_trace_vs_brute(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    while True:
        M = (rng.random((m, m)) < 0.6).astype(int)
        np.fill_diagonal(M, np.maximum(M.diagonal(), rng.random(m) < 0.5))
        if M.sum(axis=0).all() and M.sum(axis=1).all():
            break
    sft = SubshiftOfFiniteType(Alphabet([str(i) for i in range(m)]), M)
    for n in (1, 2, 3, 5, 7):
        assert sft.periodic_count(n) == brute_periodic_count(M.tolist(), n)
