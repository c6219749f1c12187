"""Locally constant potentials: tables, Birkhoff sums, recoding."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, SubshiftOfFiniteType,
                         full_shift, golden_mean_shift, pressure, recode_range2)
from thermoshift.transfer import build


def run_weights():
    sft = golden_mean_shift()
    return sft, LocallyConstantPotential(
        sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})


def test_table_coverage_is_exact():
    sft = golden_mean_shift()
    with pytest.raises(ValueError, match="missing"):
        LocallyConstantPotential(sft, 2, {(0, 0): 1.0, (0, 1): 2.0})
    with pytest.raises(ValueError, match="extra"):
        LocallyConstantPotential(
            sft, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 0.0, (1, 1): 9.0})
    with pytest.raises(ValueError):
        LocallyConstantPotential(sft, 0, {(): 1.0})


def test_value_scale_shift_add():
    sft, pot = run_weights()
    assert pot.value((0, 1)) == -0.7
    assert pot.scale(2.0).value((0, 1)) == -1.4
    assert pot.shift(1.0).value((0, 1)) == pytest.approx(0.3)
    both = pot + pot.scale(-1.0)
    assert all(v == 0.0 for v in both.table.values())


def test_add_mixed_ranges():
    sft, pot = run_weights()
    site = LocallyConstantPotential(sft, 1, {(0,): 1.0, (1,): -1.0})
    total = pot + site
    assert total.r == 2
    assert total.value((0, 1)) == pytest.approx(-0.7 + 1.0)
    assert total.value((1, 0)) == pytest.approx(0.4 - 1.0)


def test_with_range_identity_and_lift():
    sft, pot = run_weights()
    assert pot.with_range(2) is pot
    lifted = pot.with_range(3)
    assert lifted.r == 3
    for w in brute_words(sft.transition, 3):
        assert lifted.table[w] == pot.table[w[:2]]
    with pytest.raises(ValueError):
        pot.with_range(1)


def brute_birkhoff_sup(sft, pot, word):
    """Oracle: sup of S_n over all admissible continuations."""
    best = -np.inf
    for tail in itertools.product(range(sft.m), repeat=pot.r - 1):
        full = word + tail
        if sft.is_admissible(full):
            best = max(best, sum(pot.table[full[i:i + pot.r]]
                                 for i in range(len(word))))
    return best


def birkhoff_sups(pot, words):
    """pot.birkhoff_sups on a list of words, as a list of floats."""
    return pot.birkhoff_sups(np.array(words)).tolist()


def test_birkhoff_extremes_match_brute_force():
    sft, pot = run_weights()
    for n in (1, 2, 3, 5):
        words = brute_words(sft.transition, n)
        for sup, word in zip(birkhoff_sups(pot, words), words):
            assert sup == pytest.approx(brute_birkhoff_sup(sft, pot, word),
                                        abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_birkhoff_sups_are_exact_where_tails_tie(data):
    m = data.draw(st.integers(2, 3))
    flat = data.draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    T = np.array(flat, dtype=np.int8).reshape(m, m)
    assume(T.sum(axis=0).all() and T.sum(axis=1).all())
    sft = SubshiftOfFiniteType([str(a) for a in range(m)], T)
    r = data.draw(st.integers(1, 3))
    # a small set of dyadic values: sums are exact, so tails really tie and
    # the sup must come out bit for bit
    value = st.sampled_from([-0.5, 0.0, 0.25, 0.5])
    pot = LocallyConstantPotential.from_function(sft, r, lambda w: data.draw(value))
    for n in (1, 2, 3, 5):
        words = brute_words(T, n)
        assert birkhoff_sups(pot, words) == [brute_birkhoff_sup(sft, pot, w)
                                             for w in words]


def test_birkhoff_range3_potential():
    sft = full_shift(2)
    pot = LocallyConstantPotential.from_function(
        sft, 3, lambda w: float(w[0] - 0.5 * w[1] + 0.25 * w[2]))
    for word in [(0,), (1, 0), (0, 1, 1, 0)]:
        (sup,) = birkhoff_sups(pot, [word])
        assert sup == pytest.approx(brute_birkhoff_sup(sft, pot, word),
                                    abs=1e-14)


def test_range1_has_no_tail_freedom():
    sft = full_shift(2)
    pot = LocallyConstantPotential(sft, 1, {(0,): 0.25, (1,): -1.0})
    (sup,) = birkhoff_sups(pot, [(0, 1, 1)])
    assert sup == pytest.approx(0.25 - 2.0)


def test_recode_identity_for_range2():
    _, pot = run_weights()
    assert recode_range2(pot) is pot


def test_recode_full_shift_range3():
    sft = full_shift(2)
    pot = LocallyConstantPotential.from_function(
        sft, 3, lambda w: 0.1 * w[0] + 0.2 * w[1] + 0.4 * w[2])
    pot2 = recode_range2(pot)
    assert pot2.sft.m == 4
    assert int(pot2.sft.transition.sum()) == 8
    assert pot2.r == 2


def test_recode_golden_mean_range3():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_function(sft, 3, lambda w: float(sum(w)))
    pot2 = recode_range2(pot)
    # the block symbols are the admissible 2-words in lexicographic order
    assert list(pot2.sft.alphabet.labels) == ["00", "01", "10"]
    assert int(pot2.sft.transition.sum()) == 5


def test_recode_preserves_pressure():
    from thermoshift import pressure_Pn

    sft = golden_mean_shift()
    pot = LocallyConstantPotential.from_function(
        sft, 3, lambda w: 0.3 * w[0] - 0.2 * w[1] + 0.15 * w[2])
    p_block = pressure(recode_range2(pot))
    # independent route: recode the range-4 lift, a different block system
    assert abs(p_block - pressure(recode_range2(pot.with_range(4)))) < 1e-10
    # and the cylinder approximants on the original system close in from above
    gaps = [pressure_Pn(pot, n) - p_block for n in (6, 9, 12)]
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[2] < 5e-2 and gaps[2] < gaps[1] < gaps[0]


def test_zero_potential_constructor():
    sft = full_shift(3)
    z = LocallyConstantPotential.zero(sft)
    assert z.r == 1 and set(z.table.values()) == {0.0}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_refused(bad):
    sft = golden_mean_shift()
    with pytest.raises(ValueError, match="finite"):
        LocallyConstantPotential(sft, 2, {(0, 0): -0.2, (0, 1): bad, (1, 0): 0.4})


def test_add_across_subshifts_needs_coverage():
    sft, pot = run_weights()
    full = LocallyConstantPotential(full_shift(2), 1, {(0,): 1.0, (1,): -1.0})
    # the full shift covers every golden-mean word, not the other way round
    total = pot + full
    assert total.sft is sft
    assert total.table == {(0, 0): -0.2 + 1.0, (0, 1): -0.7 + 1.0, (1, 0): 0.4 - 1.0}
    with pytest.raises(ValueError, match=r"does not cover .* \(1, 1\)"):
        full + pot


def test_table_is_a_read_only_view():
    sft, pot = run_weights()
    with pytest.raises(TypeError):
        pot.table[(0, 0)] = 1.0
    with pytest.raises(ValueError):
        pot.dense_table[0, 0] = 1.0


# -- the dense table against the dict loops it replaced -------------------------


def brute_words(T, n):
    return [w for w in itertools.product(range(len(T)), repeat=n)
            if all(T[a][b] for a, b in zip(w, w[1:]))]


def ref_lift(T, table, r, r2):
    return {w: table[w[:r]] for w in brute_words(T, r2)}


def ref_recoding(T, table, r):
    blocks = tuple(brute_words(T, r - 1))
    n2 = len(blocks)
    M2 = np.zeros((n2, n2), dtype=np.int8)
    for i, b in enumerate(blocks):
        for j, c in enumerate(blocks):
            if b[1:] == c[:-1]:
                M2[i, j] = 1
    table2 = {}
    for i, b in enumerate(blocks):
        for j in np.flatnonzero(M2[i]):
            table2[(i, int(j))] = table[b + (blocks[int(j)][-1],)]
    return blocks, M2, table2


def ref_transfer_matrix(m, table2):
    A = np.zeros((m, m))
    for (a, b), val in table2.items():
        A[a, b] = np.exp(val)
    return A


@st.composite
def tabled_potentials(draw):
    """A primitive subshift on m <= 4 symbols and two tables on it, r <= 3."""
    m = draw(st.integers(2, 4))
    flat = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    T = np.array(flat, dtype=np.int8).reshape(m, m)
    assume(T.sum(axis=0).all() and T.sum(axis=1).all())
    sft = SubshiftOfFiniteType([str(a) for a in range(m)], T)
    assume(sft.validate().primitive)
    # a coarse grid next to arbitrary floats, so that values tie
    value = st.one_of(st.integers(-4, 4).map(lambda i: i * 0.25),
                      st.floats(-50, 50, allow_nan=False))
    tables = []
    for _ in range(2):
        r = draw(st.integers(1, 3))
        tables.append({w: draw(value) for w in brute_words(T, r)})
    return sft, tables, draw(value)


@settings(max_examples=60, deadline=None)
@given(tabled_potentials())
def test_dense_table_algebra_matches_the_dict_loops(case):
    sft, (t1, t2), c = case
    T = sft.transition
    r1, r2 = len(next(iter(t1))), len(next(iter(t2)))
    pot, other = (LocallyConstantPotential(sft, r1, t1),
                  LocallyConstantPotential(sft, r2, t2))
    assert pot.table == t1 and list(pot.table) == brute_words(T, r1)
    for r in range(r1, 5):
        assert pot.with_range(r).table == ref_lift(T, t1, r1, r)
    assert pot.scale(c).table == {w: c * v for w, v in t1.items()}
    assert pot.shift(c).table == {w: v + c for w, v in t1.items()}
    r = max(r1, r2)
    a, b = ref_lift(T, t1, r1, r), ref_lift(T, t2, r2, r)
    assert (pot + other).table == {w: a[w] + b[w] for w in a}
    assert LocallyConstantPotential.zero(sft, r2).table == {w: 0.0 for w in t2}

    pot2 = recode_range2(pot)
    if r1 <= 2:
        assert pot2 is pot
        table2 = ref_lift(T, t1, r1, 2)
    else:
        blocks, M2, table2 = ref_recoding(T, t1, r1)
        # the labels of single-character symbols spell the blocks, in order
        assert list(pot2.sft.alphabet.labels) == ["".join(map(str, b))
                                                  for b in blocks]
        assert np.array_equal(pot2.sft.transition, M2)
        assert pot2.table == table2
    A = build(pot2)
    assert np.array_equal(A, ref_transfer_matrix(pot2.sft.m, table2))
