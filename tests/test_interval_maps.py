"""Piecewise linear Markov maps: exact geometry, densities, and dimensions."""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from thermoshift import modelio
from thermoshift.errors import IsRepeller, NotExpanding, NotMarkov
from thermoshift.interval_maps import (PiecewiseLinearMarkovMap, acim,
                                       bowen_dimension, bowen_root, code,
                                       square_coding)
from thermoshift.potentials import _block_labels

MODELS = Path(__file__).parent.parent / "demos" / "models"


def cantor_map():
    return PiecewiseLinearMarkovMap(
        ["0", "1/3", "2/3", "1"],
        [(3, (0, 1, 2)), None, (3, (0, 1, 2))])


def doubling_map():
    return PiecewiseLinearMarkovMap(
        ["0", "1/2", "1"], [(2, (0, 1)), (2, (0, 1))])


def golden_interval_map():
    return PiecewiseLinearMarkovMap(
        ["0", "2/3", "1"], [("3/2", (0, 1)), (2, (0,))])


def uneven_repeller():
    return PiecewiseLinearMarkovMap(
        ["0", "1/2", "3/4", "1"],
        [(2, (0, 1, 2)), (4, (0, 1, 2)), None])


# -- construction --------------------------------------------------------------------


def test_geometry_is_exact_rational():
    imap = cantor_map()
    assert imap.lengths == (Fraction(1, 3),) * 3
    assert not imap.covering
    assert doubling_map().covering


def test_negative_slopes_are_supported():
    tent = PiecewiseLinearMarkovMap(
        ["0", "1/2", "1"], [(2, (0, 1)), (-2, (0, 1))])
    result = acim(tent)
    assert all(abs(d - 1.0) < 1e-12 for d in result.densities.values())


def test_constructor_rejections():
    with pytest.raises(NotMarkov):
        PiecewiseLinearMarkovMap(["0", "1/2"], [(2, (0,))])
    with pytest.raises(NotMarkov):
        PiecewiseLinearMarkovMap(["0", "2/3", "1/3", "1"],
                                 [(3, (0,)), (3, (1,)), (3, (2,))])
    with pytest.raises(NotExpanding):
        PiecewiseLinearMarkovMap(["0", "1/2", "1"], [(1, (0,)), (2, (0, 1))])
    # slope times length must match the image length exactly
    with pytest.raises(NotMarkov):
        PiecewiseLinearMarkovMap(["0", "1/2", "1"], [(3, (0, 1)), (2, (0, 1))])
    with pytest.raises(NotMarkov):
        PiecewiseLinearMarkovMap(["0", "1/3", "2/3", "1"],
                                 [None, None, None])


# -- coding ---------------------------------------------------------------------------


def test_golden_interval_codes_to_golden_mean():
    coded = code(golden_interval_map())
    assert coded.potential.sft.transition.tolist() == [[1, 1], [1, 0]]
    assert coded.potential.table[(0,)] == -float(np.log(1.5))
    assert coded.potential.table[(1,)] == -float(np.log(2.0))


def cylinder_length(coded, word):
    """Exact length of the interval cylinder coded by the word: 0 off the
    coding subshift, else the last interval's length over the slopes of the
    intervals before it."""
    word = tuple(word)
    if not coded.potential.sft.is_admissible(word):
        return Fraction(0)
    total = coded.map.lengths[coded.symbols[word[-1]]]
    for sym in word[:-1]:
        total /= abs(coded.map.branches[coded.symbols[sym]].slope)
    return total


def test_cylinder_lengths_are_exact():
    coded = code(cantor_map())
    assert cylinder_length(coded, (0, 1, 0)) == Fraction(1, 27)
    assert cylinder_length(coded, (1, 1, 1, 1)) == Fraction(1, 81)
    golden = code(golden_interval_map())
    assert cylinder_length(golden, (1, 1)) == Fraction(0)
    assert cylinder_length(golden, (0, 1)) == Fraction(1, 3) / Fraction(3, 2)
    # depth-n cylinder lengths tile the branch intervals
    words = itertools.product(range(2), repeat=6)
    assert sum(cylinder_length(golden, w) for w in words) == Fraction(1)


def image_span(imap, i):
    image = imap.branches[i].image
    return imap.breakpoints[image.start], imap.breakpoints[image.stop]


def preimage_in_branch(imap, i, lo, hi):
    """Exact preimage of [lo, hi], inside the image of branch i, under it:
    the branch is T(x) = T(x0) + slope (x - x0) from the left end x0."""
    slope = imap.branches[i].slope
    x0, _ = imap.interval(i)
    img_lo, img_hi = image_span(imap, i)
    start = img_lo if slope > 0 else img_hi
    a, b = x0 + (lo - start) / slope, x0 + (hi - start) / slope
    return min(a, b), max(a, b)


def squared_by_partition_scan(imap):
    """The square T^2 built by scanning the refined partition for every
    cylinder and every image, and the pair (a, b) of T's intervals whose
    2-cylinder each of its branch intervals is."""
    cyl = {}
    for a in imap.branch_ids:
        for b in imap.branch_ids:
            if b in imap.branches[a].image:
                lo, hi = imap.interval(b)
                cyl[(a, b)] = preimage_in_branch(imap, a, lo, hi)
    points = set(imap.breakpoints)
    for lo, hi in cyl.values():
        points.add(lo)
        points.add(hi)
    pts = sorted(points)
    index_of = {}
    for k in range(len(pts) - 1):
        index_of[(pts[k], pts[k + 1])] = k
    n_new = len(pts) - 1
    branches = [None] * n_new
    words = {}
    for (a, b), (lo, hi) in cyl.items():
        i_new = index_of[(lo, hi)]
        img_lo, img_hi = image_span(imap, b)
        image = tuple(k for k in range(n_new)
                      if img_lo <= pts[k] and pts[k + 1] <= img_hi)
        slope = imap.branches[a].slope * imap.branches[b].slope
        branches[i_new] = (slope, image)
        words[i_new] = (a, b)
    return PiecewiseLinearMarkovMap(pts, branches), words


def test_squared_map_refines_the_partition():
    sq, _ = squared_by_partition_scan(cantor_map())
    assert [str(x) for x in sq.breakpoints] == \
        ["0", "1/9", "2/9", "1/3", "2/3", "7/9", "8/9", "1"]
    assert all(b is None or abs(b.slope) == 9 for b in sq.branches)
    sq2, _ = squared_by_partition_scan(doubling_map())
    assert len(sq2.branch_ids) == 4
    assert sq2.covering
    square = square_coding(code(cantor_map()).potential)
    assert square.sft.alphabet.labels == ("I0I0", "I0I2", "I2I0", "I2I2")
    assert square.sft.transition.all()
    assert (square.dense_table == -2 * float(np.log(3.0))).all()


def check_squares(imap, times):
    """square_coding is code(T^2) for the geometric square T^2, ``times``
    squares up from imap: the same 2-word for each symbol, the same
    transitions, and the potentials within 1 ulp."""
    coded = code(imap)
    pot, symbol = coded.potential, {i: s for s, i in enumerate(coded.symbols)}
    for _ in range(times):
        sq, words = squared_by_partition_scan(imap)
        square = square_coding(pot)
        pairs = list(map(tuple, np.argwhere(pot.sft.transition).tolist()))
        assert square.sft.alphabet.labels == tuple(
            _block_labels(pot.sft.alphabet, pairs))
        index = {pair: k for k, pair in enumerate(pairs)}
        symbol = {i: index[symbol[a], symbol[b]] for i, (a, b) in words.items()}
        geo = code(sq)
        order = [symbol[i] for i in geo.symbols]
        assert sorted(order) == list(range(square.sft.m))
        assert np.array_equal(square.sft.transition[np.ix_(order, order)],
                              geo.potential.sft.transition)
        values, exact = square.dense_table[order], geo.potential.dense_table
        assert (np.abs(values - exact) <= np.spacing(np.abs(exact))).all()
        pot, imap = square, sq


def grid_map(seed, n, holes, signed):
    """n equal intervals, ``holes`` of them holes (never interval 0); each
    branch maps onto a random run of k >= 2 intervals with slope +-k."""
    rng = np.random.default_rng(seed)
    branches = [None] * n
    for i in [0] + (1 + rng.permutation(n - 1)[holes:]).tolist():
        k = int(rng.integers(2, n + 1))
        start = int(rng.integers(0, n - k + 1))
        sign = -1 if signed and rng.random() < 0.5 else 1
        branches[i] = (sign * k, range(start, start + k))
    return PiecewiseLinearMarkovMap([Fraction(i, n) for i in range(n + 1)],
                                    branches)


SHIPPED_MAPS = [path.name for path in sorted(MODELS.glob("*.yaml"))
                if modelio.parse(path).kind == "markov-map"]


@pytest.mark.parametrize("name", SHIPPED_MAPS)
def test_square_of_shipped_map_matches_partition_scan(name):
    check_squares(modelio.parse(MODELS / name).obj, 2)


@pytest.mark.parametrize("n, holes, signed, seed", [
    (20, 5, False, 1), (12, 3, False, 0), (12, 3, True, 2), (8, 2, True, 3),
    (6, 1, True, 4), (6, 0, True, 5)])
def test_square_of_generated_map_matches_partition_scan(n, holes, signed, seed):
    imap = grid_map(seed, n, holes, signed)
    assert any(b.slope < 0 for b in imap.branches if b) == signed
    check_squares(imap, 2 if n <= 8 else 1)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_breakpoint_or_slope_is_not_markov(bad):
    with pytest.raises(NotMarkov, match="finite"):
        PiecewiseLinearMarkovMap([0, bad, 1], [(2, (0, 1)), (2, (0, 1))])
    with pytest.raises(NotMarkov, match="finite"):
        PiecewiseLinearMarkovMap(["0", "1/2", "1"], [(bad, (0, 1)), (2, (0, 1))])


# -- invariant densities -----------------------------------------------------------------


def test_acim_of_doubling_map_is_lebesgue():
    result = acim(doubling_map())
    assert result.densities == {0: 1.0, 1: 1.0}
    assert result.pressure_residual < 1e-12
    assert result.certificate(8) == (1.0, 1.0)


def test_acim_golden_interval_hand_densities():
    result = acim(golden_interval_map())
    # stationary mass (3/4, 1/4) over lengths (2/3, 1/3): densities 9/8, 3/4
    assert abs(result.densities[0] - 9.0 / 8.0) < 1e-12
    assert abs(result.densities[1] - 3.0 / 4.0) < 1e-12
    lo, hi = result.certificate(8)
    assert abs(lo - 0.75) < 1e-12
    assert abs(hi - 1.125) < 1e-12


def exact_ratio_extremes(result, n):
    """Extremes of mass(w) / |I_w| over the depth-n words, in exact rational
    arithmetic on the chain's floats and the map's exact cylinder lengths."""
    pi, P = result.measure.pi, result.measure.P
    masses = {(a,): Fraction(x) for a, x in enumerate(pi)}
    for _ in range(n - 1):
        masses = {w + (b,): mass * Fraction(x) for w, mass in masses.items()
                  for b, x in enumerate(P[w[-1]]) if x > 0}
    ratios = [mass / length for w, mass in masses.items()
              if (length := cylinder_length(result.coded, w))]
    return min(ratios), max(ratios)


def rounded_ratio_extremes(result, n):
    """Extremes of the same ratios in floats, word by word, each rounded left
    to right: pi(w_0), then one factor P(a, b) |T'_a| a step, then the
    division by the last interval's length."""
    imap, pi, P = result.coded.map, result.measure.pi, result.measure.P
    stretch = [float(abs(imap.branches[i].slope)) for i in result.coded.symbols]
    length = [float(imap.lengths[i]) for i in result.coded.symbols]
    T = result.coded.potential.sft.transition
    ratios = []
    for w in itertools.product(range(len(pi)), repeat=n):
        if all(T[a, b] for a, b in zip(w, w[1:])):
            ratio = pi[w[0]]
            for a, b in zip(w, w[1:]):
                ratio = ratio * (P[a, b] * stretch[a])
            ratios.append(ratio / length[w[-1]])
    return min(ratios), max(ratios)


@pytest.mark.parametrize("imap, depths", [
    (golden_interval_map(), range(1, 15)), (doubling_map(), (1, 2, 7, 14)),
    # four intervals, slopes -2, -3, 3, -2 and six forbidden transitions
    (grid_map(8, 4, 0, True), range(1, 9))])
def test_certificate_is_the_exact_ratio_within_its_rounding(imap, depths):
    # a ratio rounds n - 1 steps P |T'| (the slopes are exact floats), n - 1
    # products, the length of the last interval and the division: 2n
    # roundings, within gamma_2n = 2n u / (1 - 2n u) of the exact ratio
    result = acim(imap)
    u = 2.0 ** -53
    for n in depths:
        gamma = 2 * n * u / (1 - 2 * n * u)
        for got, exact in zip(result.certificate(n), exact_ratio_extremes(result, n)):
            assert abs(Fraction(got) - exact) <= Fraction(gamma) * exact
        # rounding is monotone, so the pass meets the word-by-word extremes
        # of the rounded ratios bit for bit
        assert result.certificate(n) == rounded_ratio_extremes(result, n)


def test_deep_certificate_is_one_pass():
    # 10^5 steps of the chain, where listing the words would not end
    start = time.perf_counter()
    lo, hi = acim(golden_interval_map()).certificate(10 ** 5)
    assert time.perf_counter() - start < 2.0
    assert abs(lo - 0.75) < 1e-6
    assert abs(hi - 1.125) < 1e-6


def test_acim_needs_full_cover():
    with pytest.raises(IsRepeller):
        acim(cantor_map())


def test_unit_slope_sum_gives_lebesgue():
    imap = PiecewiseLinearMarkovMap(
        ["0", "1/2", "5/6", "1"],
        [(2, (0, 1, 2)), (3, (0, 1, 2)), (6, (0, 1, 2))])
    result = acim(imap)
    assert all(abs(d - 1.0) < 1e-12 for d in result.densities.values())


# -- dimension -----------------------------------------------------------------------------


def test_dimension_middle_thirds():
    res = bowen_dimension(cantor_map())
    assert abs(res.dimension - np.log(2.0) / np.log(3.0)) < 1e-8
    assert res.residual <= 1e-12


def test_dimension_uneven_repeller():
    oracle = brentq(lambda s: 2.0 ** -s + 4.0 ** -s - 1.0, 0.5, 1.0,
                    xtol=1e-14)
    assert abs(oracle - 0.694241913630617) < 1e-12
    res = bowen_dimension(uneven_repeller())
    assert abs(res.dimension - oracle) < 1e-8


def test_dimension_of_covering_map_is_one():
    res = bowen_dimension(doubling_map())
    assert abs(res.dimension - 1.0) < 1e-10


def test_dimension_invariant_under_squaring():
    for imap in (cantor_map(), uneven_repeller()):
        d1 = bowen_dimension(imap).dimension
        d2 = bowen_root(square_coding(code(imap).potential)).dimension
        assert abs(d1 - d2) < 1e-10
        sq, _ = squared_by_partition_scan(imap)
        assert abs(bowen_dimension(sq).dimension - d2) < 1e-10


@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_dimension_of_grid_subsets(m, seed):
    # keep k of the m full-range branches of the slope-m grid map; the
    # surviving set has dimension log k / log m
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, m + 1))
    kept = sorted(rng.choice(m, size=k, replace=False).tolist())
    pts = [Fraction(i, m) for i in range(m + 1)]
    branches = [(m, tuple(range(m))) if i in kept else None for i in range(m)]
    imap = PiecewiseLinearMarkovMap(pts, branches)
    res = bowen_dimension(imap)
    assert abs(res.dimension - np.log(k) / np.log(m)) < 1e-9
