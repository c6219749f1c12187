"""Piecewise linear Markov maps: exact geometry, densities, and dimensions."""

import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from thermoshift import LocallyConstantPotential, full_shift, modelio
from thermoshift.errors import IsRepeller, NotExpanding, NotMarkov, NotPrimitive
from thermoshift.interval_maps import (PiecewiseLinearMarkovMap, acim,
                                       bowen_dimension, bowen_root, code,
                                       square_coding)
from thermoshift.potentials import _block_labels

from gibbs_oracle import exact_stationary, recurrent_classes

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
    pot = code(golden_interval_map())
    assert pot.sft.transition.tolist() == [[1, 1], [1, 0]]
    assert pot.table[(0,)] == -float(np.log(1.5))
    assert pot.table[(1,)] == -float(np.log(2.0))


def cylinder_length(imap, word):
    """Exact length of the interval cylinder coded by the word (symbol s is
    the branch interval ``imap.branch_ids[s]``): 0 unless each interval's
    image holds the next, else the last interval's length over the slopes of
    the intervals before it."""
    ids = imap.branch_ids
    word = tuple(word)
    if not all(ids[b] in imap.branches[ids[a]].image
               for a, b in zip(word, word[1:])):
        return Fraction(0)
    total = imap.lengths[ids[word[-1]]]
    for sym in word[:-1]:
        total /= abs(imap.branches[ids[sym]].slope)
    return total


def test_cylinder_lengths_are_exact():
    cantor = cantor_map()
    assert cylinder_length(cantor, (0, 1, 0)) == Fraction(1, 27)
    assert cylinder_length(cantor, (1, 1, 1, 1)) == Fraction(1, 81)
    golden = golden_interval_map()
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
    square = square_coding(code(cantor_map()))
    assert square.sft.alphabet.labels == ("I0I0", "I0I2", "I2I0", "I2I2")
    assert square.sft.transition.all()
    assert (square.dense_table == -2 * float(np.log(3.0))).all()


def check_squares(imap, times):
    """square_coding is code(T^2) for the geometric square T^2, ``times``
    squares up from imap: the same 2-word for each symbol, the same
    transitions, and the potentials within 1 ulp."""
    pot, symbol = code(imap), {i: s for s, i in enumerate(imap.branch_ids)}
    for _ in range(times):
        sq, words = squared_by_partition_scan(imap)
        square = square_coding(pot)
        pairs = list(map(tuple, np.argwhere(pot.sft.transition).tolist()))
        assert square.sft.alphabet.labels == tuple(
            _block_labels(pot.sft.alphabet, pairs))
        index = {pair: k for k, pair in enumerate(pairs)}
        symbol = {i: index[symbol[a], symbol[b]] for i, (a, b) in words.items()}
        geo = code(sq)
        order = [symbol[i] for i in sq.branch_ids]
        assert sorted(order) == list(range(square.sft.m))
        assert np.array_equal(square.sft.transition[np.ix_(order, order)],
                              geo.sft.transition)
        values, exact = square.dense_table[order], geo.dense_table
        assert (np.abs(values - exact) <= np.spacing(np.abs(exact))).all()
        pot, imap = square, sq


def grid_map(seed, n, holes, signed, period=1):
    """n intervals of one or two units, ``holes`` of them holes (never
    interval 0); each branch maps onto a random run of k >= 2 intervals,
    with |slope| the run's length over its own.  An interval of two units
    whose run is two of one unit would have |slope| 1, so it gets one unit,
    until no such interval is left: every |slope| exceeds 1 and is a half
    integer, a double, as is every slope of an iterate.  With ``period`` p
    the intervals fall into p runs of at least n // p, and a branch in run g
    maps into run g + 1 mod p, so every cycle of the coding has a length
    divisible by p."""
    rng = np.random.default_rng(seed)
    cuts = [-(-g * n // period) for g in range(period + 1)]
    runs = [None] * n
    for i in [0] + (1 + rng.permutation(n - 1)[holes:]).tolist():
        g = (i * period // n + 1) % period
        size = cuts[g + 1] - cuts[g]
        k = int(rng.integers(2, size + 1))
        start = cuts[g] + int(rng.integers(0, size - k + 1))
        sign = -1 if signed and rng.random() < 0.5 else 1
        runs[i] = (sign, range(start, start + k))
    units = rng.integers(1, 3, size=n)
    while flat := [i for i, run in enumerate(runs)
                   if run and units[run[1]].sum() <= units[i]]:
        units[flat] = 1
    units = units.tolist()
    branches = [run and (Fraction(run[0] * sum(units[j] for j in run[1]),
                                  units[i]), run[1])
                for i, run in enumerate(runs)]
    return PiecewiseLinearMarkovMap(
        [Fraction(sum(units[:i]), sum(units)) for i in range(n + 1)], branches)


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


def steep_map(tiny):
    """[0, tiny] onto [0, 1] at slope 1 / tiny, (tiny, 1/2) onto (tiny, 1)
    and (1/2, 1) onto [0, 1]."""
    half = Fraction(1, 2)
    return [0, tiny, half, 1], [(1 / tiny, (0, 1, 2)),
                                ((1 - tiny) / (half - tiny), (1, 2)),
                                (2, (0, 1, 2))]


@pytest.mark.parametrize("breakpoints, branches", [
    # a slope of 10^309 is past the largest double, a length of 10^-309 not
    steep_map(Fraction(1, 10 ** 309)),
    # a length of 10^-400 rounds to 0, and the slope 10^400 is past range
    steep_map(Fraction(1, 10 ** 400)),
    # [0, 10^-400] onto an interval twice its length: the first branch
    # fails on its length alone
    ([0, Fraction(1, 10 ** 400), Fraction(3, 10 ** 400), 1],
     [(2, (1,)), (Fraction(10 ** 400, 2), (0, 1, 2)),
      (1 / (1 - Fraction(3, 10 ** 400)), (0, 1, 2))]),
])
def test_geometry_a_double_cannot_hold_is_not_markov(breakpoints, branches):
    # the coding's float(|slope|) once raised OverflowError here
    with pytest.raises(NotMarkov, match="outside the range of a double"):
        PiecewiseLinearMarkovMap(breakpoints, branches)


# -- invariant densities -----------------------------------------------------------------


def test_acim_of_doubling_map_is_lebesgue():
    result = acim(doubling_map())
    assert result.densities == {0: 1.0, 1: 1.0}
    assert result.pressure_residual < 1e-12


def test_acim_golden_interval_hand_densities():
    result = acim(golden_interval_map())
    # stationary mass (3/4, 1/4) over lengths (2/3, 1/3): densities 9/8, 3/4
    assert abs(result.densities[0] - 9.0 / 8.0) < 1e-12
    assert abs(result.densities[1] - 3.0 / 4.0) < 1e-12


def exact_ratio_extremes(imap, result, n):
    """Extremes of mass(w) / |I_w| over the depth-n words, in exact rational
    arithmetic on the chain's floats and the map's exact cylinder lengths."""
    pi, P = result.measure.pi, result.measure.P
    masses = {(a,): Fraction(x) for a, x in enumerate(pi)}
    for _ in range(n - 1):
        masses = {w + (b,): mass * Fraction(x) for w, mass in masses.items()
                  for b, x in enumerate(P[w[-1]]) if x > 0}
    ratios = [mass / length for w, mass in masses.items()
              if (length := cylinder_length(imap, w))]
    return min(ratios), max(ratios)


@pytest.mark.parametrize("imap, depths", [
    (golden_interval_map(), range(1, 15)), (doubling_map(), (1, 2, 7, 14)),
    # four intervals, slopes of both signs and six forbidden transitions
    (grid_map(8, 4, 0, True), range(1, 9)),
    (grid_map(3, 5, 0, False), range(1, 7)),
    # a coding of period 2, and one with a transient interval
    (grid_map(4, 6, 0, True, 2), range(1, 7)),
    (grid_map(1, 4, 0, True), range(1, 9))])
def test_certificate_is_the_exact_ratio_within_its_rounding(imap, depths):
    # mass(w) / |I_w| = pi(w_0) / |I_(w_0)| for the exact chain, so the
    # ratio extremes are the density extremes.  On the chain's floats a
    # ratio carries n - 1 roundings of P, and a density those of the length
    # and the division: n + 1, within gamma_(n+1) = (n + 1) u / (1 - (n + 1) u)
    result = acim(imap)
    densities = [Fraction(d) for d in result.densities.values()]
    u = Fraction(2.0 ** -53)
    for n in depths:
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        got = min(densities), max(densities)
        for density, exact in zip(got, exact_ratio_extremes(imap, result, n)):
            assert abs(exact - density) <= gamma * density


def lebesgue_chain(imap):
    """The exact chain of Lebesgue mass under T: the share of I_a that T maps
    onto I_b, |I_b| over the length of the image of I_a."""
    n = len(imap.lengths)
    P = [[Fraction(0)] * n for _ in range(n)]
    for a, branch in enumerate(imap.branches):
        image = branch.image
        for b in image:
            P[a][b] = imap.lengths[b] / (imap.breakpoints[image.stop]
                                         - imap.breakpoints[image.start])
    return P


# the codings of the 13 covering maps of grid_map(seed, n, 0, seed odd),
# seeds 0-59 and n in {4, 8, 16, 32}, that the Perron route refused as not
# primitive, or for an interval in no image; the lengths are drawn after
# the runs, so the codings are those of the equal intervals once drawn
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 32), st.integers(1, 3),
       st.booleans())
@example(1, 4, 1, True)
@example(3, 4, 1, True)
@example(14, 4, 1, False)
@example(17, 4, 1, True)
@example(25, 4, 1, True)
@example(38, 4, 1, False)
@example(52, 4, 1, False)
@example(53, 4, 1, True)
@example(57, 4, 1, True)
@example(22, 8, 1, False)
@example(55, 8, 1, True)
@example(45, 16, 1, True)
@example(15, 32, 1, True)
@settings(max_examples=40, deadline=None)
def test_acim_is_the_exact_density_entry_by_entry(seed, m, period, signed):
    # one rounding of each chain entry, GTH's O(m u) and the division by the
    # rounded length; a transient interval carries exactly no mass
    assume(m >= 2 * period)
    imap = grid_map(seed, m, 0, signed, period)
    P = lebesgue_chain(imap)
    recurrent, classes = recurrent_classes(P)
    if classes > 1:
        with pytest.raises(NotPrimitive):
            acim(imap)
        return
    densities = acim(imap).densities
    bound = (2 * m + 1) * Fraction(2.0 ** -53)
    for a, mass in enumerate(exact_stationary(P)):
        exact = mass / imap.lengths[a]
        assert abs(Fraction(densities[a]) - exact) <= bound * exact
        assert (densities[a] == 0.0) == (not recurrent[a])


@pytest.mark.parametrize("imap, exact", [
    # period 2: [0, 2/5] maps onto the other two intervals, each back onto it
    (PiecewiseLinearMarkovMap(["0", "2/5", "7/10", "1"],
                              [("3/2", (1, 2)), ("4/3", (0,)), ("-4/3", (0,))]),
     ("5/4", "5/6", "5/6")),
    # [0, 1/3] maps onto all three, and no interval maps back into it
    (PiecewiseLinearMarkovMap(["0", "1/3", "2/3", "1"],
                              [(3, (0, 1, 2)), (2, (1, 2)), (-2, (1, 2))]),
     ("0", "3/2", "3/2")),
    # [0, 1/3] lies in no branch's image
    (PiecewiseLinearMarkovMap(["0", "1/3", "2/3", "1"],
                              [(2, (1, 2)), (2, (1, 2)), (-2, (1, 2))]),
     ("0", "3/2", "3/2")),
])
def test_acim_of_periodic_and_transient_codings(imap, exact):
    result = acim(imap)
    for got, want in zip(result.densities.values(), map(Fraction, exact)):
        assert abs(Fraction(got) - want) <= 7 * Fraction(2.0 ** -53) * want
    assert result.pressure_residual <= 1e-15


def test_two_recurrent_classes_are_named_by_their_intervals():
    two_classes = PiecewiseLinearMarkovMap(
        ["0", "1/4", "1/2", "3/4", "1"],
        [(2, (0, 1)), (-2, (0, 1)), (2, (2, 3)), (2, (2, 3))])
    with pytest.raises(NotPrimitive, match=r"^intervals \[0, 1/4\] and "
                       r"\[1/2, 3/4\] lie in different recurrent classes$"):
        acim(two_classes)


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


def test_bowen_root_above_1_moves_the_bracket_outward():
    # phi = -1/2 on the full 2-shift: P(s phi) = log 2 - s / 2 is positive
    # at the bracket's end s = 1, so the search grows it to reach 2 log 2
    sft = full_shift(2)
    res = bowen_root(LocallyConstantPotential.from_function(
        sft, 1, lambda w: -0.5))
    assert abs(res.dimension - 2.0 * np.log(2.0)) <= 4 * np.spacing(2.0)
    assert res.residual <= 1e-12


def test_dimension_of_covering_map_is_one():
    # P(-log 2) = 0 at the bracket's end s = 1 stops the search there
    res = bowen_dimension(doubling_map())
    assert res.dimension == 1.0 and res.iterations == 1


def test_dimension_invariant_under_squaring():
    for imap in (cantor_map(), uneven_repeller()):
        d1 = bowen_dimension(imap).dimension
        d2 = bowen_root(square_coding(code(imap))).dimension
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
