"""Finite equilibria, lattice rings, and the cylinder pressure approximant."""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (FiniteSystem, LocallyConstantPotential, finite_equilibrium,
                         full_shift, gibbs_measure, golden_mean_shift,
                         ising_match, ising_potential, ising_pressure_exact,
                         lattice_equilibrium, lattice_pressure_trace,
                         markov_as_gibbs, mean_energy_at, pressure, pressure_Pn,
                         solve_beta, stationary_vector)
from thermoshift.errors import (DegenerateObservable, DepthTooLarge, NotPrimitive,
                                OutOfRange, TargetOutOfRange)


def random_system(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 9))
    U = rng.uniform(-2.0, 2.0, size=size)
    beta = float(rng.uniform(-2.0, 2.0))
    return FiniteSystem(U, beta)


# -- finite systems ------------------------------------------------------------------


def test_finite_equilibrium_hand_values():
    eq = finite_equilibrium(FiniteSystem(np.array([0.0, np.log(2.0)]), 1.0))
    assert abs(eq.log_partition - np.log(3.0)) < 1e-15
    assert np.max(np.abs(eq.mu - np.array([1.0, 2.0]) / 3.0)) < 1e-15


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_derivatives_of_log_partition(seed):
    system = random_system(seed)
    U, beta = system.U, system.beta
    eq = finite_equilibrium(system)

    def p(b):
        return finite_equilibrium(FiniteSystem(U, b)).log_partition

    h = 1e-5
    fd1 = (p(beta + h) - p(beta - h)) / (2 * h)
    assert abs(fd1 - eq.mean_energy(U)) < 1e-8
    h = 1e-4
    fd2 = (p(beta + h) - 2 * p(beta) + p(beta - h)) / h ** 2
    var = eq.var_energy(U)
    assert var >= 0.0
    assert abs(fd2 - var) < 1e-6


def test_mean_energy_at_matches_equilibrium():
    system = random_system(99)
    eq = finite_equilibrium(system)
    assert abs(mean_energy_at(system.U, system.beta) -
               eq.mean_energy(system.U)) < 1e-13


def test_solve_beta_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        U = rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 8)))
        beta_true = float(rng.uniform(-4.0, 4.0))
        target = mean_energy_at(U, beta_true)
        beta = solve_beta(FiniteSystem(U), target)
        assert abs(mean_energy_at(U, beta) - target) <= 1e-11
        assert abs(beta - beta_true) < 1e-6


def test_solve_beta_near_the_range_end_stops_on_the_bracket():
    # the mean is flat in beta near max U, so a stop on |mean - target|
    # would end far from log(t / (1 - t)); the bracket ends within the
    # rounding of the computed mean, about u / (1 - t) in beta
    target = 1.0 - 1e-12
    beta = solve_beta(FiniteSystem(np.array([0.0, 1.0])), target)
    assert abs(beta - np.log(target / (1.0 - target))) < 1e-3


def test_solve_beta_rejects_bad_targets():
    with pytest.raises(DegenerateObservable):
        solve_beta(FiniteSystem(np.full(4, 1.5)), 1.5)
    U = np.array([0.0, 1.0])
    with pytest.raises(TargetOutOfRange):
        solve_beta(FiniteSystem(U), 1.0)
    with pytest.raises(TargetOutOfRange):
        solve_beta(FiniteSystem(U), -0.2)


def test_mean_energy_is_increasing_in_beta():
    U = np.array([-1.0, 0.3, 2.0])
    values = [mean_energy_at(U, b) for b in np.linspace(-5, 5, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- lattice rings ---------------------------------------------------------------------


def test_lattice_zero_potential_is_uniform():
    sft = full_shift(2)
    eq = lattice_equilibrium(6, LocallyConstantPotential.zero(sft), 1.0)
    assert abs(eq.pressure - np.log(2.0)) < 1e-14
    assert eq.masses.shape == (64,)
    assert np.max(np.abs(eq.masses - 1.0 / 64.0)) < 1e-16


def test_lattice_site_potential_factorizes():
    sft = full_shift(2)
    u = np.array([0.0, -0.5])
    pot = LocallyConstantPotential(sft, 1, {(0,): u[0], (1,): u[1]})
    beta = 1.3
    eq = lattice_equilibrium(8, pot, beta)
    # the ring sum splits over sites, so the per-site pressure is the
    # one-site log partition, exactly the finite-system value
    expected = finite_equilibrium(FiniteSystem(u, beta)).log_partition
    assert abs(eq.pressure - expected) < 1e-13


def test_lattice_ring_against_ising_closed_form():
    for beta in (0.5, 1.0, 2.0):
        pot = ising_potential(beta)
        exact = ising_pressure_exact(beta)
        ring12 = lattice_equilibrium(12, pot, 1.0).pressure
        # the finite-size excess log(1 + tanh^12 beta)/12 peaks at 0.042 here
        assert abs(ring12 - exact) < 5e-2
        trace12 = lattice_pressure_trace(12, pot, 1.0)
        assert abs(ring12 - trace12) < 1e-12
        # the ring exceeds the line value by exactly log(1 + tanh^n)/n
        n = 20
        correction = np.log(1.0 + np.tanh(beta) ** n) / n
        assert abs(lattice_pressure_trace(n, pot, 1.0) - exact - correction) < 1e-12


def test_lattice_input_validation():
    golden = golden_mean_shift()
    pot = LocallyConstantPotential.zero(golden)
    with pytest.raises(OutOfRange):
        lattice_equilibrium(6, pot, 1.0)
    sft = full_shift(2)
    wide = LocallyConstantPotential.from_function(sft, 3, lambda w: 0.0)
    with pytest.raises(OutOfRange):
        lattice_equilibrium(2, wide, 1.0)
    with pytest.raises(DepthTooLarge):
        lattice_equilibrium(24, LocallyConstantPotential.zero(sft), 1.0)
    # the ring is priced by a count that stops past the budget, so a ring
    # of 10^12 sites is refused at once
    start = time.perf_counter()
    with pytest.raises(DepthTooLarge):
        lattice_equilibrium(10 ** 12, LocallyConstantPotential.zero(sft), 1.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m, r", [(2, 3), (2, 4), (2, 5), (3, 3)])
def test_ring_trace_at_any_range_matches_enumeration(m, r):
    # the trace runs on the block matrix of the recoded potential; the
    # enumeration reads the range-r table around the ring directly
    rng = np.random.default_rng(10 * m + r)
    values = rng.normal(size=(m,) * r)
    pot = LocallyConstantPotential.from_function(full_shift(m), r,
                                                 lambda w: values[w])
    for n in (r, r + 1, 7):
        ring = lattice_equilibrium(n, pot, 0.7).pressure
        assert abs(lattice_pressure_trace(n, pot, 0.7) - ring) < 1e-14


# -- cylinder pressure approximant -------------------------------------------------------


def test_pn_zero_potential_full_shift_is_flat():
    sft = full_shift(2)
    pot = LocallyConstantPotential.zero(sft)
    for n in (1, 4, 7, 10):
        assert abs(pressure_Pn(pot, n) - np.log(2.0)) < 1e-12


def test_pn_zero_potential_counts_words():
    sft = golden_mean_shift()
    value = pressure_Pn(LocallyConstantPotential.zero(sft), 10)
    assert abs(value - np.log(144.0) / 10.0) < 1e-12


def test_pn_upper_approximant_decreases_to_pressure():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential(
        sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    p = pressure(pot)
    gaps = [pressure_Pn(pot, n) - p for n in (4, 8, 12)]
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]


def test_pn_ising_within_tolerance_at_depth_14():
    for beta in (0.5, 1.0, 2.0):
        pot = ising_potential(beta)
        value = pressure_Pn(pot, 14)
        assert abs(value - ising_pressure_exact(beta)) < 5e-2


def test_pn_sums_the_sup_of_each_cylinder():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential(
        sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    words = [w for w in itertools.product((0, 1), repeat=5)
             if sft.is_admissible(w)]
    assert len(words) == sft.count_words(5)
    # the sup over [word] maximizes over the one free coordinate past it
    sups = [max(sum(pot.table[(word + (t,))[i:i + 2]] for i in range(5))
                for t in (0, 1) if sft.is_admissible(word + (t,)))
            for word in words]
    value = pressure_Pn(pot, 5)
    assert abs(value - np.log(np.exp(sups).sum()) / 5) < 1e-15
    with pytest.raises(DepthTooLarge):
        pressure_Pn(pot, 40, budget=1000)


def test_pn_loads_neither_the_measures_nor_numpy_ma():
    # P_n needs no measure class, and its loop over distinct word ends must
    # not call the plain np.unique, which imports numpy.ma on numpy >= 2
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules\n"
            "import thermoshift.variational as v\n"
            "print('thermoshift.measures' in sys.modules)\n"
            "pot = v.ising_potential(0.5)\n"
            "v.pressure_Pn(pot, 6)\n"
            "print(before or 'numpy.ma' not in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]


# -- named chains ------------------------------------------------------------------------


def test_ising_potential_table():
    pot = ising_potential(0.7)
    assert pot.table == {(0, 0): 0.7, (0, 1): -0.7, (1, 0): -0.7, (1, 1): 0.7}
    assert pot.sft.alphabet.labels == ("+", "-")


def test_ising_match_is_artanh():
    for target in (-0.6, 0.0, 0.46211715726000974):
        beta = ising_match(target)
        assert abs(beta - np.arctanh(target)) < 1e-9
    # near +-1 the correlation is flat in beta, so a stop on
    # |corr - target| would end far from artanh: the search stops on beta
    for target in (0.999999, -0.999999, 1.0 - 2.0 ** -53):
        assert abs(ising_match(target) - np.arctanh(target)) < 1e-9
    with pytest.raises(TargetOutOfRange):
        ising_match(1.0)
    with pytest.raises(TargetOutOfRange):
        ising_match(-1.3)


def test_ising_correlation_round_trip():
    beta = 0.8
    mu = gibbs_measure(ising_potential(beta))
    assert abs(mu.expectation(ising_potential(1.0)) - np.tanh(beta)) < 1e-12


def test_markov_as_gibbs_round_trip():
    Q = np.array([[0.6, 0.4], [0.9, 0.1]])
    mu = markov_as_gibbs(Q)
    assert abs(mu.pressure) < 1e-12
    assert np.max(np.abs(mu.P - Q)) < 1e-12
    assert np.max(np.abs(mu.pi - stationary_vector(Q))) < 1e-12


def test_markov_as_gibbs_input_validation():
    with pytest.raises(ValueError):
        markov_as_gibbs(np.array([[0.5, 0.499999], [0.5, 0.5]]))
    with pytest.raises(NotPrimitive):
        markov_as_gibbs(np.array([[0.0, 1.0], [1.0, 0.0]]))


# -- subgradient and convexity -------------------------------------------------------------


def base_cases():
    yield LocallyConstantPotential(
        golden_mean_shift(), 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    yield ising_potential(1.0)


def random_direction(sft, rng):
    table = {}
    for a in range(sft.m):
        for b in np.flatnonzero(sft.transition[a]).tolist():
            table[(a, b)] = float(rng.uniform(-0.5, 0.5))
    return LocallyConstantPotential(sft, 2, table)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_gibbs_state_is_a_subgradient(seed):
    rng = np.random.default_rng(seed)
    for pot in base_cases():
        psi = random_direction(pot.sft, rng)
        mu = gibbs_measure(pot)
        gain = pressure(pot + psi) - pressure(pot)
        assert gain >= mu.expectation(psi.with_range(2)) - 1e-10


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_pressure_is_midpoint_convex(seed):
    rng = np.random.default_rng(seed)
    pot = next(base_cases())
    psi = random_direction(pot.sft, rng)
    a, b = float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))

    def p(t):
        return pressure(pot + psi.scale(t))

    assert p(0.5 * (a + b)) <= 0.5 * (p(a) + p(b)) + 1e-12
