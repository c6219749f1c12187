"""Finite equilibria, lattice rings, and the cylinder pressure approximant."""

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
    assert len(eq.masses) == 64
    masses = np.array(list(eq.masses.values()))
    assert np.max(np.abs(masses - 1.0 / 64.0)) < 1e-16


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
        ring12 = lattice_equilibrium(12, pot, 1.0, with_masses=False).pressure
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
    with pytest.raises(OutOfRange):
        lattice_pressure_trace(10, wide, 1.0)
    with pytest.raises(DepthTooLarge):
        lattice_equilibrium(24, LocallyConstantPotential.zero(sft), 1.0)


# -- cylinder pressure approximant -------------------------------------------------------


def test_pn_zero_potential_full_shift_is_flat():
    sft = full_shift(2)
    pot = LocallyConstantPotential.zero(sft)
    for n in (1, 4, 7, 10):
        assert abs(pressure_Pn(sft, pot, n).value - np.log(2.0)) < 1e-12


def test_pn_zero_potential_counts_words():
    sft = golden_mean_shift()
    res = pressure_Pn(sft, LocallyConstantPotential.zero(sft), 10)
    assert abs(res.value - np.log(144.0) / 10.0) < 1e-12


def test_pn_upper_approximant_decreases_to_pressure():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential(
        sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    p = pressure(sft, pot)
    gaps = [pressure_Pn(sft, pot, n).value - p for n in (4, 8, 12)]
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]


def test_pn_ising_within_tolerance_at_depth_14():
    for beta in (0.5, 1.0, 2.0):
        pot = ising_potential(beta)
        res = pressure_Pn(pot.sft, pot, 14)
        assert abs(res.value - ising_pressure_exact(beta)) < 5e-2


def test_pn_collects_maximizing_points():
    sft = golden_mean_shift()
    pot = LocallyConstantPotential(
        sft, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    res = pressure_Pn(sft, pot, 5, with_points=True)
    assert len(res.points) == sft.count_words(5)
    for word, tail, value in res.points:
        assert abs(value - pot.birkhoff_sup(word)) < 1e-15
    with pytest.raises(DepthTooLarge):
        pressure_Pn(sft, pot, 40, budget=1000)


@pytest.mark.parametrize("route", [
    lambda sft, pot: pressure(sft, pot),
    lambda sft, pot: gibbs_measure(sft, pot).pressure,
    lambda sft, pot: pressure_Pn(sft, pot, 6).value,
], ids=["pressure", "gibbs_measure", "pressure_Pn"])
def test_a_subshift_that_is_not_the_potentials_is_refused(route):
    golden = LocallyConstantPotential(
        golden_mean_shift(), 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    flat = LocallyConstantPotential.zero(full_shift(2))
    # the spectral routes read the potential's subshift and the enumerator
    # the one given: on a mismatch the two sides of a check read two systems
    for other, pot in ((full_shift(2), golden), (golden_mean_shift(), flat)):
        with pytest.raises(ValueError, match="not the potential's own"):
            route(other, pot)
    # an equal but distinct copy is the same system
    for copy, pot in ((golden_mean_shift(), golden), (full_shift(2), flat)):
        assert copy is not pot.sft
        assert route(copy, pot) == route(pot.sft, pot)


# -- named chains ------------------------------------------------------------------------


def test_ising_potential_table():
    pot = ising_potential(0.7)
    assert pot.table == {(0, 0): 0.7, (0, 1): -0.7, (1, 0): -0.7, (1, 1): 0.7}
    assert pot.sft.alphabet.labels == ("+", "-")


def test_ising_match_is_artanh():
    for target in (-0.6, 0.0, 0.46211715726000974):
        beta = ising_match(target)
        assert abs(beta - np.arctanh(target)) < 1e-9
    with pytest.raises(TargetOutOfRange):
        ising_match(1.0)
    with pytest.raises(TargetOutOfRange):
        ising_match(-1.3)


def test_ising_correlation_round_trip():
    beta = 0.8
    mu = gibbs_measure(ising_potential(1.0).sft, ising_potential(beta))
    assert abs(mu.expectation(ising_potential(1.0)) - np.tanh(beta)) < 1e-12


def test_markov_as_gibbs_round_trip():
    Q = np.array([[0.6, 0.4], [0.9, 0.1]])
    mu = markov_as_gibbs(Q)
    assert abs(mu.pressure) < 1e-12
    assert np.max(np.abs(mu.markov.P - Q)) < 1e-12
    assert np.max(np.abs(mu.markov.pi - stationary_vector(Q))) < 1e-12


def test_markov_as_gibbs_input_validation():
    with pytest.raises(ValueError):
        markov_as_gibbs(np.array([[0.5, 0.499999], [0.5, 0.5]]))
    with pytest.raises(NotPrimitive):
        markov_as_gibbs(np.array([[0.0, 1.0], [1.0, 0.0]]))


# -- subgradient and convexity -------------------------------------------------------------


def base_cases():
    golden = golden_mean_shift()
    yield golden, LocallyConstantPotential(
        golden, 2, {(0, 0): -0.2, (0, 1): -0.7, (1, 0): 0.4})
    pot = ising_potential(1.0)
    yield pot.sft, pot


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
    for sft, pot in base_cases():
        psi = random_direction(sft, rng)
        mu = gibbs_measure(sft, pot)
        gain = pressure(sft, pot + psi) - pressure(sft, pot)
        assert gain >= mu.markov.expectation(psi.with_range(2)) - 1e-10


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_pressure_is_midpoint_convex(seed):
    rng = np.random.default_rng(seed)
    sft, pot = next(base_cases())
    psi = random_direction(sft, rng)
    a, b = float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))

    def p(t):
        return pressure(sft, pot + psi.scale(t))

    assert p(0.5 * (a + b)) <= 0.5 * (p(a) + p(b)) + 1e-12
