"""Test-side oracles for stationary chains.

A stochastic matrix as the Gibbs state of its log: the potential
phi(a, b) = log Q[a, b] on the subshift that Q supports has pressure 0, and
its Gibbs state is the chain (pi_Q, Q) itself, read back through the
transfer operator's Perron solve.  Tests use it as a reference measure built
by a route independent of the chain's own closed forms.  Besides it, the
exact stationary vector of a chain of Fractions, which floating-point
stationary vectors are measured against entry by entry, the recurrent
states of a chain by reachability, and the Perron data of a double matrix
from mpmath's dense eigensolver, for Gibbs chains whose masses span many
orders of magnitude.
"""

from fractions import Fraction

import mpmath
import numpy as np

from thermoshift import (LocallyConstantPotential, SubshiftOfFiniteType,
                         gibbs_measure)


def gibbs_of_chain(Q):
    """The Gibbs state of log Q for a primitive row-stochastic Q."""
    Q = np.asarray(Q, dtype=float)
    sft = SubshiftOfFiniteType([str(a) for a in range(len(Q))],
                               (Q > 0).astype(np.int8))
    return gibbs_measure(LocallyConstantPotential.from_function(
        sft, 2, lambda w: np.log(Q[w])))


def exact_stationary(P):
    """pi P = pi, sum pi = 1 for a square list of Fraction rows that each sum
    to 1, by Gauss-Jordan elimination in Fractions: the unique solution when
    the chain has one recurrent class.  The columns of P - I sum to 0, so its
    last equation follows from the others and gives way to sum pi = 1."""
    m = len(P)
    A = [[P[i][j] - (i == j) for i in range(m)] + [Fraction(0)] for j in range(m)]
    A[-1] = [Fraction(1)] * (m + 1)
    for c in range(m):
        p = next(i for i in range(c, m) if A[i][c] != 0)
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for i in range(m):
            if i != c and A[i][c] != 0:
                A[i] = [x - A[i][c] * y for x, y in zip(A[i], A[c])]
    return [row[-1] for row in A]


def recurrent_classes(P):
    """Whether each state of the chain P is recurrent, reaching back every
    state it reaches, and how many recurrent classes there are."""
    reach = (np.array(P) > 0) | np.eye(len(P), dtype=bool)
    for k in range(len(P)):
        reach |= reach[:, [k]] & reach[[k], :]
    recurrent = (reach <= reach.T).all(axis=1)
    return recurrent, len({tuple(row) for row in reach[recurrent].tolist()})


def mp_perron(A, dps=60):
    """lam, the gap 1 - |lambda_2| / lam, and the right and left Perron
    vectors v and u of the double matrix A, u . v = 1, as mpf lists from one
    mpmath eigensolve at dps digits.  Call it inside mpmath.workdps(dps) to
    compute with the results at that precision."""
    m = len(A)
    with mpmath.workdps(dps):
        E, left, right = mpmath.eig(mpmath.matrix(A.tolist()), left=True, right=True)
        k = max(range(m), key=lambda i: mpmath.re(E[i]))
        lam = mpmath.re(E[k])
        gap = 1 - sorted(abs(e) for e in E)[-2] / lam
        v = [abs(mpmath.re(right[i, k])) for i in range(m)]
        u = [abs(mpmath.re(left[k, i])) for i in range(m)]
        mass = mpmath.fsum(x * y for x, y in zip(u, v))
        return lam, gap, v, [x / mass for x in u]
