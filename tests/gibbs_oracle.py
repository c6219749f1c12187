"""A test-side oracle: a stochastic matrix as the Gibbs state of its log.

The potential phi(a, b) = log Q[a, b] on the subshift that Q supports has
pressure 0, and its Gibbs state is the chain (pi_Q, Q) itself, read back
through the transfer operator's Perron solve.  Tests use it as a reference
measure built by a route independent of the chain's own closed forms.
"""

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
