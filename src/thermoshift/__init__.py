"""Thermodynamic formalism on subshifts of finite type.

Pressure, equilibrium (Gibbs) states, entropy and relative entropy rates,
phase-transition diagnostics for run-length potentials, and Hausdorff
dimension of piecewise linear Markov repellers.  Every headline quantity can
be computed by at least two independent routes so results certify each other.
"""

from importlib import import_module

from .errors import (BudgetError, ComputationError, DegenerateObservable,
                     DepthTooLarge, IsRepeller, ModelSchemaError,
                     ModelSemanticError, ModelSyntaxError, NoConvergence,
                     NotExpanding, NotMarkov, NotPrimitive, OutOfRange,
                     SupportMismatch, TailUncertified, TargetOutOfRange,
                     ThermoshiftError, UndeterminedTail, ZeroMassPath,
                     ZeroRowOrColumn)

# public name -> engine module, imported on first access (PEP 562), so that
# `import thermoshift` or a CLI call loads only the engines it uses
_ENGINES = {
    "hofbauer": ("CriticalPowerFamily", "HofbauerPotential",
                 "InverseSquareFamily", "diagnose", "kink_quotients",
                 "pressure_periodic", "pressure_renewal"),
    "interval_maps": ("PiecewiseLinearMarkovMap", "acim", "bowen_dimension",
                      "bowen_root", "code", "square_coding"),
    "measures": ("AepPartition", "GibbsMeasure", "MarkovMeasure",
                 "aep_partition", "entropy_by_blocks", "entropy_production",
                 "relative_entropy", "relative_entropy_direct",
                 "smb_estimate", "stationary_vector"),
    "potentials": ("LocallyConstantPotential", "recode_range2"),
    "sft": ("Alphabet", "MixingReport", "SubshiftOfFiniteType", "full_shift",
            "golden_mean_shift"),
    "transfer": ("build", "gibbs_bounds", "gibbs_measure", "leading_eigen",
                 "pressure"),
    "variational": ("FiniteSystem", "finite_equilibrium", "ising_match",
                    "ising_potential", "ising_pressure_exact",
                    "lattice_equilibrium", "lattice_pressure_trace",
                    "pressure_Pn", "pressure_Pn_curve", "solve_beta"),
}
_LAZY = {name: module for module, names in _ENGINES.items() for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

# the exception classes imported above, then every engine name
__all__ = [name for name, value in list(globals().items())
           if isinstance(value, type) and issubclass(value, ThermoshiftError)]
__all__ += _LAZY
