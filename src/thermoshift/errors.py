"""Exception hierarchy.

Every failure mode that callers are expected to handle has its own class so
that the CLI can map it onto a stable exit code.
"""


class ThermoshiftError(Exception):
    """Base class for all errors raised by this package."""


class ComputationError(ThermoshiftError):
    """A computation could not be carried out on valid input."""


class BudgetError(ThermoshiftError):
    """An enumeration or iteration budget would be exceeded."""


# -- subshift construction / validation --------------------------------------

class ZeroRowOrColumn(ThermoshiftError):
    """Some symbol has no admissible successor or no admissible predecessor."""


class NotPrimitive(ComputationError):
    """The transition matrix has no power with all entries positive."""


# -- transfer operator --------------------------------------------------------

class NoConvergence(ComputationError):
    """Power iteration failed to reach the requested residual."""


class DepthTooLarge(BudgetError):
    """A cylinder enumeration or path sum at that depth exceeds the budget."""


def price(cost, budget, what, counted=False):
    """The one budget guard: DepthTooLarge when ``cost``, in word-equivalents
    (one enumerated word, 0.1-0.4 us on 2 x86-64 vCPUs), passes ``budget``;
    None is no budget.  A ``counted`` cost stopped once past the budget."""
    if budget is not None and cost > budget:
        cost = f"more than {budget}" if counted else cost
        raise DepthTooLarge(f"{what} costs {cost} word-equivalents, over the budget {budget}")


# -- measures -----------------------------------------------------------------

class SupportMismatch(ComputationError):
    """A measure charges a cylinder that the reference measure gives mass zero."""


class ZeroMassPath(ComputationError):
    """The supplied finite path has probability zero under the measure."""


# -- finite / variational -----------------------------------------------------

class TargetOutOfRange(ComputationError):
    """The requested expected value lies outside the open range of the observable."""


class DegenerateObservable(ComputationError):
    """The observable is constant, so no inverse temperature can be solved for."""


class OutOfRange(ComputationError):
    """A numeric argument lies outside its admissible interval."""


# -- sequence potentials ------------------------------------------------------

class UndeterminedTail(ComputationError):
    """The potential family carries no analytic tail bound for this series."""


class TailUncertified(ComputationError):
    """The series tail could not be certified below the tolerance within budget."""


# -- interval maps ------------------------------------------------------------

class NotMarkov(ThermoshiftError):
    """Branch images are not exact unions of partition intervals."""


class NotExpanding(ThermoshiftError):
    """Some branch has absolute slope <= 1."""


class IsRepeller(ComputationError):
    """The branches do not cover [0,1]; there is no absolutely continuous
    invariant probability, only a conditional measure on the survivor set."""


# -- model files / CLI --------------------------------------------------------

class _ModelError(ThermoshiftError):
    """A fault in a model file, located by its field and its line and column
    where those are known."""

    def __init__(self, message, field=None, line=None, column=None):
        super().__init__(message)
        self.field = field
        self.line = line
        self.column = column


class ModelSyntaxError(_ModelError):
    """The model file is not well-formed structured text."""


class ModelSchemaError(_ModelError):
    """The model file parses but violates the declared schema."""


class ModelSemanticError(_ModelError):
    """The model file matches the schema but violates a semantic invariant."""
