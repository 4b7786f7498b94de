"""Exception types shared across the package.

The CLI maps these onto fixed exit codes, so library code should raise the
most specific class that applies.
"""

__all__ = [
    "BudgetError",
    "ConfigError",
    "ConvergenceError",
    "InconclusiveGrowthError",
    "TruncationError",
    "WalkboundError",
]


class WalkboundError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WalkboundError):
    """Invalid configuration: bad grammar, bad group/measure spec, bad key."""


class ConvergenceError(WalkboundError):
    """A simulation failed to resolve within its configured ceiling."""


class BudgetError(WalkboundError):
    """An operation exceeded its work budget or materialization horizon."""


class TruncationError(WalkboundError):
    """Cancellation consumed the guard zone of a truncated computation.

    The CLI maps it to exit code 5. The boundary action is exact
    (``morphisms.boundary_apply``) and never raises it.
    """


class InconclusiveGrowthError(ConvergenceError):
    """Growth model selection could not separate the two fits.

    Carries both fits so the caller can inspect them or retry with more
    iterations.
    """

    def __init__(self, message: str, polynomial_fit: dict, exponential_fit: dict):
        super().__init__(message)
        self.polynomial_fit = polynomial_fit
        self.exponential_fit = exponential_fit
