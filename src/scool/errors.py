"""Exception types shared across the simulator.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical divergence with 3, a broken state invariant with 4.
"""


class ScoolError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ScoolError):
    """Invalid or infeasible configuration (bad topology params, class
    budgets that do not fit, fully masked rows, ...)."""


class DivergenceError(ScoolError):
    """A model or prior update produced non-finite values."""


class InvariantError(ScoolError):
    """An internal state invariant was violated (e.g. a block matrix with a
    non-finite entry or a membership denominator collapsed)."""
