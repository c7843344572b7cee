"""Exception taxonomy shared across the package.

The split mirrors the exit codes of the command line tool: validation
problems (bad measure files, bad parameters) and numerical failures
(non-convergence, ill-conditioned closed forms).
"""


class ValidationError(ValueError):
    """Input data violates a documented precondition."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to meet its accuracy contract."""
