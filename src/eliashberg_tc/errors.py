"""Exception taxonomy shared across the package.

The split mirrors the exit codes of the command line tool: validation
problems (bad measure files, bad parameters) and numerical failures
(non-convergence, ill-conditioned closed forms).  ``BracketError`` and
``QuadratureError`` come only from the monotone bisection and adaptive
quadrature of :mod:`eliashberg_tc.numerics`, which no package routine calls.
"""


class ValidationError(ValueError):
    """Input data violates a documented precondition."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to meet its accuracy contract."""


class BracketError(NumericalError):
    """Root bracketing failed; carries the endpoint values for diagnosis."""

    def __init__(self, message, f_lo=None, f_hi=None):
        super().__init__(message)
        self.f_lo = f_lo
        self.f_hi = f_hi


class QuadratureError(NumericalError):
    """Integrand evaluation failed; carries the offending abscissa."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa
