"""Critical-coupling and critical-temperature bounds for phonon-mediated
superconductors, from finite-rank truncations of the stability operator of
the linearized gap equations.

The public surface:

* :mod:`eliashberg_tc.measure` -- phonon spectral measures (single atom,
  atom mixture, tabulated density), moments, kernel averages.
* :mod:`eliashberg_tc.stability` -- the truncated stability operator, its
  top eigenvalue by closed form (ranks 1..4) and eigensolver (any rank),
  zero-temperature limits, the fixed-point operator.
* :mod:`eliashberg_tc.gamma_model` -- the temperature-free operator family
  behind the strong-coupling asymptotics.
* :mod:`eliashberg_tc.bounds` -- global coupling and temperature bounds.
* :mod:`eliashberg_tc.tc_solver` -- monotone inversion into the
  critical-temperature ladder and converged estimates.
* :mod:`eliashberg_tc.verify` -- the invariant suite.
"""

from .errors import NumericalError, ValidationError
from .measure import SpectralMeasure, discrete, einstein, load, tabulated
from .stability import (
    KBound,
    assemble_k,
    c_spectral_radius,
    k_closed_form,
    k_limit_T0,
    k_numeric,
)
from .gamma_model import assemble_gamma, dirichlet_coefficients, expected_gamma, g_top
from .bounds import (
    bound_constants,
    k_sharp,
    k_star,
    lambda_star_bounds,
    tc_asymptotic,
    tc_flat,
    tc_sharp,
    t_star,
    tc_tilde,
    threshold_table,
)
from .tc_solver import TcReport, tc_converged, tc_n

__all__ = [
    "KBound",
    "NumericalError",
    "SpectralMeasure",
    "TcReport",
    "ValidationError",
    "assemble_gamma",
    "assemble_k",
    "bound_constants",
    "c_spectral_radius",
    "dirichlet_coefficients",
    "discrete",
    "einstein",
    "expected_gamma",
    "g_top",
    "k_closed_form",
    "k_limit_T0",
    "k_numeric",
    "k_sharp",
    "k_star",
    "lambda_star_bounds",
    "load",
    "t_star",
    "tabulated",
    "tc_asymptotic",
    "tc_converged",
    "tc_flat",
    "tc_n",
    "tc_sharp",
    "tc_tilde",
    "threshold_table",
]

__version__ = "0.1.0"
