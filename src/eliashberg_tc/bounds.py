"""Closed-form global bounds on the stability threshold and on the
critical temperature.

Upper bounds on the top eigenvalue k(P, T) of the stability operator (hence
lower bounds on the critical coupling): the spectral-radius estimate
``k_star`` and its measure-free weakening ``k_sharp``.  Inverting these in
temperature yields the explicit critical-temperature bounds ``tc_sharp``
(rigorous upper), ``tc_flat`` (rigorous lower, defined above a coupling
threshold), and the conjectured asymptotically sharp upper bound
``tc_tilde``.  The strong-coupling asymptotic inverse ``tc_asymptotic``
uses the gamma-family ingredients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import ValidationError
from .gamma_model import expected_gamma, g_top
from .measure import SpectralMeasure
from .numerics import check_rank, check_scalar, riemann_zeta
from . import stability

#: rank of the gamma-family truncation used for the conjectured bound; the
#: top eigenvalue has ten stable digits well before this order.
GAMMA_LIMIT_RANK = 256


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the spectral-radius estimate.

    ``b`` is recomputed from the zeta evaluations at import-free call time,
    never hard-coded, at the exponent epsilon = 0.65 inherited from the
    companion operator analysis and not tuned here.
    """

    b: float


@lru_cache(maxsize=1)
def bound_constants() -> BoundConstants:
    epsilon = 0.65
    b = 2.0 * math.sqrt(
        (2.0 ** (1.0 + epsilon) - 1.0) * riemann_zeta(1.0 + epsilon) * riemann_zeta(5.0 - epsilon)
    )
    return BoundConstants(b=b)


def _varpi_squared(m: SpectralMeasure, t: float) -> float:
    """Second moment of the dimensionless frequency w / (2 pi T)."""
    check_scalar("temperature", t)
    return m.moment(2) / (2.0 * math.pi * t) ** 2


def _k_star(k1: float, varpi2: float) -> float:
    return k1 + bound_constants().b * varpi2


def _k_sharp(varpi2: float) -> float:
    return varpi2 / (varpi2 + 1.0) + bound_constants().b * varpi2


def k_star(m: SpectralMeasure, t: float) -> float:
    """Upper bound on the stability eigenvalue: the rank-one average plus
    the zeta-weighted tail estimate.  Dominates every finite-rank value."""
    return _k_star(m.kernel_average(1, t), _varpi_squared(m, t))


def k_sharp(m: SpectralMeasure, t: float) -> float:
    """Weaker upper bound obtained by averaging inside the rank-one term
    (concavity), so only the second moment of the measure enters.  Ties
    ``k_star`` exactly for a single-atom measure."""
    return _k_sharp(_varpi_squared(m, t))


class ThresholdTable(NamedTuple):
    """The chain k_1 <= k_2 <= k_3 <= k_4, k_N <= k_star <= k_sharp at one
    temperature: ranks one to four by closed form, rank N by eigensolver."""

    closed: tuple[stability.KBound, ...]
    numeric: stability.KBound
    k_star: float
    k_sharp: float


def threshold_table(m: SpectralMeasure, t: float, n: int) -> ThresholdTable:
    """Every threshold bound at temperature ``t`` from one kernel pass.

    Each rank-r truncation is the leading r x r block of every larger one,
    and is built from the first 2r kernel averages, so one pass of
    2 max(N, 4) - 1 averages serves all of them: the closed forms
    (:func:`stability.closed_form_bound`) read the blocks of order one to
    four of the rank-four truncation, the eigensolver
    (:func:`stability.eigensolver_bound`) the rank-N
    :class:`stability.SplitTruncation`, and ``k_star`` the average <<1>>.
    The values are those of :func:`stability.k_closed_form`,
    :func:`stability.k_numeric`, :func:`k_star` and :func:`k_sharp`: bitwise
    for atom measures, to a few units in the last place for tabulated ones,
    whose averages are summed in a different grouping at a different count.
    """
    check_scalar("temperature", t)
    n = check_rank("order", n)
    kernel = m.kernel_values(t, 2 * max(n, 4) - 1)
    small = stability.truncation(kernel, 4)
    closed = tuple(stability.closed_form_bound(small[:r, :r]) for r in (1, 2, 3, 4))
    numeric = stability.eigensolver_bound(stability.SplitTruncation(kernel[:2 * n], n), t)
    varpi2 = _varpi_squared(m, t)
    return ThresholdTable(closed, numeric, _k_star(float(kernel[1]), varpi2), _k_sharp(varpi2))


def tc_sharp(m: SpectralMeasure, lam: float) -> float:
    """Rigorous upper bound on the critical temperature, for every coupling.

    Exact inverse of ``lam * k_sharp(m, T) = 1`` in T; the prefactor is the
    root-mean-square frequency over 2 pi, forced by dimensional analysis.
    The tests verify the defining identity itself rather than a particular
    algebraic rearrangement of it.
    """
    check_scalar("coupling", lam)
    b = bound_constants().b
    core = lam * (1.0 + b) - 1.0
    inv_v = 0.5 * (core + math.sqrt(core * core + 4.0 * b * lam))
    return math.sqrt(m.moment(2)) / (2.0 * math.pi) * math.sqrt(inv_v)


def tc_flat(m: SpectralMeasure, lam: float):
    """Rigorous lower bound on the critical temperature, defined for
    couplings above the support-edge threshold; ``None`` below it."""
    check_scalar("coupling", lam)
    gap = lam * m.moment(2) - m.omega_max ** 2
    if gap <= 0.0:
        return None
    return math.sqrt(gap) / (2.0 * math.pi)


def tc_tilde(m: SpectralMeasure, lam: float) -> float:
    """Conjectured upper bound on the critical temperature, asymptotically
    sharp at strong coupling: (1/2 pi) sqrt(g2 <w^2> lam) with g2 the
    strong-coupling spectral constant.  Never rigorous at finite coupling,
    and never used as a bracket endpoint on the rigorous side."""
    check_scalar("coupling", lam)
    g2 = g_top(2.0, GAMMA_LIMIT_RANK).value
    return math.sqrt(g2 * m.moment(2) * lam) / (2.0 * math.pi)


class LambdaStarBounds(NamedTuple):
    """Upper estimates for the coupling above which the critical temperature
    is rigorously well-defined.  ``strong`` inverts the rank-four bound at
    the monotonicity threshold temperature; ``easy`` needs only the support
    edge and the second moment.  Neither dominates the other."""

    strong: float
    easy: float


def t_star(m: SpectralMeasure) -> float:
    """Conservative monotonicity threshold: the temperature above which the
    stability eigenvalue is proven to decrease in T, support edge over
    2 sqrt(2) pi.  The sharp threshold is unknown; this proven bound is what
    the ladder's status labels are judged against."""
    return m.omega_max / (2.0 * math.sqrt(2.0) * math.pi)


def lambda_star_bounds(m: SpectralMeasure) -> LambdaStarBounds:
    strong = 1.0 / stability.k_closed_form(m, t_star(m), 4).k_value
    easy = 1.5 * m.omega_max ** 2 / m.moment(2)
    return LambdaStarBounds(strong=strong, easy=easy)


def tc_asymptotic(m: SpectralMeasure, lam: float, n: int) -> float:
    """Two-coefficient strong-coupling inverse of the rank-N bound.

    Uses the gamma-family constants at exponents two and four together with
    the second and fourth moments of the measure.  Tends to
    (1/2 pi) sqrt(g_N(2) <w^2> lam) from below as the coupling grows.
    """
    check_scalar("coupling", lam)
    g2 = g_top(2.0, n).value
    g4_exp = expected_gamma(4.0, 2.0, n)
    w2 = m.moment(2)
    w4 = m.moment(4)
    arg = 1.0 - 4.0 * g4_exp * w4 / (g2 * g2 * w2 * w2 * lam)
    if arg < 0.0:
        threshold = 4.0 * g4_exp * w4 / (g2 * g2 * w2 * w2)
        raise ValidationError(
            f"coupling {lam:.6g} below the asymptotic-inverse threshold {threshold:.6g}"
        )
    # 1 / sqrt(2 pi^2 (g2 <w^2> / E4 <w^4>) (1 - sqrt(arg))), with the
    # cancelling 1 - sqrt(arg) written as (1 - arg) / (1 + sqrt(arg))
    return math.sqrt(g2 * w2 * lam * (1.0 + math.sqrt(arg)) / 2.0) / (2.0 * math.pi)
