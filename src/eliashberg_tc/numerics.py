"""Shared numerical kernels.

Dense symmetric top-eigenpair extraction, positive-cone power iteration,
Riemann zeta evaluation, adaptive quadrature, and monotone bisection.  All
routines are pure functions of their arguments and safe to call
concurrently.  Accuracy contracts (not algorithms) are the interface; the
defaults live in one configuration record so every tolerance used anywhere
in the package is visible in a single place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, NumericalError, QuadratureError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Default accuracy knobs for the numerical kernels."""

    eig_residual: float = 1e-10     # ||M v - lambda v|| <= eig_residual * (1 + |lambda|)
    power_tol: float = 1e-12        # relative error of the spectral-radius estimate
    power_max_iter: int = 100_000
    quad_tol: float = 1e-10         # adaptive quadrature (derivative-identity check only)
    bisect_tol: float = 1e-12       # bracket width relative to the initial interval


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class EigenPair:
    """Top eigenvalue and a unit-norm eigenvector, sign-normalized so the
    first component of noticeable size is positive."""

    value: float
    vector: np.ndarray


def _sign_normalize(vector: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(vector))
    if scale == 0.0:
        return vector
    idx = np.argmax(np.abs(vector) > 1e-14 * scale)
    if vector[idx] < 0.0:
        vector = -vector
    return vector


def sym_eig_top(matrix: np.ndarray, residual_tol: float = DEFAULT_TOL.eig_residual) -> EigenPair:
    """Algebraically largest eigenvalue of a real symmetric matrix.

    Parameters
    ----------
    matrix : (N, N) ndarray
        Real symmetric with finite entries.  Symmetry is required exactly;
        matrices in this package are assembled mirrored, never recomputed
        per triangle.
    residual_tol : float
        The result must satisfy ``||M v - lam v|| <= residual_tol * (1 + |lam|)``.

    Returns
    -------
    EigenPair
        Deterministic for fixed input.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValidationError("matrix is not exactly symmetric")
    eigvals, eigvecs = np.linalg.eigh(m)
    value = float(eigvals[-1])
    vector = _sign_normalize(eigvecs[:, -1].copy())
    vector /= np.linalg.norm(vector)
    residual = float(np.linalg.norm(m @ vector - value * vector))
    if residual > residual_tol * (1.0 + abs(value)):
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds contract "
            f"{residual_tol:.1e}*(1+|{value:.6g}|)"
        )
    return EigenPair(value=value, vector=vector)


def power_iteration_positive(
    apply: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = DEFAULT_TOL.power_tol,
    max_iter: int = DEFAULT_TOL.power_max_iter,
) -> float:
    """Spectral radius of a cone-preserving linear map.

    ``apply`` must map componentwise-nonnegative vectors to componentwise-
    nonnegative vectors (all matrix entries of the represented operator
    nonnegative).  Iteration starts from the all-ones vector; convergence is
    certified through the min/max component ratios, which bracket the
    spectral radius of a primitive nonnegative operator from below and
    above at every step.
    """
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    x = np.ones(n, dtype=float)
    lo, hi = 0.0, np.inf
    for iteration in range(1, max_iter + 1):
        y = apply(x)
        y = np.asarray(y, dtype=float)
        if np.any(y < 0.0) or not np.all(np.isfinite(y)):
            raise NumericalError("map left the nonnegative cone")
        mask = x > 0.0
        ratios = y[mask] / x[mask]
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi <= 0.0:
            return 0.0
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi)
        x = y / np.linalg.norm(y)
    raise NumericalError(
        f"power iteration did not converge in {max_iter} iterations: "
        f"bracket [{lo:.12g}, {hi:.12g}], spread {(hi - lo) / hi:.3e}"
    )


# Bernoulli numbers B_2..B_20 as exact fractions, for the tail correction of
# the truncated Dirichlet series.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)


def riemann_zeta(s: float) -> float:
    """Riemann zeta for real ``s > 1``, absolute error below 1e-12.

    Euler-Maclaurin corrected partial summation: a short explicit sum plus
    integral, half-term, and Bernoulli corrections at the cutoff.
    """
    if not s > 1.0:
        raise ValidationError(f"zeta requires s > 1, got {s}")
    cutoff = 24
    k = np.arange(1, cutoff + 1, dtype=float)
    total = float(np.sum(k[::-1] ** (-s)))
    n = float(cutoff)
    total += n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
    rising = s  # s(s+1)...(s+2j-2), built incrementally
    power = n ** (-s - 1.0)
    factorial = 2.0  # (2j)!
    for j, bern in enumerate(_BERNOULLI, start=1):
        total += bern / factorial * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= n * n
        factorial *= (2 * j + 1) * (2 * j + 2)
    return total


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = DEFAULT_TOL.bisect_tol,
) -> float:
    """Solve ``f(x) = target`` for continuous strictly monotone ``f``.

    The monotone direction is auto-detected from the endpoint values.  The
    returned abscissa lies within ``tol * (hi - lo)`` of the crossing.
    """
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    f_lo = f(lo) - target
    f_hi = f(hi) - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"target {target:.12g} not bracketed: f({lo:.12g})={f_lo + target:.12g}, "
            f"f({hi:.12g})={f_hi + target:.12g}",
            f_lo=f_lo + target,
            f_hi=f_hi + target,
        )
    increasing = f_hi > 0.0
    width_goal = tol * (hi - lo)
    while hi - lo > width_goal:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval exhausted at float resolution
            break
        val = f(mid) - target
        if val == 0.0:
            return mid
        if (val > 0.0) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL.quad_tol,
) -> float:
    """Adaptive Simpson quadrature of a bounded piecewise-smooth integrand.

    Relative error against interval refinement is kept below ``tol``; the
    local acceptance test uses the standard one-fifteenth Richardson
    estimate with error tightened proportionally to subinterval length.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate_adaptive(g, b, a, tol)

    def evaluate(x: float) -> float:
        try:
            val = g(x)
        except (ZeroDivisionError, OverflowError, FloatingPointError) as exc:
            raise QuadratureError(f"integrand failed at {x!r}: {exc}", abscissa=x) from exc
        if not np.isfinite(val):
            raise QuadratureError(f"integrand not finite at {x!r}", abscissa=x)
        return float(val)

    fa, fm, fb = evaluate(a), evaluate(0.5 * (a + b)), evaluate(b)
    whole = _simpson(fa, fm, fb, b - a)
    scale = max(abs(whole), 1e-300)

    def recurse(x0, x2, f0, f1, f2, coarse, budget, depth):
        x1 = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fl, fr = evaluate(xl), evaluate(xr)
        left = _simpson(f0, fl, f1, x1 - x0)
        right = _simpson(f1, fr, f2, x2 - x1)
        fine = left + right
        err = (fine - coarse) / 15.0
        if abs(err) <= budget or depth >= 48:
            return fine + err
        return recurse(x0, x1, f0, fl, f1, left, 0.5 * budget, depth + 1) + recurse(
            x1, x2, f1, fr, f2, right, 0.5 * budget, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol * scale, 0)
