"""Shared numerical kernels and the input domain.

Symmetric top-eigenpair extraction (dense ``eigh``, or on a split
truncation with a positive kernel Lanczos or warm-started Rayleigh-quotient
iteration), positive-cone power iteration, Riemann zeta evaluation, and the
bracketed Newton iteration that solves for critical temperatures.  Adaptive
quadrature and monotone bisection remain as stand-alone routines that the
package itself no longer calls.  All routines are pure functions of their
arguments and safe to call concurrently.  Accuracy contracts (not
algorithms) are the interface; the defaults live in one configuration
record so every tolerance used anywhere in the package is visible in a
single place, and so is the input domain.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, NumericalError, QuadratureError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Default accuracy knobs for the numerical kernels."""

    eig_residual: float = 1e-10     # ||M v - lambda v|| <= eig_residual * (1 + |lambda|)
    power_tol: float = 1e-12        # relative error of the spectral-radius estimate
    power_max_iter: int = 100_000
    quad_tol: float = 1e-10         # integrate_adaptive default (no package caller)
    bisect_tol: float = 1e-12       # bisect_monotone default width ratio (no package caller)
    newton_tol: float = 1e-8        # last Newton step over the root (Tc solves); error ~ its square


DEFAULT_TOL = Tolerances()

# The input domain, checked by check_scalar and check_rank only.  Every
# temperature, frequency, coupling, exponent, scale and tolerance lies in
# [MIN_MAGNITUDE, MAX_MAGNITUDE].  Single inputs overflow only near 1e150, but
# inputs combine: any two in the band give a dimensionless frequency
# w/(2 pi T) within 1e+-60, and the largest product, g^2 <w^2>^2 lam in the
# asymptotic inverse, stays below 1e152.
MIN_MAGNITUDE, MAX_MAGNITUDE = 1e-30, 1e30
# Evaluations a Newton solve may take: bisection alone narrows a bracket to
# 1e-8 of its end point in about 30, and each fourfold widening costs one.
_NEWTON_MAX_EVALS = 100
# Largest rank, order or count.  Past it no dense fallback exists: one dense
# MAX_RANK x MAX_RANK float64 matrix takes 8 * 4096^2 bytes = 128 MiB, and
# assembly holds a few at once.
MAX_RANK = 4096
# sym_eig_top tries Lanczos on a split truncation from this rank on; below
# it dense eigh is faster.  Measured with one BLAS thread, best of 5, on the
# gamma (gamma 0.5, 2), einstein and two-atom (T = 0.02) operators, two
# rounds: dense eigh takes 0.30-0.37 ms at N = 56, 0.39-0.41 at 64 and
# 0.53-0.76 at 72; Lanczos on the assembled matrix 0.30-0.35, 0.29-0.47 and
# 0.29-0.37: the faster in 3 of 8 pairs at 56, 7 of 8 at 64 and all 8 from
# 72 on.
_KRYLOV_MIN_RANK = 72
# Lanczos steps before sym_eig_top falls back to eigh; the operators of this
# package converge in 13-15.
_KRYLOV_MAX_STEPS = 64
# Largest entry magnitude the Lanczos route takes, and its reciprocal the
# smallest: vector norms are square roots of sums of squares.
_KRYLOV_SCALE = 2.0 ** 300
_EPS = float(np.finfo(float).eps)


def check_scalar(name: str, value, banded: bool = True) -> float:
    """``value`` as a float if it is a real number in [MIN_MAGNITUDE,
    MAX_MAGNITUDE], or finite and positive when not ``banded``."""
    if isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if 0.0 < x < math.inf and (not banded or MIN_MAGNITUDE <= x <= MAX_MAGNITUDE):
            return x
    what = (f"a real number in [{MIN_MAGNITUDE:g}, {MAX_MAGNITUDE:g}]" if banded
            else "finite and positive")
    raise ValidationError(f"{name} must be {what}, got {value!r}")


def check_rank(name: str, value, lo: int = 1, hi: int = MAX_RANK) -> int:
    """``value`` as an int if it is an integer in [lo, hi]: NumPy integers
    pass, 2.5, 4.0 and True do not."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or not lo <= n <= hi:
        raise ValidationError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return n


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


def _exactly_symmetric(m: np.ndarray) -> bool:
    """Whether the square ``m`` equals its transpose, compared tile pair by
    tile pair so that both reads stay in cache (comparing ``m`` with ``m.T``
    whole is 6x slower at N = 2048)."""
    n, tile = len(m), 128
    return all((m[i:i + tile, j:j + tile] == m[j:j + tile, i:i + tile].T).all()
               for i in range(0, n, tile) for j in range(i, n, tile))


def _kernel_eligible(kernel: np.ndarray) -> bool:
    """Whether a split truncation takes the Lanczos route: every kernel
    entry past the first positive, which makes every off-diagonal entry
    positive, and the largest in (1/_KRYLOV_SCALE, _KRYLOV_SCALE), so that
    no squared vector norm of the iteration under- or overflows.  O(N); NaN
    fails both tests."""
    entries = kernel[1:]
    big = float(np.max(entries))
    return float(np.min(entries)) > 0.0 and 1.0 / _KRYLOV_SCALE < big < _KRYLOV_SCALE


def _lanczos_top(matvec: Callable[[np.ndarray], np.ndarray],
                 n: int) -> Optional[tuple[float, np.ndarray]]:
    """Top Ritz pair of the symmetric order-``n`` operator applied by
    ``matvec``, by Lanczos with full reorthogonalization (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 13), started from the positive
    vector 1/sqrt(2n+1); None unless it converges within
    ``_KRYLOV_MAX_STEPS`` steps.

    Each new Lanczos vector is orthogonalized twice against the whole basis
    (classical Gram-Schmidt), so orthogonality holds to rounding without
    selective reorthogonalization.  The iteration has converged when the
    residual of the top Ritz pair, beta_j |s_j| for the top eigenvector s of
    the tridiagonal T_j, is at rounding level, 4 eps max|eig(T_j)|, or when
    the Krylov space is invariant (beta_j = 0).  The operators of this
    package take 13-15 steps, and the tridiagonal ``eigh`` of the test costs
    as much as a matrix-vector product at N ~ 100, so the test runs from
    step 8 on, every second step, and at the last step and an invariant
    space.
    """
    steps = min(_KRYLOV_MAX_STEPS, n)
    basis = np.empty((steps, n))
    start = 1.0 / np.sqrt(2.0 * np.arange(n) + 1.0)
    basis[0] = start / np.linalg.norm(start)
    tri = np.zeros((steps, steps))
    for j in range(steps):
        w = matvec(basis[j])
        tri[j, j] = basis[j] @ w
        for _ in range(2):
            w -= (basis[: j + 1] @ w) @ basis[: j + 1]
        beta = float(np.linalg.norm(w))
        if j >= 7 and j % 2 == 1 or j + 1 == steps or beta == 0.0:
            values, vectors = np.linalg.eigh(tri[: j + 1, : j + 1])
            if beta * abs(vectors[-1, -1]) <= 4.0 * _EPS * max(-values[0], values[-1]):
                return float(values[-1]), vectors[:, -1] @ basis[: j + 1]
        if j + 1 < steps:
            basis[j + 1] = w / beta
            tri[j, j + 1] = tri[j + 1, j] = beta
    return None


def _certified(matvec: Callable[[np.ndarray], np.ndarray], value: float,
               vector: np.ndarray) -> Optional[EigenPair]:
    """The pair (``value``, ``vector``), unit and signed by its first entry,
    if it meets the residual contract of :func:`sym_eig_top` (computed with
    ``matvec``) and its vector is strictly positive, which on a matrix with
    positive off-diagonal entries only the top (Perron) pair can; else None."""
    vector = vector / math.copysign(math.sqrt(vector @ vector), vector[0])
    residual = matvec(vector) - value * vector
    bound = (DEFAULT_TOL.eig_residual * (1.0 + abs(value))) ** 2
    if residual @ residual <= bound and (vector > 0.0).all():
        return EigenPair(value=value, vector=vector)
    return None


def _rqi_top(m: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray]:
    """Rayleigh-quotient iteration on ``m`` from ``start`` (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 4), cubically convergent: at
    most 4 solves, stopping once the residual is at rounding level, 4 eps
    |value|.  :func:`_certified` judges which pair it reached."""
    x, eye = start / math.sqrt(start @ start), np.eye(len(m))
    value = float(x @ (m @ x))
    for _ in range(4):  # a start from another temperature or rank is not converged
        try:
            x = np.linalg.solve(m - value * eye, x)
        except np.linalg.LinAlgError:  # value is an eigenvalue in floats
            break
        x /= math.sqrt(x @ x)
        product = m @ x
        value = float(x @ product)
        residual = product - value * x
        if residual @ residual <= (4.0 * _EPS * value) ** 2:
            break
    return value, x


def sym_eig_top(matrix, start: Optional[np.ndarray] = None) -> EigenPair:
    """Algebraically largest eigenvalue of a real symmetric matrix, given
    dense or as a split truncation; the three routes give the same pair to
    rounding.

    A split truncation (:class:`eliashberg_tc.stability.SplitTruncation`)
    holds the rank-N operator as its kernel: ``len()`` is N, ``kernel`` its
    2N kernel numbers, ``matvec(x)`` applies it (by the matrix or by FFT, as
    the split picks) and ``dense()`` assembles it.  A split truncation whose
    kernel passes :func:`_kernel_eligible` has positive off-diagonal
    entries, so it is irreducible and Metzler and its top eigenvector is the
    only positive one, a Perron vector.  From rank ``_KRYLOV_MIN_RANK`` on
    it goes to Lanczos on ``matvec`` (:func:`_lanczos_top`, 10-15 products)
    from a positive vector; below that rank, given a ``start`` vector, to
    Rayleigh-quotient iteration on ``dense()`` (:func:`_rqi_top`, 1-3
    solves).  The pair is kept only if :func:`_certified`: its residual is at
    most ``eig_residual (1 + |lam|)`` and its vector is strictly positive.
    Otherwise, and for every other split truncation, ``dense()`` takes the
    last route, and a dense ndarray always does: a validated dense ``eigh``.

    Parameters
    ----------
    matrix : (N, N) ndarray or split truncation
        Real symmetric with finite entries.  Symmetry is required exactly;
        matrices in this package are assembled mirrored, never recomputed
        per triangle.
    start : (N,) ndarray, optional
        An approximate top eigenvector, for a split truncation below rank 72.

    Returns
    -------
    EigenPair
        Deterministic for fixed input.
    """
    if hasattr(matrix, "matvec"):
        n = len(matrix)
        if (n >= _KRYLOV_MIN_RANK or start is not None) and _kernel_eligible(matrix.kernel):
            candidate = (_lanczos_top(matrix.matvec, n) if n >= _KRYLOV_MIN_RANK
                         else _rqi_top(matrix.dense(), start))
            pair = candidate and _certified(matrix.matvec, *candidate)
            if pair is not None:
                return pair
        matrix = matrix.dense()
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    if not _exactly_symmetric(m):
        raise ValidationError("matrix is not exactly symmetric")
    eigvals, eigvecs = np.linalg.eigh(m)
    value = float(eigvals[-1])
    vector = _sign_normalize(eigvecs[:, -1].copy())
    vector /= np.linalg.norm(vector)
    residual = float(np.linalg.norm(m @ vector - value * vector))
    if residual > DEFAULT_TOL.eig_residual * (1.0 + abs(value)):
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds contract "
            f"{DEFAULT_TOL.eig_residual:.1e}*(1+|{value:.6g}|)"
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
    above at every step.  They stop once their spread is at most
    max(``tol``, 8 n eps) of the upper one: 8 n eps is the rounding floor.
    """
    spread = max(check_scalar("tolerance", tol), 8.0 * n * _EPS)
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
        if hi - lo <= spread * hi:
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


# Unused by the package; kept because the benchmark's per-layer tracer
# (perfbench/tracing.py) wraps numerics.bisect_monotone by name.
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


def newton_bracketed(
    f: Callable[[float], tuple[float, float]],
    x0: float,
    tol: float = DEFAULT_TOL.newton_tol,
) -> float:
    """Positive root of ``f``, where ``f`` is negative near 0 and positive
    for large x; neither end is evaluated.

    ``f(x)`` returns the value and the slope at x > 0.  From ``x0`` the
    iteration keeps the sign-change bracket [a, b] of the values seen so far
    and takes Newton steps.  It takes a bisection step instead whenever a
    Newton step would leave the bracket, the slope is not positive, the
    step turns back by more than half the step before it, which stops
    oscillation (after Brent, Algorithms for Minimization without
    Derivatives, 1973), or, in a closed bracket, it runs on longer than the
    step before it, which stops a creep toward a root decades away.  While
    no positive value has been seen the bisection step multiplies x by a
    factor, while no negative one has it divides b by it, and consecutive
    such steps square the factor (4, 16, 256, ...: Bentley and Yao, Inf.
    Proc. Letters 5, 1976), up to the end of the positive finite floats;
    in a closed bracket it is the geometric mean while b > 4a, else the
    midpoint.  Each trial point is evaluated once.  The
    iteration stops at the first step no longer than ``tol`` times its end
    point and returns that end point: after a Newton step the error is of
    the order of the step squared.
    """
    x = check_scalar("start", x0, banded=False)
    a, b = 0.0, math.inf
    last = 0.0  # the previous step, signed
    factor = 4.0
    for _ in range(_NEWTON_MAX_EVALS):
        value, slope = f(x)
        if value == 0.0:
            return x
        if value < 0.0:
            a = x
        else:
            b = x
        new = x - value / slope if slope > 0.0 else math.nan
        ratio = (new - x) / last if last else 0.0  # of this step to the one before
        if not a < new < b or ratio < -0.5 or ratio > 1.0 and 0.0 < a and b < math.inf:
            if b == math.inf:
                new, factor = a * factor, factor * factor
            elif a == 0.0:
                new, factor = b / factor, factor * factor
            else:
                new = math.sqrt(a) * math.sqrt(b) if b > 4.0 * a else 0.5 * (a + b)
        else:
            factor = 4.0
        if not 0.0 < new < math.inf:
            break
        if abs(new - x) <= tol * new:
            return new
        last = new - x
        x = new
    raise NumericalError(
        f"no root to relative step {tol:.1e} in {_NEWTON_MAX_EVALS} evaluations "
        f"within the positive finite floats: bracket [{a!r}, {b!r}]"
    )


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


# Unused by the package; kept because the benchmark's per-layer tracer
# (perfbench/tracing.py) wraps numerics.integrate_adaptive by name.
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
