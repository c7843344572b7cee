"""The truncated stability operator of the linearized gap equations.

For a measure P and temperature T the rank-N truncation is a real symmetric
N x N matrix whose entries are combinations of the kernel averages
<<1>> .. <<2N-1>> only: off the diagonal

    K[n, m] = ( <<|n-m|>> + <<n+m+1>> ) / sqrt((2n+1)(2m+1)),

and on the diagonal the same-site exchange term is replaced by the drag

    K[n, n] = <<2n+1>>/(2n+1) - (2/(2n+1)) * sum_{k<=n} <<k>>.

Both parts come from :func:`split_operator`, the one assembly routine
shared with the gamma family (:mod:`eliashberg_tc.gamma_model`), which
plugs inverse powers j^-gamma into the same kernel slots.

Its top eigenvalue k_N(P, T) increases with N toward the stability
threshold k(P, T); the reciprocal 1/k_N is a decreasing chain of upper
bounds on the critical coupling.  Its slope in T^2, on which the
critical-temperature solve steps, comes from the same assembly
(:func:`k_slope`).  Ranks one through four admit closed forms (linear,
quadratic, trigonometric-cubic, resolvent-quartic), which this module
evaluates independently of the eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalError
from .measure import SpectralMeasure
from .numerics import DEFAULT_TOL, check_rank, check_scalar, integrate_adaptive
from .numerics import power_iteration_positive, sym_eig_top

# Kernel averages become limit-degenerate once every dimensionless frequency
# exceeds this; the zero-temperature limit matrix is exact there to double
# precision and avoids cancellation in the quadratures.
_WMAX_OVER_T_LIMIT = 1e8 * 2.0 * math.pi


@dataclass(frozen=True)
class EliashbergOperator:
    """Assembled rank-N truncation with its cached kernel averages."""

    measure: SpectralMeasure
    temperature: float
    order: int
    matrix: np.ndarray
    kernel: np.ndarray  # kernel[j] = <<j>>, j = 1 .. 2N-1; kernel[0] = 0

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.kernel.setflags(write=False)


@dataclass(frozen=True)
class KBound:
    """Top eigenvalue of a rank-N truncation, the coupling bound 1/k, and the
    positive unit top eigenvector (eigensolver route; None for closed forms)."""

    n: int
    k_value: float
    lambda_upper: float
    eigvec: Optional[np.ndarray]


class ZeroTemperatureLimit(NamedTuple):
    k0: float            # limit of the rank-N top eigenvalue as T -> 0
    lambda_floor: float  # 1/k0: couplings below this are unreachable at rank N


def split_operator(kernel: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise-nonnegative exchange matrix (Toeplitz in |n-m| plus Hankel
    in n+m+1) and drag diagonal of the rank-N operator on ``kernel[0..2N-1]``
    (kernel[0] = 0: no same-site exchange).  The truncation is exchange -
    diag(drag); Matsubara kernel averages give the phonon family and
    kernel[j] = j^-gamma the gamma family."""
    idx = np.arange(n)
    inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
    # Toeplitz and Hankel parts as read-only strided views of one buffer, not
    # N^2 gathers: mirrored[n-1+k] = kernel[|k|], so the Toeplitz entry (i, j)
    # is mirrored[n-1-i+j] and the Hankel entry kernel[i+j+1] is
    # mirrored[n+i+j].  The ndarray constructor checks the views stay inside it.
    mirrored = np.concatenate((kernel[n - 1:0:-1], kernel[:2 * n]), dtype=float)
    mirrored.flags.writeable = False
    step = mirrored.itemsize
    toeplitz = np.ndarray((n, n), float, mirrored, (n - 1) * step, (-step, step))
    hankel = np.ndarray((n, n), float, mirrored, n * step, (step, step))
    exchange = (toeplitz + hankel) * np.outer(inv_sqrt, inv_sqrt)
    prefix = np.concatenate(([0.0], np.cumsum(kernel[1:n])))
    return exchange, 2.0 * prefix / (2.0 * idx + 1.0)


def truncation(kernel: np.ndarray, n: int) -> np.ndarray:
    """The rank-N truncation exchange - diag(drag) of :func:`split_operator`."""
    matrix, drag = split_operator(kernel, n)
    matrix[np.diag_indices(n)] -= drag
    return matrix


def _ultracold(m: SpectralMeasure, t: float) -> bool:
    """Whether every dimensionless frequency exceeds the limit above which
    the zero-temperature kernel (all averages one) is used."""
    min_omega = float(np.min(m.omegas[m.weights > 0])) if m.kind != "tabulated" else float(m.omegas[0])
    return min_omega > 0.0 and min_omega / t > _WMAX_OVER_T_LIMIT


def assemble_k(m: SpectralMeasure, t: float, n: int, *, banded: bool = True) -> EliashbergOperator:
    """Assemble the rank-N truncation at temperature ``t``.

    The 2N-1 kernel averages are computed once and cached on the result;
    every matrix entry is a combination of them.  Symmetry is exact by
    construction.  ``banded=False`` accepts any finite positive temperature,
    as the trial temperatures of a Tc solve need.
    """
    check_rank("order", n)
    check_scalar("temperature", t, banded=banded)
    if _ultracold(m, t):
        # zero-temperature limit: every average is one, so the truncation
        # is -I + 2 u u^T with u_n = 1/sqrt(2n+1)
        kernel = np.ones(2 * n, dtype=float)
        kernel[0] = 0.0
    else:
        kernel = m.kernel_values(t, 2 * n - 1)
    return EliashbergOperator(
        measure=m, temperature=t, order=n, matrix=truncation(kernel, n), kernel=kernel
    )


def k_numeric(m: SpectralMeasure, t: float, n: int, *, banded: bool = True) -> KBound:
    """Top eigenvalue of the rank-N truncation by :func:`sym_eig_top`:
    Lanczos from its crossover rank on, dense ``eigh`` below it or when the
    Lanczos pair fails its certificate.

    The eigenvector is componentwise positive after sign normalization.
    ``banded`` is passed to :func:`assemble_k`.
    """
    op = assemble_k(m, t, n, banded=banded)
    pair = sym_eig_top(op.matrix)
    return KBound(n=n, k_value=pair.value, lambda_upper=1.0 / pair.value, eigvec=pair.vector)


def k_slope(m: SpectralMeasure, t: float, vector: np.ndarray) -> float:
    """Temperature slope dk_N/d(T^2) of the top eigenvalue at ``t``, given
    the unit top eigenvector ``vector`` of the rank-N truncation there
    (``KBound.eigvec``).  Any finite positive ``t`` is accepted.

    The top eigenvalue is simple: K + cI is entrywise positive for large
    enough c, so its top eigenvector is a Perron vector.  The truncation is
    linear in the kernel, so by Hellmann-Feynman the slope is
    v^T truncation(d kernel/d(T^2)) v, one O(N^2) form on the kernel slopes
    of :meth:`SpectralMeasure.kernel_slopes`.  In the zero-temperature limit
    the all-ones kernel does not move, and the slope is zero.
    """
    check_scalar("temperature", t, banded=False)
    n = len(vector)
    if _ultracold(m, t):
        return 0.0
    slopes = truncation(m.kernel_slopes(t, 2 * n - 1), n)
    return float(vector @ slopes @ vector) / (t * t)


@lru_cache(maxsize=None, typed=True)  # typed: k_limit_T0(True) must not hit the rank-1 entry
def k_limit_T0(n: int) -> ZeroTemperatureLimit:
    """Measure-independent zero-temperature limit of the rank-N eigenvalue:
    k0 = -1 + 2 * sum_{k=0}^{N-1} 1/(2k+1), and the coupling floor 1/k0.

    Evaluated in exact rational arithmetic and rounded once, so small ranks
    come out as the exact fractions (5/3 and 3/5 at rank two, 247/105 at
    rank four).
    """
    check_rank("order", n)
    k0 = Fraction(-1) + 2 * sum(Fraction(1, 2 * k + 1) for k in range(n))
    return ZeroTemperatureLimit(k0=float(k0), lambda_floor=float(1 / k0))


# -- closed forms for ranks one to four --------------------------------------


def _clamped_arccos(x: float, slack: float = 1e-12) -> float:
    if abs(x) > 1.0 + slack:
        raise NumericalError(
            f"arccos argument {x!r} outside [-1, 1] beyond tolerance; the "
            "spectrum is too degenerate for the closed form in double "
            "precision (extreme dimensionless frequency) -- use the "
            "eigensolver route"
        )
    return math.acos(float(np.clip(x, -1.0, 1.0)))


def _top_root_rank3(mat: np.ndarray) -> float:
    tr = float(np.trace(mat))
    # trace of the adjugate = sum of principal 2x2 minors
    tr_adj = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        tr_adj += mat[i, i] * mat[j, j] - mat[i, j] * mat[j, i]
    det = float(np.linalg.det(mat))
    p = tr * tr / 3.0 - tr_adj
    if p <= 0.0:
        # all eigenvalues coincide; cannot happen with positive couplings,
        # but keep the algebraically exact answer
        return tr / 3.0
    q = 2.0 * tr ** 3 / 27.0 - tr * tr_adj / 3.0 + det
    angle = _clamped_arccos(0.5 * q * math.sqrt(27.0 / p ** 3))
    return (tr + 6.0 * math.sqrt(p / 3.0) * math.cos(angle / 3.0)) / 3.0


def _top_root_rank4(mat: np.ndarray) -> float:
    tr1 = float(np.trace(mat))
    m2 = mat @ mat
    tr2 = float(np.trace(m2))
    tr3 = float(np.trace(m2 @ mat))
    a = -tr1
    b = 0.5 * (tr1 * tr1 - tr2)
    c = -(tr1 ** 3 - 3.0 * tr2 * tr1 + 2.0 * tr3) / 6.0
    d = float(np.linalg.det(mat))
    x = 2.0 * b ** 3 - 9.0 * a * b * c + 27.0 * c * c + 27.0 * a * a * d - 72.0 * b * d
    y = b * b - 3.0 * a * c + 12.0 * d
    if y <= 0.0:
        raise NumericalError(f"resolvent-cubic discriminant quantity is nonpositive: {y!r}")
    angle = _clamped_arccos(x / (2.0 * math.sqrt(y ** 3)))
    z = (math.sqrt(y) * math.cos(angle / 3.0) - b + 0.375 * a * a) / 3.0
    if z <= 0.0:
        raise NumericalError(f"resolvent-cubic root is nonpositive: {z!r}")
    # z/2 is the largest zero of the resolvent cubic; the largest quartic
    # root pairs sqrt(z/2) with the radical whose depressed-quartic linear
    # coefficient (a^3 - 4ab + 8c)/8 enters with a minus sign -- the
    # opposite choice breaks the sign-parity constraint among the three
    # square roots and is not a root at all.
    inner = (
        0.1875 * a * a
        - 0.5 * b
        - 0.5 * z
        - (a ** 3 - 4.0 * a * b + 8.0 * c) / (16.0 * math.sqrt(2.0 * z))
    )
    if inner < 0.0:
        if inner < -1e-10 * max(1.0, a * a):
            raise NumericalError(f"quartic radical argument is negative: {inner!r}")
        inner = 0.0
    return math.sqrt(0.5 * z) + math.sqrt(inner) - 0.25 * a


def k_closed_form(m: SpectralMeasure, t: float, n: int) -> KBound:
    """Top eigenvalue of the rank-N truncation, N in {1, 2, 3, 4}, by the
    explicit spectral formulas (linear / quadratic / trigonometric cubic /
    quartic via its resolvent cubic).  Agrees with the dense eigensolver to
    ten digits relative; the two routes check each other in the test suite.

    The rank-four resolvent degenerates in double precision once the lower
    eigenvalues cluster toward the zero-temperature limit (dimensionless
    frequency beyond roughly 5e2); it then raises a named numerical error
    rather than returning a noise-dominated root.  At the hot end (omega/T
    below about 1e-12 at rank four, 1e-24 at rank three) the formulas under-
    or overflow and raise a named numerical error as well.  The eigensolver
    route is stable at every temperature.
    """
    check_rank("closed-form rank", n, 1, 4)
    mat = assemble_k(m, t, n).matrix
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            if n == 1:
                value = float(mat[0, 0])
            elif n == 2:
                tr = float(mat[0, 0] + mat[1, 1])
                det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
                value = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
            elif n == 3:
                value = _top_root_rank3(mat)
            else:
                value = _top_root_rank4(mat)
            return KBound(n=n, k_value=value, lambda_upper=1.0 / value, eigvec=None)
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"rank-{n} closed form fails in double precision at "
                             f"temperature {t:.6g} ({exc}); use the eigensolver route") from exc


def lambda2_closed(m: SpectralMeasure, t: float) -> float:
    """Rank-two coupling bound 1/k_2 in its explicit average form

        6 / ( <<1>+<3>> + sqrt( <<1>+<3>>^2 + 12 (<<1>+<2>>^2 + <<1>>(2<<1>>-<<3>>)) ) ).
    """
    check_scalar("temperature", t)
    kv = m.kernel_values(t, 3)
    s13 = kv[1] + kv[3]
    s12 = kv[1] + kv[2]
    radical = s13 * s13 + 12.0 * (s12 * s12 + kv[1] * (2.0 * kv[1] - kv[3]))
    return 6.0 / (s13 + math.sqrt(radical))


# -- fixed-point operator -----------------------------------------------------


def c_spectral_radius(
    m: SpectralMeasure,
    t: float,
    lam: float,
    n: int,
    tol: float = 1e-10,
) -> float:
    """Spectral radius of the rank-N fixed-point operator at coupling ``lam``.

    The operator is the diagonal resolvent of the drag part applied to the
    (entrywise positive) exchange part; its radius is < 1 exactly on the
    stable side lam < 1/k_N, equals 1 at the threshold, and exceeds 1 beyond
    it.  Evaluated by positive-cone power iteration.
    """
    check_scalar("coupling", lam)
    exchange, drag = split_operator(assemble_k(m, t, n).kernel, n)
    resolvent = 1.0 / (1.0 / lam + drag)

    def apply(x: np.ndarray) -> np.ndarray:
        return resolvent * (exchange @ x)

    return power_iteration_positive(apply, n, tol=tol)


# -- temperature-derivative identity ------------------------------------------


@dataclass(frozen=True)
class DerivativeCheck:
    """Two independent evaluations of d/d(T^2) of the combination
    3<<1>> + 2<<2>> - <<3>> and their relative discrepancy."""

    finite_difference: float
    closed_form: float
    residual: float


_DERIV_COEFFS = (4392.0, 3888.0, 1370.0, 148.0, 2.0)


def _deriv_combination(m: SpectralMeasure, t: float) -> float:
    kv = m.kernel_values(t, 3)
    return 3.0 * kv[1] + 2.0 * kv[2] - kv[3]


def _deriv_closed_integrand(omega: np.ndarray, s: float) -> np.ndarray:
    """Rational closed form of d/ds of the kernel combination at one
    frequency, with s the squared first Matsubara offset (2 pi T)^2."""
    x = omega * omega
    numer = np.zeros_like(x)
    for i, coeff in enumerate(_DERIV_COEFFS, start=1):
        numer += coeff * x ** i * s ** (5 - i)
    denom = ((s + x) * (4.0 * s + x) * (9.0 * s + x)) ** 2
    return -numer / denom


def dk_dT2_identity_check(m: SpectralMeasure, t: float) -> DerivativeCheck:
    """Check the closed rational form of the temperature derivative.

    The combination 3<<1>> + 2<<2>> - <<3>> is differentiated with respect
    to T^2 both by central finite differences and through the closed
    rational integrand (whose numerator coefficients are the integers
    4392, 3888, 1370, 148, 2).  The closed integrand is strictly negative,
    which is what makes the rank-two coupling bound invertible at every
    temperature.  The chain-rule factor between d/d(T^2) and the squared
    Matsubara offset s = 4 pi^2 T^2 is included explicitly.
    """
    check_scalar("temperature", t)
    u = t * t
    h = 1e-5 * u
    fd = (_deriv_combination(m, math.sqrt(u + h)) - _deriv_combination(m, math.sqrt(u - h))) / (
        2.0 * h
    )
    s = 4.0 * math.pi ** 2 * u
    jacobian = 4.0 * math.pi ** 2  # ds/d(T^2)

    if m.kind in ("einstein", "discrete"):
        closed = jacobian * float(
            np.sum(m.weights * _deriv_closed_integrand(m.omegas, s))
        )
    else:
        acc = 0.0
        for a, b, pa, pb in m.segments.T.tolist():
            beta = (pb - pa) / (b - a)
            alpha = pa - beta * a
            acc += integrate_adaptive(
                lambda w: (alpha + beta * w) * float(_deriv_closed_integrand(np.array([w]), s)[0]),
                a,
                b,
                DEFAULT_TOL.quad_tol,
            )
        closed = jacobian * acc
    residual = abs(fd - closed) / max(abs(closed), 1e-300)
    return DerivativeCheck(finite_difference=fd, closed_form=closed, residual=residual)
