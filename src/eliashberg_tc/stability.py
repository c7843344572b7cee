"""The truncated stability operator of the linearized gap equations.

For a measure P and temperature T the rank-N truncation is a real symmetric
N x N matrix whose entries are combinations of the kernel averages
<<1>> .. <<2N-1>> only: off the diagonal

    K[n, m] = ( <<|n-m|>> + <<n+m+1>> ) / sqrt((2n+1)(2m+1)),

and on the diagonal the same-site exchange term is replaced by the drag

    K[n, n] = <<2n+1>>/(2n+1) - (2/(2n+1)) * sum_{k<=n} <<k>>.

Both parts come from :func:`split_operator`, the one assembly routine
shared with the gamma family (:mod:`eliashberg_tc.gamma_model`), which
plugs inverse powers j^-gamma into the same kernel slots.  A truncation is
held as a :class:`SplitTruncation`, its kernel alone, which assembles its
matrix once on demand and which high ranks apply by FFT without assembling
it.

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
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .measure import SpectralMeasure
from .numerics import check_rank, check_scalar, sym_eig_top


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


def _scale_and_drag(kernel: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal 1/sqrt(2n+1) of D and the drag diagonal of the rank-N
    operator on ``kernel``."""
    idx = np.arange(n)
    inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
    prefix = np.concatenate(([0.0], np.cumsum(kernel[1:n])))
    return inv_sqrt, 2.0 * prefix / (2.0 * idx + 1.0)


def split_operator(kernel: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise-nonnegative exchange matrix (Toeplitz in |n-m| plus Hankel
    in n+m+1) and drag diagonal of the rank-N operator on ``kernel[0..2N-1]``
    (kernel[0] = 0: no same-site exchange).  The truncation is exchange -
    diag(drag); Matsubara kernel averages give the phonon family and
    kernel[j] = j^-gamma the gamma family."""
    inv_sqrt, drag = _scale_and_drag(kernel, n)
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
    return exchange, drag


def truncation(kernel: np.ndarray, n: int) -> np.ndarray:
    """The rank-N truncation exchange - diag(drag) of :func:`split_operator`."""
    matrix, drag = split_operator(kernel, n)
    matrix[np.diag_indices(n)] -= drag
    return matrix


# SplitTruncation.matvec applies the assembled matrix below this rank and the
# O(N log N) FFT product from it on, so from here on the Lanczos route of
# sym_eig_top forms no N x N array.  Measured with one BLAS thread, best of
# 5, on the gamma (gamma 0.5, 2), einstein and two-atom (T = 0.02)
# operators, two rounds: assembly plus Lanczos on the matrix takes 0.4-0.5
# ms at N = 128, 0.8-1.5 at 224, 0.9-1.6 at 256 and 5-6 at 512; the FFT
# product 0.6-1.2, 0.7-1.5, 0.7-1.0 and 0.9-1.6.  At 256 it was the faster
# in all 8 pairs, at 224 in 5.  Rank 256 itself stays assembled: it is
# bounds.GAMMA_LIMIT_RANK, behind Tc_tilde in every tc report, and a ladder
# rank, so every report whose ladder stops by rank 256 keeps the bits of the
# assembled product.
_MATRIX_FREE_MIN_RANK = 257


@dataclass(frozen=True, eq=False)
class SplitTruncation:
    """The rank-N truncation ``D (T + H) D - diag(drag)`` of
    :func:`truncation`, held as its kernel: ``T`` is Toeplitz in |n-m| and
    ``H`` Hankel in n+m+1 on ``kernel[0..2N-1]``, and
    ``D = diag(1/sqrt(2n+1))``.  It is the one form of a truncation that
    :func:`assemble_k` returns and :func:`eliashberg_tc.numerics.sym_eig_top`
    takes.

    Its product picks its own route.  Below ``_MATRIX_FREE_MIN_RANK`` it is
    the assembled matrix of :meth:`dense`, built once per instance.  From
    there on it runs in real FFTs of one power-of-two length L >= 2N-1 and
    no N x N array is formed: ``T`` by circulant embedding, the kernel
    wrapped around a circle of length L, whose transform is real because
    the wrapped kernel is even; and ``H`` as the circular cross-correlation
    of kernel[1..2N-1] with ``y = D x``, whose transform is the kernel's
    times the conjugate of y's (Chan and Ng, SIAM Review 38, 1996).  For
    output and input indices i, j below N, i - j wraps only onto the
    kernel's own mirror image and i + j stays below L, so nothing aliases.
    """

    kernel: np.ndarray
    n: int

    def __post_init__(self):
        if len(self.kernel) < 2 * self.n:
            raise ValidationError(f"rank {self.n} needs kernel entries 0 .. {2 * self.n - 1}")

    def __len__(self) -> int:
        return self.n

    @cached_property
    def _matrix(self) -> np.ndarray:
        matrix = truncation(self.kernel, self.n)
        matrix.setflags(write=False)
        return matrix

    def dense(self) -> np.ndarray:
        """The assembled N x N truncation, read-only, assembled on the first
        call only; O(N^2) memory."""
        return self._matrix

    @cached_property
    def _fft(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n, kernel = self.n, self.kernel
        size = 1 << (2 * n - 2).bit_length()  # L, the least power of two >= 2N - 1
        wrapped = np.zeros(size)
        wrapped[:n] = kernel[:n]
        wrapped[size - n + 1:] = kernel[n - 1:0:-1]
        inv_sqrt, drag = _scale_and_drag(kernel, n)
        return (size, np.fft.rfft(wrapped).real, np.fft.rfft(kernel[1:2 * n], size),
                inv_sqrt, drag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with ``x``: by the assembled matrix below
        ``_MATRIX_FREE_MIN_RANK``, from there on in one real FFT pair of
        length L."""
        if self.n < _MATRIX_FREE_MIN_RANK:
            return self.dense() @ x
        size, toeplitz, hankel, inv_sqrt, drag = self._fft
        spectrum = np.fft.rfft(inv_sqrt * x, size)
        exchange = np.fft.irfft(toeplitz * spectrum + hankel * spectrum.conj(), size)
        return inv_sqrt * exchange[:self.n] - drag * x

    def quadratic_form(self, v: np.ndarray) -> float:
        """``v^T K v``: from rank ``_MATRIX_FREE_MIN_RANK`` on ``v`` times
        :meth:`matvec`; below it sum_k kernel[k] w_k with no matrix, where for
        x = D v the weights are x's autocorrelation (``T``, twice for lags
        k > 0), its self-convolution shifted by one (``H``), and minus twice
        its suffix sums of squares sum_{n>=k} x_n^2 (drag)."""
        n = self.n
        if n >= _MATRIX_FREE_MIN_RANK:
            return float(v @ self.matvec(v))
        x = v / np.sqrt(2.0 * np.arange(n) + 1.0)
        weights = np.zeros(2 * n)
        weights[1:] = np.convolve(x, x)
        weights[:n] += 2.0 * np.correlate(x, x, "full")[n - 1:]
        weights[0] *= 0.5
        weights[1:n] -= 2.0 * np.cumsum((x * x)[::-1])[-2::-1]
        return float(self.kernel[:2 * n] @ weights)


def assemble_k(m: SpectralMeasure, t: float, n: int, *, banded: bool = True,
               kernel: Optional[np.ndarray] = None) -> SplitTruncation:
    """The rank-N truncation at temperature ``t``, as its
    :class:`SplitTruncation` on the 2N-1 kernel averages: every matrix entry
    is a combination of them, and :meth:`SplitTruncation.dense` assembles
    the matrix, exactly symmetric by construction.  ``banded=False`` accepts
    any finite positive temperature, as the trial temperatures of a Tc solve
    need.  Given ``kernel``, ``m.kernel_values(t, 2N-1)``, it is not computed again.
    """
    check_rank("order", n)
    check_scalar("temperature", t, banded=banded)
    return SplitTruncation(m.kernel_values(t, 2 * n - 1) if kernel is None else kernel, n)


def k_numeric(m: SpectralMeasure, t: float, n: int, *, banded: bool = True,
              start: Optional[np.ndarray] = None,
              kernel: Optional[np.ndarray] = None) -> KBound:
    """Top eigenvalue of the rank-N truncation by :func:`sym_eig_top` on the
    :class:`SplitTruncation` of :func:`assemble_k`: Lanczos on its own
    product from rank 72 on, Rayleigh-quotient iteration from ``start`` if
    given below it, dense ``eigh`` otherwise or if a pair fails its certificate.

    The eigenvector is componentwise positive after sign normalization.
    ``banded=False`` accepts any finite positive temperature, as the trial
    temperatures of a Tc solve need, and ``kernel`` goes to :func:`assemble_k`.
    Far above the band every kernel average underflows to zero; the top
    eigenvalue, positive in exact arithmetic, then comes out zero and a
    :class:`NumericalError` is raised.
    """
    return eigensolver_bound(assemble_k(m, t, n, banded=banded, kernel=kernel), t, start)


def eigensolver_bound(mat, t: float, start: Optional[np.ndarray] = None) -> KBound:
    """:class:`KBound` of a truncation, dense or split, at temperature ``t``
    (named in the error) from :func:`sym_eig_top` (from ``start``, if
    given), with its positive top eigenvector."""
    pair = sym_eig_top(mat, start=start)
    if not 0.0 < pair.value < math.inf:
        raise NumericalError(f"rank-{len(mat)} top eigenvalue {pair.value!r} at temperature "
                             f"{t:.6g} is not finite and positive; no coupling bound follows")
    return KBound(n=len(mat), k_value=pair.value, lambda_upper=1.0 / pair.value,
                  eigvec=pair.vector)


def k_slope(m: SpectralMeasure, t: float, vector: np.ndarray, *,
            slopes: Optional[np.ndarray] = None) -> float:
    """Temperature slope dk_N/d(T^2) of the top eigenvalue at ``t``, given
    the unit top eigenvector ``vector`` of the rank-N truncation there
    (``KBound.eigvec``).  Any finite positive ``t`` is accepted; one whose
    square is subnormal or zero (below about 1.5e-154) raises a
    :class:`NumericalError`, since T^2 would keep too few digits.

    The top eigenvalue is simple: K + cI is entrywise positive for large
    enough c, so its top eigenvector is a Perron vector.  The truncation is
    linear in the kernel, so by Hellmann-Feynman the slope is
    v^T truncation(d kernel/d(T^2)) v, one quadratic form
    (:meth:`SplitTruncation.quadratic_form`) on the kernel slopes
    ``m.kernel_slopes(t, 2N-1)``, or on ``slopes`` if given (a Tc solve takes
    them and the averages for :func:`k_numeric` from one pass); no second
    N x N matrix is formed.
    """
    check_scalar("temperature", t, banded=False)
    if t * t < sys.float_info.min:
        raise NumericalError(f"temperature {t!r} squares below the smallest normal float; "
                             "no slope in T^2 follows")
    n = len(vector)
    slopes = m.kernel_slopes(t, 2 * n - 1) if slopes is None else slopes
    return SplitTruncation(slopes, n).quadratic_form(vector) / (t * t)


def _odd_reciprocal_sum(lo: int, hi: int) -> tuple[int, int]:
    """Numerator and denominator of sum_{k=lo}^{hi-1} 1/(2k+1), not reduced,
    by binary splitting: each half is summed the same way, so the integers
    multiplied stay of balanced size."""
    if hi - lo == 1:
        return 1, 2 * lo + 1
    mid = (lo + hi) // 2
    p_lo, q_lo = _odd_reciprocal_sum(lo, mid)
    p_hi, q_hi = _odd_reciprocal_sum(mid, hi)
    return p_lo * q_hi + p_hi * q_lo, q_lo * q_hi


@lru_cache(maxsize=None, typed=True)  # typed: k_limit_T0(True) must not hit the rank-1 entry
def k_limit_T0(n: int) -> ZeroTemperatureLimit:
    """Measure-independent zero-temperature limit of the rank-N eigenvalue:
    k0 = -1 + 2 * sum_{k=0}^{N-1} 1/(2k+1), and the coupling floor 1/k0.

    Evaluated exactly, as a ratio of integers, and rounded once (the true
    division of two Python integers is correctly rounded), so small ranks
    come out as the exact fractions (5/3 and 3/5 at rank two, 247/105 at
    rank four).
    """
    check_rank("order", n)
    p, q = _odd_reciprocal_sum(0, n)
    return ZeroTemperatureLimit(k0=(2 * p - q) / q, lambda_floor=q / (2 * p - q))


# -- closed forms for ranks one to four --------------------------------------

# The closed-form root must move by less than this share under one Newton step
# on the characteristic polynomial it solves.
_CERTIFY_REL = 1e-12


def _arccos_third(x: float) -> float:
    """cos(arccos(x)/3), with rounding-level excursions of x beyond
    [-1, 1] clamped; the root certificate judges what the clamp costs."""
    return math.cos(math.acos(min(1.0, max(-1.0, x))) / 3.0)


def _top_root_rank3(mat: np.ndarray) -> tuple[float, tuple[float, ...]]:
    tr = float(np.trace(mat))
    # trace of the adjugate = sum of principal 2x2 minors
    tr_adj = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        tr_adj += mat[i, i] * mat[j, j] - mat[i, j] * mat[j, i]
    det = float(np.linalg.det(mat))
    coeffs = (1.0, -tr, tr_adj, -det)
    p = tr * tr / 3.0 - tr_adj
    if p ** 3 <= 0.0:
        # all eigenvalues coincide; cannot happen with positive couplings,
        # but keep the algebraically exact answer
        return tr / 3.0, coeffs
    q = 2.0 * tr ** 3 / 27.0 - tr * tr_adj / 3.0 + det
    cos_third = _arccos_third(0.5 * q * math.sqrt(27.0 / p ** 3))
    return (tr + 6.0 * math.sqrt(p / 3.0) * cos_third) / 3.0, coeffs


def _top_root_rank4(mat: np.ndarray) -> tuple[float, tuple[float, ...]]:
    tr1 = float(np.trace(mat))
    m2 = mat @ mat
    tr2 = float(np.trace(m2))
    tr3 = float(np.trace(m2 @ mat))
    a = -tr1
    b = 0.5 * (tr1 * tr1 - tr2)
    c = -(tr1 ** 3 - 3.0 * tr2 * tr1 + 2.0 * tr3) / 6.0
    d = float(np.linalg.det(mat))
    x = 2.0 * b ** 3 - 9.0 * a * b * c + 27.0 * c * c + 27.0 * a * a * d - 72.0 * b * d
    # y vanishes where three eigenvalues coincide (the zero-temperature
    # limit); rounding may leave it slightly negative there
    y = max(b * b - 3.0 * a * c + 12.0 * d, 0.0)
    y3 = math.sqrt(y ** 3)
    cos_third = _arccos_third(x / (2.0 * y3)) if y3 > 0.0 else 1.0
    z = max((math.sqrt(y) * cos_third - b + 0.375 * a * a) / 3.0, 0.0)
    # z/2 is the largest zero of the resolvent cubic; the largest quartic
    # root pairs sqrt(z/2) with the radical whose depressed-quartic linear
    # coefficient (a^3 - 4ab + 8c)/8 enters with a minus sign -- the
    # opposite choice breaks the sign-parity constraint among the three
    # square roots and is not a root at all.  That coefficient vanishes
    # with z.
    linear = (a ** 3 - 4.0 * a * b + 8.0 * c) / (16.0 * math.sqrt(2.0 * z)) if z > 0.0 else 0.0
    inner = max(0.1875 * a * a - 0.5 * b - 0.5 * z - linear, 0.0)
    return math.sqrt(0.5 * z) + math.sqrt(inner) - 0.25 * a, (1.0, a, b, c, d)


def _newton_correction(root: float, coeffs: tuple[float, ...]) -> float:
    """One Newton step p(root)/p'(root) on the polynomial with ``coeffs``
    (highest power first), by Horner's rule for both."""
    p = dp = 0.0
    for coeff in coeffs:
        dp = dp * root + p
        p = p * root + coeff
    if p == 0.0:
        return 0.0
    return p / dp if dp != 0.0 else math.inf


def closed_form_bound(mat: np.ndarray) -> KBound:
    """:class:`KBound` of a real symmetric matrix of order one to four, its
    top eigenvalue by the explicit spectral formulas (linear, quadratic,
    trigonometric cubic, quartic via its resolvent cubic), with no
    eigenvector.

    The matrix is first scaled by 2^-e, with e the binary exponent of its
    largest entry magnitude.  Every formula is homogeneous in the entries,
    so the scaling is exact wherever nothing under- or overflows and only
    keeps the traces, determinant and resolvent quantities in range at
    extreme temperatures.  Rounding-level excursions of the arccos argument
    and of the radicands are clamped, and the root is certified instead:
    one Newton step on the characteristic polynomial, from the coefficients
    the formula already formed, must move it by less than 1e-12 of itself,
    or a :class:`NumericalError` is raised.  The step is a check only; the
    returned root is the formula's.
    """
    order = len(mat)
    if order == 1:
        value = float(mat[0, 0])
    else:
        exponent = math.frexp(float(np.max(np.abs(mat))))[1]
        scaled = np.ldexp(mat, -exponent)
        if order == 2:
            tr = float(scaled[0, 0] + scaled[1, 1])
            det = float(scaled[0, 0] * scaled[1, 1] - scaled[0, 1] * scaled[1, 0])
            root = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
            coeffs = (1.0, -tr, det)
        elif order == 3:
            root, coeffs = _top_root_rank3(scaled)
        else:
            root, coeffs = _top_root_rank4(scaled)
        value = math.ldexp(root, exponent)
        correction = _newton_correction(root, coeffs)
        if not abs(correction) <= _CERTIFY_REL * abs(root):
            raise NumericalError(f"rank-{order} closed-form root {value!r} fails its "
                                 "certificate: a Newton step moves it by "
                                 f"{math.ldexp(abs(correction), exponent):.3g}")
    if not 0.0 < value < math.inf:
        raise NumericalError(f"rank-{order} closed-form top eigenvalue {value!r} is not "
                             "finite and positive; no coupling bound follows")
    return KBound(n=order, k_value=value, lambda_upper=1.0 / value, eigvec=None)


def k_closed_form(m: SpectralMeasure, t: float, n: int) -> KBound:
    """Top eigenvalue of the rank-N truncation, N in {1, 2, 3, 4}, by the
    explicit spectral formulas of :func:`closed_form_bound`, independent of
    the eigensolver.

    Answers at every in-band temperature (omega/T from 1e-60 to 1e60): it
    agrees with a 50-digit oracle to 1e-13 relative there, and with the
    eigensolver route to 1e-10 in the invariant suite.  A root that fails
    its Newton certificate raises a :class:`NumericalError` instead of
    returning a noise-dominated value.
    """
    check_rank("closed-form rank", n, 1, 4)
    return closed_form_bound(assemble_k(m, t, n).dense())


# -- fixed-point operator -----------------------------------------------------


def c_spectral_radius(
    m: SpectralMeasure,
    t: float,
    lam: float,
    n: int,
    tol: float = 1e-10,
) -> float:
    """Spectral radius of the rank-N fixed-point operator at coupling ``lam``.

    The operator C = R E is the diagonal resolvent R = diag(1/(1/lam +
    drag)) of the drag part applied to the (entrywise positive) exchange
    part E; its radius is < 1 exactly on the stable side lam < 1/k_N,
    equals 1 at the threshold, and exceeds 1 beyond it.  C is similar to
    the symmetric positive R^1/2 E R^1/2, so the radius is that matrix's
    top eigenvalue, by one dense :func:`sym_eig_top`: exact to rounding for
    every in-band ``tol``, which is validated and otherwise unused, at
    O(N^3) cost: on einstein(1) with one BLAS thread 0.16 ms at N = 32,
    0.22 s at 1024 and 11 s, 680 MiB peak, at 4096.
    """
    check_scalar("coupling", lam)
    check_scalar("tolerance", tol)
    exchange, drag = split_operator(assemble_k(m, t, n).kernel, n)
    root = np.sqrt(1.0 / (1.0 / lam + drag))
    exchange *= np.outer(root, root)  # an outer product keeps exact symmetry
    return sym_eig_top(exchange).value


# -- temperature-derivative identity ------------------------------------------


@dataclass(frozen=True)
class DerivativeCheck:
    """Two independent evaluations of d/d(T^2) of the combination
    3<<1>> + 2<<2>> - <<3>> and their relative discrepancy."""

    finite_difference: float
    closed_form: float
    residual: float


def _combination(kernel: np.ndarray) -> float:
    """3<<1>> + 2<<2>> - <<3>>, or the same combination of slopes."""
    return 3.0 * kernel[1] + 2.0 * kernel[2] - kernel[3]


def dk_dT2_identity_check(m: SpectralMeasure, t: float) -> DerivativeCheck:
    """Check the temperature slopes that every Tc Newton step uses.

    The combination 3<<1>> + 2<<2>> - <<3>> is differentiated with respect
    to T^2 by central finite differences of the averages and in closed form
    from :meth:`SpectralMeasure.kernel_slopes`, for every measure kind.  The
    closed form averages a negative rational integrand in w^2 and
    s = 4 pi^2 T^2 (numerator coefficients 4392, 3888, 1370, 148, 2), which
    is what makes the rank-two coupling bound invertible at every
    temperature.
    """
    check_scalar("temperature", t)
    u = t * t
    h = 1e-5 * u
    fd = (_combination(m.kernel_values(math.sqrt(u + h), 3))
          - _combination(m.kernel_values(math.sqrt(u - h), 3))) / (2.0 * h)
    closed = _combination(m.kernel_slopes(t, 3)) / u
    residual = abs(fd - closed) / max(abs(closed), 1e-300)
    return DerivativeCheck(finite_difference=fd, closed_form=closed, residual=residual)
