"""The gamma-family operator: truncations, top eigenpairs, cross
expectations, and the Dirichlet-coefficient machinery.

This is the temperature-free companion of the phonon stability operator:
its kernels are inverse powers 1/k^gamma instead of Matsubara kernel
averages, and its matrices come from the same assembly routine
(:func:`eliashberg_tc.stability.split_operator`); this module only supplies
the kernel.  At gamma = 2 it governs the strong-coupling asymptotics of the
critical temperature; the gamma = 4 expectation in the gamma = 2 optimizer
supplies the next-to-leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import stability
from .errors import ValidationError
from .numerics import EigenPair, sym_eig_top


@dataclass(frozen=True)
class GammaOperator:
    """Rank-N truncation of the gamma-family interaction matrix."""

    gamma: float
    order: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _gamma_kernel(gamma: float, n: int) -> np.ndarray:
    """kernel[j] = 1/j^gamma for j = 1 .. 2N-1, and kernel[0] = 0."""
    kernel = np.zeros(2 * n, dtype=float)
    kernel[1:] = np.arange(1, 2 * n, dtype=float) ** (-gamma)
    return kernel


def assemble_gamma(gamma: float, n: int) -> GammaOperator:
    """Assemble the N x N truncation for exponent ``gamma > 0``."""
    if not gamma > 0.0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    if n < 1:
        raise ValidationError(f"order must be >= 1, got {n}")
    matrix = stability.truncation(_gamma_kernel(gamma, n), n)
    return GammaOperator(gamma=float(gamma), order=int(n), matrix=matrix)


@lru_cache(maxsize=64)
def _top_pair(gamma: float, n: int) -> EigenPair:
    return sym_eig_top(assemble_gamma(gamma, n).matrix)


def g_top(gamma: float, n: int) -> EigenPair:
    """Top eigenpair of the rank-N truncation.

    The eigenvalue is >= 1, with equality only at N = 1; the sign-normalized
    eigenvector is componentwise positive.  Results are memoized: they are
    measure-independent and reused heavily by the bound evaluations.
    """
    if not gamma > 0.0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    return _top_pair(float(gamma), int(n))


@lru_cache(maxsize=64)
def expected_gamma(gamma_prime: float, gamma: float, n: int) -> float:
    """Expectation of the gamma_prime truncation in the top eigenvector of
    the gamma truncation (a Rayleigh quotient, so normalization of the
    eigenvector is irrelevant).  Strictly positive."""
    if not gamma_prime > 0.0:
        raise ValidationError(f"gamma_prime must be positive, got {gamma_prime}")
    vec = g_top(gamma, n).vector
    mat = assemble_gamma(gamma_prime, n).matrix
    return float(vec @ mat @ vec)


def theta_profile(eigvec: np.ndarray) -> np.ndarray:
    """Angle profile theta_n = xi_n / sqrt(2n + 1) of an eigenvector; for a
    top eigenvector this sequence is positive and nonincreasing."""
    v = np.asarray(eigvec, dtype=float)
    return v / np.sqrt(2.0 * np.arange(v.size) + 1.0)


def dirichlet_coefficients(theta, n: int) -> np.ndarray:
    """Coefficients c_1 .. c_{2N-1} of the Dirichlet-series expansion of the
    angle-space quadratic form.

    For a nonnegative ``theta`` the convolution and odd-square contributions
    are nonnegative; when ``theta`` is also nonincreasing the shifted-
    difference contribution is nonnegative too, hence every c_k >= 0.
    Returned array index 0 holds c_1.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or th.size != n:
        raise ValidationError(f"theta length {th.size} does not match order {n}")
    coeffs = np.zeros(2 * n - 1, dtype=float)
    for k in range(1, 2 * n):
        c = 0.0
        if k <= n - 1:
            # difference-index kernel plus diagonal drag at shift k
            tail = th[k:]                      # theta_j for j = k .. N-1
            c += float(np.sum(2.0 * (th[: n - k] - tail) * tail))
        # summed-index kernel at j + j' + 1 = k: each unordered off-diagonal
        # pair once with weight 2, plus the diagonal square at odd k
        lo = max(0, k - n)
        if lo < k // 2:
            j = np.arange(lo, k // 2)
            c += float(np.sum(2.0 * th[k - 1 - j] * th[j]))
        if k % 2 == 1:
            c += float(th[(k - 1) // 2] ** 2)
        coeffs[k - 1] = c
    return coeffs


def dirichlet_series(coeffs: np.ndarray, gamma: float) -> float:
    """Evaluate sum_k c_k / k^gamma for coefficients indexed from k = 1."""
    k = np.arange(1, len(coeffs) + 1, dtype=float)
    return float(np.sum(coeffs * k ** (-gamma)))


def hat_quadratic_form(theta, gamma: float) -> float:
    """Direct evaluation of the angle-space quadratic form

        - sum_n (sum_{k<=n} 2/k^gamma) theta_n^2
        + sum_{n,m} theta_n [ (1-delta)/|n-m|^gamma + 1/(n+m+1)^gamma ] theta_m,

    which is xi^T G xi for the rank-N truncation G and xi_n = sqrt(2n+1)
    theta_n.  Used as the independent cross-check of the Dirichlet expansion.
    """
    th = np.asarray(theta, dtype=float)
    n = th.size
    xi = th * np.sqrt(2.0 * np.arange(n) + 1.0)
    return float(xi @ stability.truncation(_gamma_kernel(gamma, n), n) @ xi)


def diagonal_weighted_norm(theta) -> float:
    """The weighted norm sum_n (2n+1) theta_n^2 pairing the angle space."""
    th = np.asarray(theta, dtype=float)
    return float(np.sum((2.0 * np.arange(th.size) + 1.0) * th * th))


def constant_profile_bound(n: int, gamma: float) -> float:
    """Value of the weighted Rayleigh quotient on the constant profile:
    (1/N^2) sum_{k=1}^{2N-1} min(k, 2N-k) / k^gamma.  Conjectured to be the
    global minimum over nonincreasing nonnegative profiles."""
    k = np.arange(1, 2 * n, dtype=float)
    return float(np.sum(np.minimum(k, 2 * n - k) * k ** (-gamma)) / (n * n))
