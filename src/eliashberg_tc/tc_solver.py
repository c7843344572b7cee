"""Inversion of the coupling bounds into critical-temperature bounds.

Each rank-N coupling bound 1/k_N(P, T) is strictly increasing in T at least
above the threshold temperature T_star; solving 1/k_N = lam there yields a
ladder of lower bounds on the critical temperature that increases with N
and converges upward.  Every ladder entry carries a status recording
exactly what is proven: ranks one and two are invertible at every
temperature, higher ranks only above T_star; solutions found below T_star
for rank three and up are flagged heuristic rather than silently presented
as rigorous.  Couplings at or below the rank-N zero-temperature floor
lambda_N admit no rank-N solution at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import bounds, stability
from .bounds import t_star
from .measure import SpectralMeasure
from .numerics import MAX_RANK, check_rank, check_scalar, newton_bracketed

STATUS_PROVEN = "proven"
STATUS_HEURISTIC = "heuristic"
STATUS_UNDEFINED = "undefined"


@dataclass(frozen=True)
class LadderEntry:
    n: int
    value: Optional[float]
    status: str


@dataclass(frozen=True)
class TcReport:
    """Bundle of critical-temperature bounds at one (measure, coupling)."""

    coupling: float
    measure: SpectralMeasure
    ladder: tuple[LadderEntry, ...]
    tc_flat: Optional[float]
    tc_sharp: float
    tc_tilde: float
    lambda_star_strong: float
    lambda_star_easy: float
    converged_tc: Optional[float]
    converged_n: Optional[int]
    tolerance: Optional[float]  # None for a report of single ranks


def tc_n(m: SpectralMeasure, lam: float, n: int, *, _start: Optional[float] = None,
         _vector: Optional[list] = None) -> LadderEntry:
    """Rank-N lower bound on the critical temperature at coupling ``lam``.

    Solves 1/k_N(P, T) = lam for u = T^2 by Newton steps on the
    Hellmann-Feynman slope of k_N, kept inside a sign-change bracket
    (:func:`eliashberg_tc.numerics.newton_bracketed`).  The iteration starts
    at Tc_flat, or at Tc_sharp / 2 where Tc_flat is undefined;
    :func:`tc_converged` starts each rank at the rank below it instead.
    Each eigensolve starts from the eigenvector of the one before, the
    first from ``_vector[0]`` (a one-item list, left holding the last).
    Status is ``proven`` when rank <= 2 or the solution lies at or above the
    monotonicity threshold, ``heuristic`` for higher ranks below it, and
    ``undefined`` when the coupling does not exceed the zero-temperature
    floor.
    """
    check_scalar("coupling", lam)
    check_rank("order", n)
    floor = stability.k_limit_T0(n).lambda_floor
    if lam <= floor:
        return LadderEntry(n=n, value=None, status=STATUS_UNDEFINED)

    # single-atom rank-one inversion is algebraic
    if n == 1 and m.kind == "einstein":
        omega = float(m.omegas[0])
        value = omega * math.sqrt(lam - 1.0) / (2.0 * math.pi)
        return LadderEntry(n=1, value=value, status=STATUS_PROVEN)

    if _start is None:
        flat = bounds.tc_flat(m, lam)
        _start = flat if flat is not None else 0.5 * bounds.tc_sharp(m, lam)

    held = [None] if _vector is None else _vector

    def residual(u: float) -> tuple[float, float]:
        """1/k_N - lam at T^2 = u, and its slope in u."""
        t = math.sqrt(u)
        values, slopes = m.kernel_values(t, 2 * n - 1, slopes=True)
        bound = stability.k_numeric(m, t, n, banded=False, start=held[0], kernel=values)
        held[0] = bound.eigvec
        slope = stability.k_slope(m, t, bound.eigvec, slopes=slopes)
        return bound.lambda_upper - lam, -slope * bound.lambda_upper ** 2

    # 1/k_N rises from the rank floor (below lam) at u = 0 without bound
    value = math.sqrt(newton_bracketed(residual, _start * _start))
    if n <= 2 or value >= t_star(m):
        status = STATUS_PROVEN
    else:
        status = STATUS_HEURISTIC
    return LadderEntry(n=n, value=value, status=status)


def tc_converged(
    m: SpectralMeasure,
    lam: float,
    tol: float = 1e-6,
    n_cap: int = MAX_RANK,
) -> TcReport:
    """Rank-doubling ladder until successive bounds agree to ``tol``.

    Starts at rank four and doubles up to ``n_cap``, each rank's solve
    starting at the value and the eigenvector (padded with zeros) of the
    rank below; the report carries the full ladder, the global bounds, and
    the converged value (absent if the rank cap is reached first).  The
    converged value is a lower bound on the true critical temperature like
    every ladder entry.  The ladder converges like N^-4, each doubling
    cutting the step about 16-fold, so weak couplings at tight tolerances
    need the high ranks: einstein(1) at coupling 0.45 and ``tol=1e-10``
    converges at rank 4096.  Ranks from 257 on, where
    :class:`stability.SplitTruncation` applies its FFT product, are solved
    without forming their matrices, in O(N) memory.
    """
    check_scalar("tolerance", tol)
    check_rank("rank cap", n_cap)
    ladder: list[LadderEntry] = []
    vector: list = [None]
    n = 4
    while n <= n_cap:
        previous = ladder[-1].value if ladder else None
        if vector[0] is not None:
            vector[0] = np.pad(vector[0], (0, n - len(vector[0])))
        entry = tc_n(m, lam, n, _start=previous, _vector=vector)
        ladder.append(entry)
        if None not in (previous, entry.value) and abs(entry.value - previous) <= tol * entry.value:
            return tc_report(m, lam, ladder, entry.value, entry.n, tol)
        n *= 2
    return tc_report(m, lam, ladder, None, None, tol)


def tc_report(
    m: SpectralMeasure,
    lam: float,
    ladder: Iterable[LadderEntry],
    converged_tc: Optional[float] = None,
    converged_n: Optional[int] = None,
    tolerance: Optional[float] = None,
) -> TcReport:
    """Bundle a ladder with the global bounds at coupling ``lam``.

    ``tolerance`` is the rank-doubling tolerance of a converged ladder and
    None for a report of single ranks.
    """
    strong, easy = bounds.lambda_star_bounds(m)
    return TcReport(
        coupling=lam,
        measure=m,
        ladder=tuple(ladder),
        tc_flat=bounds.tc_flat(m, lam),
        tc_sharp=bounds.tc_sharp(m, lam),
        tc_tilde=bounds.tc_tilde(m, lam),
        lambda_star_strong=strong,
        lambda_star_easy=easy,
        converged_tc=converged_tc,
        converged_n=converged_n,
        tolerance=tolerance,
    )
