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

from . import bounds, stability
from .errors import BracketError, NumericalError, ValidationError
from .measure import SpectralMeasure
from .numerics import bisect_monotone

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


def t_star(m: SpectralMeasure) -> float:
    """Conservative monotonicity threshold: support edge over 2 sqrt(2) pi.
    The sharp threshold is unknown; this proven bound is what the status
    labels are judged against."""
    return bounds.t_star_threshold(m)


def _k_of_u(m: SpectralMeasure, n: int):
    """Rank-N stability eigenvalue as a function of u = T^2."""

    def f(u: float) -> float:
        return stability.k_numeric(m, math.sqrt(u), n).k_value

    return f


def tc_n(m: SpectralMeasure, lam: float, n: int) -> LadderEntry:
    """Rank-N lower bound on the critical temperature at coupling ``lam``.

    Solves 1/k_N(P, T) = lam by bisection in T^2.  Status is ``proven``
    when rank <= 2 or the solution lies at or above the monotonicity
    threshold, ``heuristic`` for higher ranks below it, and ``undefined``
    when the coupling does not exceed the zero-temperature floor.
    """
    if not lam > 0.0:
        raise ValidationError(f"coupling must be positive, got {lam}")
    if n < 1:
        raise ValidationError(f"rank must be >= 1, got {n}")
    floor = stability.k_limit_T0(n).lambda_floor
    if lam <= floor:
        return LadderEntry(n=n, value=None, status=STATUS_UNDEFINED)

    # single-atom rank-one inversion is algebraic
    if n == 1 and m.kind == "einstein":
        omega = float(m.omegas[0])
        value = omega * math.sqrt(lam - 1.0) / (2.0 * math.pi)
        return LadderEntry(n=1, value=value, status=STATUS_PROVEN)

    target = 1.0 / lam
    t_hi = 2.0 * bounds.tc_sharp(m, lam)
    flat = bounds.tc_flat(m, lam)
    t_lo = 0.5 * flat if flat is not None else 1e-6 * t_hi
    f = _k_of_u(m, n)
    u_lo, u_hi = t_lo * t_lo, t_hi * t_hi

    # k decreases from its zero-temperature limit (> target) to zero, so a
    # root is bracketed once f(u_lo) >= target >= f(u_hi); widen if needed.
    expansions = 0
    while f(u_lo) < target:
        u_lo *= 1e-2
        expansions += 1
        if expansions > 60:
            raise NumericalError(
                f"no lower bracket for rank {n} at coupling {lam:.6g}: "
                f"k({math.sqrt(u_lo):.3e}) = {f(u_lo):.6g} < 1/lam = {target:.6g}"
            )
    expansions = 0
    while f(u_hi) > target:
        u_hi *= 4.0
        expansions += 1
        if expansions > 60:
            raise NumericalError(
                f"no upper bracket for rank {n} at coupling {lam:.6g}: "
                f"k({math.sqrt(u_hi):.3e}) = {f(u_hi):.6g} > 1/lam = {target:.6g}"
            )
    try:
        u = bisect_monotone(f, u_lo, u_hi, target)
    except BracketError as exc:  # pragma: no cover - guarded above
        raise NumericalError(f"bisection bracket failed: {exc}") from exc
    value = math.sqrt(u)
    if n <= 2 or value >= t_star(m):
        status = STATUS_PROVEN
    else:
        status = STATUS_HEURISTIC
    return LadderEntry(n=n, value=value, status=status)


def tc_converged(
    m: SpectralMeasure,
    lam: float,
    tol: float = 1e-6,
    n_cap: int = 1024,
) -> TcReport:
    """Rank-doubling ladder until successive bounds agree to ``tol``.

    Starts at rank four and doubles; the report carries the full ladder,
    the global bounds, and the converged value (absent if the rank cap is
    reached first).  The converged value is a lower bound on the true
    critical temperature like every ladder entry.
    """
    if not tol > 0.0:
        raise ValidationError("tolerance must be positive")
    ladder: list[LadderEntry] = []
    converged_tc: Optional[float] = None
    converged_n: Optional[int] = None
    previous: Optional[LadderEntry] = None
    n = 4
    while n <= n_cap:
        entry = tc_n(m, lam, n)
        ladder.append(entry)
        if (
            previous is not None
            and previous.value is not None
            and entry.value is not None
            and abs(entry.value - previous.value) <= tol * entry.value
        ):
            converged_tc = entry.value
            converged_n = entry.n
            break
        previous = entry
        n *= 2
    return tc_report(m, lam, ladder, converged_tc, converged_n, tol)


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
