"""Normalized phonon spectral measures and their Matsubara kernel averages.

A measure is one of three variants: a single Dirac atom (Einstein,
non-dispersive phonons), a finite mixture of atoms, or a tabulated density
interpolated piecewise-linearly between nodes.  Every downstream quantity
depends on the measure only through its even moments and the averages

    <<n>>(P, T) = integral of  w^2 / (w^2 + (2 n pi T)^2)  over P(dw),

computed here in closed form for atoms.  For tabulated densities they come
from the elementary antiderivatives on each linear segment, arranged to
avoid cancellation, or, once 2 n pi T >= 4 omega_max, from the alternating
series in the even moments; both are accurate to about 1e-14 relative.
Their slopes in T^2, which a Tc solve needs beside them, come from the
same pass, which forms each segment term once for both.  A pass holds
about ``_BLOCK`` grid entries at a time, whatever the count and the measure.
Measures are immutable after construction, so all reads are safe
concurrently; the one memo, of moments, only ever gains the value any
reader would compute.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .numerics import check_rank, check_scalar

_MASS_REJECT = 1e-3  # |mass - 1| beyond this is rejected rather than rescaled

# Alternating Taylor series, in powers of their argument, of
# (u - atan u) / u^3 at u^2 and of (v - log1p v) / v^2 at v.  Both are used
# below _SERIES_BELOW, where 13 terms reach double precision; above it the
# direct differences lose at most a factor 48 to cancellation.
_SERIES_BELOW = 1.0 / 16.0
_ATAN_SERIES = tuple((-1) ** k / (2 * k + 3) for k in range(13))
_LOG_SERIES = tuple((-1) ** k / (k + 2) for k in range(13))
# At Matsubara offsets c >= _MOMENT_OFFSET (in units of omega_max) a
# tabulated average is the alternating moment series
# sum_k (-1)^(k+1) <w^2k> / c^2k, whose terms shrink at least 16-fold;
# _MOMENT_TERMS of them reach double precision.
_MOMENT_OFFSET = 4.0
_MOMENT_TERMS = 16
# Smaller offsets are raised to this floor, which keeps c^2 normal and moves
# no average by more than 2e-140 times the peak density (in 1/omega_max).
_OFFSET_FLOOR = 1e-140
# Grid entries (rows x segments or atoms) per block of direct rows in a kernel
# pass.  A block holds a multiple of 16 rows, and the last the remainder (fewer
# than two steps), so BLAS sums each row in the order of the whole grid.
_BLOCK = 1 << 14


def _horner(x: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] * x**k by Horner's rule, which forms no power of x
    beyond the first, so tiny x does not underflow."""
    acc = coeffs[-1] * x
    for coeff in coeffs[-2:0:-1]:
        acc += coeff
        acc *= x
    acc += coeffs[0]
    return acc


def _moments(segments: np.ndarray, k_max: int) -> np.ndarray:
    """Moments <w^k>, k = 0..k_max, of the piecewise-linear density.

    On [a, b], with r = a/b, the hat functions (b - w)/h and (w - a)/h
    integrate against w^k to h b^k / ((k+1)(k+2)) times
    sum_{j<=k} (j+1) r^j and sum_{j<=k} (k+1-j) r^j; the second is the
    twice-running sum of r^j.  Every term is nonnegative, so nothing
    cancels.
    """
    a, b, pa, pb = (row[:, None] for row in segments)
    k = np.arange(k_max + 1)
    ratio_powers = (a / b) ** k
    falling = np.cumsum(np.cumsum(ratio_powers, axis=1), axis=1)
    rising = np.cumsum((k + 1) * ratio_powers, axis=1)
    per_segment = (b - a) * b ** k * (pa * rising + pb * falling)
    return per_segment.sum(axis=0) / ((k + 1) * (k + 2))


# The tabulated averages and the averages of x (1 - x), x = w^2/(w^2+c^2),
# the negated slopes, at Matsubara offsets c in units of omega_max, from the
# segment antiderivatives.  On [a, b] of width h with density alpha + beta*w,
# with u = c*h/(c^2+ab), v = (b^2-a^2)/(c^2+a^2) and r = c^2/(c^2+a^2),
#
#     integral w^2/(w^2+c^2) = h*ab/(c^2+ab) + c*(u - atan u),
#     integral w^3/(w^2+c^2) = (b^2-a^2)/2 * a^2/(c^2+a^2) + c^2/2 * (v - log1p v),
#     integral w^2 c^2/(w^2+c^2)^2
#        = c/2 * atan u + h/2 * r (ab - c^2)/(b^2+c^2)
#        = h/2 * r (2a^2b^2 + c^2(a^2+b^2)) / ((c^2+ab)(b^2+c^2)) - c/2 * (u - atan u),
#     integral w^3 c^2/(w^2+c^2)^2
#        = c^2/2 * (log1p v - r v/(1+v)) = c^2/2 * (v (1 - r + v)/(1+v) - (v - log1p v))
#
# (the atan and log differences of the textbook antiderivatives folded into
# one argument), so every term of the averages is nonnegative.  u - atan u
# and v - log1p v come from series where they would cancel (u < 1/4,
# v < 1/16, c^2 above ab, a^2: below it the first term holds at least half of
# the integral).  The first forms of the x (1 - x) integrals cancel badly
# only where c^2 > ab (a^2) and u (v) < 1, and the second forms are used
# there; less than a factor 8 is lost.  Each block of rows forms u, atan u,
# r, v, log1p v and the series once for both kinds; as the v half reuses the
# names of the u half, at most 8 (rows x segments) grids live, 11 with slopes.

def _segment_rows(c, terms, slopes):
    """The averages at the offsets ``c`` (a column) from the segment
    integrals, and with ``slopes`` their slopes, else 0."""
    alpha, beta, h, ab, a2, b2, span = terms
    c2 = c * c
    # the w^2 integrals, in u
    d = c2 + ab
    x = c * h / d
    near = (x < _SERIES_BELOW ** 0.5) & (c2 > ab)
    xs = x[near]
    s = xs ** 2
    series = _horner(s, _ATAN_SERIES)
    f = np.arctan(x)
    diff = x - f
    if slopes:
        r = c2 / (c2 + a2)
        i = 0.5 * c * f + 0.5 * h * r * (ab - c2) / (b2 + c2)
        diff[near] = xs ** 3 * series
        cut = (c2 > ab) & (x < 1.0)
        rows, cols = np.nonzero(cut)
        c2s = c2[rows, 0]
        i[cut] = (0.5 * h[cols] * r[cut] * (2.0 * ab[cols] ** 2 + c2s * (a2[cols] + b2[cols]))
                  / (d[cut] * (b2[cols] + c2s)) - 0.5 * c[rows, 0] * diff[cut])
        rates = i @ alpha
    j = c * diff
    j[near] = np.repeat(c[:, 0], near.sum(axis=1)) * xs * s * series  # rows in turn
    j += h * (ab / d)
    values = j @ alpha
    # the w^3 integrals, in v; each name lets go of its u grid
    d = c2 + a2
    x = span / d
    near = (x < _SERIES_BELOW) & (c2 > a2)
    xs = x[near]
    series = _horner(xs, _LOG_SERIES)
    f = np.log1p(x)
    diff = x - f
    if slopes:
        i = (f - r * x / (1.0 + x)) * (0.5 * c2)
        diff[near] = xs * xs * series
        cut = (c2 > a2) & (x < 1.0)
        xc = x[cut]
        i[cut] = (0.5 * np.repeat(c2[:, 0], cut.sum(axis=1))
                  * (xc * (1.0 - r[cut] + xc) / (1.0 + xc) - diff[cut]))
        rates = -np.clip(rates + i @ beta, 0.0, 0.25)
    j = c2 * diff
    j[near] = np.repeat(c2[:, 0], near.sum(axis=1)) * xs * xs * series
    j += span * (a2 / d)
    # the exact averages lie below 1; clip rounding as c -> 0
    return np.minimum(values + 0.5 * (j @ beta), 1.0), rates if slopes else 0.0


def _atom_rows(c, omegas, weights, slopes):
    """Like :func:`_segment_rows`, for atoms at ``omegas``."""
    w2 = omegas ** 2
    values = np.sum(weights * w2 / (w2 + c ** 2), axis=1)
    if not slopes:
        return values, 0.0
    # sqrt(x (1 - x)) = q / (1 + q^2) is unchanged by q -> 1/q, and the
    # smaller of the two keeps q^2 from overflowing
    q = c / omegas
    p = np.minimum(q, 1.0 / q)
    return values, -(p / (1.0 + p * p)) ** 2 @ weights


@dataclass(frozen=True)
class SpectralMeasure:
    """Validated, unit-mass phonon spectral measure.

    Attributes
    ----------
    kind : str
        ``"einstein"``, ``"discrete"`` or ``"tabulated"``.
    omegas : ndarray
        Atom positions (einstein, discrete) or density nodes (tabulated).
    weights : ndarray
        Atom weights summing to one, or density values at the nodes.
    omega_max : float
        Upper edge of the support.
    segments : ndarray or None
        Tabulated densities only: rows ``a, b, p_a, p_b`` of the segment
        table, density ``p_a`` at ``a`` rising linearly to ``p_b`` at ``b``.
        Derived from the nodes on construction; segments of zero width are
        left out.
    """

    kind: str
    omegas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    omega_max: float
    segments: np.ndarray | None = field(init=False, repr=False, compare=False)
    # tabulated: the even moments <w^2k>, k = 1.._MOMENT_TERMS, in units of
    # omega_max, beside k <w^2k>, in shape (_MOMENT_TERMS, 2, 1)
    _moment_series: np.ndarray | None = field(init=False, repr=False, compare=False)
    # rows alpha, beta, h, ab, a^2, b^2, b^2-a^2 of the segments in units of
    # omega_max, density alpha + beta*w on [a, b] of width h (tabulated)
    _segment_terms: np.ndarray | None = field(init=False, repr=False, compare=False)
    # moment(k) by k, filled on first request
    _moment_memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        check_scalar("highest frequency", self.omega_max)
        if self.kind != "tabulated":  # density nodes may start at zero
            check_scalar("lowest frequency", self.omegas[0])
        self.omegas.setflags(write=False)
        self.weights.setflags(write=False)
        table = series = terms = None
        if self.kind == "tabulated":
            w, p = self.omegas, self.weights
            keep = w[1:] > w[:-1]  # scaled() may round neighbouring nodes together
            table = np.array([w[:-1][keep], w[1:][keep], p[:-1][keep], p[1:][keep]])
            table.setflags(write=False)
            scale = self.omega_max
            unit = table * np.array([[1.0 / scale], [1.0 / scale], [scale], [scale]])
            moments = _moments(unit, 2 * _MOMENT_TERMS)[2::2]
            series = np.array([moments, moments * np.arange(1, _MOMENT_TERMS + 1)]).T[..., None]
            a, b, pa, pb = unit
            beta = (pb - pa) / (b - a)
            terms = np.array([pa - beta * a, beta, b - a, a * b, a * a, b * b, (b - a) * (a + b)])
            terms.setflags(write=False)
        object.__setattr__(self, "segments", table)
        object.__setattr__(self, "_moment_series", series)
        object.__setattr__(self, "_segment_terms", terms)

    # -- moments -----------------------------------------------------------

    def moment(self, k: int) -> float:
        """k-th moment <w^k> of the measure, exact up to rounding; computed
        once per measure and order."""
        k = check_rank("moment order", k, 0)
        memo = self._moment_memo
        if k not in memo:
            if self.kind in ("einstein", "discrete"):
                memo[k] = float(np.sum(self.weights * self.omegas ** k))
            else:
                memo[k] = float(_moments(self.segments, k)[k])
        return memo[k]

    # -- kernel averages ----------------------------------------------------

    def kernel_average(self, n: int, t: float) -> float:
        """The average <<n>> at Matsubara index difference ``n``, in [0, 1]."""
        check_rank("Matsubara index", n)
        check_scalar("temperature", t)
        return float(self.kernel_values(t, n)[n])

    def kernel_values(self, t: float, count: int, *, slopes: bool = False):
        """Averages <<1>> .. <<count>> as an array indexed by n (entry 0 is 0),
        or with ``slopes=True`` the pair of it and :meth:`kernel_slopes`.

        The zero at index 0 encodes the convention that the same-site
        exchange kernel vanishes, so matrix assembly can index differences
        |n - m| directly.  Any finite positive ``t`` is accepted here, also
        outside the band of :func:`eliashberg_tc.numerics.check_scalar`.
        The direct rows (atom sums, segment integrals) are formed about
        ``_BLOCK`` grid entries (at least 16 rows) at a time, whatever the
        count and the measure size.
        """
        check_scalar("temperature", t, banded=False)
        values, rates = np.zeros(count + 1), np.zeros(count + 1)
        tabulated = self.kind == "tabulated"
        # far above the band the squared offsets (from T ~ 1e153) and then
        # the offsets themselves (from T ~ 1e306) overflow to inf, which
        # gives each average and each slope its exact limit 0
        direct, width = count, self.weights.size
        if tabulated:
            with np.errstate(over="ignore"):
                offsets = 2.0 * np.pi * t * np.arange(1, count + 1, dtype=float) / self.omega_max
            direct, width = int(np.searchsorted(offsets, _MOMENT_OFFSET)), len(self.segments[0])
        step = 16 * max(_BLOCK // (16 * max(width, 1)), 1)  # scaled() may merge every node
        lo = 0
        while lo < direct:
            hi = direct if direct - lo < 2 * step else lo + step
            if tabulated:
                c = np.maximum(offsets[lo:hi], _OFFSET_FLOOR)[:, None]
                block = _segment_rows(c, self._segment_terms, slopes)
            else:
                with np.errstate(over="ignore"):
                    c = 2.0 * np.pi * t * np.arange(lo + 1, hi + 1, dtype=float)[:, None]
                    block = _atom_rows(c, self.omegas, self.weights, slopes)
            values[1 + lo:1 + hi], rates[1 + lo:1 + hi] = block
            lo = hi
        if direct < count:
            # the moment series and, for the slopes, minus x d/dx of it
            x = np.reciprocal(offsets[direct:]) ** 2
            far = x * _horner(-x, self._moment_series if slopes else self._moment_series[:, 0, 0])
            values[1 + direct:], rates[1 + direct:] = (far[0], -far[1]) if slopes else (far, 0.0)
        return (values, rates) if slopes else values

    def kernel_slopes(self, t: float, count: int) -> np.ndarray:
        """Scale-free temperature slopes u d<<n>>/du, u = T^2, for n = 1 ..
        count, indexed like :meth:`kernel_values` (entry 0 is 0): the second
        array of ``kernel_values(t, count, slopes=True)``, one segment pass.

        Each is minus the average of x (1 - x), x = w^2 / (w^2 + (2 n pi T)^2),
        so it lies in [-1/4, 0] and cannot overflow at any temperature;
        d<<n>>/d(T^2) is the slope over T^2.  Any finite positive ``t`` is
        accepted.
        """
        return self.kernel_values(t, count, slopes=True)[1]

    def scaled(self, s: float) -> "SpectralMeasure":
        """Pushforward under w -> s*w; tabulated densities pick up a 1/s."""
        check_scalar("scale", s)
        weights = self.weights / s if self.kind == "tabulated" else self.weights.copy()
        return SpectralMeasure(kind=self.kind, omegas=self.omegas * s, weights=weights,
                               omega_max=self.omega_max * s)

    def describe(self) -> str:
        if self.kind == "einstein":
            return f"einstein(omega={self.omegas[0]:.6g})"
        if self.kind == "discrete":
            pairs = (f"({w:.4g}, {o:.4g})" for w, o in zip(self.weights, self.omegas))
            return f"discrete[{', '.join(pairs)}]"
        return f"tabulated({len(self.omegas)} nodes, support <= {self.omega_max:.6g})"


# -- constructors ------------------------------------------------------------


def _reject(bad: np.ndarray, problem: str, entry) -> None:
    """Raise a ValidationError naming every flagged entry, if any."""
    if np.any(bad):
        entries = ", ".join(entry(i) for i in np.flatnonzero(bad))
        raise ValidationError(f"{problem}: {entries}")


def einstein(omega: float) -> SpectralMeasure:
    """Single Dirac atom at ``omega`` (non-dispersive phonons)."""
    omega = check_scalar("einstein frequency", omega)
    return SpectralMeasure(
        kind="einstein", omegas=np.array([omega]), weights=np.array([1.0]), omega_max=omega
    )


def discrete(atoms: Sequence[tuple[float, float]]) -> SpectralMeasure:
    """Finite atom mixture from (weight, omega) pairs; mass is rescaled to
    one when within 1e-3, rejected otherwise."""
    if not atoms:
        raise ValidationError("discrete measure needs at least one atom")
    weights = np.array([float(w) for w, _ in atoms])
    omegas = np.array([float(o) for _, o in atoms])

    def entry(i):
        return f"#{i}=(w={weights[i]}, omega={omegas[i]})"

    _reject(~(np.isfinite(weights) & np.isfinite(omegas)), "non-finite weight or frequency", entry)
    _reject((weights < 0.0) | (omegas <= 0.0), "nonpositive frequency or negative weight", entry)
    mass = float(np.sum(weights))
    if abs(mass - 1.0) > _MASS_REJECT:
        raise ValidationError(f"measure mass {mass:.6g} deviates from 1 by more than {_MASS_REJECT}")
    order = np.argsort(omegas, kind="stable")
    return SpectralMeasure(
        kind="discrete",
        omegas=omegas[order],
        weights=weights[order] / mass,
        omega_max=float(np.max(omegas)),
    )


def tabulated(nodes: Sequence[tuple[float, float]]) -> SpectralMeasure:
    """Piecewise-linear density through (omega, density) nodes.

    The trapezoid mass must be within 1e-3 of one (then rescaled exactly).
    The physically expected density ~ omega behavior near zero is checked
    heuristically and produces a warning only: measured spectra rarely
    satisfy it exactly and nothing computed here becomes singular without
    it.
    """
    if len(nodes) < 2:
        raise ValidationError("tabulated measure needs at least two nodes")
    omegas = np.array([float(o) for o, _ in nodes])
    dens = np.array([float(p) for _, p in nodes])

    def entry(i):
        return f"#{i}=({omegas[i]}, {dens[i]})"

    _reject(~(np.isfinite(omegas) & np.isfinite(dens)), "non-finite frequency or density", entry)
    if np.any(np.diff(omegas) <= 0.0):
        raise ValidationError("tabulated nodes must have strictly increasing omega")
    _reject((omegas < 0.0) | (dens < 0.0), "negative frequency or density", entry)
    if omegas[0] == 0.0 and dens[0] != 0.0:
        raise ValidationError("density at omega = 0 must vanish")
    mass = float(np.trapezoid(dens, omegas))
    if abs(mass - 1.0) > _MASS_REJECT:
        raise ValidationError(f"measure mass {mass:.6g} deviates from 1 by more than {_MASS_REJECT}")
    # small-omega check: the first-segment line should pass at or below the
    # origin, i.e. density at the first node <= first-segment slope * omega
    slope = (dens[1] - dens[0]) / (omegas[1] - omegas[0])
    if dens[0] > max(slope, 0.0) * omegas[0] + 1e-12:
        warnings.warn(
            "tabulated density does not vanish linearly at small omega; "
            "treating as advisory only",
            stacklevel=2,
        )
    return SpectralMeasure(
        kind="tabulated",
        omegas=omegas,
        weights=dens / mass,
        omega_max=float(omegas[-1]),
    )


def _number(value, field: str) -> float:
    """A JSON number (int or float, not a bool) from a measure description."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ValidationError(f"non-finite or non-numeric field: {field}={value!r}")


def from_dict(data: dict) -> SpectralMeasure:
    """Measure-file schema: one of

    ``{"type": "einstein", "omega": 1.0}``
    ``{"type": "discrete", "atoms": [{"weight": 0.5, "omega": 0.8}, ...]}``
    ``{"type": "tabulated", "nodes": [[0.0, 0.0], [0.5, 1.6], ...]}``

    with JSON ints or floats as numbers; anything else is rejected, naming the field.
    """
    try:
        kind = data["type"]
    except (KeyError, TypeError):
        raise ValidationError("measure description lacks a 'type' field") from None
    if kind == "einstein":
        if "omega" not in data:
            raise ValidationError("einstein measure needs an 'omega' field")
        return einstein(_number(data["omega"], "omega"))
    if kind == "discrete":
        atoms = data.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ValidationError("discrete measure needs a nonempty 'atoms' list")
        try:
            pairs = [(a["weight"], a["omega"]) for a in atoms]
        except (KeyError, TypeError):
            raise ValidationError("each atom needs 'weight' and 'omega'") from None
        return discrete([(_number(w, f"atoms[{i}].weight"), _number(o, f"atoms[{i}].omega"))
                         for i, (w, o) in enumerate(pairs)])
    if kind == "tabulated":
        nodes = data.get("nodes")
        if not isinstance(nodes, list) or len(nodes) < 2:
            raise ValidationError("tabulated measure needs a 'nodes' list of pairs")
        try:
            pairs = [(n[0], n[1]) for n in nodes]
        except (LookupError, TypeError):
            raise ValidationError("tabulated nodes must be [omega, density] pairs") from None
        return tabulated([(_number(o, f"nodes[{i}][0]"), _number(p, f"nodes[{i}][1]"))
                          for i, (o, p) in enumerate(pairs)])
    raise ValidationError(f"unknown measure type {kind!r}")


def from_json(text: str) -> SpectralMeasure:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"measure file is not valid JSON: {exc}") from None
    return from_dict(data)


def load(path) -> SpectralMeasure:
    """Read a measure file (UTF-8 JSON, schema as in :func:`from_dict`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_json(handle.read())

