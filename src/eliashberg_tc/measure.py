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
    # even moments <w^2>..<w^(2*_MOMENT_TERMS)> in units of omega_max (tabulated)
    _even_moments: np.ndarray | None = field(init=False, repr=False, compare=False)
    # moment(k) by k, filled on first request
    _moment_memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        check_scalar("highest frequency", self.omega_max)
        if self.kind != "tabulated":  # density nodes may start at zero
            check_scalar("lowest frequency", self.omegas[0])
        self.omegas.setflags(write=False)
        self.weights.setflags(write=False)
        table = moments = None
        if self.kind == "tabulated":
            w, p = self.omegas, self.weights
            keep = w[1:] > w[:-1]  # scaled() may round neighbouring nodes together
            table = np.array([w[:-1][keep], w[1:][keep], p[:-1][keep], p[1:][keep]])
            table.setflags(write=False)
        object.__setattr__(self, "segments", table)
        if table is not None:
            moments = _moments(self._unit_segments(), 2 * _MOMENT_TERMS)[2::2]
        object.__setattr__(self, "_even_moments", moments)

    def _unit_segments(self) -> np.ndarray:
        """The segment table with omega_max as the unit of frequency."""
        scale = self.omega_max
        return self.segments * np.array([[1.0 / scale], [1.0 / scale], [scale], [scale]])

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

    def kernel_values(self, t: float, count: int) -> np.ndarray:
        """Averages <<1>> .. <<count>> as an array indexed by n (entry 0 is 0).

        The zero at index 0 encodes the convention that the same-site
        exchange kernel vanishes, so matrix assembly can index differences
        |n - m| directly.  Any finite positive ``t`` is accepted here, also
        outside the band of :func:`eliashberg_tc.numerics.check_scalar`.
        """
        check_scalar("temperature", t, banded=False)
        out = np.zeros(count + 1, dtype=float)
        # far above the band the squared offsets (from T ~ 1e153) and then
        # the offsets themselves (from T ~ 1e306) overflow to inf, which
        # gives each average its exact limit 0
        with np.errstate(over="ignore"):
            c = 2.0 * np.pi * t * np.arange(1, count + 1, dtype=float)  # offsets of 1 .. count
            if self.kind in ("einstein", "discrete"):
                w2 = self.omegas ** 2
                out[1:] = np.sum(
                    self.weights[None, :] * w2[None, :] / (w2[None, :] + c[:, None] ** 2),
                    axis=1,
                )
                return out
        offsets = c / self.omega_max
        low = int(np.searchsorted(offsets, _MOMENT_OFFSET))
        if low:
            out[1:1 + low] = self._segment_averages(offsets[:low])
        if low < count:
            x = np.reciprocal(offsets[low:]) ** 2
            out[1 + low:] = x * _horner(-x, self._even_moments)
        return out

    def kernel_slopes(self, t: float, count: int) -> np.ndarray:
        """Scale-free temperature slopes u d<<n>>/du, u = T^2, for n = 1 ..
        count, indexed like :meth:`kernel_values` (entry 0 is 0).

        Each is minus the average of x (1 - x), x = w^2 / (w^2 + (2 n pi T)^2),
        so it lies in [-1/4, 0] and cannot overflow at any temperature;
        d<<n>>/d(T^2) is the slope over T^2.  Tabulated densities take the
        same two routes as :meth:`kernel_values`.  Any finite positive ``t``
        is accepted.
        """
        check_scalar("temperature", t, banded=False)
        c = 2.0 * np.pi * t * np.arange(1, count + 1, dtype=float)
        out = np.zeros(count + 1, dtype=float)
        if self.kind in ("einstein", "discrete"):
            q = c[:, None] / self.omegas[None, :]
            # sqrt(x (1 - x)) = q / (1 + q^2), unchanged by q -> 1/q: taking
            # the smaller of the two keeps q^2 from overflowing, and q = inf
            # (t beyond 1e307) gives the exact limit 0
            p = np.minimum(q, 1.0 / q)
            root = p / (1.0 + p * p)
            out[1:] = -(root * root) @ self.weights
            return out
        offsets = c / self.omega_max
        low = int(np.searchsorted(offsets, _MOMENT_OFFSET))
        if low:
            out[1:1 + low] = -self._segment_slopes(offsets[:low])
        if low < count:
            # minus x d/dx of the series sum_k (-1)^(k+1) <w^2k> x^k
            x = np.reciprocal(offsets[low:]) ** 2
            weighted = self._even_moments * np.arange(1, _MOMENT_TERMS + 1)
            out[1 + low:] = -x * _horner(-x, weighted)
        return out

    def _segment_averages(self, offsets: np.ndarray) -> np.ndarray:
        """Tabulated averages at Matsubara offsets c given in units of
        omega_max, from the segment antiderivatives.

        On a segment [a, b] of width h with density alpha + beta*w,

            integral w^2/(w^2+c^2) = h*ab/(c^2+ab) + c*(u - atan u),
                 u = c*h/(c^2+ab),
            integral w^3/(w^2+c^2)
               = (b^2-a^2)/2 * a^2/(c^2+a^2) + c^2/2 * (v - log1p v),
                 v = (b^2-a^2)/(c^2+a^2)

        (the atan and log differences of the textbook antiderivatives folded
        into one argument), so every term is nonnegative.  The differences
        u - atan u and v - log1p v come from series where they would cancel;
        elsewhere their cancellation is bounded, or they are small beside the
        first term.
        """
        a, b, pa, pb = self._unit_segments()
        beta = (pb - pa) / (b - a)
        alpha = pa - beta * a
        h, ab, a2 = b - a, a * b, a * a
        sq_diff = h * (a + b)
        c = np.maximum(offsets, _OFFSET_FLOOR)[:, None]
        c2 = c * c

        d = c2 + ab
        u = c * h / d
        first = h * (ab / d)
        j0 = first + c * (u - np.arctan(u))
        # below c^2 = ab the first term holds at least half of the integral
        series = (u < _SERIES_BELOW ** 0.5) & (c2 > ab)
        s = u[series] ** 2
        j0[series] = first[series] + (c * u)[series] * s * _horner(s, _ATAN_SERIES)

        d = c2 + a2
        v = sq_diff / d
        first = sq_diff * (a2 / d)
        j1 = first + c2 * (v - np.log1p(v))
        series = (v < _SERIES_BELOW) & (c2 > a2)
        s = v[series]
        j1[series] = first[series] + (c2 * v)[series] * s * _horner(s, _LOG_SERIES)

        # the exact averages lie below 1; clip rounding as c -> 0
        return np.minimum(j0 @ alpha + 0.5 * (j1 @ beta), 1.0)

    def _segment_slopes(self, offsets: np.ndarray) -> np.ndarray:
        """Tabulated averages of x (1 - x), x = w^2/(w^2+c^2), at Matsubara
        offsets c given in units of omega_max, from the segment
        antiderivatives; the slopes are their negatives.

        On a segment [a, b] with density alpha + beta*w, and with u, v as in
        :meth:`_segment_averages` and r = c^2/(c^2+a^2),

            integral w^2 c^2/(w^2+c^2)^2
               = c/2 * atan u + h/2 * r (ab - c^2)/(b^2+c^2)
               = h/2 * r (2a^2b^2 + c^2(a^2+b^2)) / ((c^2+ab)(b^2+c^2))
                 - c/2 * (u - atan u),
            integral w^3 c^2/(w^2+c^2)^2
               = c^2/2 * (log1p v - r v/(1+v))
               = c^2/2 * (v (1 - r + v)/(1+v) - (v - log1p v)).

        The first forms cancel badly only where c^2 > ab (a^2) and u (v) < 1;
        the second forms are used there, with the differences from series
        below 1/4 (1/16).  Either way less than a factor 8 is lost to
        cancellation.  The result is clipped to [0, 1/4].
        """
        a, b, pa, pb = self._unit_segments()
        beta = (pb - pa) / (b - a)
        alpha = pa - beta * a
        c = np.maximum(offsets, _OFFSET_FLOOR)[:, None]
        # every operand as a (rows x segments) array, so masks select alike
        a, b, c = np.broadcast_arrays(a, b, c)
        h, ab, a2, b2, c2 = b - a, a * b, a * a, b * b, c * c
        r = c2 / (c2 + a2)

        d = c2 + ab
        u = c * h / d
        i0 = 0.5 * c * np.arctan(u) + 0.5 * h * r * (ab - c2) / (b2 + c2)
        s = (c2 > ab) & (u < 1.0)
        us = u[s]
        diff = np.where(us < _SERIES_BELOW ** 0.5,
                        us ** 3 * _horner(us * us, _ATAN_SERIES), us - np.arctan(us))
        i0[s] = (0.5 * h[s] * r[s] * (2.0 * ab[s] ** 2 + c2[s] * (a2[s] + b2[s]))
                 / (d[s] * (b2[s] + c2[s])) - 0.5 * c[s] * diff)

        v = h * (a + b) / (c2 + a2)
        i1 = 0.5 * c2 * (np.log1p(v) - r * v / (1.0 + v))
        s = (c2 > a2) & (v < 1.0)
        vs = v[s]
        diff = np.where(vs < _SERIES_BELOW, vs * vs * _horner(vs, _LOG_SERIES),
                        vs - np.log1p(vs))
        i1[s] = 0.5 * c2[s] * (vs * (1.0 - r[s] + vs) / (1.0 + vs) - diff)

        return np.clip(i0 @ alpha + i1 @ beta, 0.0, 0.25)

    def scaled(self, s: float) -> "SpectralMeasure":
        """Pushforward under w -> s*w; tabulated densities pick up a 1/s."""
        check_scalar("scale", s)
        if self.kind == "tabulated":
            return SpectralMeasure(
                kind=self.kind,
                omegas=self.omegas * s,
                weights=self.weights / s,
                omega_max=self.omega_max * s,
            )
        return SpectralMeasure(
            kind=self.kind,
            omegas=self.omegas * s,
            weights=self.weights.copy(),
            omega_max=self.omega_max * s,
        )

    def describe(self) -> str:
        if self.kind == "einstein":
            return f"einstein(omega={self.omegas[0]:.6g})"
        if self.kind == "discrete":
            pairs = ", ".join(
                f"({w:.4g}, {o:.4g})" for w, o in zip(self.weights, self.omegas)
            )
            return f"discrete[{pairs}]"
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


def validate(raw) -> SpectralMeasure:
    """Normalize a raw measure description.

    Accepts an existing :class:`SpectralMeasure` (returned as-is; they are
    validated on construction) or a dict in the measure-file schema.
    """
    if isinstance(raw, SpectralMeasure):
        return raw
    if isinstance(raw, dict):
        return from_dict(raw)
    raise ValidationError(f"cannot interpret {type(raw).__name__} as a measure")


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

