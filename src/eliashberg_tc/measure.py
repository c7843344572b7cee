"""Normalized phonon spectral measures and their Matsubara kernel averages.

A measure is one of three variants: a single Dirac atom (Einstein,
non-dispersive phonons), a finite mixture of atoms, or a tabulated density
interpolated piecewise-linearly between nodes.  Every downstream quantity
depends on the measure only through its even moments and the averages

    <<n>>(P, T) = integral of  w^2 / (w^2 + (2 n pi T)^2)  over P(dw),

computed here in closed form for atoms and by adaptive quadrature for
tabulated densities.  Measures are immutable after construction, so all
reads are safe concurrently.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .numerics import DEFAULT_TOL, integrate_adaptive

_MASS_REJECT = 1e-3  # |mass - 1| beyond this is rejected rather than rescaled


@dataclass(frozen=True)
class KernelAverage:
    """One Matsubara kernel average; ``value`` lies in [0, 1)."""

    n: int
    temperature: float
    value: float


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
    """

    kind: str
    omegas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    omega_max: float

    def __post_init__(self):
        self.omegas.setflags(write=False)
        self.weights.setflags(write=False)

    # -- moments -----------------------------------------------------------

    def moment(self, k: int) -> float:
        """k-th moment <w^k> of the measure; exact for atoms."""
        if k < 0:
            raise ValidationError("moment order must be nonnegative")
        if self.kind in ("einstein", "discrete"):
            return float(np.sum(self.weights * self.omegas ** k))
        total = 0.0
        for a, b, alpha, beta in self._segments():
            # integral of (alpha + beta w) w^k over [a, b], exact
            total += alpha * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            total += beta * (b ** (k + 2) - a ** (k + 2)) / (k + 2)
        return total

    # -- kernel averages ----------------------------------------------------

    def kernel_average(self, n: int, t: float) -> KernelAverage:
        """The average <<n>> at Matsubara index difference ``n``."""
        if n < 1:
            raise ValidationError("Matsubara index must be >= 1")
        if not t > 0.0:
            raise ValidationError(f"temperature must be positive, got {t}")
        value = float(self.kernel_values(t, n)[n])
        return KernelAverage(n=n, temperature=t, value=value)

    def kernel_values(self, t: float, count: int) -> np.ndarray:
        """Averages <<1>> .. <<count>> as an array indexed by n (entry 0 is 0).

        The zero at index 0 encodes the convention that the same-site
        exchange kernel vanishes, so matrix assembly can index differences
        |n - m| directly.
        """
        if not t > 0.0:
            raise ValidationError(f"temperature must be positive, got {t}")
        ns = np.arange(count + 1, dtype=float)
        c = 2.0 * np.pi * t * ns  # frequency offsets, c[0] unused
        out = np.zeros(count + 1, dtype=float)
        if self.kind in ("einstein", "discrete"):
            w2 = self.omegas ** 2
            out[1:] = np.sum(
                self.weights[None, :] * w2[None, :] / (w2[None, :] + c[1:, None] ** 2),
                axis=1,
            )
            return out
        for i in range(1, count + 1):
            ci2 = c[i] * c[i]
            acc = 0.0
            for a, b, alpha, beta in self._segments():
                acc += integrate_adaptive(
                    lambda w: (alpha + beta * w) * w * w / (w * w + ci2),
                    a,
                    b,
                    DEFAULT_TOL.quad_tol,
                )
            out[i] = acc
        return out

    def scaled(self, s: float) -> "SpectralMeasure":
        """Pushforward under w -> s*w; tabulated densities pick up a 1/s."""
        if not s > 0.0:
            raise ValidationError("scale must be positive")
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

    def _segments(self) -> Iterable[tuple[float, float, float, float]]:
        """Yield (a, b, alpha, beta) with density alpha + beta*w on [a, b]."""
        w, p = self.omegas, self.weights
        for i in range(len(w) - 1):
            a, b = float(w[i]), float(w[i + 1])
            if b == a:
                continue
            beta = (float(p[i + 1]) - float(p[i])) / (b - a)
            alpha = float(p[i]) - beta * a
            yield a, b, alpha, beta

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


def einstein(omega: float) -> SpectralMeasure:
    """Single Dirac atom at ``omega`` (non-dispersive phonons)."""
    if not (np.isfinite(omega) and omega > 0.0):
        raise ValidationError(f"einstein frequency must be positive, got {omega}")
    return SpectralMeasure(
        kind="einstein",
        omegas=np.array([float(omega)]),
        weights=np.array([1.0]),
        omega_max=float(omega),
    )


def discrete(atoms: Sequence[tuple[float, float]]) -> SpectralMeasure:
    """Finite atom mixture from (weight, omega) pairs; mass is rescaled to
    one when within 1e-3, rejected otherwise."""
    if not atoms:
        raise ValidationError("discrete measure needs at least one atom")
    weights = np.array([float(w) for w, _ in atoms])
    omegas = np.array([float(o) for _, o in atoms])
    bad = [i for i, (w, o) in enumerate(zip(weights, omegas)) if w < 0.0 or o <= 0.0]
    if bad:
        entries = ", ".join(f"#{i}=(w={weights[i]}, omega={omegas[i]})" for i in bad)
        raise ValidationError(f"nonpositive frequency or negative weight: {entries}")
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
    if np.any(np.diff(omegas) <= 0.0):
        raise ValidationError("tabulated nodes must have strictly increasing omega")
    bad = [i for i in range(len(nodes)) if omegas[i] < 0.0 or dens[i] < 0.0]
    if bad:
        entries = ", ".join(f"#{i}=({omegas[i]}, {dens[i]})" for i in bad)
        raise ValidationError(f"negative frequency or density: {entries}")
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


def from_dict(data: dict) -> SpectralMeasure:
    """Measure-file schema: one of

    ``{"type": "einstein", "omega": 1.0}``
    ``{"type": "discrete", "atoms": [{"weight": 0.5, "omega": 0.8}, ...]}``
    ``{"type": "tabulated", "nodes": [[0.0, 0.0], [0.5, 1.6], ...]}``
    """
    try:
        kind = data["type"]
    except (KeyError, TypeError):
        raise ValidationError("measure description lacks a 'type' field") from None
    if kind == "einstein":
        if "omega" not in data:
            raise ValidationError("einstein measure needs an 'omega' field")
        return einstein(data["omega"])
    if kind == "discrete":
        atoms = data.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ValidationError("discrete measure needs a nonempty 'atoms' list")
        try:
            pairs = [(a["weight"], a["omega"]) for a in atoms]
        except (KeyError, TypeError):
            raise ValidationError("each atom needs 'weight' and 'omega'") from None
        return discrete(pairs)
    if kind == "tabulated":
        nodes = data.get("nodes")
        if not isinstance(nodes, list) or len(nodes) < 2:
            raise ValidationError("tabulated measure needs a 'nodes' list of pairs")
        try:
            pairs = [(float(n[0]), float(n[1])) for n in nodes]
        except (TypeError, ValueError, IndexError):
            raise ValidationError("tabulated nodes must be [omega, density] pairs") from None
        return tabulated(pairs)
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

