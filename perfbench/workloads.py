"""Seeded benchmark inputs: measure files and rounds of CLI calls.

Everything here is a pure function of the workload seed.  A workload is a
pool of generated measures plus an endless stream of *rounds*; each round is
a short list of CLI calls with a fixed composition (one call per stratum of
the parameter ranges) and continuous random arguments inside each stratum.
The timed loop consumes whole rounds, so every run sees the same mix of cheap
and expensive calls whatever its seed, while no two calls repeat their
arguments.  The reasons for each range are in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Iterator, Optional

WORKLOADS = ("atoms-tc", "tabulated-tc", "point-queries", "verify-fast")

# Rounds run by the fixed-size traced pass (--trace 1).  Fixed counts make the
# per-layer operation counts repeat exactly for a given seed.
TRACE_ROUNDS = {"atoms-tc": 8, "tabulated-tc": 4, "point-queries": 60, "verify-fast": 5}

# atoms-tc: couplings below ~0.8 push spread-out atom mixtures to rank 512
# (seconds per call, so one call would dominate a run); 1e5 is deep strong coupling.
ATOMS_TC_LAMBDA = (0.8, 1e5)
ATOMS_TC_STRATA = 8
# Sweeps with --converge start above the weak-coupling corner so they stay short.
ATOMS_SWEEP_LAMBDA_MIN = (2.0, 1e3)
ATOMS_SWEEP_RATIO = (3.0, 30.0)
ATOMS_SWEEP_POINTS = 3

# Three bounds calls per density and round make bounds the majority of calls,
# cheaper than every tc and sweep call, so the median call is a bounds call
# and does not jump between two kinds of call from run to run.  tc couplings
# stay below 100, where the few-node ladders cost more than any bounds call.
# A ladder's cost depends mostly on its coupling, so tc couplings and sweep
# starts are stratified too: any TAB_STRATA consecutive rounds draw one
# coupling from each stratum for each density class.
TAB_TC_LAMBDA = (2.0, 100.0)
TAB_STRATA = 4
TAB_SWEEP_LAMBDA_MIN = (2.0, 1e3)
TAB_SWEEP_RATIO = (2.0, 10.0)
TAB_SWEEP_POINTS = 2  # the fewest a sweep takes; keeps rounds short
TAB_BOUNDS_T = (1e-2, 2.0)  # temperature over the support edge omega_max
TAB_BOUNDS_STRATA = 3

# Ultracold end: omega_max / (2 pi T) <= 160, well inside the rank-four closed
# form's double-precision range (it degenerates beyond ~5e2).
POINT_BOUNDS_T = (1e-3, 10.0)
POINT_BOUNDS_STRATA = 6
# Below the rank-one floor (1) and the rank-four floor (105/247) some ladder
# entries are undefined, which exercises the status rules.
POINT_TC_LAMBDA = (0.5, 1e5)
POINT_TC_STRATA = 2
POINT_GAMMA = (0.5, 4.0)
# call_tail_ms falls among the largest gamma ranks (cost ~ N^3).  Half the
# gamma calls have N >= 256, so the run's ten-odd dearest calls lie in a dense
# band of near-equal cost and one slowed call does not move the tail; and ranks
# are stratified: any POINT_GAMMA_STRATA consecutive rounds draw one rank from
# each log-stratum of each range, so every run has the same share of dear calls.
POINT_GAMMA_RANKS = ((2, 256), (256, 512))
POINT_GAMMA_STRATA = 20

EINSTEIN_OMEGA = (0.2, 5.0)
ATOM_COUNT = (2, 5)
ATOM_SPREAD = 10.0  # largest / smallest atom frequency within one mixture
POOL_ATOMS = 6  # einstein and discrete measures each
# Tabulated pool slots: node counts per slot.  Every many-node density has the
# same node count, so that all rounds cost about the same.
FEW_NODES = (3, 4, 5, 4)
MANY_NODES = 50


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output checker needs to know."""

    kind: str                   # tc, tc-n, sweep, bounds, gamma, verify
    argv: tuple[str, ...]
    measure: Optional[str] = None  # measure file (a bare name until resolved)
    out: Optional[str] = None      # sweep CSV (a bare name until resolved)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratum(rng: random.Random, lo: float, hi: float, i: int, count: int) -> float:
    """Log-uniform draw from the i-th of ``count`` equal log-width strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return math.exp(a + (b - a) * (i + rng.random()) / count)


def _num(x: float) -> str:
    return repr(float(x))


# -- measures ------------------------------------------------------------------


def _einstein(rng: random.Random) -> dict:
    return {"type": "einstein", "omega": _log_uniform(rng, *EINSTEIN_OMEGA)}


def _discrete(rng: random.Random) -> dict:
    count = rng.randint(*ATOM_COUNT)
    centre = _log_uniform(rng, 0.3, 3.0)
    half = math.sqrt(ATOM_SPREAD)
    omegas = [centre * _log_uniform(rng, 1.0 / half, half) for _ in range(count)]
    raw = [rng.uniform(0.05, 1.0) for _ in range(count)]
    total = sum(raw)
    atoms = [{"weight": w / total, "omega": o} for w, o in zip(raw, omegas)]
    return {"type": "discrete", "atoms": atoms}


def _trapezoid(xs: list[float], ys: list[float]) -> float:
    return sum(0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


def _tabulated(rng: random.Random, nodes: int) -> dict:
    """Unit-mass density on [0, omega_max] that vanishes at both ends.

    Few-node densities are random polygons; many-node densities sample a
    smooth mixture of bumps times omega (linear onset at zero).
    """
    omega_max = _log_uniform(rng, 0.5, 3.0)
    if nodes <= max(FEW_NODES):
        interior = sorted(rng.uniform(0.05, 0.95) for _ in range(nodes - 2))
        xs = [0.0] + [omega_max * u for u in interior] + [omega_max]
        ys = [0.0] + [rng.uniform(0.2, 1.0) for _ in range(nodes - 2)] + [0.0]
    else:
        xs = [omega_max * i / (nodes - 1) for i in range(nodes)]
        bumps = [
            (rng.uniform(0.2, 0.9) * omega_max, rng.uniform(0.05, 0.25) * omega_max,
             rng.uniform(0.3, 1.0))
            for _ in range(rng.randint(2, 3))
        ]
        ys = [
            x * sum(h * math.exp(-0.5 * ((x - c) / s) ** 2) for c, s, h in bumps)
            for x in xs
        ]
        ys[-1] = 0.0
    mass = _trapezoid(xs, ys)
    return {"type": "tabulated", "nodes": [[x, y / mass] for x, y in zip(xs, ys)]}


def _omega_max(desc: dict) -> float:
    if desc["type"] == "einstein":
        return desc["omega"]
    if desc["type"] == "discrete":
        return max(a["omega"] for a in desc["atoms"])
    return desc["nodes"][-1][0]


# -- workloads -----------------------------------------------------------------


class Workload:
    """Measure pool and call stream of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self._rng = random.Random(f"{name}:{seed}")
        self._sweeps = 0
        self.measures: dict[str, dict] = {}
        if name in ("atoms-tc", "point-queries"):
            for i in range(POOL_ATOMS):
                self.measures[f"einstein-{i}.json"] = _einstein(self._rng)
                self.measures[f"discrete-{i}.json"] = _discrete(self._rng)
        elif name == "tabulated-tc":
            for i, few in enumerate(FEW_NODES):
                self.measures[f"few-{i}.json"] = _tabulated(self._rng, few)
                self.measures[f"many-{i}.json"] = _tabulated(self._rng, MANY_NODES)

    def write_measures(self, directory: str) -> list[str]:
        """Write every measure file into ``directory``; returns their paths."""
        paths = []
        for fname, desc in self.measures.items():
            path = os.path.join(directory, fname)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(desc, handle)
            paths.append(path)
        return paths

    def rounds(self, directory: str) -> Iterator[list[Call]]:
        """Endless stream of rounds; paths are resolved under ``directory``."""
        make = {
            "atoms-tc": self._atoms_tc,
            "tabulated-tc": self._tabulated_tc,
            "point-queries": self._point_queries,
            "verify-fast": self._verify_fast,
        }[self.name]
        index = 0
        while True:
            yield [self._resolve(call, directory) for call in make(index)]
            index += 1

    # The per-workload round methods return calls whose paths are bare file names.

    @staticmethod
    def _atom_measure(index: int, position: int) -> str:
        """Atom measure for the call at ``position`` in round ``index``.

        Alternates einstein and discrete along a round, and shifts by one
        measure per round, so that every 2 * POOL_ATOMS rounds each position
        (each stratum) meets every measure of the pool once: a call's cost
        depends on both, and a run then averages over the whole pool.
        """
        k = index + position
        kind = "einstein" if k % 2 == 0 else "discrete"
        return f"{kind}-{(k // 2) % POOL_ATOMS}.json"

    def _tc(self, kind: str, fname: str, lam: float) -> Call:
        argv = ("tc", fname, "--coupling", _num(lam)) + (("--n", "4") if kind == "tc-n" else ())
        return Call(kind, argv + ("--json",), measure=fname)

    def _bounds(self, fname: str, t_over_omega_max: float) -> Call:
        t = _omega_max(self.measures[fname]) * t_over_omega_max
        return Call("bounds", ("bounds", fname, "--temperature", _num(t)), measure=fname)

    def _sweep(self, fname: str, lo: float, ratio: tuple, points: int,
               extra: tuple[str, ...]) -> Call:
        hi = lo * _log_uniform(self._rng, *ratio)
        self._sweeps += 1
        out = f"sweep-{self._sweeps}.csv"
        argv = ("sweep", fname, "--lambda-min", _num(lo), "--lambda-max", _num(hi),
                "--points", str(points), "--out", out) + extra
        return Call("sweep", argv, measure=fname, out=out)

    def _atoms_tc(self, index: int) -> list[Call]:
        calls = [self._tc("tc", self._atom_measure(index, i),
                          _stratum(self._rng, *ATOMS_TC_LAMBDA, i, ATOMS_TC_STRATA))
                 for i in range(ATOMS_TC_STRATA)]
        # Every other pair of rounds, so both kinds of measure get both sweeps.
        extra = ("--converge", "1e-6") + (("--inverse-sqrt-x",) if index // 2 % 2 else ())
        fname = self._atom_measure(index, ATOMS_TC_STRATA)
        lo = _log_uniform(self._rng, *ATOMS_SWEEP_LAMBDA_MIN)
        calls.append(self._sweep(fname, lo, ATOMS_SWEEP_RATIO, ATOMS_SWEEP_POINTS, extra))
        return calls

    def _tabulated_tc(self, index: int) -> list[Call]:
        slot = index % len(FEW_NODES)
        # Rotates through the strata, and over TAB_STRATA * len(FEW_NODES) rounds
        # gives every density every stratum.
        stratum = index + index // len(FEW_NODES)
        calls = []
        for shift, cls in enumerate(("few", "many")):
            fname = f"{cls}-{slot}.json"
            calls += [
                self._bounds(fname, _stratum(self._rng, *TAB_BOUNDS_T, i, TAB_BOUNDS_STRATA))
                for i in range(TAB_BOUNDS_STRATA)
            ]
            i = (stratum + 2 * shift) % TAB_STRATA
            calls.append(self._tc("tc-n", fname,
                                  _stratum(self._rng, *TAB_TC_LAMBDA, i, TAB_STRATA)))
            lo = _stratum(self._rng, *TAB_SWEEP_LAMBDA_MIN, (i + 1) % TAB_STRATA, TAB_STRATA)
            calls.append(self._sweep(fname, lo, TAB_SWEEP_RATIO, TAB_SWEEP_POINTS, ()))
        return calls

    def _point_queries(self, index: int) -> list[Call]:
        calls = [self._bounds(self._atom_measure(index, i),
                              _stratum(self._rng, *POINT_BOUNDS_T, i, POINT_BOUNDS_STRATA))
                 for i in range(POINT_BOUNDS_STRATA)]
        calls += [self._tc("tc-n", self._atom_measure(index, POINT_BOUNDS_STRATA + i),
                           _stratum(self._rng, *POINT_TC_LAMBDA, i, POINT_TC_STRATA))
                  for i in range(POINT_TC_STRATA)]
        for lo, hi in POINT_GAMMA_RANKS:
            g = _log_uniform(self._rng, *POINT_GAMMA)
            n = int(_stratum(self._rng, lo, hi, index % POINT_GAMMA_STRATA, POINT_GAMMA_STRATA))
            calls.append(Call("gamma", ("gamma", "--gamma", _num(g), "--n", str(n))))
        return calls

    def _verify_fast(self, index: int) -> list[Call]:
        del index
        return [Call("verify", ("verify", "--fast"))]

    @staticmethod
    def _resolve(call: Call, directory: str) -> Call:
        def path(name: Optional[str]) -> Optional[str]:
            return None if name is None else os.path.join(directory, name)

        argv = tuple(path(a) if a in (call.measure, call.out) else a for a in call.argv)
        return Call(call.kind, argv, measure=path(call.measure), out=path(call.out))
