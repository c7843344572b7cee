"""Output checks for benchmark calls; a failed check counts the call as failed.

Each checker re-derives what it can from the program's own primitives at an
independent point: the ladder's defining identity is re-evaluated with one
dense eigensolve at the reported temperature, orderings that the paper proves
are asserted, and status labels are recomputed from their rules.  Checks run
outside the timed region.
"""

from __future__ import annotations

import json
import math
import re
from typing import Optional

from eliashberg_tc import measure, stability, tc_solver

from workloads import Call

IDENTITY_REL = 1e-8   # |k_N(Tc_N) * lambda - 1|, the ladder's defining identity
ORDER_REL = 1e-9      # slack for orderings between closed forms and eigensolver
PRINT_REL = 1e-10     # slack for values printed with 12 significant digits


class CheckFailure(Exception):
    """A call's output violates a property it must satisfy."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _le(a: float, b: float, rel: float) -> bool:
    return a <= b + rel * max(abs(a), abs(b))


def _finite_positive(x, what: str) -> float:
    _require(isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0,
             f"{what} is not finite and positive: {x!r}")
    return float(x)


def _flag(argv: tuple[str, ...], name: str) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else None


class Checker:
    """Checks call outputs; caches the measures it loads."""

    def __init__(self):
        self._measures: dict[str, measure.SpectralMeasure] = {}

    def _measure(self, path: str) -> measure.SpectralMeasure:
        if path not in self._measures:
            self._measures[path] = measure.load(path)
        return self._measures[path]

    def check(self, call: Call, rc, stdout: str, out_text: Optional[str]) -> Optional[str]:
        """Return ``None`` if the output is correct, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc!r}"
        try:
            {
                "tc": self._tc,
                "tc-n": self._tc,
                "sweep": self._sweep,
                "bounds": self._bounds,
                "gamma": self._gamma,
                "verify": self._verify,
            }[call.kind](call, stdout, out_text)
        except CheckFailure as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"
        return None

    def _identity(self, m, lam: float, tc: float, n: int, what: str) -> None:
        k = stability.k_numeric(m, tc, n).k_value
        residual = abs(k * lam - 1.0)
        _require(residual <= IDENTITY_REL,
                 f"{what}: |k_{n}(Tc) * lambda - 1| = {residual:.3e} > {IDENTITY_REL}")

    def _tc(self, call: Call, stdout: str, _out: Optional[str]) -> None:
        # `tc --n` reports "tolerance": NaN, which Python's json accepts.
        data = json.loads(stdout)
        m = self._measure(call.measure)
        lam = float(_flag(call.argv, "--coupling"))
        single = _flag(call.argv, "--n")
        _require(data["coupling"] == lam, f"coupling echoed as {data['coupling']!r}")
        sharp = _finite_positive(data["tc_sharp"], "Tc_sharp")
        flat = data["tc_flat"]
        if flat is not None:
            _require(_le(_finite_positive(flat, "Tc_flat"), sharp, 0.0),
                     f"Tc_flat {flat!r} > Tc_sharp {sharp!r}")
        _finite_positive(data["tc_tilde"], "Tc_tilde")
        ladder = data["ladder"]
        if single is not None:
            want_ranks = [n for n in (1, 2, 3, 4) if n <= int(single)]
            if int(single) > 4:
                want_ranks.append(int(single))
        else:
            want_ranks = [4 * 2 ** i for i in range(len(ladder))]
        _require([e["n"] for e in ladder] == want_ranks,
                 f"ladder ranks {[e['n'] for e in ladder]} != {want_ranks}")
        t_star = tc_solver.t_star(m)
        for entry in ladder:
            n, tc, status = entry["n"], entry["tc"], entry["status"]
            if lam <= stability.k_limit_T0(n).lambda_floor:
                _require(tc is None and status == tc_solver.STATUS_UNDEFINED,
                         f"rank {n} below its floor reported {tc!r} [{status}]")
                continue
            tc = _finite_positive(tc, f"Tc_{n}")
            want = (tc_solver.STATUS_PROVEN if n <= 2 or tc >= t_star
                    else tc_solver.STATUS_HEURISTIC)
            _require(status == want, f"rank {n} labelled {status!r}, rules give {want!r}")
            self._identity(m, lam, tc, n, f"rank {n}")
            _require(flat is None or _le(flat, tc, PRINT_REL),
                     f"Tc_{n} {tc!r} below Tc_flat {flat!r}")
            _require(_le(tc, sharp, PRINT_REL), f"Tc_{n} {tc!r} above Tc_sharp {sharp!r}")
        if single is not None:
            _require(data["converged_tc"] is None and data["converged_n"] is None,
                     "single-rank report carries a converged value")
            return
        tol = float(_flag(call.argv, "--converge") or 1e-6)
        _require(data["tolerance"] == tol, f"tolerance echoed as {data['tolerance']!r}")
        last = ladder[-1]
        _require(data["converged_tc"] == last["tc"] and data["converged_n"] == last["n"],
                 "converged value is not the last ladder entry")
        _require(len(ladder) >= 2 and ladder[-2]["tc"] is not None
                 and abs(last["tc"] - ladder[-2]["tc"]) <= tol * last["tc"],
                 "last two ladder entries do not agree to the tolerance")

    def _sweep(self, call: Call, _stdout: str, text: Optional[str]) -> None:
        _require(text is not None, "no CSV written")
        lines = text.split("\n")
        _require(lines[-1] == "", "CSV does not end with a newline")
        lines = lines[:-1]
        _require(lines[0].startswith("# eliashberg-tc v1"), f"schema line {lines[0]!r}")
        header = lines[1].split(",")
        points = int(_flag(call.argv, "--points"))
        rows = [line.split(",") for line in lines[2:]]
        _require(len(rows) == points, f"{len(rows)} rows for {points} points")
        m = self._measure(call.measure)
        lam_min = float(_flag(call.argv, "--lambda-min"))
        lam_max = float(_flag(call.argv, "--lambda-max"))
        converge = _flag(call.argv, "--converge")
        inverse = "--inverse-sqrt-x" in call.argv
        want_cols = 12 if inverse else 6
        _require(len(header) == want_cols, f"{len(header)} columns, want {want_cols}")
        rms = math.sqrt(m.moment(2))
        for i, row in enumerate(rows):
            _require(len(row) == want_cols, f"row {i} has {len(row)} cells")
            cells = {}
            for name, cell in zip(header, row):
                cells[name] = None if cell == "" else float(cell)
                _require(cells[name] is None or math.isfinite(cells[name]),
                         f"row {i} {name} not finite")
            lam = cells["lambda"]
            want_lam = lam_min * (lam_max / lam_min) ** (i / (points - 1))
            _require(abs(lam - want_lam) <= PRINT_REL * want_lam, f"row {i} lambda {lam!r}")
            sharp = _finite_positive(cells["tc_sharp"], f"row {i} tc_sharp")
            flat = cells["tc_flat"]
            tc4 = cells["tc_n4"]
            _require(tc4 is not None, f"row {i} tc_n4 empty")
            self._identity(m, lam, tc4, 4, f"row {i} tc_n4")
            _require(flat is None or _le(flat, tc4, PRINT_REL), f"row {i} tc_n4 below tc_flat")
            _require(_le(tc4, sharp, PRINT_REL), f"row {i} tc_n4 above tc_sharp")
            conv = cells["tc_converged"]
            _require((conv is None) == (converge is None), f"row {i} tc_converged presence")
            if conv is not None:
                _require(_le(conv, sharp, PRINT_REL), f"row {i} tc_converged above tc_sharp")
            if inverse:
                y_scale = rms * math.sqrt(lam)
                _require(abs(cells["inv_sqrt_lambda"] * math.sqrt(lam) - 1.0) <= PRINT_REL,
                         f"row {i} inv_sqrt_lambda")
                _require(abs(cells["y_tc_n4"] * y_scale - tc4) <= PRINT_REL * tc4,
                         f"row {i} y_tc_n4 inconsistent with tc_n4")

    def _bounds(self, call: Call, stdout: str, _out: Optional[str]) -> None:
        lines = stdout.splitlines()
        _require(lines[0].startswith("# measure:"), f"header {lines[0]!r}")
        values = {}
        for line in lines[1:]:
            match = re.match(r"^(.*?)\s{2,}(\S+)\s+\[(.*), (\w+)\]$", line)
            _require(match is not None, f"unparseable bounds row {line!r}")
            name, value, _kind, status = match.groups()
            _require(status == "proven", f"{name} labelled {status!r}")
            values[name.split(" ")[0]] = _finite_positive(float(value), name)
        big = int(_flag(call.argv, "--max-n") or 64)
        chain = ["k_1", "k_2", "k_3", "k_4", f"k_{big}", "k_star", "k_sharp"]
        for lo, hi in zip(chain, chain[1:]):
            _require(_le(values[lo], values[hi], ORDER_REL),
                     f"{lo} = {values[lo]!r} > {hi} = {values[hi]!r}")
        for n in ("1", "2", "3", "4", str(big)):
            _require(abs(values[f"Lambda_{n}"] * values[f"k_{n}"] - 1.0) <= PRINT_REL,
                     f"Lambda_{n} is not 1/k_{n}")

    def _gamma(self, call: Call, stdout: str, _out: Optional[str]) -> None:
        gamma = float(_flag(call.argv, "--gamma"))
        match = re.search(r"at rank (\d+) = (\S+)\n\(1/2pi\) \* g\^\(1/gamma\) = (\S+)", stdout)
        _require(match is not None, "unparseable gamma output")
        value = float(match.group(2))
        _require(math.isfinite(value) and value >= 1.0, f"g = {value!r} is not finite and >= 1")
        scaled = value ** (1.0 / gamma) / (2.0 * math.pi)
        _require(abs(float(match.group(3)) - scaled) <= PRINT_REL * scaled,
                 "(1/2pi) g^(1/gamma) inconsistent with g")

    def _verify(self, _call: Call, stdout: str, _out: Optional[str]) -> None:
        _require(re.search(r"^all \d+ checks passed$", stdout, re.M) is not None,
                 "verify did not report all checks passed")
