"""Command-line surface.

Subcommands: ``bounds`` (threshold-eigenvalue and coupling-bound table at
one temperature), ``tc`` (critical-temperature report at one coupling),
``sweep`` (CSV over a logarithmic coupling grid, in the axes of either
figure), ``gamma`` (gamma-family constants), and ``verify`` (the invariant
suite).  Configuration is by flags only; output is deterministic for fixed
inputs so sweeps can serve as regression artifacts.

Exit codes: 0 ok, 1 verify failure, 2 validation error, 3 numerical error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, TextIO

import numpy as np

from . import bounds, gamma_model, measure, stability, tc_solver, verify
from .errors import NumericalError, ValidationError
from .numerics import check_rank, check_scalar

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CSV_VERSION = "eliashberg-tc v1"


def _fmt(x: Optional[float]) -> str:
    """Fixed 12-significant-digit rendering; empty for undefined values."""
    if x is None:
        return ""
    return f"{x:.12g}"


def cmd_bounds(args) -> int:
    """Print the threshold table of :func:`bounds.threshold_table`: the
    closed-form ranks one to four, rank ``--max-n`` by eigensolver,
    ``k_star`` and ``k_sharp``, then their reciprocals, all from one
    truncation assembled at the larger rank."""
    m = measure.load(args.measure_file)
    t = args.temperature
    table = bounds.threshold_table(m, t, args.max_n)
    routes = [(k, "closed form") for k in table.closed] + [(table.numeric, "eigensolver")]
    rows = [(f"k_{k.n} ({route})", k.k_value, "lower bound on k", "proven") for k, route in routes]
    rows.append(("k_star (spectral estimate)", table.k_star, "upper bound on k", "proven"))
    rows.append(("k_sharp (moment only)", table.k_sharp, "upper bound on k", "proven"))
    rows.extend((f"Lambda_{k.n} = 1/k_{k.n} ({route})", k.lambda_upper, "upper bound on Lambda",
                 "proven") for k, route in routes)
    rows.append(("1/k_star", 1.0 / table.k_star, "lower bound on Lambda", "proven"))
    rows.append(("1/k_sharp", 1.0 / table.k_sharp, "lower bound on Lambda", "proven"))
    print(f"# measure: {m.describe()}   temperature: {_fmt(t)}")
    width = max(len(r[0]) for r in rows)
    for name, value, kind, status in rows:
        print(f"{name:<{width}}  {_fmt(value):>18}  [{kind}, {status}]")
    return EXIT_OK


def _report_lines(report: tc_solver.TcReport) -> list[str]:
    lines = [f"# measure: {report.measure.describe()}   coupling: {_fmt(report.coupling)}"]
    for entry in report.ladder:
        if entry.status == tc_solver.STATUS_UNDEFINED:
            floor = stability.k_limit_T0(entry.n).lambda_floor
            lines.append(
                f"Tc_{entry.n:<4} undefined (coupling <= rank floor {_fmt(floor)})"
            )
        else:
            lines.append(
                f"Tc_{entry.n:<4} {_fmt(entry.value):>18}  [lower bound, {entry.status}]"
            )
    if report.tolerance is not None:  # single ranks have no convergence line
        lines.append(
            f"Tc (converged, rank {report.converged_n}, tol {_fmt(report.tolerance)})"
            f" = {_fmt(report.converged_tc)}  [lower bound, {report.ladder[-1].status}]"
            if report.converged_tc is not None
            else "Tc (converged) unavailable at the rank cap"
        )
    flat = report.tc_flat
    lines.append(
        f"Tc_flat  {_fmt(flat):>18}  [lower bound, proven]"
        if flat is not None
        else "Tc_flat  undefined (coupling below support-edge threshold)"
    )
    lines.append(f"Tc_sharp {_fmt(report.tc_sharp):>18}  [upper bound, proven]")
    lines.append(f"Tc_tilde {_fmt(report.tc_tilde):>18}  [upper bound, conjectured]")
    lines.append(
        f"lambda_star <= {_fmt(report.lambda_star_strong)} (rank-four), "
        f"<= {_fmt(report.lambda_star_easy)} (moment-only)  [upper estimates, proven]"
    )
    return lines


def _report_json(report: tc_solver.TcReport) -> dict:
    return {
        "coupling": report.coupling,
        "measure": report.measure.describe(),
        "ladder": [
            {"n": entry.n, "tc": entry.value, "status": entry.status}
            for entry in report.ladder
        ],
        "tc_flat": report.tc_flat,
        "tc_sharp": report.tc_sharp,
        "tc_tilde": report.tc_tilde,
        "tc_tilde_status": "conjectured",
        "lambda_star_strong": report.lambda_star_strong,
        "lambda_star_easy": report.lambda_star_easy,
        "converged_tc": report.converged_tc,
        "converged_n": report.converged_n,
        "tolerance": report.tolerance,
    }


def cmd_tc(args) -> int:
    m = measure.load(args.measure_file)
    lam = args.coupling
    if args.n is not None:
        ranks = sorted({n for n in (1, 2, 3, 4) if n <= args.n} | {args.n})
        report = tc_solver.tc_report(m, lam, [tc_solver.tc_n(m, lam, n) for n in ranks])
    else:
        report = tc_solver.tc_converged(m, lam, tol=args.converge)
    if args.json:
        print(json.dumps(_report_json(report), indent=2, sort_keys=True))
    else:
        for line in _report_lines(report):
            print(line)
    return EXIT_OK


def _scaled(values, scale: float) -> list[str]:
    """Render each value divided by ``scale``; undefined values stay empty."""
    return [_fmt(v / scale if v is not None else None) for v in values]


def write_sweep(
    stream: TextIO,
    m: measure.SpectralMeasure,
    lambda_min: float,
    lambda_max: float,
    points: int,
    normalized: bool = False,
    inverse_sqrt_x: bool = False,
    converge_tol: Optional[float] = None,
) -> None:
    """Write the coupling-sweep CSV to ``stream`` (deterministic bytes)."""
    check_scalar("lambda-min", lambda_min)
    check_scalar("lambda-max", lambda_max)
    if not lambda_min < lambda_max:
        raise ValidationError("need lambda-min < lambda-max")
    check_rank("points", points, 2)
    if converge_tol is not None:
        check_scalar("tolerance", converge_tol)
    header = ["lambda", "tc_flat", "tc_sharp", "tc_tilde", "tc_n4", "tc_converged"]
    if inverse_sqrt_x:
        header += ["inv_sqrt_lambda", "y_tc_flat", "y_tc_sharp", "y_tc_tilde",
                   "y_tc_n4", "y_tc_converged"]
    stream.write(f"# {CSV_VERSION}, columns: {','.join(header)}\n")
    stream.write(",".join(header) + "\n")
    rms = math.sqrt(m.moment(2))
    norm = rms if normalized else 1.0
    grid = np.geomspace(lambda_min, lambda_max, points)
    for lam in grid:
        lam = float(lam)
        flat = bounds.tc_flat(m, lam)
        sharp = bounds.tc_sharp(m, lam)
        tilde = bounds.tc_tilde(m, lam)
        if converge_tol is None:
            entry4, converged = tc_solver.tc_n(m, lam, 4), None
        else:  # the ladder starts with the same cold rank-4 solve
            report = tc_solver.tc_converged(m, lam, tol=converge_tol)
            entry4, converged = report.ladder[0], report.converged_tc
        cells = (flat, sharp, tilde, entry4.value, converged)
        row = [_fmt(lam)] + _scaled(cells, norm)
        if inverse_sqrt_x:
            row += [_fmt(1.0 / math.sqrt(lam))] + _scaled(cells, rms * math.sqrt(lam))
        stream.write(",".join(row) + "\n")


def cmd_sweep(args) -> int:
    m = measure.load(args.measure_file)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            write_sweep(
                handle,
                m,
                args.lambda_min,
                args.lambda_max,
                args.points,
                normalized=args.normalized,
                inverse_sqrt_x=args.inverse_sqrt_x,
                converge_tol=args.converge,
            )
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_gamma(args) -> int:
    g = gamma_model.g_top(args.gamma, args.n).value
    try:
        root = g ** (1.0 / args.gamma)
    except OverflowError:
        raise NumericalError(
            f"g^(1/gamma) overflows: g = {_fmt(g)} to the power 1/gamma = {_fmt(1.0 / args.gamma)}"
        ) from None
    lines = [f"g({_fmt(args.gamma)}) at rank {args.n} = {_fmt(g)}",
             f"(1/2pi) * g^(1/gamma) = {_fmt(root / (2.0 * math.pi))}"]
    if args.gamma == 2.0:
        cross = gamma_model.expected_gamma(4.0, 2.0, args.n)
        lines.append(f"exponent-four expectation in the optimizer = {_fmt(cross)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks(fast=args.fast, report=print)
    failed = [r for r in results if not r.ok and r.blocking]
    soft = [r for r in results if not r.ok and not r.blocking]
    if soft:
        print(f"{len(soft)} non-blocking check(s) failed (exploratory only)")
    if failed:
        print(f"{len(failed)} blocking check(s) failed")
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eliashberg-tc",
        description="Bounds on the critical coupling and critical temperature "
        "of phonon-mediated superconductors from finite-rank stability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="threshold-eigenvalue table at one temperature")
    p_bounds.add_argument("measure_file")
    p_bounds.add_argument("--temperature", type=float, required=True)
    p_bounds.add_argument("--max-n", type=int, default=64)
    p_bounds.set_defaults(func=cmd_bounds)

    p_tc = sub.add_parser("tc", help="critical-temperature report at one coupling")
    p_tc.add_argument("measure_file")
    p_tc.add_argument("--coupling", type=float, required=True)
    group = p_tc.add_mutually_exclusive_group()
    group.add_argument("--n", type=int, default=None, help="single rank instead of convergence")
    group.add_argument("--converge", type=float, default=1e-6, help="rank-doubling tolerance")
    p_tc.add_argument("--json", action="store_true")
    p_tc.set_defaults(func=cmd_tc)

    p_sweep = sub.add_parser("sweep", help="CSV of bounds over a logarithmic coupling grid")
    p_sweep.add_argument("measure_file")
    p_sweep.add_argument("--lambda-min", type=float, required=True)
    p_sweep.add_argument("--lambda-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--normalized", action="store_true",
                         help="divide temperature columns by the RMS frequency")
    p_sweep.add_argument("--inverse-sqrt-x", action="store_true",
                         help="add strong-coupling axes: x = 1/sqrt(lambda), "
                         "y = T / (RMS frequency * sqrt(lambda))")
    p_sweep.add_argument("--converge", type=float, default=None,
                         help="also fill the tc_converged column at this tolerance")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gamma = sub.add_parser("gamma", help="gamma-family spectral constants")
    p_gamma.add_argument("--gamma", type=float, required=True)
    p_gamma.add_argument("--n", type=int, required=True)
    p_gamma.set_defaults(func=cmd_gamma)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--fast", action="store_true", help="restrict grids")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, MemoryError) as exc:  # NumericalError, a float overflow in a
        # printed value, or an allocation the machine cannot make
        print(f"numerical error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
