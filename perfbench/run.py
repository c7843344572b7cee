"""Benchmark of the eliashberg-tc command line, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload atoms-tc --seed 1 --seconds 20 --trace 0

One client calls ``eliashberg_tc.cli.main(argv)`` in a closed loop over a
seeded stream of call rounds (workloads.py) until the calls have taken
``--seconds`` seconds, checks every call's output between rounds (checks.py)
and prints the end-to-end metrics.  With ``--trace 1`` it instead runs a fixed
number of rounds twice, untraced and then traced (tracing.py), and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  README.md explains every
metric and choice.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 1024 wide and the machine is shared,
# so threads add noise, not speed.  Set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11         # fresh-process set-ups per run; setup_s is a median of them
TAIL_BEYOND = 10          # call_tail_ms: the percentile with this many samples beyond
PROBE_TIMEOUT_S = 60
SUBMODULES = ("numerics", "measure", "stability", "gamma_model", "bounds", "tc_solver",
              "verify", "cli")
# Ranks whose zero-temperature floors every ladder consults.
WARM_RANKS = (1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


class Terminated(BaseException):
    """SIGTERM arrived.  Not an Exception, so no call handler swallows it."""


def _terminate(signum, frame):
    raise Terminated(signum)


# -- set-up --------------------------------------------------------------------


def import_package():
    """Import eliashberg_tc from this checkout's src/ only."""
    if not (SRC / "eliashberg_tc" / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("eliashberg_tc")
        for name in SUBMODULES:
            importlib.import_module(f"eliashberg_tc.{name}")
    except ImportError as exc:
        raise SetupError(f"cannot import eliashberg_tc: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != (SRC / "eliashberg_tc").resolve():
        raise SetupError(f"eliashberg_tc imported from {pkg.__file__}, not from {SRC}")
    return pkg


def warm_up(pkg) -> None:
    """Fill the module caches that every CLI process fills on its first call."""
    pkg.gamma_model.g_top(2.0, pkg.bounds.GAMMA_LIMIT_RANK)
    pkg.bounds.bound_constants()
    for n in WARM_RANKS:
        pkg.stability.k_limit_T0(n)


def clear_caches(pkg) -> None:
    """Empty every memo in the package, returning it to its just-imported state."""
    for mod in [pkg] + [getattr(pkg, name) for name in SUBMODULES]:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def fresh_caches(pkg) -> None:
    """Put every memo in the state a fresh process has after set-up."""
    clear_caches(pkg)
    warm_up(pkg)


@dataclass
class Session:
    pkg: object
    workload: workloads.Workload
    inputs: str  # directory holding the generated measure files and sweep CSVs


def set_up(name: str, seed: int) -> Session:
    """Everything before the first timed call: import, inputs, warm caches."""
    pkg = import_package()
    wl = workloads.Workload(name, seed)
    inputs = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for path in wl.write_measures(inputs):
            pkg.measure.load(path)
        warm_up(pkg)
    except BaseException:
        shutil.rmtree(inputs, ignore_errors=True)
        raise
    return Session(pkg, wl, inputs)


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter from launch to the end of set_up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


def setup_times(name: str, seed: int) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, started one after another."""
    return [probe_setup(name, seed) for _ in range(SETUP_PROBES)]


# -- calls ---------------------------------------------------------------------


@dataclass
class Outcome:
    call: workloads.Call
    seconds: float
    rc: object
    stdout: str
    error: str


def run_call(cli, call: workloads.Call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(call.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception:  # a raising call is a failed call; keep its traceback
        rc = "raised"
        err.write(traceback.format_exc())
    return Outcome(call, perf_counter() - start, rc, out.getvalue(), err.getvalue())


class Ledger:
    """Checks outcomes as they come, folds them into a digest, keeps failures."""

    def __init__(self):
        import checks  # imports the package, so only after import_package()

        self._checker = checks.Checker()
        self._digest = hashlib.sha256()
        self.attempted = 0
        self.failures: list[tuple[Outcome, str]] = []

    def add(self, o: Outcome) -> None:
        out_text = None
        if o.call.out is not None and os.path.exists(o.call.out):
            with open(o.call.out, encoding="utf-8") as handle:
                out_text = handle.read()
            os.remove(o.call.out)
        reason = self._checker.check(o.call, o.rc, o.stdout, out_text)
        self._digest.update(repr((o.call.kind, o.rc, o.stdout, out_text)).encode())
        self.attempted += 1
        if reason is not None:
            self.failures.append((o, reason))

    def digest(self) -> str:
        return self._digest.hexdigest()


def run_for(cli, rounds, seconds: float, ledger: Ledger,
            reset=None) -> tuple[list[list[float]], float]:
    """Closed loop over whole rounds until the calls have taken ``seconds``.

    Returns each round's call latencies and the loop's wall time.  Each
    round's outputs are checked after the round; ``reset`` (if given) runs
    before every call.  Neither is part of any call's timing.
    """
    done: list[list[float]] = []
    start = perf_counter()
    for calls in rounds:
        outcomes = []
        for call in calls:
            if reset is not None:
                reset()
            outcomes.append(run_call(cli, call))
        done.append([o.seconds for o in outcomes])
        for o in outcomes:
            ledger.add(o)
        if sum(sum(r) for r in done) >= seconds:
            break
    return done, perf_counter() - start


def run_pass(cli, calls, reset=None) -> list[Outcome]:
    """Every call once; ``reset`` (if given) runs before each call, untimed."""
    outcomes = []
    for call in calls:
        if reset is not None:
            reset()
        outcomes.append(run_call(cli, call))
    return outcomes


# -- reporting -----------------------------------------------------------------


def environment(pkg) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "package": pkg.__version__,
        "git_commit": commit,
    }


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or the requested count if unknown."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k < n // 2:  # too few samples for a tail above the median: use the maximum
        k = n - 1
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(done: list[list[float]], wall: float, ledger: Ledger,
               setup_samples: list[float]) -> tuple[dict, list[str]]:
    n = ledger.attempted
    failed = len(ledger.failures)
    latencies = [s for r in done for s in r]
    busy = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    values = {
        "calls_per_s": len(latencies) / busy,
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_tail_ms": 1e3 * tail_s,
        "pass_frac": 1.0 - failed / n,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    beyond = round(len(latencies) * (1.0 - tail_pct / 100.0))
    notes = {
        "calls_per_s": f"{len(latencies)} calls in {len(done)} rounds, {busy:.3f} s in calls; "
                       f"loop wall {wall:.3f} s",
        "call_p50_ms": f"n={len(latencies)}",
        "call_tail_ms": f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(latencies)}",
        "pass_frac": f"fail_frac = {failed / n:.6g} ({failed} of {n} calls failed)",
        "setup_s": f"median of {len(setup_samples)}: "
                   + ", ".join(f"{s:.4f}" for s in setup_samples),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    lines = [f"{name:<14} {values[name]:>14.6g} {unit:<6} {notes[name]}"
             for name, unit in END_TO_END_UNITS.items()]
    lines.insert(4, f"{'fail_frac':<14} {failed / n:>14.6g} {'ratio':<6} "
                    f"{failed} of {n} calls failed")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def per_layer(tracer, untraced: list[Outcome], traced: list[Outcome]) -> tuple[dict, list[str]]:
    import tracing

    values = tracer.metrics()
    n = len(traced)
    values["trace.calls"] = n
    values["trace.call_time_s"] = sum(o.seconds for o in traced)
    values["trace.untraced_calls_per_s"] = len(untraced) / sum(o.seconds for o in untraced)
    values["trace.traced_calls_per_s"] = n / values["trace.call_time_s"]
    values["trace.overhead_calls_per_s"] = (values["trace.traced_calls_per_s"]
                                            - values["trace.untraced_calls_per_s"])
    metrics = {name: {"value": float(v), "unit": tracing.unit_of(name)}
               for name, v in values.items()}
    total = values["trace.call_time_s"]
    lines = [f"{name:<46} {float(v):>16.6g} {tracing.unit_of(name):<10}"
             + (f" {100 * v / total:5.1f}% of call time" if name.endswith(("time_s", "self_s"))
                and not name.startswith("trace.") else "")
             for name, v in values.items()]
    return metrics, lines


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its inputs and its set-up processes.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        session = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        return 128 + signal.SIGTERM
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return bench(session, args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(session.inputs, ignore_errors=True)


def bench(session: Session, args) -> int:
    pkg, wl = session.pkg, session.workload
    cli = pkg.cli
    rounds = wl.rounds(session.inputs)
    ledger = Ledger()
    # verify --fast repeats one call: start each from the state a fresh process
    # has after set-up, so no memo filled by an earlier call is reused.
    reset = (lambda: fresh_caches(pkg)) if wl.name == "verify-fast" else None
    if args.trace:
        import tracing

        calls = [c for _ in range(workloads.TRACE_ROUNDS[wl.name]) for c in next(rounds)]
        untraced = run_pass(cli, calls, reset)
        for o in untraced:
            ledger.add(o)
        untraced_digest = ledger.digest()
        fresh_caches(pkg)
        tracer = tracing.Tracer(pkg, SUBMODULES)

        def traced_reset():  # the wrappers hide the memos, and must not see the warm-up
            tracer.uninstall()
            reset()
            tracer.install()

        tracer.install()
        try:
            traced = run_pass(cli, calls, reset and traced_reset)
        finally:
            tracer.uninstall()
        replay = Ledger()  # checks run after uninstall, so the tracer never sees them
        for o in traced:
            replay.add(o)
        ledger.attempted += replay.attempted
        ledger.failures += replay.failures
        if replay.digest() != untraced_digest:
            ledger.failures.append((traced[0], "traced and untraced outputs differ"))
        run_digest = replay.digest()
        metrics, lines = per_layer(tracer, untraced, traced)
    else:
        setup_samples = setup_times(wl.name, wl.seed)
        done, wall = run_for(cli, rounds, args.seconds, ledger, reset)
        run_digest = ledger.digest()
        metrics, lines = end_to_end(done, wall, ledger, setup_samples)
    print(f"perfbench workload={wl.name} seed={wl.seed} trace={args.trace}")
    print("env " + json.dumps(environment(pkg), sort_keys=True))
    for line in lines:
        print(line)
    print(f"digest {run_digest} over {ledger.attempted} calls")
    for o, reason in ledger.failures[:20]:
        print(f"FAILED {' '.join(o.call.argv)}: {reason}")
        if o.error:
            print("  " + o.error.strip().replace("\n", "\n  "))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len({id(o) for o, _ in ledger.failures}),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
