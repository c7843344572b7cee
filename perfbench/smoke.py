"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

It asserts that
  * every workload runs at a tiny size, prints every end-to-end metric of
    BENCHMARK.json with its unit, and has no failed call (fail_frac 0);
  * a traced run prints every per-layer metric, and two traced runs with the
    same seed repeat every count and the digest of all call outputs exactly;
  * the output checker counts deliberately corrupted outputs as failures;
  * the cache reset run before each repeated verify call returns every
    package memo to its state after set-up;
  * without the package source next to it, the benchmark exits non-zero and
    prints no result.
It takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sets the BLAS thread count before NumPy loads)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, seconds: str = "0.1", cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", seconds, "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out, proc.stdout


def check_metrics(out: dict, specs: list[dict]) -> None:
    assert set(out["metrics"]) == {s["name"] for s in specs}, sorted(out["metrics"])
    for spec in specs:
        got = out["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], (spec["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (spec["name"], got)


def digest_line(text: str) -> str:
    return next(line for line in text.splitlines() if line.startswith("digest "))


def is_count(name: str) -> bool:
    return not name.endswith(("time_s", "self_s", "calls_per_s"))


def smoke_workloads() -> None:
    for name in workloads.WORKLOADS:
        out, text = result(bench(name, 7, 0))
        check_metrics(out, SPEC["end_to_end"])
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
        assert "fail_frac" in text and "env {" in text
        first, text_first = result(bench(name, 7, 1))
        second, text_second = result(bench(name, 7, 1))
        check_metrics(first, SPEC["per_layer"])
        assert first["correct"] and second["correct"], (first, second)
        for metric, value in first["metrics"].items():
            if is_count(metric):
                assert second["metrics"][metric] == value, (name, metric, value,
                                                            second["metrics"][metric])
        assert digest_line(text_first) == digest_line(text_second), name
        print(f"ok  {name}: {out['attempted']} calls; traced counts and digest repeat")


def smoke_corruption() -> None:
    session = run.set_up("atoms-tc", 3)
    try:
        import checks

        checker = checks.Checker()
        calls = next(session.workload.rounds(session.inputs))
        tc_call = next(c for c in calls if c.kind == "tc")
        sweep_call = next(c for c in calls if c.kind == "sweep")
        good = run.run_call(session.pkg.cli, tc_call)
        assert checker.check(tc_call, good.rc, good.stdout, None) is None
        data = json.loads(good.stdout)
        data["ladder"][-1]["tc"] *= 1.0 + 1e-6
        data["converged_tc"] = data["ladder"][-1]["tc"]
        assert checker.check(tc_call, 0, json.dumps(data), None) is not None
        assert checker.check(tc_call, 3, good.stdout, None) is not None
        swept = run.run_call(session.pkg.cli, sweep_call)
        csv = Path(sweep_call.out).read_text(encoding="utf-8")
        assert checker.check(sweep_call, swept.rc, swept.stdout, csv) is None
        lines = csv.split("\n")
        cells = lines[2].split(",")
        cells[4] = repr(float(cells[4]) * 1.001)  # tc_n4 of the first row
        lines[2] = ",".join(cells)
        assert checker.check(sweep_call, 0, "", "\n".join(lines)) is not None
        assert checker.check(sweep_call, 0, "", "\n".join(lines[:-2] + [""])) is not None
        path = os.path.join(session.inputs, "einstein-0.json")
        bounds_call = workloads.Call("bounds", ("bounds", path, "--temperature", "0.3"),
                                     measure=path)
        table = run.run_call(session.pkg.cli, bounds_call).stdout
        assert checker.check(bounds_call, 0, table, None) is None
        rows = table.split("\n")
        star = next(i for i, row in enumerate(rows) if row.startswith("k_star"))
        value = rows[star].split()[3]
        rows[star] = rows[star].replace(value, "0.001")  # now below k_64
        assert checker.check(bounds_call, 0, "\n".join(rows), None) is not None
    finally:
        shutil.rmtree(session.inputs, ignore_errors=True)
    print("ok  corrupted outputs are counted as failures")


def memo_sizes(pkg) -> dict[str, int]:
    return {f"{mod.__name__}.{name}": obj.cache_info().currsize
            for mod in [pkg] + [getattr(pkg, sub) for sub in run.SUBMODULES]
            for name, obj in vars(mod).items() if hasattr(obj, "cache_info")}


def smoke_fresh_caches() -> None:
    session = run.set_up("verify-fast", 1)
    try:
        after_setup = memo_sizes(session.pkg)
        call = next(session.workload.rounds(session.inputs))[0]
        assert run.run_call(session.pkg.cli, call).rc == 0
        assert memo_sizes(session.pkg) != after_setup, "verify filled no memo"
        run.fresh_caches(session.pkg)
        assert memo_sizes(session.pkg) == after_setup, (memo_sizes(session.pkg), after_setup)
    finally:
        shutil.rmtree(session.inputs, ignore_errors=True)
    print("ok  the cache reset returns every memo to its state after set-up")


def smoke_without_source() -> None:
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("atoms-tc", 1, 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without src/ the benchmark exits non-zero with no result")


if __name__ == "__main__":
    os.chdir(ROOT)
    smoke_without_source()
    smoke_corruption()
    smoke_fresh_caches()
    smoke_workloads()
    print("smoke test passed")
