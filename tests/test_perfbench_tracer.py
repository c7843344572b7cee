"""The benchmark's per-layer tracer against the package: a rename or deletion
of a traced function, or a change that moves work out of a traced layer,
fails here in a second instead of only in the benchmark's own smoke run."""

import importlib
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import eliashberg_tc

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``run`` and ``tracing`` modules, imported without
    leaving their directory on the path, their thread settings or bytecode
    behind."""
    with (
        mock.patch.dict(os.environ),
        mock.patch.object(sys, "path", [str(PERFBENCH)] + sys.path),
        mock.patch.object(sys, "dont_write_bytecode", True),
    ):
        import run
        import tracing
        import workloads
    for name in run.SUBMODULES:
        importlib.import_module(f"eliashberg_tc.{name}")
    return run, tracing, workloads


def _bindings(pkg, submodules):
    """Every name the tracer may patch, with the object bound to it."""
    modules = [pkg] + [getattr(pkg, name) for name in submodules]
    names = {(mod.__name__, name): obj for mod in modules for name, obj in vars(mod).items()}
    names["SpectralMeasure.kernel_values"] = pkg.measure.SpectralMeasure.kernel_values
    return names


def test_tracer_covers_the_declared_layers(perfbench, tmp_path):
    run, tracing, workloads = perfbench
    path = tmp_path / "m.json"
    path.write_text('{"type":"einstein","omega":1.0}', encoding="utf-8")
    call = workloads.Call("tc", ("tc", str(path), "--coupling", "10"))
    untraced = run.run_call(eliashberg_tc.cli, call)

    before = _bindings(eliashberg_tc, run.SUBMODULES)
    tracer = tracing.Tracer(eliashberg_tc, run.SUBMODULES)
    tracer.install()
    try:
        traced = run.run_call(eliashberg_tc.cli, call)
    finally:
        tracer.uninstall()
    after = _bindings(eliashberg_tc, run.SUBMODULES)

    assert untraced.rc == traced.rc == 0
    assert traced.stdout == untraced.stdout
    assert before.keys() == after.keys()
    assert all(after[name] is obj for name, obj in before.items())

    metrics, _ = run.per_layer(tracer, [untraced], [traced])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(metrics) == sorted(entry["name"] for entry in declared)
    # every rank of the ladder is a tc_n call, and its eigensolves are counted there
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert value["tc_solver.tc_converged.ranks"] == value["tc_solver.tc_n.calls"] > 0
    assert value["tc_solver.tc_n.k_evals_per_call"] > 0


def test_high_rank_eigensolve_is_traced(perfbench):
    # a gamma rank above the Lanczos crossover still makes exactly one
    # traced sym_eig_top call
    run, tracing, workloads = perfbench
    call = workloads.Call("gamma", ("gamma", "--gamma", "1.5", "--n", "300"))
    eliashberg_tc.gamma_model._top_pair.cache_clear()
    tracer = tracing.Tracer(eliashberg_tc, run.SUBMODULES)
    tracer.install()
    try:
        outcome = run.run_call(eliashberg_tc.cli, call)
    finally:
        tracer.uninstall()
        eliashberg_tc.gamma_model._top_pair.cache_clear()
    assert outcome.rc == 0
    assert tracer.metrics()["numerics.sym_eig_top.calls"] == 1


def test_clearing_caches_drops_the_verify_measure_memos(perfbench):
    # verify's sample measures memoize their moments; a fresh process starts
    # without them, and so must a run after clear_caches
    run, _, _ = perfbench
    eliashberg_tc.verify.check_high_T_asymptotics(True)
    assert any(m._moment_memo for m in eliashberg_tc.verify._samples().all)
    run.clear_caches(eliashberg_tc)
    assert not any(m._moment_memo for m in eliashberg_tc.verify._samples().all)
