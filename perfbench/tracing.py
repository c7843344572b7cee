"""Per-layer tracing by wrapping the package's public functions in place.

Each traced function is replaced at every name it is bound to inside the
package (``stability.sym_eig_top``, ``gamma_model.sym_eig_top``,
``tc_solver.bisect_monotone``, the ``SpectralMeasure.kernel_values`` method,
...), so calls are caught where their callers look them up.  A wrapper opens
a span, runs the original and closes the span; its duration is charged to the
parent span as child time, so a layer's self time is its span time minus the
time of the spans it caused.  A call nested inside a span of the same layer
(recursion, or one ``bounds`` function calling another) is merged into the
outer span.  Spans are aggregated per layer as they close rather than stored,
because a tabulated call opens hundreds of thousands of them.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("time_s", "self_s")):
        return "s"
    if metric.endswith("calls_per_s"):
        return "1/s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("per_call"):
        return "count/call"
    return "count"


class _Layer:
    __slots__ = ("calls", "time", "self_time")

    def __init__(self):
        self.calls = 0
        self.time = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs span wrappers into the package and aggregates them per layer."""

    def __init__(self, pkg, submodules):
        self.pkg = pkg
        self.modules = [pkg] + [getattr(pkg, name) for name in submodules]
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [layer name, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        p = self.pkg
        self._wrap_function(p.cli.main, "cli")
        self._wrap_function(p.measure.load, "measure.load")
        self._wrap_attr(p.measure.SpectralMeasure, "kernel_values", "measure.kernel_values",
                        self._count_averages)
        self._wrap_function(p.numerics.integrate_adaptive, "numerics.integrate_adaptive",
                            self._count_integrand)
        self._wrap_function(p.numerics.sym_eig_top, "numerics.sym_eig_top", self._count_n3)
        self._wrap_function(p.numerics.bisect_monotone, "numerics.bisect_monotone",
                            self._count_f_evals)
        self._wrap_function(p.numerics.power_iteration_positive,
                            "numerics.power_iteration_positive", self._count_applies)
        self._wrap_function(p.stability.assemble_k, "stability.assemble_k")
        self._wrap_function(p.stability.k_numeric, "stability.k_numeric", self._count_k_eval)
        self._wrap_function(p.stability.k_closed_form, "stability.k_closed_form")
        self._wrap_function(p.tc_solver.tc_n, "tc_solver.tc_n")
        self._wrap_function(p.tc_solver.tc_converged, "tc_solver.tc_converged",
                            result_hook=self._count_ladder)
        for func in self._public_functions(p.bounds):
            self._wrap_function(func, "bounds")
        self._wrap_function(p.gamma_model.g_top, "gamma_model.g_top")
        self._wrap_function(p.verify.run_checks, "verify.run_checks")
        self._wrap_function(p.cli.write_sweep, None, self._count_rows)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @staticmethod
    def _public_functions(module) -> list[Callable]:
        return [
            obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module.__name__
        ]

    def _wrap_function(self, func, layer, arg_hook=None, result_hook=None) -> None:
        """Wrap ``func`` at every package name bound to it."""
        bound = [(mod, name) for mod in self.modules for name, obj in vars(mod).items()
                 if obj is func]
        if not bound:
            raise RuntimeError(f"{func!r} is bound nowhere in the package")
        wrapper = self._make_wrapper(func, layer, arg_hook, result_hook)
        for mod, name in bound:
            self._patched.append((mod, name, func))
            setattr(mod, name, wrapper)

    def _wrap_attr(self, owner, attr, layer, arg_hook=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._make_wrapper(original, layer, arg_hook, None))

    def _make_wrapper(self, original, layer, arg_hook, result_hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if layer is not None and any(frame[0] == layer for frame in stack):
                return original(*args, **kwargs)  # merged into the enclosing span
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            if layer is None:
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = self.layers[layer]
                agg.calls += 1
                agg.time += elapsed
                agg.self_time += elapsed - frame[1]
            if result_hook is not None:
                result_hook(result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------------

    def _count_averages(self, args, kwargs):
        _self, _t, count = args
        self.counts["kernel_averages"] += count
        return args, kwargs

    def _count_integrand(self, args, kwargs):
        g, *rest = args
        counts = self.counts

        def counted(x):
            counts["integrand_evals"] += 1
            return g(x)

        return (counted, *rest), kwargs

    def _count_n3(self, args, kwargs):
        self.counts["n3_sum"] += len(args[0]) ** 3
        if self._stack and self._stack[-1][0] == "gamma_model.g_top":
            self.counts["g_top_misses"] += 1  # the memo did not have this pair
        return args, kwargs

    def _count_f_evals(self, args, kwargs):
        f, *rest = args
        counts = self.counts

        def counted(x):
            counts["bisect_f_evals"] += 1
            return f(x)

        return (counted, *rest), kwargs

    def _count_applies(self, args, kwargs):
        apply, *rest = args
        counts = self.counts

        def counted(x):
            counts["power_applies"] += 1
            return apply(x)

        return (counted, *rest), kwargs

    def _count_k_eval(self, args, kwargs):
        """Attribute a k evaluation to the enclosing tc_n, inside or outside bisection."""
        names = [frame[0] for frame in self._stack]
        if "tc_solver.tc_n" in names:
            self.counts["tc_n_k_evals"] += 1
            below = names[len(names) - 1 - names[::-1].index("tc_solver.tc_n"):]
            if "numerics.bisect_monotone" not in below:
                self.counts["tc_n_bracket_evals"] += 1
        return args, kwargs

    def _count_ladder(self, report):
        self.counts["ladder_ranks"] += len(report.ladder)
        self.counts["max_rank"] = max(self.counts["max_rank"], report.ladder[-1].n)

    def _count_rows(self, args, kwargs):
        points = kwargs["points"] if "points" in kwargs else args[4]
        self.counts["sweep_rows"] += points
        return args, kwargs

    # -- report ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by the names used in BENCHMARK.json."""
        L, c = self.layers, self.counts
        tc_n_calls = L["tc_solver.tc_n"].calls
        g_calls = L["gamma_model.g_top"].calls
        return {
            "measure.kernel_values.calls": L["measure.kernel_values"].calls,
            "measure.kernel_values.averages": c["kernel_averages"],
            "measure.kernel_values.time_s": L["measure.kernel_values"].time,
            "measure.kernel_values.self_s": L["measure.kernel_values"].self_time,
            "numerics.integrate_adaptive.calls": L["numerics.integrate_adaptive"].calls,
            "numerics.integrate_adaptive.integrand_evals": c["integrand_evals"],
            "numerics.integrate_adaptive.time_s": L["numerics.integrate_adaptive"].time,
            "numerics.sym_eig_top.calls": L["numerics.sym_eig_top"].calls,
            "numerics.sym_eig_top.n3_sum": c["n3_sum"],
            "numerics.sym_eig_top.time_s": L["numerics.sym_eig_top"].time,
            "numerics.bisect_monotone.calls": L["numerics.bisect_monotone"].calls,
            "numerics.bisect_monotone.f_evals": c["bisect_f_evals"],
            "numerics.bisect_monotone.time_s": L["numerics.bisect_monotone"].time,
            "tc_solver.tc_n.calls": tc_n_calls,
            "tc_solver.tc_n.k_evals_per_call":
                c["tc_n_k_evals"] / tc_n_calls if tc_n_calls else 0.0,
            "tc_solver.tc_n.bracket_evals": c["tc_n_bracket_evals"],
            "tc_solver.tc_n.time_s": L["tc_solver.tc_n"].time,
            "tc_solver.tc_converged.calls": L["tc_solver.tc_converged"].calls,
            "tc_solver.tc_converged.ranks": c["ladder_ranks"],
            "tc_solver.tc_converged.max_rank": c["max_rank"],
            "tc_solver.tc_converged.time_s": L["tc_solver.tc_converged"].time,
            "stability.assemble_k.calls": L["stability.assemble_k"].calls,
            "stability.assemble_k.self_s": L["stability.assemble_k"].self_time,
            "stability.k_numeric.calls": L["stability.k_numeric"].calls,
            "stability.k_numeric.time_s": L["stability.k_numeric"].time,
            "stability.k_closed_form.calls": L["stability.k_closed_form"].calls,
            "stability.k_closed_form.time_s": L["stability.k_closed_form"].time,
            "bounds.calls": L["bounds"].calls,
            "bounds.time_s": L["bounds"].time,
            "gamma_model.g_top.calls": g_calls,
            "gamma_model.g_top.cache_hit_ratio":
                1.0 - c["g_top_misses"] / g_calls if g_calls else 0.0,
            "gamma_model.g_top.time_s": L["gamma_model.g_top"].time,
            "numerics.power_iteration_positive.calls":
                L["numerics.power_iteration_positive"].calls,
            "numerics.power_iteration_positive.applies": c["power_applies"],
            "numerics.power_iteration_positive.time_s":
                L["numerics.power_iteration_positive"].time,
            "verify.run_checks.time_s": L["verify.run_checks"].time,
            "measure.load.time_s": L["measure.load"].time,
            "cli.write_sweep.rows": c["sweep_rows"],
            "cli.self_s": L["cli"].self_time,
        }
