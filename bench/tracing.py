"""Span tracing from outside the program: wrappers around public functions of
the package, installed at every module binding the package calls through.

A span is (name, start, end, parent).  Spans are recorded only inside a task
(below the ``cli.main`` root the runner wraps), so the benchmark's own
checks never show up.  Spans stay in memory and are written out once, when
the run ends.  Tasks run with one worker thread, so one span stack suffices.
"""

import functools
import importlib
import json
import sys
import time

ROOT = "cli.main"

# (span name, module, attribute); every binding of the same function object
# in any bmech module is replaced, e.g. solve_classical in classical, bqm, cli
FUNCTIONS = (
    ("sysdsl.parse", "bmech.sysdsl", "parse"),
    ("classical.solve_classical", "bmech.classical", "solve_classical"),
    ("classical.action_gradient_hessian", "bmech.classical", "action_gradient_hessian"),
    ("classical.jacobi_and_greens", "bmech.classical", "jacobi_and_greens"),
    ("symplectic.poisson_boundary", "bmech.symplectic", "poisson_boundary"),
    ("symplectic.poisson_covariant", "bmech.symplectic", "poisson_covariant"),
    ("quantize.op_F", "bmech.quantize", "op_F"),
    ("quantize.op_G", "bmech.quantize", "op_G"),
    ("quantize.shift_operator", "bmech.quantize", "shift_operator"),
    ("quantize.derivative_matrix", "bmech.quantize", "derivative_matrix"),
    ("bqm.phys_state", "bmech.bqm", "phys_state"),
    ("bqm.semiclassical_measure", "bmech.bqm", "semiclassical_measure"),
)
# non-recursive method boundaries of the expression layer
METHODS = (
    ("sysdsl.lagrangian_derivs", "bmech.sysdsl", "SystemSpec", "lagrangian_derivs"),
    ("sysdsl.lagrangian_value", "bmech.sysdsl", "SystemSpec", "lagrangian_value"),
)

# (metric, unit): the per-layer metrics, each given per task
PER_LAYER = (
    ("sysdsl.parse.self_s", "s"),
    ("sysdsl.lagrangian_derivs.calls", "count"),
    ("sysdsl.lagrangian_derivs.self_s", "s"),
    ("sysdsl.lagrangian_value.calls", "count"),
    ("classical.solve_classical.calls", "count"),
    ("classical.solve_classical.self_s", "s"),
    ("classical.action_gradient_hessian.calls", "count"),
    ("classical.action_gradient_hessian.self_s", "s"),
    ("classical.newton_iterations", "count"),
    ("classical.hessian_evals_per_solve", "ratio"),
    ("classical.jacobi_and_greens.calls", "count"),
    ("classical.jacobi_and_greens.self_s", "s"),
    ("symplectic.poisson_boundary.calls", "count"),
    ("symplectic.poisson_boundary.self_s", "s"),
    ("symplectic.poisson_covariant.self_s", "s"),
    ("quantize.op_F.self_s", "s"),
    ("quantize.op_G.self_s", "s"),
    ("quantize.shift_operator.self_s", "s"),
    ("quantize.derivative_matrix.self_s", "s"),
    ("bqm.phys_state.calls", "count"),
    ("bqm.phys_state.self_s", "s"),
    ("bqm.action_eval.calls", "count"),
    ("bqm.action_eval.total_s", "s"),
    ("bqm.semiclassical_measure.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
)


class Tracer:
    """Records spans of wrapped package functions; ``install`` patches the
    package, ``uninstall`` puts every original back."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.newton_iterations = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call made inside a task."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack and name != ROOT:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)  # parents precede their children
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                parent = self._stack[-1] if self._stack else -1
                self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attribute, wrapped):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapped)

    def _patch_bindings(self, original, wrapped):
        for modname, module in list(sys.modules.items()):
            if modname == "bmech" or modname.startswith("bmech."):
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attribute, wrapped)

    def install(self):
        for name, modname, attribute in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attribute)
            on_result = (self._count_newton
                         if name == "classical.solve_classical" else None)
            self._patch_bindings(original, self.wrap(name, original, on_result))
        for name, modname, cls_name, attribute in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            self._patch(cls, attribute, self.wrap(name, getattr(cls, attribute)))
        bqm = importlib.import_module("bmech.bqm")
        factory = bqm.make_action_evaluator

        @functools.wraps(factory)
        def make_action_evaluator(*args, **kwargs):
            return self.wrap("bqm.action_eval", factory(*args, **kwargs))

        self._patch_bindings(factory, make_action_evaluator)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _count_newton(self, sol):
        self.newton_iterations += sol.iterations

    # ------------------------------------------------------------------
    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        calls, total, child = {}, {}, {}
        for name, start, end, parent in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
        return {name: (calls[name], total[name], total[name] - child.get(name, 0.0))
                for name in calls}

    def per_layer(self, tasks, bytes_written):
        """The PER_LAYER metrics, each divided by the number of tasks."""
        t = self.totals()
        get = lambda name, k: t.get(name, (0, 0.0, 0.0))[k]  # noqa: E731
        fields = {"calls": 0, "total_s": 1, "self_s": 2}
        solves = get("classical.solve_classical", 0)
        values = {
            "classical.newton_iterations": self.newton_iterations / tasks,
            "classical.hessian_evals_per_solve":
                get("classical.action_gradient_hessian", 0) / solves if solves else 0.0,
            "cli.bytes_written": bytes_written / tasks,
        }
        for metric, _ in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field in fields:
                values[metric] = get(span, fields[field]) / tasks
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit in PER_LAYER}

    def dump(self, path):
        """Write the spans as JSON: start and end in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names,
                       "spans": [[code[n], a - t0, b - t0, p]
                                 for n, a, b, p in self.spans]}, fh)
