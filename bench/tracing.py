"""Outside-in tracing of firecast: spans around the library's public callables.

``Tracer.install`` replaces each traced callable where the library looks it
up (a module attribute or a class attribute) by a wrapper that records a
span: name, start, end, parent span and iteration id.  ``uninstall`` puts
the originals back, so untimed checks and untraced iterations run the
library unchanged.  Spans stay in memory (compact arrays) until ``write``.

A span's layer is the firecast module its name starts with; a layer's self
time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import statistics
import time
import warnings
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from firecast import conformal, estimation, marks, model, pipeline, simulation, thresholding

LAYERS = ("simulation", "model", "estimation", "marks", "pipeline", "thresholding", "conformal")

ARTIFACT_WRITERS = (
    "write_fit_trace_csv",
    "write_detections_csv",
    "write_metrics_csv",
    "write_conformal_sets_jsonl",
    "write_conformal_summary_csv",
)
# every span that writes an output file; together they make pipeline.write_s
WRITERS = ("pipeline.save_events_csv", "model.ModelParams.to_json") + tuple(
    f"pipeline.{w}" for w in ARTIFACT_WRITERS
)

# counts that must repeat exactly across traced iterations of the same code
DETERMINISTIC = (
    "estimation.grad_evals",
    "estimation.obj_evals",
    "estimation.halvings",
    "marks.score_calls",
    "conformal.build_set_calls",
    "conformal.classifier_fits",
    "model.excitation_calls",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.iteration_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iteration = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # per iteration: values the wrappers read off arguments and results
        self.values: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))

    # -- spans ------------------------------------------------------------

    def open_span(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration_id.append(self.iteration)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def record(self, key: str, value: float) -> None:
        self.values[self.iteration][key].append(float(value))

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span has closed."""

        def wrapper(*args, **kwargs):
            idx = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, name: str | None = None, after=None, make=None) -> None:
        """Replace ``owner.attr`` by a span named ``name``, or by ``make(original)``."""
        original = owner.__dict__[attr]
        wrapped = make(original) if make is not None else self.span(name, original, after)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        rec = self.record

        def file_size(pos):
            # the path argument of a writer; to_json without one writes no file
            def after(args, kwargs, _):
                if len(args) > pos:
                    rec("pipeline.write_bytes", Path(args[pos]).stat().st_size)

            return after

        self._patch(simulation, "simulate", "simulation.simulate",
                    after=lambda a, k, seq: rec("simulation.events", len(seq)))
        # bytes of R computed from its shape (n x K x 8), not measured memory traffic
        self._patch(model, "excitation_matrix", "model.excitation_matrix",
                    after=lambda a, k, R: rec("model.excitation_bytes", R.nbytes))
        self._patch(model, "penalized_objective", "model.penalized_objective")
        self._patch(model.ModelParams, "to_json", "model.ModelParams.to_json",
                    after=file_size(1))
        self._patch(estimation, "projected_gradient_descent", make=self._wrap_solver)
        self._patch(estimation, "pgd_fit", "estimation.pgd_fit")
        self._patch(estimation, "grid_fit", "estimation.grid_fit",
                    after=lambda a, k, fit: rec("estimation.failed_grid_points",
                                                int((~np.isfinite(fit.grid_objectives)).sum())))
        self._patch(estimation, "alternating_fit", make=self._wrap_alternating)
        self._patch(marks.LinearMarkModel, "score", "marks.LinearMarkModel.score")
        self._patch(marks.LinearMarkModel, "event_scores", "marks.LinearMarkModel.event_scores")
        self._patch(marks.NonLinearMarkModel, "score", "marks.NonLinearMarkModel.score")
        self._patch(marks.NonLinearMarkModel, "event_scores", "marks.NonLinearMarkModel.event_scores")
        self._patch(pipeline, "run_end_to_end", "pipeline.run_end_to_end")
        self._patch(pipeline, "ingest", "pipeline.ingest",
                    after=lambda a, k, res: rec("pipeline.ingest_rows", len(res.sequence) + res.dropped_outside))
        self._patch(pipeline, "impute_series", "pipeline.impute_series")
        self._patch(pipeline, "risk_series", "pipeline.risk_series",
                    after=lambda a, k, risk: rec("pipeline.risk_cells", risk.size))
        self._patch(pipeline, "save_events_csv", "pipeline.save_events_csv", after=file_size(1))
        for attr in ARTIFACT_WRITERS:
            self._patch(pipeline, attr, f"pipeline.{attr}", after=file_size(0))
        self._patch(thresholding, "detect", "thresholding.detect",
                    after=lambda a, k, tr: rec("thresholding.cells", tr.risk.size))
        for method in ("eraps", "sraps"):
            self._patch(conformal, method, f"conformal.{method}", after=self._conformal_result)
        self._patch(conformal, "build_set", "conformal.build_set")
        self._patch(conformal.LogisticClassifier, "fit", "conformal.LogisticClassifier.fit")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap_solver(self, original):
        """Solver span, with its objective and gradient callbacks wrapped and
        the final projected-gradient residual computed by one extra gradient."""

        def solver(x0, grad_fn, project_fn, steps, kappa, objective_fn=None, prox_fn=None, **kwargs):
            idx = self.open_span("estimation.projected_gradient_descent")
            try:
                x, trace = original(
                    x0,
                    self.span("estimation.grad_fn", grad_fn),
                    project_fn,
                    steps,
                    kappa,
                    objective_fn=None if objective_fn is None else self.span("estimation.objective_fn", objective_fn),
                    prox_fn=prox_fn,
                    **kwargs,
                )
            finally:
                self.close_span(idx)
            self.record("estimation.steps", steps)
            self.record("estimation.residual", self.span("bench.residual", _residual)(x, grad_fn, project_fn, prox_fn))
            return x, trace

        return solver

    def _wrap_alternating(self, original):
        """Span that also counts the beta line search's boundary warnings."""

        def alternating(*args, **kwargs):
            idx = self.open_span("estimation.alternating_fit")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fit = original(*args, **kwargs)
            finally:
                self.close_span(idx)
            hits = sum("boundary" in str(w.message) for w in caught)
            self.record("estimation.beta_boundary_hits", hits)
            self.record("estimation.outer_iterations", fit.outer_iterations)
            return fit

        return alternating

    def _conformal_result(self, args, kwargs, run) -> None:
        self.record("conformal.loo_fallbacks", run.loo_fallbacks)
        # alpha = 0.1 is requested by both conformal workloads
        self.record("conformal.coverage", run.coverage[0.1])
        self.record("conformal.mean_size", run.mean_size[0.1])

    # -- reduction --------------------------------------------------------

    def iteration_metrics(self, iteration: int) -> dict[str, float]:
        """Per-layer metrics of one traced iteration."""
        ids = [i for i in range(len(self.start)) if self.iteration_id[i] == iteration]
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        alt_objective_calls = 0
        alt_pgd_time = 0.0
        for i in ids:
            dur = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            count[name] += 1
            total[name] += dur
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur
                if self.names[self.name_id[p]] == "estimation.alternating_fit":
                    alt_objective_calls += name == "model.penalized_objective"
                    alt_pgd_time += dur if name == "estimation.pgd_fit" else 0.0
        for i in ids:
            layer = self.names[self.name_id[i]].split(".", 1)[0]
            self_time[layer] += self.end[i] - self.start[i] - child_time[i]

        vals = self.values[iteration]

        def sum_of(key):
            return float(sum(vals.get(key, [])))

        solves = count["estimation.projected_gradient_descent"]
        steps = sum_of("estimation.steps")
        obj_evals = count["estimation.objective_fn"]
        trial_evals = obj_evals - solves
        out = {
            "simulation.simulate_s": total["simulation.simulate"],
            "simulation.events": sum_of("simulation.events"),
            "model.excitation_calls": count["model.excitation_matrix"],
            "model.excitation_s": total["model.excitation_matrix"],
            "model.excitation_bytes": sum_of("model.excitation_bytes"),
            "model.objective_calls": count["model.penalized_objective"],
            "model.objective_s": total["model.penalized_objective"],
            "estimation.solves": solves,
            "estimation.steps": steps,
            "estimation.grad_evals": count["estimation.grad_fn"],
            "estimation.obj_evals": obj_evals,
            # each solve: one initial evaluation, one per accepted step, one per halving
            "estimation.halvings": obj_evals - solves - steps if solves else 0,
            "estimation.grad_s": total["estimation.grad_fn"],
            "estimation.obj_s": total["estimation.objective_fn"],
            "estimation.solve_s": total["estimation.projected_gradient_descent"],
            "estimation.step_accept_ratio": steps / trial_evals if trial_evals else 0.0,
            "estimation.residual": max(vals.get("estimation.residual", [0.0])),
            "estimation.failed_grid_points": sum_of("estimation.failed_grid_points"),
            "estimation.beta_search_s": total["estimation.alternating_fit"] - alt_pgd_time,
            "estimation.beta_search_evals": alt_objective_calls,
            "estimation.beta_boundary_hits": sum_of("estimation.beta_boundary_hits"),
            "estimation.outer_iterations": sum_of("estimation.outer_iterations"),
            "estimation.recovery_rel_error": sum_of("estimation.recovery_rel_error"),
            "marks.score_calls": count["marks.LinearMarkModel.score"] + count["marks.NonLinearMarkModel.score"],
            "marks.score_s": total["marks.LinearMarkModel.score"] + total["marks.NonLinearMarkModel.score"],
            "marks.event_score_calls": count["marks.LinearMarkModel.event_scores"]
            + count["marks.NonLinearMarkModel.event_scores"],
            "marks.event_score_s": total["marks.LinearMarkModel.event_scores"]
            + total["marks.NonLinearMarkModel.event_scores"],
            "pipeline.ingest_s": total["pipeline.ingest"],
            "pipeline.ingest_rows": sum_of("pipeline.ingest_rows"),
            "pipeline.impute_calls": count["pipeline.impute_series"],
            "pipeline.risk_series_s": total["pipeline.risk_series"],
            "pipeline.risk_cells": sum_of("pipeline.risk_cells"),
            "pipeline.write_s": sum(total[w] for w in WRITERS),
            "pipeline.write_bytes": sum_of("pipeline.write_bytes"),
            "thresholding.detect_s": total["thresholding.detect"],
            "thresholding.cells": sum_of("thresholding.cells"),
            "thresholding.mean_f1": sum_of("thresholding.mean_f1"),
            "conformal.method_s": total["conformal.eraps"] + total["conformal.sraps"],
            "conformal.classifier_fits": count["conformal.LogisticClassifier.fit"],
            "conformal.classifier_fit_s": total["conformal.LogisticClassifier.fit"],
            "conformal.build_set_calls": count["conformal.build_set"],
            "conformal.build_set_s": total["conformal.build_set"],
            "conformal.loo_fallbacks": sum_of("conformal.loo_fallbacks"),
            "conformal.coverage": sum_of("conformal.coverage"),
            "conformal.mean_size": sum_of("conformal.mean_size"),
            "trace.spans": len(ids),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return {k: float(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """All spans as CSV: iteration, span id, parent id, name, start, end."""
        with open(path, "w") as fh:
            fh.write("iteration,span,parent,name,start,end\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.iteration_id[i]},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def _residual(x, grad_fn, project_fn, prox_fn) -> float:
    """Norm of the unit-step gradient mapping x - P(prox(x - grad(x)))."""
    y = x - grad_fn(x)
    if prox_fn is not None:
        y = prox_fn(y, 1.0)
    return float(np.linalg.norm(x - project_fn(y)))


def reduce_iterations(per_iteration: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over traced iterations, and the deterministic
    counters that did not repeat exactly."""
    merged = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    unstable = [k for k in DETERMINISTIC if len({m[k] for m in per_iteration}) > 1]
    return merged, unstable
