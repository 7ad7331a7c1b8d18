"""The benchmark tracer patches library callables by name (``bench/tracing.py``).

A refactor that drops or moves one of those names must fail here, in the
test suite, and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from firecast import conformal, estimation, marks, model, pipeline, simulation, thresholding

from oracles import kernel_case

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (
    conformal, estimation, marks, model, pipeline, simulation, thresholding,
    marks.LinearMarkModel, marks.NonLinearMarkModel, model.ModelParams, conformal.LogisticClassifier,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {(owner, attr): value for owner in OWNERS for attr, value in vars(owner).items()}


def test_install_patches_and_uninstall_restores():
    before = _snapshot()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        during = _snapshot()
    finally:
        tracer.uninstall()
    patched = {key for key, value in during.items() if value is not before.get(key)}
    for cls in (marks.LinearMarkModel, marks.NonLinearMarkModel):
        assert {(cls, "score"), (cls, "event_scores")} <= patched
    assert (pipeline, "risk_series") in patched
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_eraps_nests_one_fit_span_per_bootstrap_model():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(60, 2)), np.arange(60) % 3
    tracer = _load_tracing().Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        conformal.eraps(X[:40], y[:40], X[40:], y[40:], num_bootstrap=3, batch_size=5, alphas=[0.1])
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    eraps_spans = [i for i, name in enumerate(names) if name == "conformal.eraps"]
    fit_spans = [i for i, name in enumerate(names) if name == "conformal.LogisticClassifier.fit"]
    assert len(eraps_spans) == 1 and len(fit_spans) == 3
    assert all(tracer.parent[i] == eraps_spans[0] for i in fit_spans)
    assert tracer.iteration_metrics(0)["conformal.classifier_fits"] == 3


def test_traced_fits_nest_one_solver_span_per_pgd_fit():
    # pgd_fit takes an Objective; the tracer still sees each solve and the beta search
    params, seq = kernel_case("partial")
    mm = marks.NonLinearMarkModel(marks.kde_scorer(seq.marks))
    config = estimation.FitConfig(grid_points=2, pgd_steps=5, max_outer=3, eps_beta=1e-12)
    feasible = estimation.FeasibleSet(params.mask)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for iteration, fit in enumerate((estimation.grid_fit, estimation.alternating_fit)):
            tracer.iteration = iteration
            fit(seq, mm, config, feasible)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    for iteration in (0, 1):
        spans = [i for i in range(len(names)) if tracer.iteration_id[i] == iteration]
        fits = [i for i in spans if names[i] == "estimation.pgd_fit"]
        solvers = [i for i in spans if names[i] == "estimation.projected_gradient_descent"]
        assert len(fits) >= 3 and sorted(tracer.parent[i] for i in solvers) == fits
        metrics = tracer.iteration_metrics(iteration)
        assert metrics["estimation.solves"] == len(fits)
        assert metrics["marks.event_score_calls"] == 1
    assert tracer.iteration_metrics(1)["estimation.beta_search_s"] > 0
