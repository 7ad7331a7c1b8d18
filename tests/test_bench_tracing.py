"""The benchmark tracer patches library callables by name (``bench/tracing.py``).

A refactor that drops or moves one of those names must fail here, in the
test suite, and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from firecast import conformal, estimation, marks, model, pipeline, simulation, thresholding

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
