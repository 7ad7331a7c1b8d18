"""Memory at the state scale: the README's 0.24-degree California box
(K=1764) with a 0.96-degree neighbour mask.

One dense K x K float array is 24.9 MB, so a peak under 12 MB in any stage
below shows that no dense alpha is built on the fit, I/O, check or predict
paths.
"""

import tracemalloc

import numpy as np
import pytest

from firecast import estimation, model, pipeline, simulation
from firecast.marks import LinearMarkModel

PEAK_LIMIT = 12e6


@pytest.fixture(scope="module")
def state_box():
    grid = pipeline.GridSpec(lat_min=32.0, lon_min=-124.0, lat_max=42.0, lon_max=-114.0, cell_size=0.24)
    mask = model.mask_from_centroids(grid.centroids(), 0.96)
    truth = model.ModelParams(mu=np.full(grid.num_cells, 0.012), alpha=np.where(mask, 0.003, 0.0), beta=1.0,
                              gamma=np.array([0.5, 0.3, 0.7]), mask=mask)
    sim = simulation.SimConfig(params=truth, horizon=15.0, seed=3,
                               mark_sampler=simulation.linear_density_mark_sampler(truth.gamma))
    return truth, sim


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.filterwarnings("ignore:beta line search")
def test_no_stage_builds_a_dense_alpha(state_box, tmp_path):
    truth, sim = state_box
    mm = LinearMarkModel()
    peaks = {}
    seq, peaks["simulate"] = traced_peak(lambda: simulation.simulate(sim))
    assert len(seq) > 100
    feasible = estimation.FeasibleSet.of(truth)
    grid_config = estimation.FitConfig(grid_points=1, pgd_steps=3, beta_low=0.5, beta_high=1.5)
    _, peaks["grid fit"] = traced_peak(lambda: pipeline.fit_stage(seq, mm, grid_config, "grid", feasible))
    alt_config = estimation.FitConfig(pgd_steps=3, max_outer=1)
    fit, peaks["alternating fit"] = traced_peak(lambda: pipeline.fit_stage(seq, mm, alt_config, "alternating", feasible))
    path = tmp_path / "params.json"
    _, peaks["to_json"] = traced_peak(lambda: fit.params.to_json(path))
    back, peaks["from_json"] = traced_peak(lambda: model.ModelParams.from_json(path))
    _, peaks["validate"] = traced_peak(back.validate)
    _, peaks["penalized_objective"] = traced_peak(lambda: model.penalized_objective(back, seq, mm))
    _, peaks["parameter_errors"] = traced_peak(lambda: simulation.parameter_errors(truth, back))
    risk, peaks["risk_series"] = traced_peak(lambda: pipeline.risk_series(back, seq, mm))
    assert risk.shape == (15, truth.num_locations)
    assert np.array_equal(back.src, truth.src) and np.array_equal(back.dst, truth.dst)
    assert max(peaks.values()) < PEAK_LIMIT, peaks
