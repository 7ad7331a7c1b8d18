"""The benchmark's two workloads: seeded inputs, one timed iteration, and
the checks run on what that iteration produced.

Each workload object is built once per process (that is the set-up the
benchmark times as ``setup_s``).  ``run`` is the timed call into firecast;
``check`` runs afterwards, untimed, and returns the fit objective, a digest of
everything the iteration produced, and the list of failed checks.  The
objective is reported per event: its spread across seeds is then a fifth of
the total's (1.9% against 9.9% over ten state-ingest seeds), while a worse
solve still moves it by the same share.

Why these two: regional-run is dominated by the dense fixed-beta kernel
(n x K^2) plus T x K predict, threshold and write cells and ERAPS;
state-ingest reaches the same layers through the read path, the beta line
search, a nonlinear (KDE) mark scorer, a K x K working set beyond L2, and
SRAPS.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from firecast import model, pipeline, simulation
from firecast.events import load_events_csv
from firecast.marks import LinearMarkModel, NonLinearMarkModel, kde_scorer

# Allowed shortfall of conformal coverage below 1 - alpha.  Over 50 seeds,
# state-ingest's ~200 SRAPS test points give coverage sd 0.035-0.042 around
# 1 - alpha, so 0.15 is about 3.5 sd: it fails broken sets, not unlucky draws.
COVERAGE_SLACK = 0.15


@dataclass
class Checked:
    """What one iteration produced, as seen by the checks."""

    fit_objective: float  # penalized objective per event, nats/event
    digest: str
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)  # informational, not checked


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# run_end_to_end workloads


class _EndToEnd:
    """A ``run_end_to_end`` bundle plus the checks on its output directory."""

    name: str
    stages = ["data", "fit", "predict", "eval", "conformal"]
    truth: model.ModelParams
    bundle: dict

    def mark_model(self, seq):
        raise NotImplementedError

    def run(self, out_dir: Path):
        return pipeline.run_end_to_end(self.bundle, out_dir)

    def check(self, out_dir: Path, manifest: dict) -> Checked:
        problems = []
        if manifest["stages"] != self.stages:
            problems.append(f"stages {manifest['stages']} != {self.stages}")
        for name, digest in sorted(manifest["artifacts"].items()):
            if _sha256((out_dir / name).read_bytes()) != digest:
                problems.append(f"{name} does not match its manifest digest")
        fitted = model.ModelParams.from_json(out_dir / "params.json")
        try:
            fitted.validate()
        except ValueError as exc:
            problems.append(f"params.json invalid: {exc}")
        detections = np.loadtxt(out_dir / "detections.csv", delimiter=",", skiprows=1, usecols=(2, 4))
        if not np.all(detections[:, 0] > 0):
            problems.append("risk is not strictly positive")
        if not np.all(np.isin(detections[:, 1], (-1, 1))):
            problems.append("predictions outside {-1, 1}")
        with open(out_dir / "conformal_summary.csv") as fh:
            next(fh)
            for line in fh:
                alpha, coverage = (float(v) for v in line.split(",")[:2])
                if not coverage >= 1 - alpha - COVERAGE_SLACK:
                    problems.append(f"coverage {coverage} at alpha={alpha} below 1-alpha-{COVERAGE_SLACK}")
        seq = load_events_csv(out_dir / "events.csv", self.horizon, self.truth.num_locations)
        objective = model.penalized_objective(fitted, seq, self.mark_model(seq))
        digest = _sha256(json.dumps(manifest["artifacts"], sort_keys=True).encode())
        quality = {
            "estimation.recovery_rel_error": simulation.parameter_errors(self.truth, fitted)["relative"],
            "thresholding.mean_f1": float(
                np.loadtxt(out_dir / "metrics.csv", delimiter=",", skiprows=1, usecols=3, ndmin=1).mean()
            ),
        }
        return Checked(objective / len(seq), digest, problems, quality)


def _grid_cells(rows: int, cols: int) -> np.ndarray:
    """(K, 2) integer (row, col) of each cell of a rows x cols grid, row-major."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.column_stack([r, c])


def _magnitude_sampler(classes: int):
    # the same rule as the simulate stage: the class follows the first mark
    def sampler(rng, marks, location):
        return 1 + min(classes - 1, int(marks[0] * classes))

    return sampler


class RegionalRun(_EndToEnd):
    """Simulate-bundle run on a 20x20 grid with a 3x3-neighbour mask.

    Horizon 240 (n ~ 4.4k) keeps an iteration near 7 s, so one run holds
    several; the dense kernel still dominates (R is n x K = 14 MB, beyond L2).
    """

    name = "regional-run"
    SIDE = 20
    horizon = 240.0

    def __init__(self, seed: int, workdir: Path):
        cells = _grid_cells(self.SIDE, self.SIDE)
        mask = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2) <= 1
        K = len(cells)
        # baseline varies smoothly across the grid; ||mu||_2 and ||alpha||_F < 1
        mu = 0.04 + 0.02 * np.sin(cells[:, 0] / 3.0) * np.cos(cells[:, 1] / 4.0)
        alpha = np.where(mask, 0.012, 0.0)
        alpha[np.arange(K), np.arange(K)] = 0.03
        self.truth = model.ModelParams(
            mu=mu, alpha=alpha, beta=1.0, gamma=np.array([0.6, 0.8]), mask=mask
        ).validate()
        params_file = workdir / "regional_truth.json"
        self.truth.to_json(params_file)
        self.bundle = {
            "seed": seed,
            "simulate": {
                "params_file": str(params_file),
                "horizon": self.horizon,
                "magnitude_classes": 3,
            },
            "fit": {"method": "grid", "grid_points": 2, "pgd_steps": 8, "beta_low": 0.5, "beta_high": 1.5},
            "predict": {"screening": True},
            "conformal": {
                "method": "eraps",
                "num_bootstrap": 10,
                "batch_size": 10,
                "alphas": [0.05, 0.1, 0.2],
                "train_fraction": 0.6,
            },
        }

    def mark_model(self, seq):
        return LinearMarkModel()


class StateIngest(_EndToEnd):
    """Ingest-bundle run over the README's 0.24-degree California box.

    Set-up simulates events on the box's 42 x 42 cells and writes them as an
    incident CSV: a jittered lat/lon inside the event's cell, three weather
    columns with about a tenth of the entries left empty for the spline
    imputation, and a magnitude class.  Horizon 15 (n ~ 520) and one outer
    iteration of 3 steps keep an iteration near 8 s; the K x K arrays (25 MB)
    are the same size at any horizon.
    """

    name = "state-ingest"
    GRID = {"lat_min": 32.0, "lon_min": -124.0, "lat_max": 42.0, "lon_max": -114.0, "cell_size": 0.24}
    NEIGHBOR_RADIUS = 0.96
    MARK_COLUMNS = ("temperature", "humidity", "wind_speed")
    MISSING_SHARE = 0.1
    horizon = 15.0

    def __init__(self, seed: int, workdir: Path):
        grid = pipeline.GridSpec(**self.GRID)
        mask = model.mask_from_centroids(grid.centroids(), self.NEIGHBOR_RADIUS)
        K = grid.num_cells
        rows, cols = grid.shape
        cells = _grid_cells(rows, cols)
        # a hot south-east, a cool north-west; ||mu||_2 < 1, ||alpha||_F < 1
        mu = 0.012 + 0.02 * (cells[:, 0] < rows / 2) * (cells[:, 1] > cols / 2)
        alpha = np.where(mask, 0.003, 0.0)
        gamma = np.array([0.5, 0.3, 0.7])
        self.truth = model.ModelParams(mu=mu, alpha=alpha, beta=1.0, gamma=gamma, mask=mask).validate()
        seq = simulation.simulate(
            simulation.SimConfig(
                params=self.truth,
                horizon=self.horizon,
                seed=seed,
                mark_sampler=simulation.linear_density_mark_sampler(gamma),
                magnitude_sampler=_magnitude_sampler(3),
            )
        )
        csv_path = workdir / "state_incidents.csv"
        self._write_incidents(csv_path, seq, grid, np.random.default_rng([seed, 1]))
        self.bundle = {
            "seed": seed,
            "ingest": {
                "csv": str(csv_path),
                "grid": grid.to_dict(),
                "neighbor_radius": self.NEIGHBOR_RADIUS,
                "horizon": self.horizon,
            },
            "fit": {"method": "alternating", "mark_model": "kde", "pgd_steps": 3, "max_outer": 1},
            "predict": {"screening": True},
            "conformal": {"method": "sraps", "alphas": [0.1, 0.2], "train_fraction": 0.6},
        }

    def _write_incidents(self, path: Path, seq, grid: pipeline.GridSpec, rng) -> None:
        size = grid.cell_size
        with open(path, "w") as fh:
            fh.write(",".join(("time", "lat", "lon", "magnitude") + self.MARK_COLUMNS) + "\n")
            for i in range(len(seq)):
                row, col = grid.rowcol_of(int(seq.locations[i]))
                # stay clear of cell edges so the point maps back to its cell
                lat = grid.lat_min + (row + rng.uniform(0.05, 0.95)) * size
                lon = grid.lon_min + (col + rng.uniform(0.05, 0.95)) * size
                lat, lon = min(lat, grid.lat_max - 1e-6), min(lon, grid.lon_max - 1e-6)
                marks = [
                    "" if rng.uniform() < self.MISSING_SHARE else repr(float(v)) for v in seq.marks[i]
                ]
                fh.write(
                    ",".join([repr(float(seq.times[i])), repr(lat), repr(lon), str(int(seq.magnitudes[i]))] + marks)
                    + "\n"
                )

    def mark_model(self, seq):
        return NonLinearMarkModel(kde_scorer(seq.marks))


WORKLOADS = {w.name: w for w in (RegionalRun, StateIngest)}
