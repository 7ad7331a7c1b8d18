"""Data ingestion, spatial gridding, evaluation metrics, and end-to-end runs.

Raw incident files carry either latitude/longitude pairs (mapped onto a
square grid, default 0.24-degree cells) or precomputed cell ids.  Continuous
mark columns are imputed per location with a degree-5 spline over time
(linear below six observed points, then constant fill), standardized, and
min-max scaled to [0, 1]; scaling statistics are fitted once on training
data and can be frozen for later files.  ``scipy.interpolate`` is imported
only when a location needs the spline, so ingesting a file without missing
marks does not load scipy.

The chain runs through one function per stage: ``build_mark_model``,
``fit_stage``, ``predict_stage`` and ``conformal_stage``.  ``run_end_to_end``
and the CLI subcommands both call them; ``run_end_to_end`` chains them after
simulate-or-ingest and writes every artifact plus a reproducibility manifest.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import conformal as conformal_mod
from . import estimation, model, simulation, thresholding
from .events import EventSequence, save_events_csv
from .marks import LinearMarkModel, NonLinearMarkModel, kde_scorer
from .model import ModelParams, RATE_FLOOR


class PipelineError(RuntimeError):
    """Stage-tagged failure; partial artifacts already written are retained."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


# ---------------------------------------------------------------------------
# spatial grid


@dataclass(frozen=True)
class GridSpec:
    """Square-cell discretization of a bounding box.

    Retained cells (those not excluded, e.g. ocean) get compact ids
    0..K-1 in row-major order; ``excluded`` holds full-grid row-major
    indices.
    """

    lat_min: float
    lon_min: float
    lat_max: float
    lon_max: float
    cell_size: float = 0.24
    excluded: tuple[int, ...] = ()

    def __post_init__(self):
        if self.lat_max <= self.lat_min or self.lon_max <= self.lon_min:
            raise ValueError("bounding box is empty")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        # tolerate float error when the span is an exact multiple of the cell
        n_rows = max(1, math.ceil((self.lat_max - self.lat_min) / self.cell_size - 1e-9))
        n_cols = max(1, math.ceil((self.lon_max - self.lon_min) / self.cell_size - 1e-9))
        excluded = set(self.excluded)
        retained = [i for i in range(n_rows * n_cols) if i not in excluded]
        if not retained:
            raise ValueError("all grid cells are excluded")
        compact = {full: cid for cid, full in enumerate(retained)}
        object.__setattr__(self, "_n_rows", n_rows)
        object.__setattr__(self, "_n_cols", n_cols)
        object.__setattr__(self, "_retained", tuple(retained))
        object.__setattr__(self, "_compact", compact)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n_rows, self._n_cols)

    @property
    def num_cells(self) -> int:
        return len(self._retained)

    def cell_of(self, lat: float, lon: float) -> int | None:
        """Compact cell id for a coordinate; None if outside or excluded."""
        if not (self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max):
            return None
        row = min(int((lat - self.lat_min) / self.cell_size), self._n_rows - 1)
        col = min(int((lon - self.lon_min) / self.cell_size), self._n_cols - 1)
        return self._compact.get(row * self._n_cols + col)

    def rowcol_of(self, cell_id: int) -> tuple[int, int]:
        row, col = divmod(self._retained[cell_id], self._n_cols)
        return int(row), int(col)

    def cell_at(self, row: int, col: int) -> int | None:
        """Compact id of the cell at (row, col); None if excluded/out of range."""
        if not (0 <= row < self._n_rows and 0 <= col < self._n_cols):
            return None
        return self._compact.get(row * self._n_cols + col)

    def centroid(self, cell_id: int) -> tuple[float, float]:
        # clamped into the box so edge cells truncated by the boundary still
        # round-trip through cell_of
        full = self._retained[cell_id]
        row, col = divmod(full, self._n_cols)
        return (
            min(self.lat_min + (row + 0.5) * self.cell_size, self.lat_max),
            min(self.lon_min + (col + 0.5) * self.cell_size, self.lon_max),
        )

    def centroids(self) -> np.ndarray:
        return np.array([self.centroid(cid) for cid in range(self.num_cells)])

    def to_dict(self) -> dict:
        return {
            "lat_min": self.lat_min,
            "lon_min": self.lon_min,
            "lat_max": self.lat_max,
            "lon_max": self.lon_max,
            "cell_size": self.cell_size,
            "excluded": list(self.excluded),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(
            lat_min=float(d["lat_min"]),
            lon_min=float(d["lon_min"]),
            lat_max=float(d["lat_max"]),
            lon_max=float(d["lon_max"]),
            cell_size=float(d.get("cell_size", 0.24)),
            excluded=tuple(int(i) for i in d.get("excluded", ())),
        )


# ---------------------------------------------------------------------------
# preprocessing


SPLINE_DEGREE = 5


@dataclass
class MarkStats:
    """Frozen scaling statistics: standardize then min-max per column.

    Zero-variance columns skip standardization and map to a constant 0.5.
    """

    columns: list
    mean: np.ndarray
    std: np.ndarray
    z_min: np.ndarray
    z_max: np.ndarray
    categories: dict = field(default_factory=dict)  # column -> sorted category values

    def transform(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values, dtype=float)
        for j in range(values.shape[1]):
            col = values[:, j]
            if self.std[j] <= 0 or self.z_max[j] <= self.z_min[j]:
                out[:, j] = 0.5
                continue
            z = (col - self.mean[j]) / self.std[j]
            out[:, j] = (z - self.z_min[j]) / (self.z_max[j] - self.z_min[j])
        return np.clip(out, 0.0, 1.0)

    @classmethod
    def fit(cls, values: np.ndarray, columns, categories=None) -> "MarkStats":
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        z_min = np.zeros(values.shape[1])
        z_max = np.zeros(values.shape[1])
        for j in range(values.shape[1]):
            if std[j] > 1e-12:
                z = (values[:, j] - mean[j]) / std[j]
                z_min[j], z_max[j] = z.min(), z.max()
            else:
                std[j] = 0.0
        return cls(
            columns=list(columns),
            mean=mean,
            std=std,
            z_min=z_min,
            z_max=z_max,
            categories=categories or {},
        )


def impute_series(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fill NaNs in a time series by a degree-``SPLINE_DEGREE`` spline through
    the observed points, by linear interpolation below SPLINE_DEGREE + 1 of them
    and by a constant below two.  Duplicate timestamps are averaged before fitting."""
    values = np.asarray(values, dtype=float).copy()
    observed = ~np.isnan(values)
    if observed.all():
        return values
    n_obs = int(observed.sum())
    if n_obs == 0:
        return values
    t_obs, v_obs = times[observed], values[observed]
    uniq, inverse = np.unique(t_obs, return_inverse=True)
    if len(uniq) != len(t_obs):
        v_uniq = np.zeros(len(uniq))
        counts = np.bincount(inverse)
        np.add.at(v_uniq, inverse, v_obs)
        v_uniq /= counts
        t_obs, v_obs = uniq, v_uniq
    missing = ~observed
    if len(t_obs) == 1:
        values[missing] = v_obs[0]
    elif len(t_obs) <= SPLINE_DEGREE:
        values[missing] = np.interp(times[missing], t_obs, v_obs)
    else:
        from scipy.interpolate import InterpolatedUnivariateSpline

        spline = InterpolatedUnivariateSpline(t_obs, v_obs, k=SPLINE_DEGREE, ext=3)
        values[missing] = spline(times[missing])
    return values


@dataclass
class IngestResult:
    sequence: EventSequence
    stats: MarkStats
    dropped_outside: int
    messages: list


def _read_raw_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append((lineno, row))
    return header, rows


def ingest(
    csv_path,
    grid: GridSpec | None = None,
    categorical_columns: tuple[str, ...] = (),
    horizon: float | None = None,
    stats: MarkStats | None = None,
) -> IngestResult:
    """Read an incident CSV into a preprocessed event sequence.

    The file needs a ``time`` column plus either ``location`` (cell ids) or
    ``lat``/``lon`` (mapped through ``grid``).  Every remaining column except
    ``magnitude`` is a mark; columns listed in ``categorical_columns`` are
    one-hot encoded, the rest are imputed and rescaled.  Events outside
    the grid are dropped and counted.  Pass ``stats`` to reuse scaling
    statistics fitted on training data.
    """
    header, rows = _read_raw_csv(csv_path)
    cols = {name: i for i, name in enumerate(header)}
    if "time" not in cols:
        raise ValueError(f"{csv_path}: missing 'time' column")
    has_coords = "lat" in cols and "lon" in cols
    if not has_coords and "location" not in cols:
        raise ValueError(f"{csv_path}: need either 'location' or 'lat'/'lon' columns")
    if has_coords and grid is None:
        raise ValueError("coordinate input requires a GridSpec")
    reserved = {"time", "lat", "lon", "location", "magnitude"}
    mark_cols = [name for name in header if name not in reserved]

    times, locs, mags = [], [], []
    raw_marks: dict[str, list] = {name: [] for name in mark_cols}
    dropped = 0
    messages: list[str] = []
    for lineno, row in rows:
        try:
            t = float(row[cols["time"]])
            if has_coords:
                cell = grid.cell_of(float(row[cols["lat"]]), float(row[cols["lon"]]))
            else:
                cell = int(row[cols["location"]])
                if grid is not None and not 0 <= cell < grid.num_cells:
                    cell = None
            if cell is None:
                dropped += 1
                continue
            times.append(t)
            locs.append(cell)
            if "magnitude" in cols:
                mags.append(int(row[cols["magnitude"]]))
            for name in mark_cols:
                raw = row[cols[name]].strip()
                if name in categorical_columns:
                    raw_marks[name].append(raw)
                else:
                    raw_marks[name].append(float(raw) if raw else np.nan)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{csv_path}:{lineno}: unparseable row: {exc}") from exc
    if dropped:
        messages.append(f"dropped {dropped} events outside the grid")
    if not times:
        raise ValueError(f"{csv_path}: no events retained")

    order = np.argsort(np.asarray(times), kind="stable")
    times_arr = np.asarray(times, dtype=float)[order]
    locs_arr = np.asarray(locs, dtype=np.int64)[order]

    # expand categoricals (categories frozen with the stats), keep numerics
    categories = dict(stats.categories) if stats is not None else {}
    out_cols: list[str] = []
    out_vals: list[np.ndarray] = []
    for name in mark_cols:
        if name in categorical_columns:
            column = [raw_marks[name][i] for i in order]
            if name not in categories:
                categories[name] = sorted(set(column))
            for cat in categories[name]:
                out_cols.append(f"{name}={cat}")
                out_vals.append(np.array([1.0 if v == cat else 0.0 for v in column]))
        else:
            col = np.asarray(raw_marks[name], dtype=float)[order]
            for k in np.unique(locs_arr):
                sel = locs_arr == k
                col[sel] = impute_series(times_arr[sel], col[sel])
            if np.isnan(col).any():  # locations with zero observed values
                fill = np.nanmean(col) if not np.isnan(col).all() else 0.0
                col = np.where(np.isnan(col), fill, col)
            out_cols.append(name)
            out_vals.append(col)
    values = np.column_stack(out_vals) if out_vals else np.zeros((len(times_arr), 0))

    if stats is None:
        stats = MarkStats.fit(values, out_cols, categories)
    elif stats.columns != out_cols:
        raise ValueError(f"frozen statistics cover columns {stats.columns}, file has {out_cols}")
    scaled = stats.transform(values) if values.shape[1] else values

    if horizon is None:
        horizon = float(math.ceil(times_arr[-1])) if len(times_arr) else 1.0
    K = grid.num_cells if grid is not None else int(locs_arr.max()) + 1
    seq = EventSequence(
        times=times_arr,
        locations=locs_arr,
        marks=scaled,
        horizon=horizon,
        num_locations=K,
        magnitudes=np.asarray(mags, dtype=np.int64)[order] if mags else None,
    )
    return IngestResult(sequence=seq, stats=stats, dropped_outside=dropped, messages=messages)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def f1_metrics(predictions: np.ndarray, truths: np.ndarray) -> MetricsReport:
    """Per-location precision/recall/F1 with the 0/0 -> 1 convention.

    A location with no fires and no alarms counts as perfect; F1 is 0 when
    precision and recall are both 0.
    """
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.ndim != 2:
        raise ValueError("predictions and truths must be aligned (steps, locations) arrays")
    predicted, fired = predictions == 1, truths == 1
    V = predicted.sum(axis=0)
    U = fired.sum(axis=0)
    hits = (predicted & fired).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(V > 0, hits / V, 1.0)
        recall = np.where(U > 0, hits / U, 1.0)
        both = precision + recall
        f1 = np.where(both > 0, 2 * precision * recall / both, 0.0)
    counts, edges = np.histogram(f1, bins=10, range=(0.0, 1.0))
    return MetricsReport(precision=precision, recall=recall, f1=f1, hist_counts=counts, hist_edges=edges)


# ---------------------------------------------------------------------------
# risk series and day-level truths


def daily_truths(seq: EventSequence, num_days: int) -> np.ndarray:
    """(num_days, K) matrix, +1 where day (d-1, d] saw an event, else -1."""
    truth = np.full((num_days, seq.num_locations), -1, dtype=np.int64)
    day = np.maximum(1, np.ceil(seq.times)).astype(np.int64)
    keep = day <= num_days
    truth[day[keep] - 1, seq.locations[keep]] = 1
    return truth


def query_marks_by_location(seq: EventSequence) -> np.ndarray:
    """Per-location mean training mark, used as the query mark vector."""
    K, p = seq.num_locations, seq.mark_dim
    out = np.full((K, p), 0.5)
    if len(seq):
        overall = seq.marks.mean(axis=0)
        for k in range(K):
            sel = seq.locations == k
            out[k] = seq.marks[sel].mean(axis=0) if sel.any() else overall
    return out


def risk_series(
    params: ModelParams,
    seq: EventSequence,
    mark_model,
    times: np.ndarray | None = None,
    query_marks: np.ndarray | None = None,
) -> np.ndarray:
    """Predicted intensity lambda(t, k, m) on a time grid, floored at RATE_FLOOR.

    ``times`` defaults to day ends 1..floor(horizon); ``query_marks`` is a
    (K, p) matrix of mark vectors, defaulting to per-location training means.
    The marks of the whole (time, location) grid are scored in one
    ``mark_model.scores`` call.
    """
    if times is None:
        times = np.arange(1.0, math.floor(seq.horizon) + 1.0)
    times = np.asarray(times, dtype=float)
    if query_marks is None:
        query_marks = query_marks_by_location(seq)
    K = seq.num_locations
    mu, beta = params.mu, params.beta
    # an event at k adds beta * alpha[k, dst] over k's pairs, the rest 0
    starts, dst, jumps = params.row_starts(), params.dst, beta * params.alpha_values

    ground = np.zeros((len(times), K))
    excite = np.zeros(K)
    t_cur = 0.0
    ei = 0
    ev_times, ev_locs = seq.times, seq.locations
    for idx, t in enumerate(times):
        while ei < len(ev_times) and ev_times[ei] < t:
            excite *= np.exp(-beta * (ev_times[ei] - t_cur))
            row = slice(starts[ev_locs[ei]], starts[ev_locs[ei] + 1])
            excite[dst[row]] += jumps[row]
            t_cur = ev_times[ei]
            ei += 1
        ground[idx] = mu + excite * np.exp(-beta * (t - t_cur))

    T = len(times)
    S = mark_model.scores(params.gamma, np.tile(query_marks, (T, 1)), np.repeat(times, K), np.tile(np.arange(K), T))
    return np.maximum(ground * S.reshape(T, K), RATE_FLOOR)


def counterfactual_delta(
    params: ModelParams,
    seq: EventSequence,
    mark_model,
    t: float,
    k: int,
    marks_a: np.ndarray,
    marks_b: np.ndarray,
) -> dict:
    """Risk change at (t, k) when the external condition switches from A to
    B: the predict stage's ``risk_series`` at time t, every location
    queried under each mark vector, so a query costs O(n K)."""
    K = seq.num_locations
    if not 0 <= t <= seq.horizon:
        raise ValueError(f"query time {t} outside [0, {seq.horizon}]")
    if not 0 <= k < K:
        raise ValueError(f"location {k} outside [0, {K})")
    lam_a, lam_b = (
        float(risk_series(params, seq, mark_model, times=[t], query_marks=np.tile(marks, (K, 1)))[0, k])
        for marks in (marks_a, marks_b)
    )
    return {"lambda_a": lam_a, "lambda_b": lam_b, "delta": lam_b - lam_a}


# ---------------------------------------------------------------------------
# artifact writers (deterministic byte-for-byte)


def write_fit_trace_csv(path, trace: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("iter,objective\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{float(v)!r}\n")


DETECTIONS_HEADER = "time,location,risk,threshold,prediction,truth"


def write_detections_csv(path, trace: thresholding.DetectionTrace, times=None) -> None:
    """One ``time,location,risk,threshold,prediction,truth`` row per cell,
    day-major; each day's rows are joined from strings formatted once per
    column (labels must be -1 or 1)."""
    T, K = trace.risk.shape
    if times is None:
        times = np.arange(1, T + 1)
    labels = np.stack([trace.prediction, trace.truth])
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("predictions and truths must be -1 or 1")
    # tail index: 2 * (prediction == 1) + (truth == 1)
    tails = (",-1,-1\n", ",-1,1\n", ",1,-1\n", ",1,1\n")
    tail_index = 2 * (trace.prediction == 1) + (trace.truth == 1)
    locations = [f",{k}," for k in range(K)]
    risk = np.asarray(trace.risk, dtype=float)
    threshold = np.asarray(trace.threshold, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(DETECTIONS_HEADER + "\n")
        for t in range(T):
            parts = zip(
                itertools.repeat(repr(float(times[t]))),
                locations,
                map(repr, risk[t].tolist()),
                itertools.repeat(","),
                map(repr, threshold[t].tolist()),
                map(tails.__getitem__, tail_index[t].tolist()),
            )
            fh.write("".join(itertools.chain.from_iterable(parts)))


def read_detections_csv(path) -> thresholding.DetectionTrace:
    """Read what :func:`write_detections_csv` wrote; rows may come in any order,
    columns must come in the writer's order."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DETECTIONS_HEADER:
            raise ValueError(f"{path}: header {header!r}, expected {DETECTIONS_HEADER!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    time, location, risk_col, thr_col, pred_col, truth_col = data.T
    times, rows = np.unique(time, return_inverse=True)
    locs = location.astype(int)
    shape = (len(times), locs.max() + 1)
    risk, thr = np.zeros(shape), np.zeros(shape)
    pred, truth = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    risk[rows, locs] = risk_col
    thr[rows, locs] = thr_col
    pred[rows, locs] = pred_col.astype(np.int64)
    truth[rows, locs] = truth_col.astype(np.int64)
    return thresholding.DetectionTrace(risk=risk, threshold=thr, prediction=pred, truth=truth)


def write_metrics_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("location,precision,recall,f1\n")
        for k in range(len(report.f1)):
            fh.write(
                f"{k},{float(report.precision[k])!r},{float(report.recall[k])!r},"
                f"{float(report.f1[k])!r}\n"
            )


def write_conformal_sets_jsonl(path, run: conformal_mod.ConformalRun) -> None:
    """One ``{"alpha": a, "index": i, "set": [labels]}`` line per alpha and test
    point, byte for byte what ``json.dumps(..., sort_keys=True)`` writes; row i
    of ``run.sets[a]`` selects the point's labels from ``run.class_labels``."""
    labels = [str(int(c)) for c in run.class_labels.tolist()]
    with open(path, "w") as fh:
        for a in run.alphas:
            head = f'{{"alpha": {float(a)!r}, "index": '
            fh.write("".join(
                f'{head}{i}, "set": [{", ".join(itertools.compress(labels, keep))}]}}\n'
                for i, keep in enumerate(run.sets[a].tolist())
            ))


def write_conformal_summary_csv(path, run: conformal_mod.ConformalRun) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("alpha,coverage,mean_size,method\n")
        for a in run.alphas:
            fh.write(f"{a!r},{run.coverage[a]!r},{run.mean_size[a]!r},{run.method}\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# pipeline stages, shared by run_end_to_end and the CLI subcommands


def build_mark_model(spec: str, seq: EventSequence):
    """Mark model by name: ``linear`` or ``kde`` (fitted on ``seq``'s marks)."""
    if spec == "linear":
        return LinearMarkModel()
    if spec == "kde":
        return NonLinearMarkModel(kde_scorer(seq.marks))
    raise ValueError(f"unknown mark model {spec!r}")


def fit_stage(
    seq: EventSequence, mark_model, config: estimation.FitConfig, method: str, feasible=None
) -> estimation.FitResult:
    """Constrained MLE: the beta ``grid`` or the ``alternating`` beta search."""
    fits = {"grid": estimation.grid_fit, "alternating": estimation.alternating_fit}
    if method not in fits:
        raise ValueError(f"unknown fit method {method!r}; expected 'grid' or 'alternating'")
    return fits[method](seq, mark_model, config, feasible)


def predict_stage(
    params: ModelParams, seq: EventSequence, mark_model, delta, a1, a2, screening: bool
) -> thresholding.DetectionTrace:
    """Daily risk, day-level truths and the dynamic-threshold detections."""
    num_days = int(math.floor(seq.horizon))
    risk = risk_series(params, seq, mark_model)
    truth = daily_truths(seq, num_days)
    config = thresholding.ThresholdConfig.from_first_day_risk(
        risk[0], num_days, delta=delta, a1=a1, a2=a2
    )
    state = thresholding.ScreeningState.from_validation(truth) if screening else None
    return thresholding.detect(risk, truth, config, state)


def conformal_stage(
    seq: EventSequence, n_train: int, method: str, alphas, score_params: conformal_mod.ScoreParams,
    num_bootstrap: int, batch_size: int, split_fraction: float, seed: int,
) -> conformal_mod.ConformalRun:
    """Magnitude prediction sets: the first ``n_train`` events train, the rest
    form the test stream; ``method`` is ``eraps`` or ``sraps``."""
    if method not in ("eraps", "sraps"):
        raise ValueError(f"unknown conformal method {method!r}; expected 'eraps' or 'sraps'")
    if seq.magnitudes is None:
        raise ValueError("conformal stage needs magnitude labels in the data")
    if not 10 <= n_train < len(seq):
        raise ValueError("train size must be >= 10 and leave a test stream")
    X, y = seq.marks, seq.magnitudes
    split = (X[:n_train], y[:n_train], X[n_train:], y[n_train:])
    if method == "eraps":
        return conformal_mod.eraps(
            *split,
            num_bootstrap=num_bootstrap,
            batch_size=min(batch_size, len(seq) - n_train),
            alphas=alphas,
            score_params=score_params,
            seed=seed,
        )
    return conformal_mod.sraps(
        *split, split_fraction=split_fraction, alphas=alphas, score_params=score_params, seed=seed
    )


# the predict and conformal settings' defaults, for run bundles and CLI flags alike
PREDICT_DEFAULTS = {"delta": 0.05, "a1": 1.1, "a2": 1.1, "screening": True}
CONFORMAL_DEFAULTS = {
    "method": "eraps", "train_fraction": 0.6, "alphas": (0.1,), "num_bootstrap": 10, "batch_size": 10,
    "split_fraction": 0.5, "lambda_reg": conformal_mod.ScoreParams.lambda_reg,
    "k_reg": conformal_mod.ScoreParams.k_reg,
}


# ---------------------------------------------------------------------------
# end-to-end orchestration

STAGE_ARTIFACTS = {
    "data": ("events.csv",),
    "fit": ("params.json", "fit_trace.csv"),
    "predict": ("detections.csv",),
    "eval": ("metrics.csv",),
    "conformal": ("conformal_sets.jsonl", "conformal_summary.csv"),
}


# the keys each bundle section may hold (None: the top level), and the stage
# that reads them and tags their errors
BUNDLE_KEYS = {
    None: ("data", {"seed", "simulate", "ingest", "fit", "predict", "conformal"}),
    "simulate": ("data", {"params", "params_file", "horizon", "magnitude_classes", "mark_distribution"}),
    "ingest": ("data", {"csv", "grid", "neighbor_radius", "horizon", "categorical_columns"}),
    "fit": ("fit", {"method", "mark_model"} | {f.name for f in fields(estimation.FitConfig)}),
    "predict": ("predict", set(PREDICT_DEFAULTS)),
    "conformal": ("conformal", set(CONFORMAL_DEFAULTS)),
}


def _check_bundle_keys(bundle: dict) -> None:
    """Reject a key that no stage reads, so a typo fails instead of running
    on defaults."""
    for section, (stage, known) in BUNDLE_KEYS.items():
        cfg = bundle if section is None else bundle.get(section, {})
        where = "the bundle" if section is None else f"section {section!r}"
        if not isinstance(cfg, dict):
            raise PipelineError(stage, f"{where} must be a JSON object")
        unknown = sorted(set(cfg) - known)
        if unknown:
            raise PipelineError(stage, f"unknown keys {unknown} in {where}; expected some of {sorted(known)}")


@contextmanager
def _stage(name: str, done: list):
    """Tag any failure inside the block with ``name``; on success append it to ``done``."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    done.append(name)


def simulation_config(params: ModelParams, cfg: dict, seed: int) -> simulation.SimConfig:
    """The simulate stage's settings from its bundle keys; ``firecast simulate``
    uses it too, so both draw the same events."""
    magnitude_sampler = None
    n_classes = int(cfg.get("magnitude_classes", 0))
    if n_classes >= 2:
        def magnitude_sampler(rng, marks, location):
            # label tied to the first mark so a classifier has signal
            return 1 + min(n_classes - 1, int(marks[0] * n_classes))

    distribution = cfg.get("mark_distribution", "linear")
    if distribution not in ("linear", "uniform"):
        raise ValueError(f"unknown mark_distribution {distribution!r}; expected 'linear' or 'uniform'")
    mark_sampler = simulation.uniform_mark_sampler
    if distribution == "linear":
        mark_sampler = simulation.linear_density_mark_sampler(params.gamma)
    return simulation.SimConfig(
        params=params, horizon=float(cfg["horizon"]), seed=seed,
        mark_sampler=mark_sampler, magnitude_sampler=magnitude_sampler,
    )


def _bundle_simulate(cfg: dict, seed: int, wants_magnitudes: bool):
    params = (
        ModelParams.from_json(cfg["params_file"])
        if "params_file" in cfg
        else ModelParams.from_json(json.dumps(cfg["params"]))
    )
    sim = simulation_config(params, cfg if wants_magnitudes else {**cfg, "magnitude_classes": 0}, seed)
    return simulation.simulate(sim), estimation.FeasibleSet.of(params)


def _bundle_ingest(cfg: dict, notes: list):
    if "neighbor_radius" in cfg and "grid" not in cfg:
        raise ValueError("neighbor_radius needs a grid: cell ids carry no centroids to measure")
    grid = GridSpec.from_dict(cfg["grid"]) if "grid" in cfg else None
    result = ingest(cfg["csv"], grid, tuple(cfg.get("categorical_columns", ())), horizon=cfg.get("horizon"))
    seq = result.sequence
    notes.extend(result.messages)
    mask = np.ones((seq.num_locations, seq.num_locations), dtype=bool)
    if "neighbor_radius" in cfg:
        mask = model.mask_from_centroids(grid.centroids(), float(cfg["neighbor_radius"]))
    return seq, estimation.FeasibleSet(mask)


def run_end_to_end(bundle: dict, out_dir) -> dict:
    """Execute the full chain described by a config bundle; returns the manifest.

    Stages: simulate-or-ingest -> fit -> predict -> eval -> optional
    conformal, each through the stage functions above.  All artifacts land
    in ``out_dir`` with fixed names; the manifest records the seed, package
    version, config hash, and artifact digests, and two runs with the same
    bundle are byte-identical.  A failing stage raises ``PipelineError``
    tagged with its name; artifacts of earlier stages stay on disk.  A key no
    stage reads fails before any stage runs (``_check_bundle_keys``).
    """
    _check_bundle_keys(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(bundle.get("seed", 0))
    config_hash = hashlib.sha256(json.dumps(bundle, sort_keys=True).encode()).hexdigest()
    notes: list[str] = []
    stages: list[str] = []

    with _stage("data", stages):
        if "simulate" in bundle:
            seq, feasible = _bundle_simulate(bundle["simulate"], seed, "conformal" in bundle)
        elif "ingest" in bundle:
            seq, feasible = _bundle_ingest(bundle["ingest"], notes)
        else:
            raise ValueError("bundle needs a 'simulate' or 'ingest' stage")
        save_events_csv(seq, out / "events.csv")

    with _stage("fit", stages):
        cfg = dict(bundle.get("fit", {}))
        method = cfg.pop("method", "grid")
        mark_model = build_mark_model(cfg.pop("mark_model", "linear"), seq)
        fit = fit_stage(seq, mark_model, estimation.FitConfig(**cfg), method, feasible)
        fit.params.to_json(out / "params.json")
        write_fit_trace_csv(out / "fit_trace.csv", fit.trace)

    with _stage("predict", stages):
        cfg = {**PREDICT_DEFAULTS, **bundle.get("predict", {})}
        trace = predict_stage(
            fit.params, seq, mark_model, float(cfg["delta"]), float(cfg["a1"]), float(cfg["a2"]),
            cfg["screening"],
        )
        write_detections_csv(out / "detections.csv", trace)

    with _stage("eval", stages):
        write_metrics_csv(out / "metrics.csv", f1_metrics(trace.prediction, trace.truth))

    if "conformal" in bundle:
        with _stage("conformal", stages):
            cfg = {**CONFORMAL_DEFAULTS, **bundle["conformal"]}
            run = conformal_stage(
                seq,
                n_train=max(10, int(float(cfg["train_fraction"]) * len(seq))),
                method=cfg["method"],
                alphas=tuple(float(a) for a in cfg["alphas"]),
                score_params=conformal_mod.ScoreParams(float(cfg["lambda_reg"]), int(cfg["k_reg"])),
                num_bootstrap=int(cfg["num_bootstrap"]),
                batch_size=int(cfg["batch_size"]),
                split_fraction=float(cfg["split_fraction"]),
                seed=seed,
            )
            write_conformal_sets_jsonl(out / "conformal_sets.jsonl", run)
            write_conformal_summary_csv(out / "conformal_summary.csv", run)

    manifest = {
        "package_version": __version__,
        "seed": seed,
        "config_sha256": config_hash,
        "stages": stages,
        "artifacts": {
            name: _sha256(out / name) for stage in stages for name in STAGE_ARTIFACTS[stage]
        },
        "notes": notes,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
