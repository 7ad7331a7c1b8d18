"""Data ingestion, spatial gridding, evaluation metrics, and end-to-end runs.

Raw incident files carry either latitude/longitude pairs (mapped onto a
square grid, default 0.24-degree cells) or precomputed cell ids.  Continuous
mark columns are imputed per location by linear interpolation over time
(constant beyond the first and last observed points), standardized, and
min-max scaled to [0, 1]; scaling statistics are fitted once on training
data and can be frozen for later files.

The chain runs through one function per stage: ``simulate_stage`` or
``ingest_stage``, ``fit_stage``, ``predict_stage`` and ``conformal_stage``.
Each reads a settings dict shaped like its bundle section through
``read_section``, which applies the section's defaults and checks its keys
and their kinds, and then checks the ranges itself, so no key is read
outside its stage.
``run_end_to_end`` passes them the bundle's sections, chains them after
simulate-or-ingest and writes every artifact plus a reproducibility
manifest; the CLI subcommands pass the sections their flags spell.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import conformal as conformal_mod
from . import estimation, model, simulation, thresholding
from .events import EventSequence, read_csv_rows, save_events_csv
from .marks import LinearMarkModel, NonLinearMarkModel, kde_scorer
from .model import DecayedExcitation, ModelParams, RATE_FLOOR


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
        for name in ("lat_min", "lon_min", "lat_max", "lon_max", "cell_size"):
            check_kind(name, getattr(self, name), float)
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_kind("excluded", self.excluded, tuple)
        if self.lat_max <= self.lat_min or self.lon_max <= self.lon_min:
            raise ValueError("bounding box is empty")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        # tolerate float error when the span is an exact multiple of the cell
        n_rows = max(1, math.ceil((self.lat_max - self.lat_min) / self.cell_size - 1e-9))
        n_cols = max(1, math.ceil((self.lon_max - self.lon_min) / self.cell_size - 1e-9))
        fractional = [i for i in self.excluded if not float(i).is_integer()]
        if fractional:
            raise ValueError(f"excluded cell ids {fractional} are not integers")
        object.__setattr__(self, "excluded", tuple(int(i) for i in self.excluded))
        excluded = set(self.excluded)
        outside = sorted(i for i in excluded if not 0 <= i < n_rows * n_cols)
        if outside:
            raise ValueError(f"excluded cell ids {outside} are outside the grid's {n_rows * n_cols} cells")
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

    def centroids(self) -> np.ndarray:
        """(K, 2) lat/lon cell centres, clamped into the box so edge cells
        truncated by the boundary still round-trip through ``cell_of``."""
        row, col = np.divmod(np.array(self._retained), self._n_cols)
        return np.column_stack([
            np.minimum(self.lat_min + (row + 0.5) * self.cell_size, self.lat_max),
            np.minimum(self.lon_min + (col + 0.5) * self.cell_size, self.lon_max),
        ])

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "excluded": list(self.excluded)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """The grid a ``to_dict`` mapping spells, unconverted; an unknown or missing
        key fails by name, so a misspelt ``cell_size`` does not run at the default."""
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise ValueError(f"unknown grid keys {unknown}; expected some of {known}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ValueError(f"missing grid keys {missing}")
        return cls(**d)


# ---------------------------------------------------------------------------
# preprocessing


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
        flat = (self.std <= 0) | (self.z_max <= self.z_min)  # divided by 1 instead, then set to 0.5
        z = (values - self.mean) / np.where(flat, 1.0, self.std)
        scaled = (z - self.z_min) / np.where(flat, 1.0, self.z_max - self.z_min)
        return np.clip(np.where(flat, 0.5, scaled), 0.0, 1.0)

    @classmethod
    def fit(cls, values: np.ndarray, columns, categories=None) -> "MarkStats":
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        std = np.where(std > 1e-12, std, 0.0)
        z = (values - mean) / np.where(std > 0, std, 1.0)
        z_min = np.where(std > 0, z.min(axis=0), 0.0)
        z_max = np.where(std > 0, z.max(axis=0), 0.0)
        return cls(list(columns), mean, std, z_min, z_max, categories or {})


def impute_series(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fill NaNs in a time series by linear interpolation between the observed
    points, constant beyond them (and everywhere, given one).  Duplicate
    timestamps are averaged first."""
    values = np.asarray(values, dtype=float).copy()
    observed = ~np.isnan(values)
    if observed.all() or not observed.any():
        return values
    t_obs, inverse = np.unique(times[observed], return_inverse=True)
    v_obs = np.bincount(inverse, weights=values[observed]) / np.bincount(inverse)
    values[~observed] = np.interp(times[~observed], t_obs, v_obs)
    return values


def _location_runs(locations: np.ndarray):
    """A stable sort of the rows by location, and each location's ``(start,
    end)`` run in it: the rows a ``locations == k`` mask selects, in the same
    order, found in O(n log n) rather than one n-long mask per location."""
    order = np.argsort(locations, kind="stable")
    ordered = locations[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    bounds = [0] + starts.tolist() + [len(order)]
    return order, list(zip(bounds[:-1], bounds[1:]))


@dataclass
class IngestResult:
    sequence: EventSequence
    stats: MarkStats
    dropped_outside: int
    messages: list


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
    rows = read_csv_rows(csv_path)
    header = next(rows)
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
        except ValueError as exc:
            raise ValueError(f"{csv_path}:{lineno}: unparseable row: {exc}") from exc
    if dropped:
        messages.append(f"dropped {dropped} events outside the grid")
    if not times:
        raise ValueError(f"{csv_path}: no events retained")

    times_arr = np.asarray(times, dtype=float)
    if not np.isfinite(times_arr).all():  # before a missing horizon is read off the last time
        raise ValueError("column 'time' has a non-finite value")
    order = np.argsort(times_arr, kind="stable")
    times_arr = times_arr[order]
    locs_arr = np.asarray(locs, dtype=np.int64)[order]

    # numerics are imputed per location, on each location's run of the rows sorted by it
    loc_order, loc_runs = _location_runs(locs_arr)
    loc_times, loc_rows = times_arr[loc_order], order[loc_order]

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
            by_loc = np.asarray(raw_marks[name], dtype=float)[loc_rows]
            for start, end in loc_runs:
                by_loc[start:end] = impute_series(loc_times[start:end], by_loc[start:end])
            col = np.empty_like(by_loc)
            col[loc_order] = by_loc
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
    return MetricsReport(precision=precision, recall=recall, f1=f1)


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
    """Per-location mean training mark, used as the query mark vector; the
    overall mean at a location without events, 0.5 without any event."""
    out = np.full((seq.num_locations, seq.mark_dim), 0.5)
    if len(seq):
        out[:] = seq.marks.mean(axis=0)
        order, runs = _location_runs(seq.locations)
        marks = seq.marks[order]
        for start, end in runs:
            out[seq.locations[order[start]]] = marks[start:end].mean(axis=0)
    return out


def risk_series(
    params: ModelParams,
    seq: EventSequence,
    mark_model,
    times: np.ndarray | None = None,
    query_marks: np.ndarray | None = None,
) -> np.ndarray:
    """Predicted intensity lambda(t, k, m) at ascending times, floored at RATE_FLOOR.

    ``times`` defaults to day ends 1..floor(horizon); ``query_marks`` is a
    (K, p) matrix of mark vectors, defaulting to per-location training means,
    scored once and applied at every time.
    """
    if times is None:
        times = np.arange(1.0, math.floor(seq.horizon) + 1.0)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("query times must be ascending")
    if params.num_locations != seq.num_locations:
        raise ValueError(f"params have {params.num_locations} locations but the events have {seq.num_locations}")
    if query_marks is None:
        query_marks = query_marks_by_location(seq)
    ground = np.zeros((len(times), seq.num_locations))
    excite = DecayedExcitation(params)
    ev_times, ev_locs = seq.times, seq.locations
    ei = 0
    for idx, t in enumerate(times):
        while ei < len(ev_times) and ev_times[ei] < t:
            excite.advance(ev_times[ei])
            excite.add(ev_locs[ei])
            ei += 1
        ground[idx] = params.mu + excite.at(t)
    return np.maximum(ground * mark_model.scores(params.gamma, query_marks), RATE_FLOOR)


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
    day-major, streamed a day at a time (labels must be -1 or 1).

    Each day's rows are one f-string per cell over risk and threshold text
    lists carried from the previous day.  A value is formatted only where its
    bits differ from the same cell's on the previous day; a day with more
    than half its risks changed formats its risk row whole.  A changed
    threshold whose bits equal the same cell's risk that day reuses the
    risk's text, which the detector's collapse ``tau = lam`` makes common.
    Bits, not ``==``, decide, so ``0.0`` beside ``-0.0`` and NaNs of either
    sign get their own text.  Location and label texts are formatted once
    per file and each day's time once."""
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
    risk = np.ascontiguousarray(trace.risk, dtype=float)
    threshold = np.ascontiguousarray(trace.threshold, dtype=float)
    risk_bits, threshold_bits = risk.view(np.int64), threshold.view(np.int64)
    every_cell = np.arange(K)
    risk_texts, threshold_texts = [None] * K, [None] * K
    with open(path, "w", newline="") as fh:
        fh.write(DETECTIONS_HEADER + "\n")
        for t in range(T):
            changed = every_cell if t == 0 else np.flatnonzero(risk_bits[t] != risk_bits[t - 1])
            if 2 * len(changed) > K:
                risk_texts = list(map(repr, risk[t].tolist()))
            else:
                for k, value in zip(changed.tolist(), risk[t, changed].tolist()):
                    risk_texts[k] = repr(value)
            changed = every_cell if t == 0 else np.flatnonzero(threshold_bits[t] != threshold_bits[t - 1])
            as_risk = threshold_bits[t, changed] == risk_bits[t, changed]
            for k in changed[as_risk].tolist():
                threshold_texts[k] = risk_texts[k]
            fresh = changed[~as_risk]
            for k, value in zip(fresh.tolist(), threshold[t, fresh].tolist()):
                threshold_texts[k] = repr(value)
            day = repr(float(times[t]))
            fh.write("".join([
                f"{day}{location}{r},{h}{tails[i]}"
                for location, r, h, i in zip(locations, risk_texts, threshold_texts, tail_index[t].tolist())
            ]))


def read_detections_csv(path) -> thresholding.DetectionTrace:
    """Read the layout :func:`write_detections_csv` writes: the header, then
    one block of rows per day, each listing locations 0..K-1 in order, where
    K is the number of rows before location 0 comes round again.  Each row
    must carry the location of its place in its block and its block's time
    (compared by bits), and labels of -1 or 1 as the writer writes them; a row
    out of layout, a short last day, a bad label or an empty body fails,
    naming the file and the first bad line (the header is line 1)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DETECTIONS_HEADER:
            raise ValueError(f"{path}: header {header!r}, expected {DETECTIONS_HEADER!r}")
        for line, first in enumerate(fh, start=2):
            if first.strip():
                break
        else:
            raise ValueError(f"{path}: no rows after the header")
        data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
    time, location = data[:, 0], data[:, 1]
    restarts = np.flatnonzero(location[1:] == 0)
    K = int(restarts[0]) + 1 if len(restarts) else len(data)
    place = np.arange(len(data)) % K
    bits = time.view(np.int64)
    bad = np.flatnonzero((location != place) | (bits != bits[np.arange(len(data)) - place]))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"{path}: line {line + i} has time {float(time[i])!r} and location {location[i]:g}; "
            f"its day starts at time {float(time[i - place[i]])!r} and lists locations 0..{K - 1} in order"
        )
    if place[-1] != K - 1:
        raise ValueError(f"{path}: line {line + len(data) - 1} ends the last day after {place[-1] + 1} of its {K} rows")
    labels = data[:, 4:]
    bad = np.flatnonzero(((labels != 1) & (labels != -1)).any(axis=1))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"{path}: line {line + i} has prediction {labels[i, 0]:g} and truth {labels[i, 1]:g}; both must be -1 or 1"
        )
    risk, thr, pred, truth = (column.reshape(-1, K) for column in data.T[2:])
    return thresholding.DetectionTrace(risk.copy(), thr.copy(), pred.astype(np.int64), truth.astype(np.int64))


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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # in 1 MiB chunks, so no artifact is held whole
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# pipeline stages, shared by run_end_to_end and the CLI subcommands


MARK_MODELS = {
    "linear": lambda seq: LinearMarkModel(),
    "kde": lambda seq: NonLinearMarkModel(kde_scorer(seq.marks)),
}
# by function name, looked up at each call: a wrapper set on ``estimation`` is the one run
FIT_METHODS = {"grid": "grid_fit", "alternating": "alternating_fit"}
MARK_DISTRIBUTIONS = {
    "linear": lambda params: simulation.linear_density_mark_sampler(params.gamma),
    "uniform": lambda params: simulation.uniform_mark_sampler,
}

# each stage section's optional keys and defaults: ``read_section`` checks a section by them, and the
# CLI makes its flags from them; the fit's, the detector's, the score's and ``split_fraction`` are
# read off ``FitConfig``, ``from_first_day_risk``, ``ScoreParams`` and ``sraps``: each is written once
_DETECTOR = inspect.signature(thresholding.ThresholdConfig.from_first_day_risk).parameters
SECTION_DEFAULTS = {
    "simulate": {"magnitude_classes": 0, "mark_distribution": "linear"},
    "fit": {"method": "grid", "mark_model": "linear", **{f.name: f.default for f in fields(estimation.FitConfig)}},
    "predict": {**{k: _DETECTOR[k].default for k in ("delta", "a1", "a2")}, "screening": True},
    "conformal": {
        "method": "eraps", "train_fraction": 0.6, "alphas": (0.1,), "num_bootstrap": 10, "batch_size": 10,
        "split_fraction": inspect.signature(conformal_mod.sraps).parameters["split_fraction"].default,
        "lambda_reg": conformal_mod.ScoreParams.lambda_reg, "k_reg": conformal_mod.ScoreParams.k_reg,
    },
}
# the data sections' keys without a default, each with its kind (a type that ``VALUE_KINDS`` knows);
# a section needs exactly one key of each of its ``REQUIRED_KEYS`` groups
DATA_KEYS = {
    "simulate": {"params": dict, "params_file": str, "horizon": float},
    "ingest": {"csv": str, "grid": GridSpec, "neighbor_radius": float, "horizon": float, "categorical_columns": list},
}
REQUIRED_KEYS = {"simulate": [("params", "params_file"), ("horizon",)], "ingest": [("csv",)]}
# the conformal keys that only one method reads; ``read_section`` refuses them under the other
CONFORMAL_METHOD_KEYS = {"eraps": {"num_bootstrap", "batch_size"}, "sraps": {"split_fraction"}}
# the section keys whose value names a table entry, with the table and their word in errors
CHOICES = {
    ("simulate", "mark_distribution"): (MARK_DISTRIBUTIONS, "mark_distribution"),
    ("fit", "method"): (FIT_METHODS, "fit method"),
    ("fit", "mark_model"): (MARK_MODELS, "mark model"),
    ("conformal", "method"): (CONFORMAL_METHOD_KEYS, "conformal method"),
}
# each bundle section's stage, which tags its errors, and its keys' kinds: a default's type or a data key's
BUNDLE_KEYS = {
    section: ("data" if section in DATA_KEYS else section,
              {**DATA_KEYS.get(section, {}), **{k: type(v) for k, v in SECTION_DEFAULTS.get(section, {}).items()}})
    for section in (*DATA_KEYS, *SECTION_DEFAULTS)
}


# by a key's kind: the test a given value must pass (a bool is no number), and its words in errors;
# a grid is checked by building it, so its own checks name a bad grid key
VALUE_KINDS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(VALUE_KINDS[float][0], v)), "a list of numbers"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, (list, tuple)) and all(isinstance(n, str) for n in v), "a list of column names"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
    GridSpec: (lambda v: isinstance(v, dict) and GridSpec.from_dict(v) is not None, "a JSON object"),
}


def check_kind(key: str, value, kind) -> None:
    """Fail unless ``value`` passes the test of ``kind`` in ``VALUE_KINDS``."""
    test, words = VALUE_KINDS[kind]
    if not test(value):
        raise ValueError(f"{key} must be {words}, got {value!r}")


def read_section(section: str, given: dict) -> dict:
    """``given`` merged over the section's ``SECTION_DEFAULTS``, each given value
    checked, not converted, against its key's kind in ``BUNDLE_KEYS``: a key of
    ``CHOICES`` takes a name of its table, any other a value of its kind in
    ``VALUE_KINDS``.  An unknown key fails, and so does a missing or doubled
    key of a ``REQUIRED_KEYS`` group, or another conformal method's key."""
    if not isinstance(given, dict):
        raise ValueError(f"section {section!r} must be a JSON object")
    kinds = BUNDLE_KEYS[section][1]
    unknown = sorted(set(given) - set(kinds))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in section {section!r}; expected some of {sorted(kinds)}")
    for group in REQUIRED_KEYS.get(section, ()):
        present = [key for key in group if key in given]
        if len(present) != 1:
            raise ValueError(f"{section} needs {' or '.join(group)}" + (", not both" if present else ""))
    for key, value in given.items():
        if (section, key) in CHOICES:
            table, what = CHOICES[section, key]
            if not isinstance(value, str) or value not in table:
                raise ValueError(f"unknown {what} {value!r}; expected {' or '.join(map(repr, table))}")
        else:
            check_kind(key, value, kinds[key])
    cfg = {**SECTION_DEFAULTS.get(section, {}), **given}
    if section == "conformal":
        foreign = sorted(set(given) & set().union(*(v for m, v in CONFORMAL_METHOD_KEYS.items() if m != cfg["method"])))
        if foreign:
            raise ValueError(f"keys {foreign} do not apply to method {cfg['method']!r}")
    return cfg


def fit_stage(seq: EventSequence, section: dict, feasible=None):
    """Constrained MLE from a ``fit`` section merged over its ``SECTION_DEFAULTS``:
    ``method`` is the beta ``grid`` or the ``alternating`` beta search,
    ``mark_model`` is ``linear`` or ``kde``, and every other key is a
    ``FitConfig`` field.  Returns the fit and the mark model it used."""
    cfg = read_section("fit", section)
    fit_fn = FIT_METHODS[cfg.pop("method")]
    mark_model = MARK_MODELS[cfg.pop("mark_model")](seq)
    fit = getattr(estimation, fit_fn)(seq, mark_model, estimation.FitConfig(**cfg), feasible)
    return fit, mark_model


def predict_stage(
    params: ModelParams, seq: EventSequence, mark_model, section: dict
) -> thresholding.DetectionTrace:
    """Daily risk, day-level truths and the dynamic-threshold detections, from
    a ``predict`` section merged over its ``SECTION_DEFAULTS``."""
    cfg = read_section("predict", section)
    num_days = int(math.floor(seq.horizon))
    if num_days < 1:
        raise ValueError(f"horizon {seq.horizon} is under one day: predict needs at least one whole day")
    risk = risk_series(params, seq, mark_model)
    truth = daily_truths(seq, num_days)
    config = thresholding.ThresholdConfig.from_first_day_risk(risk[0], num_days, cfg["delta"], cfg["a1"], cfg["a2"])
    state = thresholding.ScreeningState.from_validation(truth) if cfg["screening"] else None
    return thresholding.detect(risk, truth, config, state)


def conformal_stage(seq: EventSequence, section: dict, seed: int) -> conformal_mod.ConformalRun:
    """Magnitude prediction sets from a ``conformal`` section merged over its
    ``SECTION_DEFAULTS``: the first ``max(10, int(train_fraction * n))`` of
    the n events train, the rest form the test stream; ``train_fraction``
    must lie in (0, 1), and ``method`` is ``eraps`` or ``sraps``."""
    cfg = read_section("conformal", section)
    fraction = cfg["train_fraction"]
    if not 0.0 < fraction < 1.0:  # NaN too
        raise ValueError(f"train_fraction must lie in (0, 1), got {fraction!r}")
    if seq.magnitudes is None:
        raise ValueError("conformal stage needs magnitude labels in the data")
    n_train = max(10, int(fraction * len(seq)))
    if n_train >= len(seq):
        raise ValueError(f"{n_train} training events of {len(seq)} leave no test stream")
    X, y = seq.marks, seq.magnitudes
    split = (X[:n_train], y[:n_train], X[n_train:], y[n_train:])
    shared = {
        "alphas": cfg["alphas"],
        "score_params": conformal_mod.ScoreParams(cfg["lambda_reg"], cfg["k_reg"]),
        "seed": seed,
    }
    if cfg["method"] == "eraps":
        return conformal_mod.eraps(
            *split,
            num_bootstrap=cfg["num_bootstrap"],
            batch_size=min(cfg["batch_size"], len(seq) - n_train),
            **shared,
        )
    return conformal_mod.sraps(*split, split_fraction=cfg["split_fraction"], **shared)


# ---------------------------------------------------------------------------
# end-to-end orchestration


class _stage:
    """Tag any failure inside the block with ``name``; on success append it to ``done``.

    A class, not a generator: ``contextlib`` would let a ``StopIteration``
    raised in the block escape untagged (PEP 479)."""

    def __init__(self, name: str, done: list):
        self.name, self.done = name, done

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if exc is None:
            self.done.append(self.name)
        elif isinstance(exc, Exception) and not isinstance(exc, PipelineError):
            raise PipelineError(self.name, str(exc) or type(exc).__name__) from exc
        return False


def simulate_stage(section: dict, seed: int):
    """Events drawn by ``simulation.simulate_clusters`` from a ``simulate``
    section, and the params' support; ``firecast simulate`` calls it too, so
    both draw the same events."""
    cfg = read_section("simulate", section)
    n_classes = cfg["magnitude_classes"]
    if n_classes < 0 or n_classes == 1:
        raise ValueError(f"magnitude_classes must be 0 (no labels) or at least 2, got {n_classes}")
    params = ModelParams.from_json(cfg["params_file"] if "params_file" in cfg else json.dumps(cfg["params"]))
    magnitude_sampler = None
    if n_classes:
        def magnitude_sampler(rng, marks, location):
            # label tied to the first mark so a classifier has signal
            return 1 + np.minimum(n_classes - 1, (marks[..., 0] * n_classes).astype(np.int64))

    mark_sampler = MARK_DISTRIBUTIONS[cfg["mark_distribution"]](params)
    config = simulation.SimConfig(
        params=params, horizon=cfg["horizon"], seed=seed,
        mark_sampler=mark_sampler, magnitude_sampler=magnitude_sampler,
    )
    return simulation.simulate_clusters(config), model.FeasibleSet.of(params)


def ingest_stage(section: dict, notes: list):
    """Events read by ``ingest`` from an ``ingest`` section, its messages added
    to ``notes``, and the support ``neighbor_radius`` allows (None: all pairs);
    ``firecast gridify`` calls it too, so both read the same events."""
    cfg = read_section("ingest", section)
    grid = GridSpec.from_dict(cfg["grid"]) if "grid" in cfg else None
    radius = cfg.get("neighbor_radius")
    if radius is not None and grid is None:
        raise ValueError("neighbor_radius needs a grid: cell ids carry no centroids to measure")
    if radius is not None and not radius >= 0:
        raise ValueError(f"neighbor_radius must be a nonnegative distance in degrees, got {radius!r}")
    result = ingest(cfg["csv"], grid, cfg.get("categorical_columns", ()), horizon=cfg.get("horizon"))
    notes.extend(result.messages)
    if radius is None:
        return result.sequence, None
    centroids = grid.centroids()
    return result.sequence, model.FeasibleSet.on_pairs(*model.neighbor_pairs(centroids, radius), len(centroids))


def run_end_to_end(bundle: dict, out_dir) -> dict:
    """Execute the full chain described by a config bundle; returns the manifest.

    Stages: simulate-or-ingest -> fit -> predict -> eval -> optional
    conformal, each through the stage functions above, after every section
    is read by ``read_section`` under its stage's tag.  ``out_dir`` is made
    once the data stage has its events, and gets each artifact under a fixed
    name and a manifest of the seed, package version, config hash and the
    digest of each artifact written; two runs of one bundle are
    byte-identical.  A failing stage raises ``PipelineError`` tagged with its
    name; artifacts of earlier stages stay on disk.
    """
    with _stage("data", []):
        if not isinstance(bundle, dict):
            raise ValueError("the bundle must be a JSON object")
        known = {"seed", *BUNDLE_KEYS}
        unknown = sorted(set(bundle) - known)
        if unknown:
            raise ValueError(f"unknown keys {unknown} in the bundle; expected some of {sorted(known)}")
        seed = bundle.get("seed", 0)
        check_kind("seed", seed, int)
    for section, (stage, _) in BUNDLE_KEYS.items():
        if section in bundle:
            with _stage(stage, []):
                read_section(section, bundle[section])
    out = Path(out_dir)
    notes: list[str] = []
    stages: list[str] = []
    written: list[str] = []

    def artifact(name: str) -> Path:
        written.append(name)
        return out / name

    with _stage("data", stages):
        if "simulate" in bundle:
            seq, feasible = simulate_stage(bundle["simulate"], seed)
        elif "ingest" in bundle:
            seq, feasible = ingest_stage(bundle["ingest"], notes)
        else:
            raise ValueError("bundle needs a 'simulate' or 'ingest' stage")
        out.mkdir(parents=True, exist_ok=True)
        save_events_csv(seq, artifact("events.csv"))

    with _stage("fit", stages):
        fit, mark_model = fit_stage(seq, bundle.get("fit", {}), feasible)
        fit.params.to_json(artifact("params.json"))
        write_fit_trace_csv(artifact("fit_trace.csv"), fit.trace)

    with _stage("predict", stages):
        trace = predict_stage(fit.params, seq, mark_model, bundle.get("predict", {}))
        write_detections_csv(artifact("detections.csv"), trace)

    with _stage("eval", stages):
        write_metrics_csv(artifact("metrics.csv"), f1_metrics(trace.prediction, trace.truth))

    if "conformal" in bundle:
        with _stage("conformal", stages):
            run = conformal_stage(seq, bundle["conformal"], seed)
            write_conformal_sets_jsonl(artifact("conformal_sets.jsonl"), run)
            write_conformal_summary_csv(artifact("conformal_summary.csv"), run)

    manifest = {
        "package_version": __version__,
        "seed": seed,
        "config_sha256": hashlib.sha256(json.dumps(bundle, sort_keys=True).encode()).hexdigest(),
        "stages": stages,
        "artifacts": {name: _sha256(out / name) for name in written},
        "notes": notes,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
