"""Columnar event sequences and the flat-file event format.

Times are measured in days since the start of the observation horizon;
fractional values are allowed.  Locations are integer cell ids produced by a
spatial discretization (see :mod:`firecast.pipeline`).  Marks are feature
vectors scaled to [0, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MARK_TOL = 1e-9  # slack on the [0, 1] mark-range check


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr and arr.flags.writeable:
        out = arr.copy()  # never flip flags on a caller-owned buffer
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EventSequence:
    """Time-sorted event collection over ``[0, horizon]`` with K locations.

    Stored columnar (``times``, ``locations``, ``marks``) for vectorized
    likelihood work; ties in time keep their input order.  Instances are
    immutable after construction and safe to share across workers.
    """

    times: np.ndarray       # (n,) float, nondecreasing
    locations: np.ndarray   # (n,) int, each in [0, num_locations)
    marks: np.ndarray       # (n, p) float, components in [0, 1]
    horizon: float
    num_locations: int
    magnitudes: np.ndarray | None = field(default=None)

    def __post_init__(self):
        times = _frozen(np.asarray(self.times, dtype=float))
        locations = _frozen(np.asarray(self.locations, dtype=np.int64))
        marks = np.asarray(self.marks, dtype=float)
        if marks.ndim != 2:
            marks = marks.reshape(len(times), -1)
        marks = _frozen(marks)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "marks", marks)
        if self.magnitudes is not None:
            object.__setattr__(
                self, "magnitudes", _frozen(np.asarray(self.magnitudes, dtype=np.int64))
            )
        self._validate()

    def _validate(self):
        n = len(self.times)
        if not 0 < self.horizon < np.inf:  # NaN fails here too
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.num_locations < 1:
            raise ValueError("num_locations must be >= 1")
        if len(self.locations) != n or self.marks.shape[0] != n:
            raise ValueError("times, locations and marks must have equal length")
        if self.magnitudes is not None and len(self.magnitudes) != n:
            raise ValueError("magnitudes length mismatch")
        if n == 0:
            return
        # every comparison with NaN is false, so the range checks below would pass one
        columns = [("time", self.times)] + [(f"m_{j}", col) for j, col in enumerate(self.marks.T)]
        for name, col in columns:
            if not np.isfinite(col).all():
                raise ValueError(f"column {name!r} has a non-finite value")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("event times must be nondecreasing")
        if self.times[0] < 0 or self.times[-1] > self.horizon:
            raise ValueError("event times must lie in [0, horizon]")
        if self.locations.min() < 0 or self.locations.max() >= self.num_locations:
            raise ValueError("event locations must lie in [0, num_locations)")
        if self.marks.size and (
            self.marks.min() < -MARK_TOL or self.marks.max() > 1.0 + MARK_TOL
        ):
            raise ValueError("mark components must lie in [0, 1]")

    @property
    def mark_dim(self) -> int:
        return self.marks.shape[1]

    def __len__(self) -> int:
        return len(self.times)


def save_events_csv(seq: EventSequence, path: str | Path) -> None:
    """Write the canonical event CSV: ``time,location,m_0,...[,magnitude]``."""
    p = seq.mark_dim
    header = ["time", "location"] + [f"m_{j}" for j in range(p)]
    if seq.magnitudes is not None:
        header.append("magnitude")
    columns = [map(repr, seq.times.tolist()), map(str, seq.locations.tolist())]
    columns += [map(repr, col) for col in seq.marks.T.tolist()]
    if seq.magnitudes is not None:
        columns.append(map(str, seq.magnitudes.tolist()))
    # csv.writer's dialect: comma-separated, \r\n-terminated; no field here needs quoting
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(f"{','.join(row)}\r\n" for row in zip(*columns)))


def read_csv_columns(path):
    """Each non-blank row's line number of a CSV file, and each column's texts (a
    tuple) by name in header order; a missing header, a column named twice or
    a row with another field count fails naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header row")
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValueError(f"{path}: the header names column {', '.join(map(repr, repeated))} more than once")
        lines, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if any(map(str.strip, row)):
                if len(row) != len(header):
                    raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                lines.append(lineno)
                rows.append(row)
    return lines, dict(zip(header, zip(*rows) if rows else [()] * len(header)))


def parse_column(path, lines: list, texts, convert=float) -> np.ndarray:
    """``convert`` (Python's ``float``, or ``int`` within 64 bits) of each of a column's
    texts, each value with its bits; the first text refused fails naming its line."""
    cast = np.int64 if convert is int else float
    values = []
    try:
        for text in texts:
            values.append(cast(convert(text)))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:{lines[len(values)]}: unparseable row: {exc}") from exc
    return np.array(values, dtype=cast)


def load_events_csv(path: str | Path, horizon: float, num_locations: int) -> EventSequence:
    """Read the canonical event CSV produced by :func:`save_events_csv`; columns
    are parsed in the order time, location, magnitude, marks."""
    lines, texts = read_csv_columns(path)
    missing = [name for name in ("time", "location") if name not in texts]
    if missing:
        raise ValueError(f"{path}: missing required column: {missing[0]!r} is not in list")
    times = parse_column(path, lines, texts["time"])
    locations = parse_column(path, lines, texts["location"], int)
    magnitudes = parse_column(path, lines, texts["magnitude"], int) if "magnitude" in texts else None
    marks = [parse_column(path, lines, texts[name]) for name in texts if name.startswith("m_")]
    return EventSequence(
        times=times,
        locations=locations,
        marks=np.reshape(marks, (len(marks), len(lines))).T,
        horizon=horizon,
        num_locations=num_locations,
        magnitudes=magnitudes,
    )
