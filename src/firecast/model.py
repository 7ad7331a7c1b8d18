"""Marked mutually exciting point process over discrete locations.

The conditional intensity factors into a ground process and a mark score,

    lambda(t, k, m) = lambda_g(t, k) * f(m),
    lambda_g(t, k)  = mu_k + sum_{j: t_j < t} alpha[u_j, k] * beta * exp(-beta (t - t_j)),

with ``f`` either linear in the marks or an arbitrary fitted scorer (see
:mod:`firecast.marks`).  ``pipeline.risk_series`` is the one evaluation of
lambda at query times, for the predict stage and counterfactuals alike; this
module holds the parameters, the decayed-excitation state, the likelihood
and the estimation objective.  The log-likelihood over ``[0, T]`` is

    sum_i log lambda_g(t_i, u_i) + sum_i log f(m_i)
      - T * sum_k mu_k - sum_i (sum_k alpha[u_i, k]) * (1 - exp(-beta (T - t_i))),

whose integral term is the compensator of the location-summed ground
process (:meth:`EventKernel.compensator`).  :class:`EventKernel` evaluates the
event intensities and their gradient over a list of allowed (source,
destination) pairs, in O(events x allowed sources) rather than O(n K^2):
each (event, source) value comes from a decayed-count recursion over that
source's own events, never from a dense n x K history matrix
(:func:`excitation_matrix` stays as the reference it is tested against).
:class:`ModelParams` holds alpha on the same kind of pairs, and so does
``params.json``.  An ingest run's support comes from :func:`neighbor_pairs`,
which tests only the cell pairs of neighbouring buckets, so no K x K array
is built on the data, fit, predict or I/O paths.

:class:`Objective` ``(seq, mark_model, feasible, beta, l1_weight)`` is the
one implementation of the estimation objective (negative log-likelihood
plus an l1 penalty on gamma) and its gradient, at a fixed beta, on the flat
vector ``[mu, alpha[src, dst], gamma]`` that :class:`FeasibleSet` alone lays
out.  ``Objective.with_beta(b)`` re-decays the same kernel at another beta,
sharing its index arrays and a gamma-free mark term, so a fit builds one
objective.  The solver in :mod:`firecast.estimation`, ``penalized_objective``
and ``objective_gradient`` all call it.  It alone takes logs of intensities
and mark scores, floored at ``RATE_FLOOR`` so the objective stays finite on
the whole feasible set, where negative interaction weights can drive the raw
value to zero or below.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from .events import EventSequence, _frozen

RATE_FLOOR = 1e-12  # lower clamp for any rate fed to log or used as a density

BALL_RADIUS = 1.0  # l2 radius bounding mu, alpha (Frobenius) and gamma
NORM_TOL = 1e-9  # slack on ball-constraint checks
PAIR_BLOCK = 1 << 14  # candidate pairs tested at once in neighbor_pairs: 128 KB per temporary
BUCKET_MARGIN = 1e-6  # relative widening of neighbor_pairs' buckets beyond the radius
MIN_BUCKET_SIDE = 1e-150  # gaps under 1e-154 square to subnormals: keep them in adjacent buckets
NEIGHBOUR_OFFSETS = np.divmod(np.arange(9), 3) - np.ones((2, 1), dtype=int)  # 3 x 3 buckets around one
JSON_BLOCK = 4096  # array entries per json.dumps call in ModelParams.to_json


class ModelParams:
    """Parameters (mu, alpha, beta, gamma), with alpha held on its support.

    ``alpha[i, j]``, the influence of cell i on cell j, is stored as
    ``alpha_values`` on the allowed (source, destination) pairs ``src, dst``
    in ``np.nonzero`` order: the support is the interaction mask, so alpha
    vanishes off it by construction.  The dense form ``ModelParams(mu=,
    alpha=, beta=, gamma=, mask=)`` is converted once; library code uses
    :meth:`from_pairs`.  The dense ``alpha`` and ``mask`` properties cost
    O(K^2) on each access.

    Feasibility (``validate``): mu >= 0 elementwise, beta >= 0,
    ||mu||_2 <= 1, ||alpha||_F <= 1 and ||gamma||_2 <= 1.
    """

    def __init__(self, mu, alpha, beta, gamma, mask):
        mu = np.asarray(mu, dtype=float)
        alpha, mask = np.asarray(alpha, dtype=float), np.asarray(mask, dtype=bool)
        K = len(mu)
        if alpha.shape != (K, K) or mask.shape != (K, K):
            raise ValueError("alpha and mask must be K x K")
        src, dst = np.nonzero(mask)
        values = alpha[src, dst]
        if np.count_nonzero(alpha) > np.count_nonzero(values):
            raise ValueError("alpha must be zero where the mask is false")
        self._set(mu, src, dst, values, beta, gamma)

    def _set(self, mu, src, dst, values, beta, gamma) -> None:
        gamma = np.asarray(gamma, dtype=float)
        for name, value in (("mu", mu), ("src", src), ("dst", dst), ("alpha_values", values), ("gamma", gamma)):
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "beta", float(beta))

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelParams is immutable; cannot set {name!r}")

    @classmethod
    def from_pairs(cls, mu, src, dst, alpha_values, beta, gamma) -> "ModelParams":
        """Params with alpha given by its values on (src, dst) pairs, which
        become the support; pairs may come in any order but not repeat."""
        mu = np.asarray(mu, dtype=float)
        K = len(mu)
        src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
        values = np.asarray(alpha_values, dtype=float)
        if not len(src) == len(dst) == len(values):
            raise ValueError(f"support has {len(src)} src, {len(dst)} dst and {len(values)} alpha entries")
        order = _support_order(src, dst, K)
        if order is not None:
            src, dst, values = src[order], dst[order], values[order]
        params = object.__new__(cls)
        params._set(mu, src, dst, values, beta, gamma)
        return params

    @property
    def num_locations(self) -> int:
        return len(self.mu)

    @property
    def mark_dim(self) -> int:
        return len(self.gamma)

    @property
    def alpha(self) -> np.ndarray:
        """Dense K x K alpha, built (read-only) on each access."""
        return self._dense(self.alpha_values, float)

    @property
    def mask(self) -> np.ndarray:
        """Dense K x K support, built (read-only) on each access."""
        return self._dense(True, bool)

    def _dense(self, values, dtype) -> np.ndarray:
        out = np.zeros((self.num_locations,) * 2, dtype=dtype)
        out[self.src, self.dst] = values
        out.setflags(write=False)
        return out

    def alpha_on(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """alpha's values on the given pairs, as a new array; zero where a pair
        is off the support.  On the support itself that is a copy of
        ``alpha_values``, with no search."""
        if np.array_equal(src, self.src) and np.array_equal(dst, self.dst):
            return self.alpha_values.copy()
        K = self.num_locations
        keys = self.src * K + self.dst
        wanted = np.asarray(src, dtype=np.intp) * K + np.asarray(dst, dtype=np.intp)
        if len(keys) == 0:
            return np.zeros(len(wanted))
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, self.alpha_values[at], 0.0)

    def validate(self) -> "ModelParams":
        for name, arr in (("mu", self.mu), ("alpha", self.alpha_values), ("gamma", self.gamma)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.isfinite(self.beta):
            raise ValueError("beta is non-finite")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if np.any(self.mu < 0):
            raise ValueError("mu must be nonnegative")
        if np.linalg.norm(self.mu) > BALL_RADIUS + NORM_TOL:
            raise ValueError("||mu||_2 must be <= 1")
        if np.linalg.norm(self.alpha_values) > BALL_RADIUS + NORM_TOL:
            raise ValueError("||alpha||_F must be <= 1")
        if np.linalg.norm(self.gamma) > BALL_RADIUS + NORM_TOL:
            raise ValueError("||gamma||_2 must be <= 1")
        return self

    def to_json(self, path: str | Path | None = None) -> str:
        """JSON with alpha as values on the support's (src, dst) pairs, as
        ``json.dumps(..., sort_keys=True)`` writes it, arrays in blocks."""
        text = (
            f'{{"alpha": {_json_array(self.alpha_values)}, "beta": {json.dumps(self.beta)}, '
            f'"gamma": {_json_array(self.gamma)}, "mu": {_json_array(self.mu)}, '
            f'"support": {{"dst": {_json_array(self.dst)}, "src": {_json_array(self.src)}}}}}'
        )
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ModelParams":
        """Read the pair form written by ``to_json``, or dense K x K ``alpha``
        and ``mask`` lists."""
        text = str(source)
        payload = json.loads(text if text.lstrip().startswith("{") else Path(source).read_text())
        # popped from the payload, the support's lists are freed once they are arrays
        mu, beta, gamma, alpha = (payload.pop(key) for key in ("mu", "beta", "gamma", "alpha"))
        if "support" in payload:
            support = payload.pop("support")
            return cls.from_pairs(mu, support.pop("src"), support.pop("dst"), alpha, float(beta), gamma)
        return cls(mu=mu, alpha=alpha, beta=float(beta), gamma=gamma, mask=payload["mask"])


def _support_order(src: np.ndarray, dst: np.ndarray, K: int):
    """The permutation that puts the (src, dst) index pairs of a K-location
    support in ``np.nonzero`` order, or None if they are in it; fails on an
    index outside [0, K) or a repeated pair."""
    if len(src) != len(dst):
        raise ValueError(f"support has {len(src)} src and {len(dst)} dst entries")
    if np.any((src < 0) | (src >= K) | (dst < 0) | (dst >= K)):
        raise ValueError(f"support indices must lie in [0, {K})")
    keys = src * K + dst
    if not np.any(np.diff(keys) <= 0):
        return None
    order = np.argsort(keys, kind="stable")
    if np.any(np.diff(keys[order]) == 0):
        raise ValueError("support repeats a (src, dst) pair")
    return order


def _json_array(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` of a float64 array or a nonnegative
    integer array, encoded ``JSON_BLOCK`` entries at a time.  An integer
    entry takes its text from the table of ``str(0..max)``.  Each distinct
    float of a block is formatted once (told apart by its bits, so ``-0.0``
    keeps its sign) and its text gathered to every entry that holds it."""
    if values.dtype.kind == "f":
        encode = _json_block
    else:
        table = np.array([str(i) for i in range(values.max(initial=-1) + 1)], dtype=object)
        encode = lambda block: ", ".join(table[block].tolist())
    return "[" + ", ".join(encode(values[i : i + JSON_BLOCK]) for i in range(0, len(values), JSON_BLOCK)) + "]"


def _json_block(block: np.ndarray) -> str:
    distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
    texts = np.array(json.dumps(distinct.view(block.dtype).tolist())[1:-1].split(", "), dtype=object)
    return ", ".join(texts[inverse].tolist())


def neighbor_pairs(centroids: np.ndarray, neighbor_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The (source, destination) cell pairs whose centroids are within the
    radius, in ``np.nonzero`` order: the support of the neighbour mask.

    Cells are bucketed on a square grid whose side is the radius times
    ``1 + BUCKET_MARGIN`` (coarser where a small radius would make more
    buckets than cells), and only pairs within 3 x 3 neighbouring buckets
    are tested (Bentley, Stanat & Williams, Inf. Proc. Letters 1977),
    ``PAIR_BLOCK`` candidates at a time, so even a radius that spans the box
    never holds K x K floats.  The test is the broadcast formula's
    ``sqrt(dx*dx + dy*dy) <= neighbor_radius``, the same operations in the
    same order, so pairs within an ulp of the radius land on the same side.
    A computed distance within the radius bounds each coordinate gap by the
    radius times 1 + 4 ulp; the margin covers that and the rounding of the
    bucket index, so no such pair is ever two buckets apart.  A negative or
    NaN radius allows no pair.
    """
    centroids = np.asarray(centroids, dtype=float)
    K, radius = len(centroids), float(neighbor_radius)
    if K == 0 or not radius >= 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    xy = centroids[:, :2]
    low = xy.min(axis=0)
    span = xy.max(axis=0) - low
    if not np.all(np.isfinite(span)):
        raise ValueError("centroid coordinates must be finite")
    side = max(radius * (1.0 + BUCKET_MARGIN), float(span.max()) / math.isqrt(K), MIN_BUCKET_SIDE)
    cells = np.floor((xy - low) / side).astype(np.intp)  # an infinite side puts every cell in bucket 0
    nx, ny = cells.max(axis=0) + 1
    bucket = cells[:, 0] * ny + cells[:, 1]
    members = np.argsort(bucket, kind="stable")  # each bucket's cells, ascending
    counts = np.bincount(bucket, minlength=nx * ny)
    starts = np.cumsum(counts) - counts
    padded = np.pad(counts.reshape(nx, ny), 1)
    near = sum(padded[a : a + nx, b : b + ny] for a in range(3) for b in range(3)).ravel()[bucket]
    before = np.cumsum(near) - near  # candidates of the sources before each source
    x, y = xy[:, 0], xy[:, 1]
    blocks = []
    s0 = 0
    while s0 < K:
        s1 = max(s0 + 1, int(np.searchsorted(before, before[s0] + PAIR_BLOCK)))
        # each source's 3 x 3 neighbouring buckets, one row per source
        bx, by = cells[s0:s1, :1] + NEIGHBOUR_OFFSETS[0], cells[s0:s1, 1:] + NEIGHBOUR_OFFSETS[1]
        inside = (bx >= 0) & (bx < nx) & (by >= 0) & (by < ny)
        neighbour = np.where(inside, bx * ny + by, 0).ravel()
        size = np.where(inside.ravel(), counts[neighbour], 0)
        dst = members[np.repeat(starts[neighbour] - (np.cumsum(size) - size), size) + np.arange(size.sum())]
        src = np.repeat(np.arange(s0, s1), near[s0:s1])
        dx, dy = x[src], y[src]
        dx -= x[dst]
        dy -= y[dst]
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        keep = dx <= radius
        keys = src[keep] * K
        keys += dst[keep]
        keys.sort()  # candidates come bucket by bucket: sorted, each source's destinations ascend
        blocks.append(keys)
        s0 = s1
    keys = np.concatenate(blocks)
    del blocks
    src = keys // K
    np.remainder(keys, K, out=keys)
    return src, keys


def mask_from_centroids(centroids: np.ndarray, neighbor_radius: float) -> np.ndarray:
    """Allow interaction between cells whose centroids are within the radius:
    the dense K x K form of :func:`neighbor_pairs`, for callers that want a
    mask (the data stage builds its support from the pairs alone)."""
    K = len(centroids)
    mask = np.zeros((K, K), dtype=bool)
    mask[neighbor_pairs(centroids, neighbor_radius)] = True
    return mask


def excitation_matrix(
    times: np.ndarray, locations: np.ndarray, num_locations: int, beta: float
) -> np.ndarray:
    """Per-event decayed history counts by source location, as a dense n x K
    matrix: the reference for :class:`EventKernel`'s pair values.

    Returns R with ``R[i, a] = sum_{j: t_j < t_i, u_j = a} exp(-beta (t_i - t_j))``.
    Events sharing a timestamp see the same (strictly earlier) history.
    """
    n = len(times)
    R = np.zeros((n, num_locations))
    state = np.zeros(num_locations)
    i = 0
    t_prev = None
    while i < n:
        j = i
        while j < n and times[j] == times[i]:
            j += 1
        if t_prev is not None:
            state *= np.exp(-beta * (times[i] - t_prev))
        R[i:j] = state
        for idx in range(i, j):
            state[locations[idx]] += 1.0
        t_prev = times[i]
        i = j
    return R


class DecayedExcitation:
    """Per cell k, ``sum_j beta * alpha[u_j, k] * exp(-beta (t - t_j))`` over the
    events added so far, held at time ``t`` (initially 0): the one state the
    simulator and the forecast carry forward.  ``advance(t)`` decays it in place,
    ``add(k)`` adds an event at cell k, ``at(t)`` reads it at t and leaves it."""

    def __init__(self, params: ModelParams):
        self.beta, self.dst = params.beta, params.dst
        self.jumps = params.beta * params.alpha_values
        self.starts = np.searchsorted(params.src, np.arange(params.num_locations + 1))  # source k's pairs
        self.values, self.t = np.zeros(params.num_locations), 0.0

    def advance(self, t: float) -> None:
        self.values *= np.exp(-self.beta * (t - self.t))
        self.t = t

    def add(self, k: int) -> None:
        row = slice(self.starts[k], self.starts[k + 1])
        self.values[self.dst[row]] += self.jumps[row]

    def at(self, t: float) -> np.ndarray:
        return self.values * np.exp(-self.beta * (t - self.t))


class EventKernel:
    """Ground intensities at the events of one sequence, and their gradient,
    as bincounts over (event, pair) entries.

    ``src, dst`` are the allowed (source, destination) pairs, sorted as
    ``np.nonzero`` returns them; ``alpha`` is passed as the vector of its
    values on those pairs.  Event i at location k = u_i gets one entry per
    pair with destination k, sources ascending, valued
    ``sum_{j: t_j < t_i, u_j = src} exp(-beta (t_i - t_j))``.  That value is
    the decayed count at the source's last strictly earlier event (found by
    one searchsorted on integer (source, time-rank) keys, so tied times see
    the same history), decayed on to t_i; the decayed counts follow one
    recursion per source, run rank by rank across all sources.  Entries
    whose source has no strictly earlier event are worth 0 and left out;
    indices are int32 (``take`` gathers them faster than fancy indexing).
    All but the values depends only on the sequence and pairs: ``with_beta`` shares it.
    """

    def __init__(self, seq: EventSequence, src: np.ndarray, dst: np.ndarray, beta: float):
        self.seq = seq
        n, K, locs = len(seq), seq.num_locations, seq.locations
        self.src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        # each event's pairs through a by-destination index (stable: sources stay ascending)
        by_dst = np.argsort(dst, kind="stable")
        deg = np.bincount(dst, minlength=K)
        counts = deg[locs]
        rows = np.repeat(np.arange(n, dtype=np.int32), counts)
        offset = (np.cumsum(deg) - deg)[locs] - (np.cumsum(counts) - counts)
        pairs = by_dst.astype(np.int32)[np.repeat(offset, counts) + np.arange(len(rows))]
        # the events grouped by source, times ascending within a source
        order = np.argsort(locs, kind="stable")
        src_times, src_locs = seq.times[order], locs[order]
        self.gaps = np.where(np.diff(src_locs) == 0, np.diff(src_times), 0.0)  # 0 across sources
        per_src = np.bincount(locs, minlength=K)
        first = np.cumsum(per_src) - per_src
        # positions of every source's second, third, ... event: one recursion step each
        self.chain = [first[per_src > r] + r for r in range(1, per_src.max(initial=0))]
        time_rank = np.unique(seq.times, return_inverse=True)[1].ravel()
        entry_src = self.src.astype(np.int32)[pairs]
        keys = src_locs * (n + 1) + time_rank[order]
        query = np.multiply(entry_src, n + 1, dtype=np.int64)
        query += time_rank[rows]
        last = np.searchsorted(keys, query)
        last -= 1
        # keep the entries whose source has a strictly earlier event: the others are worth 0
        kept = last >= first[entry_src]
        del query, entry_src  # the build's peak memory is a few entry-length arrays
        self.rows, self.pairs = rows[kept], pairs[kept]
        self.last = last[kept].astype(np.int32)  # into the decayed counts
        del rows, pairs, last, kept
        self.lag = seq.times[self.rows]
        self.lag -= src_times[self.last]
        self._values(beta)

    def _values(self, beta: float) -> None:
        seq = self.seq
        self.beta = float(beta)
        decay = np.exp(-self.beta * self.gaps)
        decayed = np.ones(len(seq))  # at each source's events, that source's own decayed count
        for at in self.chain:
            decayed[at] += decayed[at - 1] * decay[at - 1]
        self.vals = np.multiply(self.lag, -self.beta)
        np.exp(self.vals, out=self.vals)
        self.vals *= decayed[self.last]
        w = 1.0 - np.exp(-self.beta * (seq.horizon - seq.times))
        self.sum_w = np.bincount(seq.locations, w, minlength=seq.num_locations)

    def with_beta(self, beta: float) -> "EventKernel":
        """The same pairs at another decay."""
        other = copy.copy(self)
        other._values(beta)
        return other

    def intensities(self, mu: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        excite = np.bincount(self.rows, self.vals * alpha.take(self.pairs), minlength=len(self.seq))
        return mu[self.seq.locations] + self.beta * excite

    def row_sums(self, alpha: np.ndarray) -> np.ndarray:
        """alpha summed over each source's pairs: the compensator's beta-free part."""
        return np.bincount(self.src, alpha, minlength=self.seq.num_locations)

    def compensator(self, mu: np.ndarray, row_sums: np.ndarray) -> float:
        return self.seq.horizon * mu.sum() + float(row_sums @ self.sum_w)

    def gradients(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, alpha-on-pairs) gradient of ``compensator - sum_i log lam_i``;
        events at the floor add nothing."""
        inv_lam = inverse_above_floor(lam)
        g_mu = self.seq.horizon - np.bincount(self.seq.locations, inv_lam, minlength=self.seq.num_locations)
        event_part = np.bincount(self.pairs, self.vals * (self.beta * inv_lam).take(self.rows), minlength=len(self.src))
        return g_mu, self.sum_w[self.src] - event_part


def inverse_above_floor(x: np.ndarray) -> np.ndarray:
    """``1 / x`` where x is above ``RATE_FLOOR``, else 0."""
    return np.where(x > RATE_FLOOR, 1.0 / np.maximum(x, RATE_FLOOR), 0.0)


def floored_log_sum(x) -> float:
    return float(np.log(np.maximum(x, RATE_FLOOR)).sum())


def linear_mark_gradient(marks: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Gradient of ``-sum_i log(marks_i @ gamma)`` w.r.t. gamma."""
    return -(marks.T @ inverse_above_floor(marks @ gamma))


class FeasibleSet:
    """Convex constraint region: mu >= 0, beta >= 0, the allowed pairs
    ``src, dst`` (``np.nonzero`` order of a K x K ``mask``, or a params'
    support by :meth:`of`), and radius-``BALL_RADIUS`` balls on mu, alpha,
    gamma.  It is the one owner of the flat layout ``[mu, alpha[src, dst],
    gamma]`` that the solver iterates and :class:`Objective` reads."""

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        self.src, self.dst = (_frozen(index) for index in np.nonzero(mask))
        self.num_locations = mask.shape[0]

    @classmethod
    def of(cls, params: ModelParams) -> "FeasibleSet":
        """The region whose allowed pairs are ``params``' support."""
        return cls.on_pairs(params.src, params.dst, params.num_locations)

    @classmethod
    def on_pairs(cls, src: np.ndarray, dst: np.ndarray, num_locations: int) -> "FeasibleSet":
        """The region whose allowed pairs are ``src, dst``, given in
        ``np.nonzero`` order (as :func:`neighbor_pairs` returns them); pairs
        out of range, repeated or out of that order fail."""
        src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
        if _support_order(src, dst, num_locations) is not None:
            raise ValueError("support pairs must come in np.nonzero order: by src, then dst")
        feasible = object.__new__(cls)
        feasible.src, feasible.dst = _frozen(src), _frozen(dst)
        feasible.num_locations = num_locations
        return feasible

    def flatten(self, params: ModelParams) -> np.ndarray:
        """The flat iterate ``[mu, alpha[src, dst], gamma]`` of ``params``."""
        return np.concatenate([params.mu, params.alpha_on(self.src, self.dst), params.gamma])

    def split(self, x: np.ndarray):
        """(mu, alpha on the pairs, gamma) views of a flat iterate."""
        K, P = self.num_locations, len(self.src)
        return x[:K], x[K : K + P], x[K + P :]

    def params(self, x: np.ndarray, beta: float) -> ModelParams:
        """The params of a flat iterate: the inverse of :meth:`flatten` on
        the allowed pairs."""
        mu, alpha, gamma = self.split(x)
        return ModelParams.from_pairs(mu, self.src, self.dst, alpha, beta, gamma)


def default_feasible_set(seq: EventSequence) -> FeasibleSet:
    """Every (source, destination) pair allowed."""
    K = seq.num_locations
    return FeasibleSet.on_pairs(np.repeat(np.arange(K), K), np.tile(np.arange(K), K), K)


class Objective:
    """The estimation objective at a fixed beta: negative log-likelihood plus
    ``l1_weight * ||gamma||_1``, and its smooth gradient, on the flat vector
    of ``feasible``; log arguments are floored at ``RATE_FLOOR``.

    A gamma-free mark term is scored once; :meth:`with_beta` shares it and
    the kernel's index arrays.  The intensities of the latest argument are
    cached by identity: the descent loop evaluates objective and gradient at
    the same accepted iterate.  So are the compensator's per-source alpha
    sums, which do not depend on beta: one cache serves every
    :meth:`with_beta` copy, so a line search that scores one iterate at
    many betas sums its alpha once.
    """

    def __init__(self, seq: EventSequence, mark_model, feasible: FeasibleSet, beta: float, l1_weight: float):
        if feasible.num_locations != seq.num_locations:
            raise ValueError(f"support has {feasible.num_locations} locations but the events have {seq.num_locations}")
        self.seq, self.feasible = seq, feasible
        self.kernel = EventKernel(seq, feasible.src, feasible.dst, beta)
        self.l1_weight = float(l1_weight)
        self.mark_term = None  # a gamma-free model's, fixed; a linear one's depends on gamma
        if not mark_model.uses_gamma:
            self.mark_term = floored_log_sum(mark_model.event_scores(np.zeros(seq.mark_dim), seq))
        self._cache_key = self._cache_lam = None
        self._row_sums = [None, None]  # (iterate, its kernel.row_sums), shared by with_beta copies

    @property
    def beta(self) -> float:
        return self.kernel.beta

    def with_beta(self, beta: float) -> "Objective":
        """The same objective at another decay, with an empty intensity
        cache; at its own beta, the objective itself."""
        if float(beta) == self.beta:
            return self
        other = copy.copy(self)
        other.kernel = self.kernel.with_beta(beta)
        other._cache_key = other._cache_lam = None
        return other

    def _event_intensities(self, x, mu, alpha):
        if self._cache_key is not x:
            self._cache_key = x
            self._cache_lam = self.kernel.intensities(mu, alpha)
        return self._cache_lam

    def value(self, x: np.ndarray) -> float:
        mu, alpha, gamma = self.feasible.split(x)
        lam = self._event_intensities(x, mu, alpha)
        mark_term = floored_log_sum(self.seq.marks @ gamma) if self.mark_term is None else self.mark_term
        if self._row_sums[0] is not x:
            self._row_sums[:] = x, self.kernel.row_sums(alpha)
        comp = self.kernel.compensator(mu, self._row_sums[1])
        return -(floored_log_sum(lam) + mark_term - comp) + self.l1_weight * float(np.abs(gamma).sum())

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of everything but the l1 term, flat like ``x``."""
        mu, alpha, gamma = self.feasible.split(x)
        g_mu, g_alpha = self.kernel.gradients(self._event_intensities(x, mu, alpha))
        g_gamma = linear_mark_gradient(self.seq.marks, gamma) if self.mark_term is None else np.zeros(len(gamma))
        return np.concatenate([g_mu, g_alpha, g_gamma])


def penalized_objective(
    params: ModelParams, seq: EventSequence, mark_model, l1_weight: float = 1.0
) -> float:
    """Estimation objective: negative log-likelihood plus l1 penalty on gamma;
    the :class:`Objective` runs on alpha's nonzero pairs."""
    if l1_weight < 0:
        raise ValueError("l1_weight must be nonnegative")
    for arr in (params.mu, params.alpha_values, params.gamma):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite parameter")
    if not np.isfinite(params.beta):
        raise ValueError("non-finite beta")
    nonzero = params.alpha_values != 0
    feasible = FeasibleSet.on_pairs(params.src[nonzero], params.dst[nonzero], params.num_locations)
    return Objective(seq, mark_model, feasible, params.beta, l1_weight).value(feasible.flatten(params))


def objective_gradient(
    params: ModelParams, seq: EventSequence, mark_model, l1_weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of the penalized objective w.r.t. (mu, alpha, gamma).

    The :class:`Objective` runs on all K^2 pairs, so every alpha entry is
    exact, also off the support.  The gamma component includes
    ``l1_weight * sign(gamma)``, valid away from zeros; the optimizer
    soft-thresholds the l1 part instead.
    """
    feasible = default_feasible_set(seq)
    objective = Objective(seq, mark_model, feasible, params.beta, l1_weight)
    g_mu, g_alpha, g_gamma = feasible.split(objective.smooth_gradient(feasible.flatten(params)))
    return g_mu, g_alpha.reshape(feasible.num_locations, -1), g_gamma + l1_weight * np.sign(params.gamma)
