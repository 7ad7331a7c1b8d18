"""Marked mutually exciting point process over discrete locations.

The conditional intensity factors into a ground process and a mark score,

    lambda(t, k, m) = lambda_g(t, k) * f(m | t, k),
    lambda_g(t, k)  = mu_k + sum_{j: t_j < t} alpha[u_j, k] * beta * exp(-beta (t - t_j)),

with ``f`` either linear in the marks or an arbitrary fitted scorer (see
:mod:`firecast.marks`).  ``pipeline.risk_series`` is the one evaluation of
lambda at query times, for the predict stage and counterfactuals alike; this
module holds the parameters, the likelihood and the estimation objective.
The log-likelihood over ``[0, T]`` has the closed form

    sum_i log lambda_g(t_i, u_i) + sum_i log f(m_i | t_i, u_i)
      - T * sum_k mu_k - sum_i (sum_k alpha[u_i, k]) * (1 - exp(-beta (T - t_i))),

whose integral term is the compensator of the location-summed ground
process (:meth:`EventKernel.compensator`).  :class:`EventKernel` evaluates the
event intensities and their gradient over a list of allowed (source,
destination) pairs, in O(events x allowed sources) rather than O(n K^2):
each (event, source) value comes from a decayed-count recursion over that
source's own events, never from a dense n x K history matrix
(:func:`excitation_matrix` stays as the reference it is tested against).
:class:`ModelParams` holds alpha on the same kind of pairs, and so does
``params.json``; no K x K array is built on the fit, predict or I/O paths.

:class:`Objective` is the one implementation of the estimation objective
(negative log-likelihood plus an l1 penalty on gamma) and its gradient, on
a flat ``[mu, alpha[src, dst], gamma]`` vector at a fixed beta: the solver
in :mod:`firecast.estimation` runs it on the mask's pairs, and
``penalized_objective``, ``log_likelihood`` and ``objective_gradient`` are
short calls into it.  It alone takes logs of intensities and mark scores,
floored at ``RATE_FLOOR`` so the objective stays finite on the whole
feasible set, where negative interaction weights can drive the raw value to
zero or below.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

from .events import EventSequence, _frozen

RATE_FLOOR = 1e-12  # lower clamp for any rate fed to log or used as a density

BALL_RADIUS = 1.0  # l2 radius bounding mu, alpha (Frobenius) and gamma
NORM_TOL = 1e-9  # slack on ball-constraint checks
MASK_BLOCK_ROWS = 64  # rows per block in mask_from_centroids: two 64 x K float temporaries
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
        if np.any((src < 0) | (src >= K) | (dst < 0) | (dst >= K)):
            raise ValueError(f"support indices must lie in [0, {K})")
        keys = src * K + dst
        if np.any(np.diff(keys) <= 0):
            order = np.argsort(keys, kind="stable")
            if np.any(np.diff(keys[order]) == 0):
                raise ValueError("support repeats a (src, dst) pair")
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
        """alpha's values on the given pairs; zero where a pair is off the support."""
        K = self.num_locations
        keys = self.src * K + self.dst
        wanted = np.asarray(src, dtype=np.intp) * K + np.asarray(dst, dtype=np.intp)
        if len(keys) == 0:
            return np.zeros(len(wanted))
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, self.alpha_values[at], 0.0)

    def row_starts(self) -> np.ndarray:
        """Offsets of each source's pairs: source k's are ``[starts[k], starts[k + 1])``."""
        return np.searchsorted(self.src, np.arange(self.num_locations + 1))

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


def _json_array(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())``, encoded ``JSON_BLOCK`` entries at a time."""
    blocks = (json.dumps(values[i : i + JSON_BLOCK].tolist())[1:-1] for i in range(0, len(values), JSON_BLOCK))
    return "[" + ", ".join(blocks) + "]"


def mask_from_centroids(centroids: np.ndarray, neighbor_radius: float) -> np.ndarray:
    """Allow interaction between cells whose centroids are within the radius.

    Evaluates ``sqrt(dx*dx + dy*dy) <= neighbor_radius`` in blocks of
    ``MASK_BLOCK_ROWS`` rows, in place, so the float temporaries take about
    1 KB per cell rather than 40 bytes per pair; the operations and their
    order are the broadcast formula's, so pairs within an ulp of the radius
    land on the same side.
    """
    centroids = np.asarray(centroids, dtype=float)
    x, y = centroids[:, 0], centroids[:, 1]
    mask = np.empty((len(centroids), len(centroids)), dtype=bool)
    for r0 in range(0, len(centroids), MASK_BLOCK_ROWS):
        rows = slice(r0, r0 + MASK_BLOCK_ROWS)
        dx = np.subtract.outer(x[rows], x)
        dy = np.subtract.outer(y[rows], y)
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        np.less_equal(dx, neighbor_radius, out=mask[rows])
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

    def compensator(self, mu: np.ndarray, alpha: np.ndarray) -> float:
        row_sums = np.bincount(self.src, alpha, minlength=self.seq.num_locations)
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


class Objective:
    """The estimation objective at a fixed beta: negative log-likelihood plus
    ``l1_weight * ||gamma||_1``, and its smooth gradient, on the flat vector
    ``[mu, alpha[src, dst], gamma]`` over the given (source, destination)
    pairs; log arguments are floored at ``RATE_FLOOR``.

    A gamma-free mark term is scored once.  The intensities of the latest
    argument are cached by identity: the descent loop evaluates objective
    and gradient at the same accepted iterate.
    """

    def __init__(self, seq: EventSequence, mark_model, src: np.ndarray, dst: np.ndarray, beta: float,
                 l1_weight: float):
        self.kernel = EventKernel(seq, src, dst, beta)
        self.l1_weight = float(l1_weight)
        self.K, self.P = seq.num_locations, len(self.kernel.src)
        self.marks = seq.marks
        self.uses_gamma = mark_model.uses_gamma
        if not self.uses_gamma:
            self.const_mark_term = floored_log_sum(mark_model.event_scores(np.zeros(seq.mark_dim), seq))
        self._cache_key = self._cache_lam = None

    def split(self, x: np.ndarray):
        """(mu, alpha on the pairs, gamma) views of ``x``."""
        K, P = self.K, self.P
        return x[:K], x[K : K + P], x[K + P :]

    def _event_intensities(self, x, mu, alpha):
        if self._cache_key is not x:
            self._cache_key = x
            self._cache_lam = self.kernel.intensities(mu, alpha)
        return self._cache_lam

    def _mark_term(self, gamma) -> float:
        return floored_log_sum(self.marks @ gamma) if self.uses_gamma else self.const_mark_term

    def _value(self, kernel, lam, mu, alpha, gamma, mark_term: float) -> float:
        comp = kernel.compensator(mu, alpha)
        event_term = floored_log_sum(lam)
        return -(event_term + mark_term - comp) + self.l1_weight * float(np.abs(gamma).sum())

    def value(self, x: np.ndarray) -> float:
        mu, alpha, gamma = self.split(x)
        lam = self._event_intensities(x, mu, alpha)
        return self._value(self.kernel, lam, mu, alpha, gamma, self._mark_term(gamma))

    def beta_profile(self, x: np.ndarray):
        """The objective at ``x`` as a function of beta, for the line search:
        the mark term and the index arrays are computed once."""
        mu, alpha, gamma = self.split(x)
        mark_term = self._mark_term(gamma)

        def f(beta: float) -> float:
            kernel = self.kernel.with_beta(beta)
            return self._value(kernel, kernel.intensities(mu, alpha), mu, alpha, gamma, mark_term)

        return f

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of everything but the l1 term, flat like ``x``."""
        mu, alpha, gamma = self.split(x)
        g_mu, g_alpha = self.kernel.gradients(self._event_intensities(x, mu, alpha))
        g_gamma = linear_mark_gradient(self.marks, gamma) if self.uses_gamma else np.zeros(len(gamma))
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
    objective = Objective(seq, mark_model, params.src[nonzero], params.dst[nonzero], params.beta, l1_weight)
    return objective.value(np.concatenate([params.mu, params.alpha_values[nonzero], params.gamma]))


def log_likelihood(params: ModelParams, seq: EventSequence, mark_model) -> float:
    """Exact log-likelihood of the sequence: the unpenalized objective, negated."""
    return -penalized_objective(params, seq, mark_model, 0.0)


def objective_gradient(
    params: ModelParams, seq: EventSequence, mark_model, l1_weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of the penalized objective w.r.t. (mu, alpha, gamma).

    The :class:`Objective` runs on all K^2 pairs, so every alpha entry is
    exact, also off the support.  The gamma component includes
    ``l1_weight * sign(gamma)``, valid away from zeros; the optimizer
    soft-thresholds the l1 part instead.
    """
    K = seq.num_locations
    src, dst = np.divmod(np.arange(K * K), K)
    objective = Objective(seq, mark_model, src, dst, params.beta, l1_weight)
    x = np.concatenate([params.mu, params.alpha_on(src, dst), params.gamma])
    g_mu, g_alpha, g_gamma = objective.split(objective.smooth_gradient(x))
    return g_mu, g_alpha.reshape(K, K), g_gamma + l1_weight * np.sign(params.gamma)
