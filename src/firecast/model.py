"""Marked mutually exciting point process over discrete locations.

The conditional intensity factors into a ground process and a mark score,

    lambda(t, k, m) = lambda_g(t, k) * f(m | t, k),
    lambda_g(t, k)  = mu_k + sum_{j: t_j < t} alpha[u_j, k] * beta * exp(-beta (t - t_j)),

with ``f`` either linear in the marks or an arbitrary fitted scorer (see
:mod:`firecast.marks`).  The log-likelihood over ``[0, T]`` has the closed
form

    sum_i log lambda_g(t_i, u_i) + sum_i log f(m_i | t_i, u_i)
      - T * sum_k mu_k - sum_i (sum_k alpha[u_i, k]) * (1 - exp(-beta (T - t_i))),

whose integral term this module also exposes separately (the compensator of
the location-summed ground process).  :class:`EventKernel` evaluates the
event intensities and their gradient over the (source, destination) pairs
a mask allows, in O(events x allowed sources) rather than O(n K^2).
Intensities passed to ``log`` are floored at ``RATE_FLOOR`` so the objective
stays finite on the whole feasible set, where negative interaction weights
can drive the raw value to zero or below.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import EventSequence, _frozen
from .marks import LinearMarkModel

RATE_FLOOR = 1e-12  # lower clamp for any rate fed to log or used as a density

BALL_RADIUS = 1.0  # l2 radius bounding mu, alpha (Frobenius) and gamma
NORM_TOL = 1e-9  # slack on ball-constraint checks


@dataclass(frozen=True)
class ModelParams:
    """Parameters (mu, alpha, beta, gamma) plus the interaction sparsity mask.

    Feasibility: mu >= 0 elementwise, beta >= 0, ||mu||_2 <= 1,
    ||alpha||_F <= 1, ||gamma||_2 <= 1, and alpha must vanish wherever the
    mask is false.
    """

    mu: np.ndarray       # (K,)
    alpha: np.ndarray    # (K, K); alpha[i, j] = influence of cell i on cell j
    beta: float
    gamma: np.ndarray    # (p,)
    mask: np.ndarray     # (K, K) bool

    def __post_init__(self):
        object.__setattr__(self, "mu", _frozen(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "alpha", _frozen(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "gamma", _frozen(np.asarray(self.gamma, dtype=float)))
        object.__setattr__(self, "mask", _frozen(np.asarray(self.mask, dtype=bool)))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def num_locations(self) -> int:
        return len(self.mu)

    @property
    def mark_dim(self) -> int:
        return len(self.gamma)

    def validate(self) -> "ModelParams":
        K = self.num_locations
        if self.alpha.shape != (K, K) or self.mask.shape != (K, K):
            raise ValueError("alpha and mask must be K x K")
        for name, arr in (("mu", self.mu), ("alpha", self.alpha), ("gamma", self.gamma)):
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
        if np.linalg.norm(self.alpha) > BALL_RADIUS + NORM_TOL:
            raise ValueError("||alpha||_F must be <= 1")
        if np.linalg.norm(self.gamma) > BALL_RADIUS + NORM_TOL:
            raise ValueError("||gamma||_2 must be <= 1")
        if np.any(self.alpha[~self.mask] != 0.0):
            raise ValueError("alpha must be zero where the mask is false")
        return self

    def to_json(self, path: str | Path | None = None) -> str:
        payload = {
            "mu": self.mu.tolist(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta,
            "gamma": self.gamma.tolist(),
            "mask": self.mask.tolist(),
        }
        text = json.dumps(payload, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ModelParams":
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        payload = json.loads(text)
        return cls(
            mu=np.array(payload["mu"], dtype=float),
            alpha=np.array(payload["alpha"], dtype=float),
            beta=float(payload["beta"]),
            gamma=np.array(payload["gamma"], dtype=float),
            mask=np.array(payload["mask"], dtype=bool),
        )


@dataclass(frozen=True)
class KernelConfig:
    """Spatial-interaction settings: which cell pairs may interact and how
    mark indices split into static and dynamic groups."""

    neighbor_radius: float        # degrees; farther centroids get mask=False
    cell_size: float              # degrees, grid side length
    static_indices: tuple[int, ...] = ()
    dynamic_indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.neighbor_radius <= 0:
            raise ValueError("neighbor_radius must be positive")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        both = sorted(self.static_indices + self.dynamic_indices)
        if both and both != list(range(len(both))):
            raise ValueError("static/dynamic indices must partition 0..p-1")

    def build_mask(self, centroids: np.ndarray) -> np.ndarray:
        return mask_from_centroids(centroids, self.neighbor_radius)

    def split_gamma(self, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mark weights split into (static, dynamic) groups for reporting."""
        gamma = np.asarray(gamma, dtype=float)
        return gamma[list(self.static_indices)], gamma[list(self.dynamic_indices)]


def mask_from_centroids(centroids: np.ndarray, neighbor_radius: float) -> np.ndarray:
    """Allow interaction between cells whose centroids are within the radius."""
    centroids = np.asarray(centroids, dtype=float)
    diff = centroids[:, None, :] - centroids[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return dist <= neighbor_radius


def mask_from_index_distance(num_locations: int, tau: int) -> np.ndarray:
    """Allow interaction between cells whose ids differ by less than ``tau``."""
    idx = np.arange(num_locations)
    return np.abs(idx[:, None] - idx[None, :]) < tau


def excitation_matrix(
    times: np.ndarray, locations: np.ndarray, num_locations: int, beta: float
) -> np.ndarray:
    """Per-event decayed history counts by source location.

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


def _check_query(seq: EventSequence, t: float, k: int) -> None:
    if not 0 <= t <= seq.horizon:
        raise ValueError(f"query time {t} outside [0, {seq.horizon}]")
    if not 0 <= k < seq.num_locations:
        raise ValueError(f"location {k} outside [0, {seq.num_locations})")


def ground_intensity(params: ModelParams, seq: EventSequence, t: float, k: int) -> float:
    """Mark-free intensity at (t, k); uses only events strictly before t."""
    _check_query(seq, t, k)
    hist = seq.times < t
    if not np.any(hist):
        return float(params.mu[k])
    dt = t - seq.times[hist]
    contrib = params.alpha[seq.locations[hist], k] * params.beta * np.exp(-params.beta * dt)
    return float(params.mu[k] + contrib.sum())


def conditional_intensity(
    params: ModelParams,
    seq: EventSequence,
    mark_model,
    t: float,
    k: int,
    marks: np.ndarray,
) -> float:
    """Full intensity lambda(t, k, m), floored at ``RATE_FLOOR``."""
    marks = np.asarray(marks, dtype=float)
    if isinstance(mark_model, LinearMarkModel) and marks.shape != params.gamma.shape:
        raise ValueError(f"mark vector has shape {marks.shape}, expected {params.gamma.shape}")
    ground = ground_intensity(params, seq, t, k)
    score = mark_model.score(params.gamma, marks, t, k)
    return max(float(ground * score), RATE_FLOOR)


def integrated_ground_intensity(params: ModelParams, seq: EventSequence, t: float) -> float:
    """Compensator sum_k int_0^t lambda_g(tau, k) dtau in closed form."""
    if not 0 <= t <= seq.horizon:
        raise ValueError(f"upper limit {t} outside [0, {seq.horizon}]")
    total = t * params.mu.sum()
    hist = seq.times < t
    if np.any(hist):
        row_sums = params.alpha.sum(axis=1)[seq.locations[hist]]
        total += (row_sums * (1.0 - np.exp(-params.beta * (t - seq.times[hist])))).sum()
    return float(total)


class EventKernel:
    """Ground intensities at the events of one sequence, and their gradient,
    as bincounts over gathered (event, source) pairs.

    ``support`` (K x K bool) names the pairs (a, k) whose weight
    ``alpha[a, k]`` may be nonzero; event i at location k = u_i gets one
    pair per allowed source a, valued ``R[i, a]`` (see
    :func:`excitation_matrix`).  The index arrays depend only on the
    sequence and the support; ``with_beta`` shares them.
    """

    def __init__(self, seq: EventSequence, support: np.ndarray, beta: float):
        self.seq = seq
        self.rows, self.srcs = np.nonzero(np.asarray(support, dtype=bool)[:, seq.locations].T)
        self.aidx = self.srcs * seq.num_locations + seq.locations[self.rows]
        self._gather(beta)

    def _gather(self, beta: float) -> None:
        seq = self.seq
        self.beta = float(beta)
        R = excitation_matrix(seq.times, seq.locations, seq.num_locations, self.beta)
        self.vals = R[self.rows, self.srcs]
        w = 1.0 - np.exp(-self.beta * (seq.horizon - seq.times))
        self.sum_w = np.bincount(seq.locations, w, minlength=seq.num_locations)

    def with_beta(self, beta: float) -> "EventKernel":
        """The same pairs at another decay."""
        other = copy.copy(self)
        other._gather(beta)
        return other

    def intensities(self, mu: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        excite = np.bincount(self.rows, self.vals * alpha.take(self.aidx), minlength=len(self.seq))
        return mu[self.seq.locations] + self.beta * excite

    def compensator(self, mu: np.ndarray, alpha: np.ndarray) -> float:
        return self.seq.horizon * mu.sum() + float(alpha.sum(axis=1) @ self.sum_w)

    def gradients(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, alpha) gradient of ``compensator - sum_i log lam_i``; events at
        the floor add nothing, alpha entries off the support only compensator."""
        K = self.seq.num_locations
        inv_lam = inverse_above_floor(lam)
        g_mu = self.seq.horizon - np.bincount(self.seq.locations, inv_lam, minlength=K)
        event_part = np.bincount(self.aidx, self.vals * (self.beta * inv_lam)[self.rows], minlength=K * K)
        return g_mu, self.sum_w[:, None] - event_part.reshape(K, K)


def inverse_above_floor(x: np.ndarray) -> np.ndarray:
    """``1 / x`` where x is above ``RATE_FLOOR``, else 0."""
    return np.where(x > RATE_FLOOR, 1.0 / np.maximum(x, RATE_FLOOR), 0.0)


def floored_log_sum(x) -> float:
    return float(np.log(np.maximum(x, RATE_FLOOR)).sum())


def linear_mark_gradient(marks: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Gradient of ``-sum_i log(marks_i @ gamma)`` w.r.t. gamma."""
    return -(marks.T @ inverse_above_floor(marks @ gamma))


def log_likelihood(params: ModelParams, seq: EventSequence, mark_model) -> float:
    """Exact log-likelihood of the sequence (for any alpha: the kernel gathers
    its nonzeros); log arguments floored at RATE_FLOOR."""
    for arr in (params.mu, params.alpha, params.gamma):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite parameter")
    if not np.isfinite(params.beta):
        raise ValueError("non-finite beta")
    kernel = EventKernel(seq, params.alpha != 0, params.beta)
    event_term = floored_log_sum(kernel.intensities(params.mu, params.alpha))
    mark_term = floored_log_sum(mark_model.event_scores(params.gamma, seq))
    return event_term + mark_term - kernel.compensator(params.mu, params.alpha)


def penalized_objective(
    params: ModelParams, seq: EventSequence, mark_model, l1_weight: float = 1.0
) -> float:
    """Estimation objective: negative log-likelihood plus l1 penalty on gamma."""
    if l1_weight < 0:
        raise ValueError("l1_weight must be nonnegative")
    return -log_likelihood(params, seq, mark_model) + l1_weight * float(
        np.abs(params.gamma).sum()
    )


def objective_gradient(
    params: ModelParams, seq: EventSequence, mark_model, l1_weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of the penalized objective w.r.t. (mu, alpha, gamma).

    All K^2 pairs are gathered, so every alpha entry is exact, also off the
    mask.  The gamma component includes ``l1_weight * sign(gamma)``, valid
    away from zeros; the optimizer soft-thresholds the l1 part instead.
    """
    K = seq.num_locations
    kernel = EventKernel(seq, np.ones((K, K), dtype=bool), params.beta)
    g_mu, g_alpha = kernel.gradients(kernel.intensities(params.mu, params.alpha))
    gamma = params.gamma
    g_gamma = linear_mark_gradient(seq.marks, gamma) if mark_model.uses_gamma else np.zeros_like(gamma)
    return g_mu, g_alpha, g_gamma + l1_weight * np.sign(gamma)
