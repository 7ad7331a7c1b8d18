"""Exact simulation of the point process by Ogata thinning.

Between events the location-summed ground intensity is nonincreasing (the
exponential kernels only decay), so the intensity evaluated just after the
last accepted or rejected candidate upper-bounds the process until the next
arrival.  Candidates are proposed from that bound and accepted with
probability (current total intensity) / bound; accepted events pick their
location proportionally to the per-location intensity.  Negative
interaction weights would break the bound and are rejected up front.

The location and mark-coordinate draws are inverse-CDF draws, the same
arithmetic ``Generator.choice(n, p=p)`` performs internally (cumulative sum
normalized by its last entry, one ``random()``, a right-sided search), so
they consume the same random stream and pick the same index without
choice's per-call argument checks.  For the same reason uniforms come from
``random()`` and exponentials from ``standard_exponential() * s``: the bits
and stream of ``uniform()`` (``0.0 + 1.0 * u``) and ``exponential(s)``
(``s * e``), without their argument handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import EventSequence
from .model import DecayedExcitation, ModelParams


def _draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """Index drawn with the probabilities whose normalized cumulative sum is ``cdf``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _cdf(p: np.ndarray) -> np.ndarray:
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def uniform_mark_sampler(rng: np.random.Generator, location: int, dim: int) -> np.ndarray:
    return rng.random(dim)


def linear_density_mark_sampler(gamma: np.ndarray):
    """Sampler for marks with density proportional to ``gamma @ m`` on [0,1]^p.

    Requires nonnegative weights.  Exact: pick coordinate l with probability
    gamma_l / sum(gamma), draw it from the triangular density 2m (inverse
    CDF sqrt(U)), the rest uniform.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0) or gamma.sum() <= 0:
        raise ValueError("linear mark density needs nonnegative weights with positive sum")
    cdf = _cdf(gamma / gamma.sum())

    def sampler(rng: np.random.Generator, location: int, dim: int) -> np.ndarray:
        if dim != len(gamma):
            raise ValueError("mark dimension mismatch")
        m = rng.random(dim)
        l = _draw_index(rng, cdf)
        m[l] = np.sqrt(rng.random())
        return m

    return sampler


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: generating parameters, horizon, mark sampler, seed."""

    params: ModelParams
    horizon: float
    seed: int = 0
    mark_dim: int | None = None
    mark_sampler: object = field(default=uniform_mark_sampler)
    magnitude_sampler: object | None = None  # optional (rng, marks, location) -> int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


def simulate(config: SimConfig) -> EventSequence:
    """Draw one trajectory on [0, horizon] by thinning; deterministic per seed."""
    params = config.params.validate()
    if np.any(params.alpha_values < 0):
        raise ValueError(
            "thinning needs an upper-bounding intensity: negative interaction "
            "weights are not supported for simulation"
        )
    rng = np.random.default_rng(config.seed)
    p = config.mark_dim if config.mark_dim is not None else params.mark_dim
    mu, T = params.mu, config.horizon

    times: list[float] = []
    locs: list[int] = []
    marks: list[np.ndarray] = []
    mags: list[int] = []

    excite = DecayedExcitation(params)
    # loop invariants hoisted; np.add.reduce is ndarray.sum without its Python wrapper
    mu_sum, rates = np.add.reduce(mu), np.empty_like(mu)
    bound = float(mu_sum)
    while bound > 0.0:
        t_cand = excite.t + rng.standard_exponential() * (1.0 / bound)
        if t_cand > T:
            break
        excite.advance(t_cand)
        np.add(mu, excite.values, out=rates)
        total = float(np.add.reduce(rates))
        if rng.random() * bound <= total:
            rates /= total
            k = _draw_index(rng, _cdf(rates))
            m = np.asarray(config.mark_sampler(rng, k, p), dtype=float)
            times.append(t_cand)
            locs.append(k)
            marks.append(m)
            if config.magnitude_sampler is not None:
                mags.append(int(config.magnitude_sampler(rng, m, k)))
            excite.add(k)
        bound = float(mu_sum + np.add.reduce(excite.values))

    return EventSequence(
        times=np.array(times, dtype=float),
        locations=np.array(locs, dtype=np.int64),
        marks=np.array(marks, dtype=float).reshape(len(times), p),
        horizon=T,
        num_locations=params.num_locations,
        magnitudes=np.array(mags, dtype=np.int64) if mags else None,
    )


def parameter_errors(true_params: ModelParams, fitted: ModelParams) -> dict[str, float]:
    """l2 errors per block; alpha's over the union of the two supports."""
    mu_err = float(np.linalg.norm(fitted.mu - true_params.mu))
    K = fitted.num_locations
    src, dst = np.divmod(np.union1d(fitted.src * K + fitted.dst, true_params.src * K + true_params.dst), K)
    alpha_err = float(np.linalg.norm(fitted.alpha_on(src, dst) - true_params.alpha_on(src, dst)))
    gamma_err = float(np.linalg.norm(fitted.gamma - true_params.gamma))
    beta_err = abs(fitted.beta - true_params.beta)
    total = float(np.sqrt(mu_err**2 + alpha_err**2 + gamma_err**2 + beta_err**2))
    scale = float(
        np.sqrt(
            np.linalg.norm(true_params.mu) ** 2
            + np.linalg.norm(true_params.alpha_values) ** 2
            + np.linalg.norm(true_params.gamma) ** 2
            + true_params.beta**2
        )
    )
    return {
        "mu": mu_err,
        "alpha": alpha_err,
        "gamma": gamma_err,
        "beta": beta_err,
        "total": total,
        "relative": total / scale if scale > 0 else float("inf"),
    }
