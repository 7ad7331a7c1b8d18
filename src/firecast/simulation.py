"""Exact simulation of the point process: by clusters for runs, by Ogata
thinning for the fixed-seed checks.  Both draw the same law, from different
random streams.

``simulate_clusters`` is what the ``run`` simulate stage and ``firecast
simulate`` call.  A linear Hawkes process started empty on [0, T] is a
branching process (Hawkes & Oakes, *J. Appl. Prob.* 1974; Moller &
Rasmussen, *Adv. Appl. Prob.* 2005): immigrants arrive at cell k as a
Poisson process of rate mu_k, and each event at a source cell has
Poisson(alpha[src, dst]) children per allowed pair, each an Exp(beta) delay
later.  Children after T are dropped; they cannot change earlier events.  So
the draw is a few numpy calls per generation over the pair arrays.  The
marks do not drive the excitation, so they and the magnitudes are drawn once
for all events, in time order.

``simulate`` draws by thinning.  Between events the location-summed ground
intensity is nonincreasing (the exponential kernels only decay), so the
intensity evaluated just after the last accepted or rejected candidate
upper-bounds the process until the next arrival.  Candidates are proposed
from that bound and accepted with probability (current total intensity) /
bound; accepted events pick their location proportionally to the
per-location intensity.  It stays because the acceptance criteria, the
recovery experiments and the benchmark's state set-up run fixed seeds of its
stream, which a draw in another order meets on other seeds only by chance.

Negative interaction weights would break thinning's bound and cannot be
Poisson means, so both reject them.  The thinning draws of locations and
mark coordinates are inverse-CDF draws, the same arithmetic
``Generator.choice(n, p=p)`` performs internally (cumulative sum normalized
by its last entry, one ``random()``, a right-sided search), so they consume
the same random stream and pick the same index without choice's per-call
argument checks.  For the same reason uniforms come from ``random()`` and
exponentials from ``standard_exponential() * s``: the bits and stream of
``uniform()`` (``0.0 + 1.0 * u``) and ``exponential(s)`` (``s * e``),
without their argument handling.

Mark samplers are ``sampler(rng, location, dim)``: one location gives a
(dim,) array, an array of n locations an (n, dim) array.  Magnitude samplers
are ``sampler(rng, marks, location)``: one event's (dim,) marks and location
give one label, (n, dim) marks and n locations give n labels.  Thinning
calls them once per event, the cluster draw once for all events.
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


def uniform_mark_sampler(rng: np.random.Generator, location, dim: int) -> np.ndarray:
    return rng.random(np.shape(location) + (dim,))


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

    def sampler(rng: np.random.Generator, location, dim: int) -> np.ndarray:
        if dim != len(gamma):
            raise ValueError("mark dimension mismatch")
        shape = np.shape(location)
        m = rng.random(shape + (dim,))
        l = cdf.searchsorted(rng.random(shape), side="right")
        np.put_along_axis(m, l[..., None], np.sqrt(rng.random(shape))[..., None], axis=-1)
        return m

    return sampler


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: generating parameters, horizon, mark sampler, seed.

    ``mark_sampler(rng, location, dim)`` and the optional
    ``magnitude_sampler(rng, marks, location)`` take one location or an array
    of locations (see the module docstring); the horizon must be finite.
    """

    params: ModelParams
    horizon: float
    seed: int = 0
    mark_dim: int | None = None
    mark_sampler: object = field(default=uniform_mark_sampler)
    magnitude_sampler: object | None = None

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:  # NaN fails here too; either would never end a draw
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")


def _checked_params(config: SimConfig) -> ModelParams:
    params = config.params.validate()
    if np.any(params.alpha_values < 0):
        raise ValueError("negative interaction weights are not supported for simulation")
    return params


def simulate(config: SimConfig) -> EventSequence:
    """Draw one trajectory on [0, horizon] by thinning; deterministic per seed."""
    params = _checked_params(config)
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


def simulate_clusters(config: SimConfig) -> EventSequence:
    """Draw one trajectory on [0, horizon] generation by generation; the law
    of ``simulate`` from another random stream, deterministic per seed.

    Generation n lies n Exp(beta) delays after its immigrant, so
    its expected size falls like (rho beta T)^n / n! for alpha's spectral
    radius rho: the loop ends on a finite horizon for any alpha, the
    critical edge ``||alpha||_F = 1`` that ``validate`` allows included.
    """
    params = _checked_params(config)
    rng = np.random.default_rng(config.seed)
    p = config.mark_dim if config.mark_dim is not None else params.mark_dim
    K, T, beta, dst = params.num_locations, config.horizon, params.beta, params.dst
    alpha = params.alpha_values

    # immigrants: Poisson(mu_k T) per cell at uniform times in (0, T]
    k = np.repeat(np.arange(K), rng.poisson(params.mu * T))
    t = T * (1.0 - rng.random(len(k)))
    times, locs = [t], [k]
    if beta > 0 and len(alpha):
        starts = np.searchsorted(params.src, np.arange(K + 1))  # source k's pairs
        while len(k):
            # one Poisson(alpha) draw per (parent, allowed pair of its source)
            first, deg = starts[k], starts[k + 1] - starts[k]
            parent = np.repeat(np.arange(len(k)), deg)
            pair = np.arange(len(parent)) + np.repeat(first - (np.cumsum(deg) - deg), deg)
            born = rng.poisson(alpha[pair])
            parent, pair = np.repeat(parent, born), np.repeat(pair, born)
            t = t[parent] + rng.standard_exponential(len(parent)) / beta
            kept = t <= T
            t, k = t[kept], dst[pair[kept]]
            times.append(t)
            locs.append(k)

    t, k = np.concatenate(times), np.concatenate(locs)
    order = np.argsort(t, kind="stable")
    t, k = t[order], k[order]
    marks = np.asarray(config.mark_sampler(rng, k, p), dtype=float).reshape(len(t), p)
    mags = None
    if config.magnitude_sampler is not None:
        mags = np.asarray(config.magnitude_sampler(rng, marks, k), dtype=np.int64).reshape(len(t))
    return EventSequence(times=t, locations=k, marks=marks, horizon=T,
                         num_locations=K, magnitudes=mags)


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
