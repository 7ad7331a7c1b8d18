"""Constrained maximum likelihood for the point-process parameters.

At a fixed temporal decay ``beta`` the penalized negative log-likelihood is
convex in (mu, alpha, gamma); it is minimized by projected gradient descent
with step sizes ``t_k = 1 / (kappa * (k + 1))`` and soft-thresholding for
the l1 part of the gamma block.  ``beta`` itself is handled either by a
one-dimensional grid search (``grid_fit``) or by alternating the convex
solve with a golden-section line search (``alternating_fit``).  Each fit
builds one :class:`model.Objective` and solves every beta by
``pgd_fit(objective.with_beta(b), config, init)``; the line search scores
``objective.with_beta(b).value(x)``.  So a fit builds one kernel index and
scores a gamma-free mark model once.  The iterate is the
:class:`model.FeasibleSet` layout ``[mu, alpha[src, dst], gamma]`` over the
P pairs the interaction mask allows: the sparsity constraint is structural,
and each evaluation costs O(events x allowed sources), not O(n K^2).  A
neighbour mask is what makes state-scale fits cheap.  The solver backtracks
whenever it is given an objective.

All routines are deterministic: same inputs give bit-identical results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .events import EventSequence
from .model import BALL_RADIUS, FeasibleSet, ModelParams, Objective, default_feasible_set

LINE_SCAN_POINTS = 25  # coarse scan resolution of the beta line search
MAX_HALVINGS = 40  # backtracking halvings per step before a step that does not descend ends the solve
GOLDEN_TOL, GOLDEN_MAX_ITER = 1e-8, 200  # the golden-section search stops at this bracket width or iteration count


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient evaluation produces NaN or infinity."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite gradient at step {step}")


def project(raw: ModelParams, feasible: FeasibleSet) -> ModelParams:
    """Exact Euclidean projection onto the feasible set, beta clamped at
    zero: alpha gathered on the allowed pairs, then the solver's projection."""
    if raw.mu.shape != (feasible.num_locations,):
        raise ValueError("parameter shapes do not match the feasible set")
    return feasible.params(_project_flat(feasible.flatten(raw), feasible), max(raw.beta, 0.0))


def _project_flat(x: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """Projection of a flat iterate ``[mu, alpha[src, dst], gamma]``, as a
    new vector: mu clamped to the nonnegative orthant, then each block scaled
    into its ball, the exact projection for orthant-with-ball and (alpha on
    the pairs) subspace-with-ball, both centered at the origin."""
    out = x.copy()
    mu, alpha, gamma = feasible.split(out)
    np.maximum(mu, 0.0, out=mu)
    for block in (mu, alpha, gamma):
        nrm = float(np.linalg.norm(block))
        if nrm > BALL_RADIUS:
            block *= BALL_RADIUS / nrm
    return out


def soft_threshold(x: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - amount, 0.0)


def projected_gradient_descent(
    x0: np.ndarray,
    grad_fn,
    project_fn,
    steps: int,
    kappa: float,
    objective_fn=None,
    prox_fn=None,
    callback=None,
):
    """Generic projected (proximal) gradient loop with 1/(kappa (k+1)) steps.

    Returns the final point and the objective trace (one entry per accepted
    iterate, starting from the projected initial point; empty without
    ``objective_fn``).  Without an objective the rule is applied exactly.
    With one the loop backtracks: the trial step starts at the rule, capped
    at twice the previously accepted step so the halving search stays short,
    and is halved (at most ``MAX_HALVINGS`` times) until the objective
    decreases.  A step that still does not decrease it ends the solve, so
    the trace strictly decreases and ``steps`` is a cap.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    x = project_fn(np.asarray(x0, dtype=float))
    trace = [] if objective_fn is None else [float(objective_fn(x))]
    if callback is not None:
        callback(0, x)
    t_accepted = math.inf  # without an objective it stays so: the rule exactly
    for k in range(1, steps + 1):
        g = grad_fn(x)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(k)
        t_k = min(1.0 / (kappa * (k + 1)), 2.0 * t_accepted)

        def step_to(t):
            y = x - t * g
            if prox_fn is not None:
                y = prox_fn(y, t)
            return project_fn(y)

        x_new = step_to(t_k)
        if objective_fn is not None:
            f_new = float(objective_fn(x_new))
            halvings = 0
            while not f_new < trace[-1] and halvings < MAX_HALVINGS:
                t_k *= 0.5
                x_new = step_to(t_k)
                f_new = float(objective_fn(x_new))
                halvings += 1
            if not f_new < trace[-1]:
                break
            trace.append(f_new)
            t_accepted = t_k
        x = x_new
        if callback is not None:
            callback(k, x)
    return x, np.asarray(trace)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitting routines.

    ``kappa`` is the step-size scale from the 1/(kappa (k+1)) rule; the true
    strong-monotonicity constant of the likelihood is unknown, so the default
    of 1.0 relies on the solver's backtracking to tame the early steps.
    """

    beta_low: float = 0.01
    beta_high: float = 2.0
    grid_points: int = 8          # J: the grid has J + 1 points
    pgd_steps: int = 500          # cap on the steps of each convex solve
    kappa: float = 1.0
    l1_weight: float = 1.0
    eps_beta: float = 0.01        # alternating-loop stopping tolerance
    max_outer: int = 10
    beta_init: float = 1.0

    def __post_init__(self):
        # written as "not in range", so that a NaN, which every comparison fails, fails here too
        if not self.beta_low <= self.beta_high:
            # equal endpoints are allowed: the grid degenerates to one point
            raise ValueError("beta_low must be <= beta_high")
        if not self.beta_low > 0:
            raise ValueError("beta_low must be positive")
        if self.grid_points < 1 or self.max_outer < 1:
            raise ValueError("grid_points and max_outer must be >= 1")
        if self.pgd_steps < 0:
            raise ValueError("pgd_steps must be >= 0")
        if not self.eps_beta > 0 or not self.kappa > 0:
            raise ValueError("eps_beta and kappa must be positive")
        if not self.l1_weight >= 0:
            raise ValueError("l1_weight must be nonnegative")
        if not self.beta_init > 0:
            raise ValueError("beta_init must be positive")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class FitResult:
    params: ModelParams
    objective: float               # penalized objective: the solver's last accepted value
    trace: np.ndarray              # selected run's per-iteration objective
    grid_betas: np.ndarray | None = None
    grid_objectives: np.ndarray | None = None
    selected_index: int | None = None
    outer_iterations: int | None = None
    outer_trace: np.ndarray | None = None


def default_init(seq: EventSequence, feasible: FeasibleSet, beta: float) -> ModelParams:
    """Starting point: event-rate baseline, no interaction, flat mark weights,
    projected onto the feasible set (a zero alpha already is)."""
    K, p = seq.num_locations, seq.mark_dim
    mu = np.full(K, len(seq) / (K * seq.horizon))
    gamma = np.full(p, 1.0 / math.sqrt(p)) if p else np.zeros(0)
    alpha = np.zeros(len(feasible.src))
    return project(ModelParams.from_pairs(mu, feasible.src, feasible.dst, alpha, beta, gamma), feasible)


def pgd_fit(objective: Objective, config: FitConfig, init: ModelParams | None = None) -> FitResult:
    """Projected gradient descent for the convex subproblem at the
    objective's beta; the result's objective is the last accepted value."""
    feasible, beta, l1_weight = objective.feasible, objective.beta, objective.l1_weight
    if beta <= 0:
        raise ValueError("beta must be positive")
    if init is None:
        init = default_init(objective.seq, feasible, beta)
    elif init.num_locations != feasible.num_locations:
        raise ValueError(f"init has {init.num_locations} locations but the support has {feasible.num_locations}")
    elif init.mark_dim != objective.seq.mark_dim:
        raise ValueError(f"init has {init.mark_dim} mark weights but the events have {objective.seq.mark_dim} marks")

    def prox_flat(x, t):
        # l1 part of the objective enters through soft-thresholding on gamma
        if l1_weight == 0:
            return x
        out = x.copy()
        gamma = feasible.split(out)[2]
        gamma[:] = soft_threshold(gamma, t * l1_weight)
        return out

    x, trace = projected_gradient_descent(
        feasible.flatten(init),
        grad_fn=objective.smooth_gradient,
        project_fn=lambda x: _project_flat(x, feasible),
        steps=config.pgd_steps,
        kappa=config.kappa,
        objective_fn=objective.value,
        prox_fn=prox_flat,
    )
    return FitResult(params=feasible.params(x, beta), objective=float(trace[-1]), trace=trace)


def grid_fit(
    seq: EventSequence,
    mark_model,
    config: FitConfig,
    feasible: FeasibleSet | None = None,
    init: ModelParams | None = None,
) -> FitResult:
    """Run the convex solve on a beta grid and keep the best objective.

    Grid points are ``beta_j = beta_low + (j / J) (beta_high - beta_low)``
    for j = 0..J; ties go to the smallest j.  Individual grid points may
    fail (non-finite gradients); the fit fails only if all of them do.
    """
    J = config.grid_points
    betas = np.array(
        [config.beta_low + (j / J) * (config.beta_high - config.beta_low) for j in range(J + 1)]
    )
    objective = Objective(seq, mark_model, feasible or default_feasible_set(seq), betas[0], config.l1_weight)
    results: list[FitResult | None] = []
    objectives = np.full(J + 1, np.inf)
    errors: list[str] = []
    for j, beta in enumerate(betas):
        try:
            res = pgd_fit(objective.with_beta(beta), config, init)
        except NonFiniteGradientError as exc:
            results.append(None)
            errors.append(f"beta={beta:.6g}: {exc}")
            continue
        results.append(res)
        objectives[j] = res.objective
    if all(r is None for r in results):
        raise RuntimeError("all grid points failed: " + "; ".join(errors))
    j_star = int(np.argmin(objectives))
    best = results[j_star]
    return FitResult(
        params=best.params,
        objective=float(objectives[j_star]),
        trace=best.trace,
        grid_betas=betas,
        grid_objectives=objectives,
        selected_index=j_star,
    )


def _golden_section(f, a: float, b: float):
    """Golden-section minimization on [a, b]; returns (x_best, f_best)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= GOLDEN_TOL:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def alternating_fit(
    seq: EventSequence,
    mark_model,
    config: FitConfig,
    feasible: FeasibleSet | None = None,
    init: ModelParams | None = None,
) -> FitResult:
    """Alternate the convex solve at fixed beta with a line search for beta.

    The beta step scans 25 evenly spaced points on ``[beta_low, 2**k]``
    (k = outer iteration), then refines by golden section inside the
    bracketing neighbors of the scan minimum; a scan minimum on the boundary
    means no bracket, in which case the scan point is used and a warning is
    emitted.  Stops when consecutive beta estimates differ by at most
    ``eps_beta``.  The convex solve warm-starts from the previous iterate
    and backtracks, so the objective never increases across outer
    iterations; the result's objective is the last outer value.
    """
    beta = float(config.beta_init)
    objective = Objective(seq, mark_model, feasible or default_feasible_set(seq), beta, config.l1_weight)
    params = init
    outer_trace = []
    for outer in range(1, config.max_outer + 1):
        objective = objective.with_beta(beta)
        res = pgd_fit(objective, config, init=params)
        params = res.params
        x = objective.feasible.flatten(params)

        def f_beta(b: float) -> float:
            return objective.with_beta(b).value(x)

        hi = max(2.0**outer, config.beta_low * 2.0)
        scan = np.linspace(config.beta_low, hi, LINE_SCAN_POINTS)
        scan_vals = np.array([f_beta(b) for b in scan])
        best = int(np.argmin(scan_vals))
        if 0 < best < LINE_SCAN_POINTS - 1:
            beta_cand, f_cand = _golden_section(f_beta, scan[best - 1], scan[best + 1])
            if scan_vals[best] < f_cand:
                beta_cand, f_cand = float(scan[best]), float(scan_vals[best])
        else:
            warnings.warn(
                f"beta line search: scan minimum on the boundary of [{config.beta_low}, {hi}]; "
                "using the grid scan value"
            )
            beta_cand, f_cand = float(scan[best]), float(scan_vals[best])
        # never move beta uphill relative to the current iterate
        f_now = f_beta(beta)
        beta_new, f_new = (beta_cand, f_cand) if f_cand <= f_now else (beta, f_now)
        outer_trace.append(f_new)
        delta_beta = abs(beta_new - beta)
        beta = beta_new
        if delta_beta <= config.eps_beta:
            break
    return FitResult(
        params=objective.feasible.params(x, beta),
        objective=float(outer_trace[-1]),
        trace=res.trace,
        outer_iterations=outer,
        outer_trace=np.asarray(outer_trace),
    )
