"""Independent oracles for the test suite.

Everything here is written naively and stays decoupled from the library's
vectorized code paths: intensities are summed event by event, integrals are
done by quadrature, and gradients by central finite differences.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from firecast import estimation
from firecast.events import EventSequence
from firecast.marks import LinearMarkModel
from firecast.model import ModelParams
from firecast.pipeline import impute_series
from firecast.simulation import SimConfig, parameter_errors, simulate


def naive_ground_intensity(params: ModelParams, seq: EventSequence, t: float, k: int) -> float:
    lam = float(params.mu[k])
    alpha = params.alpha  # built on each access: once per call
    for j in range(len(seq)):
        if seq.times[j] < t:
            lam += (
                alpha[int(seq.locations[j]), k]
                * params.beta
                * math.exp(-params.beta * (t - seq.times[j]))
            )
    return lam


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


def mask_from_index_distance(num_locations: int, tau: int) -> np.ndarray:
    """Allow interaction between cells whose ids differ by less than ``tau``."""
    idx = np.arange(num_locations)
    return np.abs(idx[:, None] - idx[None, :]) < tau


@dataclass
class RecoveryReport:
    """Parameter-recovery errors of a simulate-then-fit round trip."""

    fit: estimation.FitResult
    n_events: int
    mu_error: float
    alpha_error: float
    gamma_error: float
    beta_error: float
    total_error: float
    relative_error: float


def recovery_experiment(
    true_params: ModelParams,
    sim_config: SimConfig,
    fit_config: estimation.FitConfig,
    mark_model=None,
) -> RecoveryReport:
    """Simulate from known parameters, refit with grid_fit, report l2 errors."""
    seq = simulate(sim_config)
    if mark_model is None:
        mark_model = LinearMarkModel()
    feasible = estimation.FeasibleSet.of(true_params)
    fit = estimation.grid_fit(seq, mark_model, fit_config, feasible=feasible)
    errs = parameter_errors(true_params, fit.params)
    return RecoveryReport(
        fit=fit,
        n_events=len(seq),
        mu_error=errs["mu"],
        alpha_error=errs["alpha"],
        gamma_error=errs["gamma"],
        beta_error=errs["beta"],
        total_error=errs["total"],
        relative_error=errs["relative"],
    )


def quadrature_compensator(params: ModelParams, seq: EventSequence, nodes_per_piece: int = 40) -> float:
    """Gauss-Legendre integral of sum_k lambda_g(tau, k) over [0, T], piecewise
    between event times where the intensity is smooth."""
    edges = np.unique(np.concatenate([[0.0], seq.times, [seq.horizon]]))
    x, w = np.polynomial.legendre.leggauss(nodes_per_piece)
    params = SimpleNamespace(mu=params.mu, alpha=params.alpha, beta=params.beta)  # dense alpha built once
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        ts = 0.5 * (b - a) * x + 0.5 * (a + b)
        for k in range(seq.num_locations):
            vals = np.array([naive_ground_intensity(params, seq, float(t), k) for t in ts])
            total += 0.5 * (b - a) * float(w @ vals)
    return total


def naive_log_likelihood(params: ModelParams, seq: EventSequence, gamma_scores: np.ndarray, floor: float = 1e-12) -> float:
    """Event-by-event likelihood with the closed-form compensator re-derived
    by hand; mark scores are passed in explicitly."""
    ll = 0.0
    for i in range(len(seq)):
        lam = naive_ground_intensity(params, seq, float(seq.times[i]), int(seq.locations[i]))
        ll += math.log(max(lam, floor))
        ll += math.log(max(float(gamma_scores[i]), floor))
    ll -= seq.horizon * float(params.mu.sum())
    alpha = params.alpha
    for i in range(len(seq)):
        row = float(alpha[int(seq.locations[i])].sum())
        ll -= row * (1.0 - math.exp(-params.beta * (seq.horizon - seq.times[i])))
    return ll


def finite_difference_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def random_instance(rng: np.random.Generator, allow_negative_alpha: bool = False):
    """A random feasible model/sequence pair (n <= 50, K <= 5) whose event
    intensities and mark scores stay well above the log floor."""
    K = int(rng.integers(1, 6))
    p = int(rng.integers(1, 5))
    n = int(rng.integers(0, 51))
    T = float(rng.uniform(5.0, 30.0))

    mu = rng.uniform(0.05, 0.8, size=K)
    mu = mu / max(1.0, np.linalg.norm(mu) / 0.9)
    alpha = rng.uniform(0.0, 0.5, size=(K, K))
    if allow_negative_alpha:
        alpha *= rng.choice([-1.0, 1.0], size=(K, K))
    mask = rng.uniform(size=(K, K)) < 0.8
    np.fill_diagonal(mask, True)
    alpha = np.where(mask, alpha, 0.0)
    alpha = alpha / max(1.0, np.linalg.norm(alpha) / 0.9)
    beta = float(rng.uniform(0.1, 2.0))
    gamma = rng.uniform(0.1, 0.6, size=p)
    gamma = gamma / max(1.0, np.linalg.norm(gamma) / 0.9)
    params = ModelParams(mu=mu, alpha=alpha, beta=beta, gamma=gamma, mask=mask)

    times = np.sort(rng.uniform(0.0, T, size=n))
    if n >= 2 and rng.uniform() < 0.5:
        times[1] = times[0]  # exercise tie handling
        times = np.sort(times)
    seq = EventSequence(
        times=times,
        locations=rng.integers(0, K, size=n),
        marks=rng.uniform(0.05, 1.0, size=(n, p)),
        horizon=T,
        num_locations=K,
    )
    return params, seq


def kernel_case(name: str, negative_alpha: bool = False):
    """A masked instance for the fixed-beta kernel: (params, seq).  With
    ``negative_alpha`` about half the allowed weights flip sign."""
    rng = np.random.default_rng(sum(map(ord, name)))
    K, n, p = {"partial": (5, 40, 2), "dead_location": (4, 30, 2), "empty": (3, 0, 2),
               "single_cell": (1, 15, 1), "full": (3, 30, 3)}[name]
    mask = rng.uniform(size=(K, K)) < 0.5
    np.fill_diagonal(mask, True)
    if name == "dead_location":
        mask[:, 2] = False  # events at cell 2 have no allowed source
    if name in ("single_cell", "full"):
        mask[:] = True
    times = np.sort(rng.uniform(0.0, 20.0, size=n))
    if name == "partial":
        times[3:6] = times[3]  # three tied timestamps
    locations = rng.integers(0, K, size=n)
    if name == "dead_location":
        locations[::5] = 2
    seq = EventSequence(times=times, locations=locations, marks=rng.uniform(0.1, 1.0, size=(n, p)),
                        horizon=20.0, num_locations=K)
    params = ModelParams(mu=rng.uniform(0.05, 0.3, size=K), alpha=np.where(mask, rng.uniform(0.0, 0.3, size=(K, K)), 0.0),
                         beta=0.9, gamma=rng.uniform(0.2, 0.6, size=p), mask=mask)
    if negative_alpha:
        signs = np.where(rng.uniform(size=(K, K)) < 0.5, -1.0, 1.0)
        params = ModelParams(mu=params.mu, alpha=signs * params.alpha, beta=params.beta, gamma=params.gamma, mask=mask)
    return params, seq


KERNEL_CASES = ("partial", "dead_location", "empty", "single_cell", "full")


def gaussian_class_data(rng: np.random.Generator, n: int, means: np.ndarray, sigma: float = 1.0):
    """Equal-prior Gaussian mixture classification data with known posterior."""
    means = np.asarray(means, dtype=float)
    y = rng.integers(0, len(means), size=n)
    X = means[y] + sigma * rng.normal(size=(n, means.shape[1]))
    return X, y


def gaussian_true_posterior(X: np.ndarray, means: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Exact class posterior of the equal-prior Gaussian mixture."""
    X = np.asarray(X, dtype=float)
    means = np.asarray(means, dtype=float)
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    logits = -d2 / (2 * sigma**2)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def oracle_prediction_set_size(posterior_row: np.ndarray, alpha: float) -> int:
    """Smallest head count of the sorted true posterior reaching 1 - alpha."""
    order = np.sort(posterior_row)[::-1]
    cum = np.cumsum(order)
    return int(np.searchsorted(cum, 1.0 - alpha) + 1)


def naive_label_score(p, c, u, lambda_reg=1.0, k_reg=2):
    """Non-conformity of label c: the probability above it, its own
    probability times u, and the rank regularizer, from a Python list."""
    above = [float(q) for q in p if q > p[c]]
    return sum(above) + float(p[c]) * u + lambda_reg * max(len(above) + 1 - k_reg, 0)


def conformal_sets_oracle(cal_proba, cal_labels, test_proba, test_labels, uniforms, alphas,
                          lambda_reg=1.0, k_reg=2, batch_size=None):
    """Prediction sets one test point and one label at a time.

    Calibration point i is scored under its true label with randomizer
    ``uniforms[i]``, test point j with ``uniforms[len(cal_proba) + j]``.
    Each test point keeps label c while the fraction of stored scores at or
    below score(c) stays under 1 - alpha.  After every ``batch_size`` test
    points (never when None) their true-label scores replace the oldest
    stored ones.  Returns ``{alpha: [labels]}``, each a list of label
    indices.
    """

    def score(p, c, u):
        return naive_label_score(p, c, u, lambda_reg, k_reg)

    n_cal = len(cal_proba)
    store = [score(p, c, u) for p, c, u in zip(cal_proba, cal_labels, uniforms)]
    out = {a: [] for a in alphas}
    for j, p in enumerate(test_proba):
        u = float(uniforms[n_cal + j])
        scores = [score(p, c, u) for c in range(len(p))]
        for a in alphas:
            n = len(store)
            out[a].append([c for c, s in enumerate(scores) if sum(t <= s for t in store) / n < 1.0 - a])
        if batch_size is not None and (j + 1) % batch_size == 0:
            batch = range(j + 1 - batch_size, j + 1)
            revealed = [score(test_proba[i], test_labels[i], float(uniforms[n_cal + i])) for i in batch]
            store = store[batch_size:] + revealed
    return out


def logistic_objective_oracle(X, y, num_classes, l2=1e-4):
    """The classifier's regularized objective over flattened (d + 1, C) weights,
    mean softmax cross-entropy plus ``l2 / 2 * ||W||^2`` on standardized
    features and an intercept, with row-wise reductions; returns
    ``fun(w) -> (value, gradient)``."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    std = np.where(X.std(axis=0) > 1e-12, X.std(axis=0), 1.0)
    Z = np.hstack([(X - X.mean(axis=0)) / std, np.ones((n, 1))])
    onehot = np.eye(num_classes)[y]

    def fun(w):
        W = np.reshape(w, (d + 1, num_classes))
        logits = Z @ W
        top = logits.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
        proba = np.exp(logits - log_norm[:, None])
        value = (log_norm - (logits * onehot).sum(axis=1)).mean() + l2 / 2 * (W * W).sum()
        return value, (Z.T @ (proba - onehot) / n + l2 * W).ravel()

    return fun


def detect_oracle(risk, truth, config, screening=None):
    """The dynamic-threshold detector one location at a time, with the
    screening rules checked per emitted positive from zero detection
    counters; returns (thresholds, predictions)."""
    risk = np.asarray(risk, dtype=float)
    T, K = risk.shape
    if screening is not None:
        detections = np.zeros(K, dtype=np.int64)
        last_positive = np.full(K, -np.inf)
    thresholds = np.zeros((T, K))
    predictions = np.zeros((T, K), dtype=np.int64)
    for k in range(K):
        lam, y = risk[:, k], truth[:, k]
        tau_min, tau_max = float(config.tau_min[k]), float(config.tau_max[k])
        eta, delta, a1, a2 = float(config.eta[k]), config.delta, config.a1, config.a2

        def proj(x):
            return min(max(x, tau_min), tau_max)

        def emit(t, raw):
            if raw == 1 and screening is not None:
                if (
                    screening.fire_count[k] < 1
                    or detections[k] >= screening.fire_count[k]
                    or not t - last_positive[k] >= screening.avg_gap[k]
                ):
                    predictions[t, k] = -1
                    return
                detections[k] += 1
                last_positive[k] = t
            predictions[t, k] = raw

        tau = tau_min
        thresholds[0, k] = tau
        raw = 1 if lam[0] > tau else -1
        emit(0, raw)
        if raw != y[0]:
            tau = max(proj(tau + eta * raw), lam[0] / a1)
        for t in range(1, T):
            thresholds[t, k] = tau
            increase = abs((lam[t] - lam[t - 1]) / lam[t - 1])
            raw = -1
            if increase >= delta and lam[t] > tau:
                raw = 1
                if raw != y[t]:
                    tau = max(proj(thresholds[t - 1, k] + eta * raw), lam[t - 1] / a1)
                    thresholds[t, k] = tau
            if lam[t] <= lam[t - 1] / a2:
                tau = lam[t]
                thresholds[t, k] = tau
            emit(t, raw)
    return thresholds, predictions


def screening_gaps_oracle(truth, window_length=None):
    """Per-location mean gap between validation fires, one column at a time."""
    T, K = truth.shape
    if window_length is None:
        window_length = float(T)
    gaps = np.full(K, np.inf)
    for k in range(K):
        fire_steps = np.flatnonzero(truth[:, k] == 1)
        if len(fire_steps) >= 2:
            gaps[k] = float(np.diff(fire_steps).mean())
        elif len(fire_steps) == 1:
            gaps[k] = window_length
    return gaps


def f1_oracle(predictions, truths):
    """Per-location (precision, recall, F1) one column at a time, 0/0 -> 1."""
    K = predictions.shape[1]
    precision, recall, f1 = np.zeros(K), np.zeros(K), np.zeros(K)
    for k in range(K):
        V = int((predictions[:, k] == 1).sum())
        U = int((truths[:, k] == 1).sum())
        hits = int(((predictions[:, k] == 1) & (truths[:, k] == 1)).sum())
        precision[k] = hits / V if V else 1.0
        recall[k] = hits / U if U else 1.0
        f1[k] = 2 * precision[k] * recall[k] / (precision[k] + recall[k]) if precision[k] + recall[k] > 0 else 0.0
    return precision, recall, f1


def write_detections_csv_oracle(path, trace, times=None):
    """The detections CSV formatted one cell at a time."""
    T, K = trace.risk.shape
    if times is None:
        times = np.arange(1, T + 1)
    with open(path, "w", newline="") as fh:
        fh.write("time,location,risk,threshold,prediction,truth\n")
        for t in range(T):
            for k in range(K):
                fh.write(
                    f"{float(times[t])!r},{k},{float(trace.risk[t, k])!r},"
                    f"{float(trace.threshold[t, k])!r},{int(trace.prediction[t, k])},"
                    f"{int(trace.truth[t, k])}\n"
                )


def query_marks_by_location_oracle(seq):
    """Per-location mean mark through one boolean mask per location."""
    K, p = seq.num_locations, seq.mark_dim
    out = np.full((K, p), 0.5)
    if len(seq):
        overall = seq.marks.mean(axis=0)
        for k in range(K):
            sel = seq.locations == k
            out[k] = seq.marks[sel].mean(axis=0) if sel.any() else overall
    return out


def impute_by_location_oracle(times, locations, values):
    """One mark column imputed per location through one boolean mask per
    location, then the all-missing locations filled with the column mean."""
    col = np.asarray(values, dtype=float).copy()
    for k in np.unique(locations):
        sel = locations == k
        col[sel] = impute_series(times[sel], col[sel])
    if np.isnan(col).any():
        fill = np.nanmean(col) if not np.isnan(col).all() else 0.0
        col = np.where(np.isnan(col), fill, col)
    return col


def mark_stats_oracle(train, values):
    """``values`` scaled one column at a time by statistics fitted on
    ``train``: standardized by the training mean and std, min-max scaled by
    the training z range and clipped to [0, 1]; a column whose training std
    is at most 1e-12, or whose z range is empty, maps to 0.5 without dividing."""
    mean, std = train.mean(axis=0), train.std(axis=0)
    out = np.empty_like(values, dtype=float)
    for j in range(train.shape[1]):
        z = (train[:, j] - mean[j]) / std[j] if std[j] > 1e-12 else None
        if z is None or z.max() <= z.min():
            out[:, j] = 0.5
        else:
            out[:, j] = ((values[:, j] - mean[j]) / std[j] - z.min()) / (z.max() - z.min())
    return np.clip(out, 0.0, 1.0)


def read_detections_csv_oracle(path):
    """The detections CSV parsed by column name with ``np.genfromtxt``, as
    (risk, threshold, prediction, truth) arrays of one row per day in file
    order, K = 1 + the largest location."""
    data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    shape = (-1, int(data["location"].max()) + 1)
    return [data["risk"].reshape(shape), data["threshold"].reshape(shape),
            data["prediction"].astype(np.int64).reshape(shape), data["truth"].astype(np.int64).reshape(shape)]


def write_conformal_sets_jsonl_oracle(path, run):
    """The conformal-sets stream written one ``json.dumps`` per row."""
    with open(path, "w") as fh:
        for a in run.alphas:
            for i, keep in enumerate(run.sets[a]):
                row = {"index": i, "alpha": a, "set": [int(v) for v in run.class_labels[keep]]}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def centroid_mask_oracle(centroids, neighbor_radius):
    """Centroid-distance mask from full K x K broadcast arrays."""
    centroids = np.asarray(centroids, dtype=float)
    dx = centroids[:, None, 0] - centroids[None, :, 0]
    dy = centroids[:, None, 1] - centroids[None, :, 1]
    return np.sqrt(dx * dx + dy * dy) <= neighbor_radius


def save_events_csv_oracle(seq, path):
    """The canonical event CSV written row by row through ``csv.writer``."""
    header = ["time", "location"] + [f"m_{j}" for j in range(seq.mark_dim)]
    if seq.magnitudes is not None:
        header.append("magnitude")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(seq)):
            row = [repr(float(seq.times[i])), int(seq.locations[i])]
            row += [repr(float(v)) for v in seq.marks[i]]
            if seq.magnitudes is not None:
                row.append(int(seq.magnitudes[i]))
            writer.writerow(row)


def kde_broadcast_oracle(train_marks, marks):
    """Gaussian KDE with Scott's rule as one broadcast: whitening and squared
    distances summed along the mark axis of (rows, n, d) products."""
    train_marks, marks = np.asarray(train_marks, dtype=float), np.asarray(marks, dtype=float)
    n, d = train_marks.shape
    chol = np.linalg.cholesky(np.atleast_2d(np.cov(train_marks.T))) * n ** (-1.0 / (d + 4))
    whiten = np.linalg.inv(chol)
    train_z = (train_marks[:, None, :] * whiten).sum(axis=2)
    z = (marks[:, None, :] * whiten).sum(axis=2)
    diff = z[:, None, :] - train_z
    density = np.exp(-0.5 * (diff * diff).sum(axis=2)).sum(axis=1)
    return density / (n * np.prod(np.sqrt(2 * np.pi) * np.diag(chol)))


def linear_density_sampler_with_choice(gamma):
    """The linear-density mark sampler drawing its coordinate with ``Generator.choice``."""
    probs = np.asarray(gamma, dtype=float) / np.sum(gamma)

    def sampler(rng, location, dim):
        m = rng.uniform(size=dim)
        l = rng.choice(dim, p=probs)
        m[l] = np.sqrt(rng.uniform())
        return m

    return sampler


def simulate_with_choice(config):
    """Ogata thinning with each accepted event's location drawn by
    ``Generator.choice``; returns (times, locations, marks, magnitudes)."""
    params = config.params
    rng = np.random.default_rng(config.seed)
    K = params.num_locations
    p = config.mark_dim if config.mark_dim is not None else params.mark_dim
    mu, alpha, beta = params.mu, params.alpha, params.beta
    times, locs, marks, mags = [], [], [], []
    excite = np.zeros(K)
    t = 0.0
    bound = float(mu.sum() + excite.sum())
    while bound > 0.0:
        t_cand = t + rng.exponential(1.0 / bound)
        if t_cand > config.horizon:
            break
        excite = excite * np.exp(-beta * (t_cand - t))
        t = t_cand
        rates = mu + excite
        total = float(rates.sum())
        if rng.uniform() * bound <= total:
            k = int(rng.choice(K, p=rates / total))
            m = np.asarray(config.mark_sampler(rng, k, p), dtype=float)
            times.append(t)
            locs.append(k)
            marks.append(m)
            if config.magnitude_sampler is not None:
                mags.append(int(config.magnitude_sampler(rng, m, k)))
            excite = excite + beta * alpha[k, :]
        bound = float(mu.sum() + excite.sum())
    return np.array(times), np.array(locs), np.array(marks).reshape(len(times), p), np.array(mags)
