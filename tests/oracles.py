"""Independent oracles for the test suite.

Everything here is written naively and stays decoupled from the library's
vectorized code paths: intensities are summed event by event, integrals are
done by quadrature, and gradients by central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from firecast.events import EventSequence
from firecast.model import ModelParams


def naive_ground_intensity(params: ModelParams, seq: EventSequence, t: float, k: int) -> float:
    lam = float(params.mu[k])
    for j in range(len(seq)):
        if seq.times[j] < t:
            lam += (
                params.alpha[int(seq.locations[j]), k]
                * params.beta
                * math.exp(-params.beta * (t - seq.times[j]))
            )
    return lam


def quadrature_compensator(params: ModelParams, seq: EventSequence, nodes_per_piece: int = 40) -> float:
    """Gauss-Legendre integral of sum_k lambda_g(tau, k) over [0, T], piecewise
    between event times where the intensity is smooth."""
    edges = np.unique(np.concatenate([[0.0], seq.times, [seq.horizon]]))
    x, w = np.polynomial.legendre.leggauss(nodes_per_piece)
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
    for i in range(len(seq)):
        row = float(params.alpha[int(seq.locations[i])].sum())
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


def conformal_sets_oracle(cal_proba, cal_labels, test_proba, test_labels, uniforms, alphas,
                          lambda_reg=1.0, k_reg=2, batch_size=None):
    """Prediction sets one test point and one label at a time.

    Calibration point i is scored under its true label with randomizer
    ``uniforms[i]``, test point j with ``uniforms[len(cal_proba) + j]``.
    Each test point keeps label c while the fraction of stored scores at or
    below score(c) stays under 1 - alpha.  After every ``batch_size`` test
    points (never when None) their true-label scores replace the oldest
    stored ones.  Returns ``{alpha: [(labels, threshold, label_scores)]}``
    with label indices, as plain Python values.
    """

    def score(p, c, u):
        above = [float(q) for q in p if q > p[c]]
        return sum(above) + float(p[c]) * u + lambda_reg * max(len(above) + 1 - k_reg, 0)

    n_cal = len(cal_proba)
    store = [score(p, c, u) for p, c, u in zip(cal_proba, cal_labels, uniforms)]
    out = {a: [] for a in alphas}
    for j, p in enumerate(test_proba):
        u = float(uniforms[n_cal + j])
        scores = [score(p, c, u) for c in range(len(p))]
        for a in alphas:
            n = len(store)
            threshold = sorted(store)[min(n, math.ceil((1.0 - a) * (n + 1))) - 1]
            labels = [c for c, s in enumerate(scores) if sum(t <= s for t in store) / n < 1.0 - a]
            out[a].append((labels, threshold, scores))
        if batch_size is not None and (j + 1) % batch_size == 0:
            batch = range(j + 1 - batch_size, j + 1)
            revealed = [score(test_proba[i], test_labels[i], float(uniforms[n_cal + i])) for i in batch]
            store = store[batch_size:] + revealed
    return out


def logistic_regression_oracle(X, y, num_classes, X_eval, learning_rate=1.0, epochs=300, l2=1e-4):
    """Multinomial logistic regression by full-batch gradient descent, with
    row-wise max and sum reductions; returns the weights and the class
    probabilities at ``X_eval``."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mean = X.mean(axis=0)
    std = np.where(X.std(axis=0) > 1e-12, X.std(axis=0), 1.0)
    Z = np.hstack([(X - mean) / std, np.ones((n, 1))])
    W = np.zeros((d + 1, num_classes))
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        logits = Z @ W
        logits -= logits.max(axis=1, keepdims=True)
        proba = np.exp(logits)
        proba /= proba.sum(axis=1, keepdims=True)
        grad = Z.T @ (proba - onehot) / n + l2 * W
        W -= learning_rate * grad
    Z_eval = np.hstack([(X_eval - mean) / std, np.ones((len(X_eval), 1))])
    logits = Z_eval @ W
    logits -= logits.max(axis=1, keepdims=True)
    proba = np.exp(logits)
    return W, proba / proba.sum(axis=1, keepdims=True)
