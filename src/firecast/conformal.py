"""Distribution-free prediction sets for magnitude classification.

The non-conformity score of a label c under a probability vector p is

    score(c) = mass_above(c) + p(c) * U + lambda_reg * (rank(c) - k_reg)^+,

where mass_above sums the probabilities strictly greater than p(c), rank is
one plus the count of strictly greater entries, and U is a per-example
uniform randomizer; ``scores_all_labels`` computes it for every label at
once.  A label enters the prediction set when the fraction of calibration
scores at or below its score stays under 1 - alpha.

Two calibration strategies ship: a split-conformal baseline (one model, one
fixed calibration split) and a bootstrap ensemble with leave-one-out
aggregation and a sliding calibration window that absorbs revealed test
labels batch by batch.  Both read fractions off one stream of true-label
scores, the batch of test rows starting at s against ``stream[s:s + window]``:
the ensemble's stream is the training scores then the test ones, and the
baseline reads its calibration split as one batch.  A run's sets are
``sets[alpha]``, one (n_test, C) bool membership matrix.  ``build_set``
returns the label indices kept for one probability vector.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

PROBABILITY_TOL = 1e-9  # how far a probability may fall below 0, or a row's sum stray from 1


@dataclass(frozen=True)
class ScoreParams:
    """Regularization of the non-conformity score; defaults (1, 2)."""

    lambda_reg: float = 1.0
    k_reg: int = 2

    def __post_init__(self):
        if not self.lambda_reg >= 0 or self.k_reg < 0:  # NaN too
            raise ValueError("lambda_reg and k_reg must be nonnegative")
        if not math.isfinite(self.lambda_reg):
            raise ValueError(f"lambda_reg must be finite, got {self.lambda_reg!r}")


def check_probability_vector(p: np.ndarray, ndim: int = 1) -> np.ndarray:
    """``p`` as floats: ``ndim`` axes of finite, nonnegative rows summing to 1."""
    p = np.asarray(p, dtype=float)
    valid = p.ndim == ndim and np.isfinite(p).all() and np.all(p >= -PROBABILITY_TOL)
    if not (valid and np.all(np.abs(p.sum(axis=-1) - 1.0) <= PROBABILITY_TOL)):
        raise ValueError("expected finite nonnegative vectors summing to 1")
    return p


def scores_all_labels(p: np.ndarray, u, sp: ScoreParams) -> np.ndarray:
    """The score of every label: of p (C,) with a scalar u, or of rows p (m, C) with u (m,)."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)[..., None]
    greater = p[..., None, :] > p[..., :, None]    # greater[..., c, c'] = p(c') > p(c)
    mass = (greater * p[..., None, :]).sum(axis=-1)
    rank = greater.sum(axis=-1) + 1
    return mass + p * u + sp.lambda_reg * np.maximum(rank - sp.k_reg, 0)


def _check_alphas(alphas) -> tuple[float, ...]:
    """``alphas`` as a tuple of floats, at least one, each in (0, 1)."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("alphas must name at least one level")
    if not all(0 < a < 1 for a in alphas):
        raise ValueError("alpha must be in (0, 1)")
    return alphas


def _window_fractions(stream: np.ndarray, window: int, label_scores: np.ndarray, batch_size: int) -> np.ndarray:
    """Each row's fraction of its batch's window at or below each of its (m, C)
    label scores; the batch of rows starting at s reads ``stream[s:s + window]``."""
    fraction = np.empty_like(label_scores)
    for start in range(0, len(label_scores), batch_size):
        calibration = np.sort(stream[start:start + window])
        if len(calibration) == 0:
            raise ValueError("calibration window is empty")
        counts = np.searchsorted(calibration, label_scores[start:start + batch_size], side="right")
        fraction[start:start + batch_size] = counts / len(calibration)
    return fraction


def _set_rule(fraction: np.ndarray, alphas) -> dict:
    """The set rule, ``{alpha: keep}``: keep label c while its fraction is under 1 - alpha."""
    return {a: fraction < 1.0 - a for a in alphas}


def build_set(p: np.ndarray, calibration: np.ndarray, alpha: float, u: float, sp: ScoreParams) -> np.ndarray:
    """The label indices the set rule keeps for one probability vector against
    an array of calibration scores: a batch of one."""
    (alpha,) = _check_alphas((alpha,))
    scores = scores_all_labels(check_probability_vector(p)[None, :], np.array([u]), sp)
    keep = _set_rule(_window_fractions(calibration, len(calibration), scores, 1), (alpha,))[alpha]
    return np.flatnonzero(keep[0])


class LogisticClassifier:
    """Multinomial logistic regression by Newton on the L2-regularized objective,
    stopping at a gradient tolerance.

    The objective is the mean softmax cross-entropy plus ``L2 / 2 * ||W||^2``
    over standardized features and an intercept.  From zero weights each Newton
    step is taken whole if it passes the Armijo test, else halved, until the
    max-abs gradient is at most ``TOL``; ``MAX_ITER`` objective evaluations
    (steps and halvings) without that raise."""

    L2 = 1e-4
    TOL = 1e-10
    MAX_ITER = 100

    def __init__(self):
        self._weights = None
        self._x_mean = None
        self._x_std = None

    def _design(self, X: np.ndarray) -> np.ndarray:
        """Standardized features plus an intercept column."""
        return np.hstack([(X - self._x_mean) / self._x_std, np.ones((len(X), 1))])

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        self._x_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._x_std = np.where(std > 1e-12, std, 1.0)
        Zt, D, C = np.ascontiguousarray(self._design(X).T), d + 1, num_classes
        target = y * n + np.arange(n)  # each label's flat index in a (C, n) array
        onehot = np.zeros((C, n))
        onehot.flat[target] = 1.0
        W = step = np.zeros((D, C))  # the first pass (t = 0) evaluates W itself
        f, t, slope = np.inf, 0.0, 0.0
        for _ in range(self.MAX_ITER):
            trial = W - t * step
            logits = trial.T @ Zt
            logits -= logits.max(axis=0)
            proba = np.exp(logits)
            total = proba.sum(axis=0)
            f_trial = (np.log(total) - logits.take(target)).mean() + self.L2 / 2 * (trial * trial).sum()
            # Armijo, or a full step whose predicted decrease is below the
            # objective's rounding: there a comparison would only halve on noise
            if f_trial <= f - 1e-4 * t * slope or slope <= 1e-12 * f:
                W, f, proba = trial, f_trial, proba / total
                grad = Zt @ (proba - onehot).T / n + self.L2 * W
                if np.abs(grad).max() <= self.TOL:
                    self._weights = W
                    return self
                A = (Zt[:, None, :] * proba).reshape(D * C, n)  # A[j * C + c] = z_j * p_c
                H = -(A @ A.T)
                for c in range(C):  # weights flattened row-major: (j, c) -> j * C + c
                    H[c::C, c::C] += A[c::C] @ Zt.T
                step = np.linalg.solve(H / n + self.L2 * np.eye(D * C), grad.ravel()).reshape(D, C)
                t, slope = 1.0, grad.ravel() @ step.ravel()
            else:
                t /= 2
        raise RuntimeError(f"logistic fit did not reach gradient {self.TOL} in {self.MAX_ITER} evaluations")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("classifier is not fitted")
        logits = self._weights.T @ self._design(np.asarray(X, dtype=float)).T
        proba = np.exp(logits - logits.max(axis=0))
        return (proba / proba.sum(axis=0)).T


@dataclass
class ConformalRun:
    """Prediction-set stream plus its coverage and mean set size per alpha."""

    method: str
    alphas: tuple[float, ...]
    sets: dict                       # alpha -> (n_test, C) bool matrix over class_labels
    coverage: dict                   # alpha -> float (nan for an empty test stream)
    mean_size: dict                  # alpha -> float
    class_labels: np.ndarray
    loo_fallbacks: int = 0


def _encode_labels(train_y, test_y):
    class_labels = np.unique(np.asarray(train_y))
    if len(class_labels) < 2:
        raise ValueError(f"training labels are degenerate (single class {class_labels}); "
                         "cannot calibrate a classifier")
    missing = set(np.unique(test_y)) - set(class_labels.tolist())
    if missing:
        raise ValueError(f"test labels {sorted(missing)} never appear in training data")
    return class_labels, np.searchsorted(class_labels, train_y), np.searchsorted(class_labels, test_y)


def _renormalize(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def eraps(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    *,
    num_bootstrap: int,
    batch_size: int,
    alphas,
    score_params: ScoreParams = ScoreParams(),
    classifier_factory=None,
    seed: int = 0,
) -> ConformalRun:
    """Bootstrap leave-one-out ensemble prediction sets with a sliding window.

    Trains ``num_bootstrap`` classifiers on resampled training sets; each
    training point is scored under the aggregate of the models whose
    bootstrap excluded it (falling back to the full ensemble when none did);
    test points are scored under the aggregate of those leave-one-out
    aggregates.  Both aggregates are renormalized elementwise means.  Each
    batch of ``batch_size`` test points is calibrated against the current
    window; then its labels are revealed (``test_y`` is required) and their
    scores replace the oldest calibration scores.  Scores do not depend on
    the window, so every test row is checked and scored once.
    """
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    n_train, n_test = len(train_x), len(test_x)
    if num_bootstrap < 2:
        raise ValueError("need at least 2 bootstrap models")
    if n_train < 10:
        raise ValueError("need at least 10 training points")
    if not 1 <= batch_size <= max(n_test, 1):
        raise ValueError("batch_size must be in [1, number of test points]")
    if batch_size > n_train:
        raise ValueError("batch_size must not exceed the calibration window (number of training points)")
    if test_y is None:
        raise ValueError("ERAPS needs the revealed test labels (test_y) to slide its window")
    alphas = _check_alphas(alphas)
    classifier_factory = classifier_factory or LogisticClassifier

    class_labels, y_train, y_test = _encode_labels(train_y, test_y)
    C = len(class_labels)
    rng = np.random.default_rng(seed)
    boot_indices = rng.integers(0, n_train, size=(num_bootstrap, n_train))
    uniforms = rng.uniform(size=n_train + n_test)

    p_train = np.zeros((num_bootstrap, n_train, C))
    p_test = np.zeros((num_bootstrap, n_test, C))
    for b in range(num_bootstrap):
        clf = classifier_factory()
        clf.fit(train_x[boot_indices[b]], y_train[boot_indices[b]], num_classes=C)
        p_train[b] = clf.predict_proba(train_x)
        p_test[b] = clf.predict_proba(test_x)
    if not (np.isfinite(p_train).all() and np.isfinite(p_test).all()):
        raise ValueError("classifier probabilities must be finite")

    in_sample = np.zeros((num_bootstrap, n_train), dtype=bool)
    in_sample[np.arange(num_bootstrap)[:, None], boot_indices] = True
    out = (~in_sample).T.astype(float)             # (n_train, B)
    out_counts = out.sum(axis=1)
    fallbacks = int((out_counts == 0).sum())
    if fallbacks:
        logger.info(
            "%d training points appear in every bootstrap sample; "
            "their leave-one-out aggregate falls back to the full ensemble mean",
            fallbacks,
        )
    weights = np.where(
        out_counts[:, None] > 0, out / np.maximum(out_counts[:, None], 1.0), 1.0 / num_bootstrap
    )

    loo_train = _renormalize(np.einsum("ib,bic->ic", weights, p_train))
    # test-point probabilities: mean of the per-training-point LOO ensembles
    w_bar = weights.mean(axis=0)
    proba_test = _renormalize(np.einsum("b,bjc->jc", w_bar, p_test))

    u_train, u_test = uniforms[:n_train], uniforms[n_train:]
    tau_train = scores_all_labels(loo_train, u_train, score_params)
    tau_test = scores_all_labels(check_probability_vector(proba_test, ndim=2), u_test, score_params)
    stream = np.concatenate([tau_train[np.arange(n_train), y_train], tau_test[np.arange(n_test), y_test]])
    sets = _set_rule(_window_fractions(stream, n_train, tau_test, batch_size), alphas)
    return _conformal_run("eraps", alphas, sets, y_test, class_labels, loo_fallbacks=fallbacks)


def sraps(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    *,
    split_fraction: float = 0.5,
    alphas,
    score_params: ScoreParams = ScoreParams(),
    classifier_factory=None,
    seed: int = 0,
) -> ConformalRun:
    """Split-conformal baseline: one model, one fixed calibration split,
    the same score and set rule; the whole test stream is one batch, so its
    calibration window never slides."""
    if not 0 < split_fraction < 1:
        raise ValueError("split_fraction must be in (0, 1)")
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    alphas = _check_alphas(alphas)
    classifier_factory = classifier_factory or LogisticClassifier

    class_labels, y_train, y_test = _encode_labels(train_y, test_y)
    n_train = len(train_x)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_train)
    n_proper = max(1, int(math.floor(split_fraction * n_train)))
    if n_proper >= n_train:
        raise ValueError("calibration split is empty")
    proper, cal = perm[:n_proper], perm[n_proper:]
    if len(np.unique(y_train[proper])) < 2:
        raise ValueError("proper-training split is degenerate (single class)")
    uniforms = rng.uniform(size=len(cal) + len(test_x))

    clf = classifier_factory()
    clf.fit(train_x[proper], y_train[proper], num_classes=len(class_labels))
    proba_cal, proba_test = (check_probability_vector(clf.predict_proba(x), ndim=2) for x in (train_x[cal], test_x))
    tau_cal = scores_all_labels(proba_cal, uniforms[: len(cal)], score_params)
    tau_test = scores_all_labels(proba_test, uniforms[len(cal):], score_params)
    calibration = tau_cal[np.arange(len(cal)), y_train[cal]]
    # one batch, so the window never slides onto the test labels
    fraction = _window_fractions(calibration, len(cal), tau_test, max(len(test_x), 1))
    return _conformal_run("sraps", alphas, _set_rule(fraction, alphas), y_test, class_labels)


def _conformal_run(method, alphas, sets, y_test, class_labels, loo_fallbacks=0) -> ConformalRun:
    """The run with each alpha's marginal coverage of the encoded test labels
    ``y_test`` (nan for an empty stream) and mean set size (0.0 for an empty
    stream)."""
    coverage, mean_size = {}, {}
    for a in alphas:
        keep, m = sets[a], len(sets[a])
        coverage[a] = float(keep[np.arange(m), y_test].mean()) if m else float("nan")
        mean_size[a] = float(keep.sum(axis=1).mean()) if m else 0.0
    return ConformalRun(method, alphas, sets, coverage, mean_size, class_labels, loo_fallbacks)
