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
labels batch by batch.  Both apply the set rule per calibration-window batch
over all labels at once: ``build_sets`` gives each alpha an (m, C) bool
membership matrix, which a run stacks into ``sets[alpha]``, one (n_test, C)
matrix; ``build_set`` returns the label indices kept for one probability vector.
The classifier's softmax folds over classes column by column (a max fold,
then a left-fold sum), bit-identical to numpy's row reductions below 8
classes; from 8 on numpy sums pairwise, so probabilities can differ from a
row-reduction softmax in the last bits.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoreParams:
    """Regularization of the non-conformity score; defaults (1, 2)."""

    lambda_reg: float = 1.0
    k_reg: int = 2

    def __post_init__(self):
        if self.lambda_reg < 0 or self.k_reg < 0:
            raise ValueError("lambda_reg and k_reg must be nonnegative")


def check_probability_vector(p: np.ndarray, tol: float = 1e-9, ndim: int = 1) -> np.ndarray:
    """``p`` as floats: ``ndim`` axes of finite, nonnegative rows summing to 1."""
    p = np.asarray(p, dtype=float)
    valid = p.ndim == ndim and np.isfinite(p).all() and np.all(p >= -tol)
    if not (valid and np.all(np.abs(p.sum(axis=-1) - 1.0) <= tol)):
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


@dataclass(frozen=True)
class CalibrationStore:
    """Insertion-ordered window of calibration scores backing the set rule."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "_sorted", np.sort(arr))

    def __len__(self) -> int:
        return len(self.scores)

    def fraction_leq(self, x: float | np.ndarray) -> np.ndarray:
        """Empirical fraction of stored scores <= x."""
        if len(self.scores) == 0:
            raise RuntimeError("calibration store is empty")
        counts = np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right")
        return counts / len(self.scores)

    def slide(self, new_scores: np.ndarray) -> "CalibrationStore":
        """Drop the oldest len(new_scores) entries and append the new ones."""
        new_scores = np.asarray(new_scores, dtype=float)
        if len(new_scores) > len(self.scores):
            raise ValueError("cannot slide by more than the window size")
        return CalibrationStore(np.concatenate([self.scores[len(new_scores):], new_scores]))


def build_sets(
    p: np.ndarray, u: np.ndarray, store: CalibrationStore, alphas, sp: ScoreParams
) -> tuple[dict, np.ndarray]:
    """Prediction set rule: keep c while fraction(tau <= score(c)) < 1 - alpha, for
    m rows p (m, C) with randomizers u (m,) against one store.  Returns
    ``{alpha: keep}``, each an (m, C) bool membership matrix over p's
    columns, and the (m, C) label scores."""
    if not all(0 < a < 1 for a in alphas):
        raise ValueError("alpha must be in (0, 1)")
    p = check_probability_vector(p, ndim=2)
    label_scores = scores_all_labels(p, u, sp)
    fraction = store.fraction_leq(label_scores)
    return {a: fraction < 1.0 - a for a in alphas}, label_scores


def build_set(p: np.ndarray, store: CalibrationStore, alpha: float, u: float, sp: ScoreParams) -> np.ndarray:
    """The label indices the set rule keeps for one probability vector: a batch of one."""
    p = check_probability_vector(p)
    sets, _ = build_sets(p[None, :], np.array([u]), store, (alpha,), sp)
    return np.flatnonzero(sets[alpha][0])


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of (n, C) logits, in place, folded over the C columns."""
    cols = logits.T
    top = functools.reduce(np.maximum, cols)
    for col in cols:
        col -= top
    np.exp(logits, out=logits)
    total = functools.reduce(np.add, cols)
    for col in cols:
        col /= total
    return logits


class LogisticClassifier:
    """Multinomial logistic regression trained by full-batch gradient descent.

    Deterministic given the training data and seed: zero-initialized weights,
    standardized features, fixed step count.
    """

    LEARNING_RATE = 1.0
    EPOCHS = 300
    L2 = 1e-4

    def __init__(self):
        self._weights = None
        self._x_mean = None
        self._x_std = None

    def _design(self, X: np.ndarray) -> np.ndarray:
        """Standardized features plus an intercept column."""
        return np.hstack([(X - self._x_mean) / self._x_std, np.ones((len(X), 1))])

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int, seed: int = 0):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        self._x_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._x_std = np.where(std > 1e-12, std, 1.0)
        Z = self._design(X)
        W = np.zeros((d + 1, num_classes))
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), y] = 1.0
        for _ in range(self.EPOCHS):
            proba = _softmax(Z @ W)
            grad = Z.T @ (proba - onehot) / n + self.L2 * W
            W -= self.LEARNING_RATE * grad
        self._weights = W
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("classifier is not fitted")
        return _softmax(self._design(np.asarray(X, dtype=float)) @ self._weights)


@dataclass
class ConformalRun:
    """Prediction-set stream plus its coverage and mean set size per alpha."""

    method: str
    alphas: tuple[float, ...]
    sets: dict                       # alpha -> (n_test, C) bool matrix over class_labels
    coverage: dict                   # alpha -> float (nan if truths unknown)
    mean_size: dict                  # alpha -> float
    class_labels: np.ndarray
    loo_fallbacks: int = 0


def _encode_labels(train_y, test_y):
    class_labels = np.unique(np.asarray(train_y))
    if len(class_labels) < 2:
        raise ValueError(f"training labels are degenerate (single class {class_labels}); "
                         "cannot calibrate a classifier")
    y_test = None
    if test_y is not None:
        missing = set(np.unique(test_y)) - set(class_labels.tolist())
        if missing:
            raise ValueError(f"test labels {sorted(missing)} never appear in training data")
        y_test = np.searchsorted(class_labels, test_y)
    return class_labels, np.searchsorted(class_labels, train_y), y_test


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
    batch of ``batch_size`` test points gets its sets for all labels and
    alphas from one ``build_sets`` call on the current store; then its
    labels are revealed (``test_y`` is required) and their scores replace
    the oldest calibration scores.
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
    if test_y is None:
        raise ValueError("ERAPS needs the revealed test labels (test_y) to slide its window")
    alphas = tuple(float(a) for a in alphas)
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
        clf.fit(train_x[boot_indices[b]], y_train[boot_indices[b]], num_classes=C, seed=seed + b)
        p_train[b] = clf.predict_proba(train_x)
        p_test[b] = clf.predict_proba(test_x)

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
    tau_init = scores_all_labels(loo_train, u_train, score_params)
    store = CalibrationStore(tau_init[np.arange(n_train), y_train])
    sets = {a: np.zeros((n_test, C), dtype=bool) for a in alphas}
    for start in range(0, n_test, batch_size):
        batch = slice(start, start + batch_size)
        batch_sets, label_scores = build_sets(proba_test[batch], u_test[batch], store, alphas, score_params)
        for a in alphas:
            sets[a][batch] = batch_sets[a]
        if len(label_scores) == batch_size:  # a trailing partial batch never slides
            store = store.slide(label_scores[np.arange(batch_size), y_test[batch]])

    return _conformal_run("eraps", alphas, sets, y_test, class_labels, loo_fallbacks=fallbacks)


def sraps(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray | None = None,
    *,
    split_fraction: float = 0.5,
    alphas,
    score_params: ScoreParams = ScoreParams(),
    classifier_factory=None,
    seed: int = 0,
) -> ConformalRun:
    """Split-conformal baseline: one model, one fixed calibration split,
    the same score and set rule, no sliding; the whole test stream is one
    ``build_sets`` batch."""
    if not 0 < split_fraction < 1:
        raise ValueError("split_fraction must be in (0, 1)")
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    alphas = tuple(float(a) for a in alphas)
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
    clf.fit(train_x[proper], y_train[proper], num_classes=len(class_labels), seed=seed)
    tau_cal = scores_all_labels(clf.predict_proba(train_x[cal]), uniforms[: len(cal)], score_params)
    store = CalibrationStore(tau_cal[np.arange(len(cal)), y_train[cal]])
    proba_test = clf.predict_proba(test_x)
    sets, _ = build_sets(proba_test, uniforms[len(cal):], store, alphas, score_params)
    return _conformal_run("sraps", alphas, sets, y_test, class_labels)


def _conformal_run(method, alphas, sets, y_test, class_labels, loo_fallbacks=0) -> ConformalRun:
    """The run with each alpha's marginal coverage of the encoded test labels
    ``y_test`` (nan when they are unknown or the stream is empty) and mean set
    size (0.0 for an empty stream)."""
    coverage, mean_size = {}, {}
    for a in alphas:
        keep, m = sets[a], len(sets[a])
        coverage[a] = float(keep[np.arange(m), y_test].mean()) if y_test is not None and m else float("nan")
        mean_size[a] = float(keep.sum(axis=1).mean()) if m else 0.0
    return ConformalRun(method, alphas, sets, coverage, mean_size, class_labels, loo_fallbacks)
