"""Mark models: how a feature vector scales the ground intensity.

A model scores marks only, a batch of rows in one ``scores`` call
(``event_scores`` is one over a sequence's events, ``score`` a batch of one).
The linear model scores ``gamma @ m`` with the weights held in the
point-process parameters; the nonlinear model delegates to a fitted scorer
``scorer(marks (N, p)) -> (N,)``.  One scorer ships here (a Gaussian KDE in
numpy); anything fancier plugs in through the same callable contract.
"""

from __future__ import annotations

import numpy as np

KDE_BLOCK = 64  # query rows per block in kde_scorer: one 64 x n x p float temporary


class LinearMarkModel:
    """Mark score ``gamma @ m`` with ``gamma`` taken from the model params."""

    uses_gamma = True

    def scores(self, gamma: np.ndarray, marks: np.ndarray) -> np.ndarray:
        marks = np.asarray(marks, dtype=float)
        if marks.shape[-1:] != gamma.shape:
            raise ValueError(f"mark vector has length {marks.shape[-1:]}, expected {gamma.shape}")
        return marks @ gamma

    def event_scores(self, gamma: np.ndarray, seq) -> np.ndarray:
        return self.scores(gamma, seq.marks)

    def score(self, gamma: np.ndarray, marks: np.ndarray) -> float:
        return float(self.scores(gamma, np.reshape(marks, (1, -1)))[0])


class NonLinearMarkModel:
    """Mark score from a fitted deterministic batch scorer, independent of gamma:
    ``scorer(marks (N, p)) -> (N,)``."""

    uses_gamma = False

    def __init__(self, scorer):
        self.scorer = scorer

    def scores(self, gamma: np.ndarray, marks: np.ndarray) -> np.ndarray:
        out = np.asarray(self.scorer(np.asarray(marks, dtype=float)), dtype=float)
        if out.shape != (len(marks),):
            raise ValueError(f"scorer returned shape {out.shape}, expected ({len(marks)},)")
        return out

    def event_scores(self, gamma: np.ndarray, seq) -> np.ndarray:
        return self.scores(gamma, seq.marks)

    def score(self, gamma: np.ndarray, marks: np.ndarray) -> float:
        return float(self.scores(gamma, np.reshape(marks, (1, -1)))[0])


def kde_scorer(train_marks: np.ndarray):
    """Gaussian kernel-density scorer fitted on training marks.

    Bandwidth follows Scott's rule.  The scorer is deterministic and evaluates
    the density once per distinct mark row, in blocks of ``KDE_BLOCK`` rows;
    every sum runs along one row, so a row scores the same bits alone or in
    any batch.  A singular mark covariance raises.
    """
    train_marks = np.asarray(train_marks, dtype=float)
    if train_marks.ndim != 2 or train_marks.shape[0] < 2:
        raise ValueError("need a (n, p) mark matrix with n >= 2")
    n, d = train_marks.shape
    try:  # Scott's rule: the marks' covariance L L^T scaled by n ** (-2 / (d + 4))
        chol = np.linalg.cholesky(np.atleast_2d(np.cov(train_marks.T))) * n ** (-1.0 / (d + 4))
    except np.linalg.LinAlgError:
        raise ValueError("singular mark covariance: a mark column is constant, one-hot or collinear") from None
    # whiten z = L^-1 m by a product and a sum along each row, not a BLAS call
    whiten = np.linalg.inv(chol)
    train_z = (train_marks[:, None, :] * whiten).sum(axis=2)
    norm = n * np.prod(np.sqrt(2 * np.pi) * np.diag(chol))

    def scorer(marks):
        rows, inverse = np.unique(np.reshape(marks, (-1, d)), axis=0, return_inverse=True)
        density = np.empty(len(rows))
        for start in range(0, len(rows), KDE_BLOCK):
            z = (rows[start:start + KDE_BLOCK, None, :] * whiten).sum(axis=2)
            diff = z[:, None, :] - train_z
            density[start:start + KDE_BLOCK] = np.exp(-0.5 * (diff * diff).sum(axis=2)).sum(axis=1)
        return (density / norm)[inverse.ravel()].reshape(np.shape(marks)[:-1])

    return scorer
