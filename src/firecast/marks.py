"""Mark models: how a feature vector scales the ground intensity.

A model scores marks only, a batch of rows in one ``scores`` call
(``event_scores`` is one over a sequence's events, ``score`` a batch of one).
The linear model scores ``gamma @ m`` with the weights held in the
point-process parameters; the nonlinear model delegates to a fitted scorer
``scorer(marks (N, p)) -> (N,)``.  One scorer ships here (an exact Gaussian
KDE in numpy, computed one mark column at a time over blocks of query rows);
anything fancier plugs in through the same callable contract.
"""

from __future__ import annotations

import numpy as np

KDE_BLOCK = 64  # query rows per block in kde_scorer: two 64 x n float temporaries


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
    the density once per distinct mark row, in blocks of ``KDE_BLOCK`` rows.
    Whitened coordinates and squared distances are summed one mark column at
    a time, in place, into one block x n buffer.  For fewer than 8 mark
    columns that is the order in which numpy sums a short axis, so the scores
    are the bits of the broadcast formula kept in ``tests/oracles.py``; from
    8 columns on they may differ from it in the last bits.  Each row's sum
    over the training points runs along that row, so a row scores the same
    bits alone or in any batch.  A singular mark covariance raises.
    """
    train_marks = np.asarray(train_marks, dtype=float)
    if train_marks.ndim != 2 or train_marks.shape[0] < 2:
        raise ValueError("need a (n, p) mark matrix with n >= 2")
    n, d = train_marks.shape
    try:  # Scott's rule: the marks' covariance L L^T scaled by n ** (-2 / (d + 4))
        chol = np.linalg.cholesky(np.atleast_2d(np.cov(train_marks.T))) * n ** (-1.0 / (d + 4))
    except np.linalg.LinAlgError:
        raise ValueError("singular mark covariance: a mark column is constant, one-hot or collinear") from None
    whiten = np.linalg.inv(chol)
    train_z = _whiten(train_marks, whiten)
    norm = n * np.prod(np.sqrt(2 * np.pi) * np.diag(chol))

    def scorer(marks):
        rows, inverse = np.unique(np.reshape(marks, (-1, d)), axis=0, return_inverse=True)
        density = np.empty(len(rows))
        acc = np.empty((min(len(rows), KDE_BLOCK), n))
        diff = np.empty_like(acc)
        for start in range(0, len(rows), KDE_BLOCK):
            z = _whiten(rows[start:start + KDE_BLOCK], whiten)[:, :, None]
            block = z.shape[1]
            # squared distance, summed one mark column at a time; a square is
            # never -0.0, so the first needs no 0.0 added before it
            sq, part = acc[:block], diff[:block]
            np.subtract(z[0], train_z[0], out=sq)
            sq *= sq
            for j in range(1, d):
                np.subtract(z[j], train_z[j], out=part)
                part *= part
                sq += part
            sq *= -0.5
            np.exp(sq, out=sq)
            density[start:start + block] = sq.sum(axis=1)
        return (density / norm)[inverse.ravel()].reshape(np.shape(marks)[:-1])

    return scorer


def _whiten(marks: np.ndarray, whiten: np.ndarray) -> np.ndarray:
    """``z = L^-1 m`` of each row, as d contiguous coordinate rows (d, N).
    Each coordinate is summed from 0.0 one mark column at a time, not by a
    BLAS call, so it adds in the order numpy sums a short axis."""
    z = np.zeros((len(whiten), len(marks)))
    for j, k in np.ndindex(whiten.shape):
        z[j] += marks[:, k] * whiten[j, k]
    return z
