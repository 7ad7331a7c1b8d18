import numpy as np
import pytest

from firecast.conformal import (
    LogisticClassifier,
    ScoreParams,
    _conformal_run,
    _window_fractions,
    build_set,
    check_probability_vector,
    eraps,
    scores_all_labels,
    sraps,
)

from oracles import (
    conformal_sets_oracle,
    gaussian_class_data,
    gaussian_true_posterior,
    logistic_objective_oracle,
    naive_label_score,
)

P_532 = np.array([0.5, 0.3, 0.2])
MEANS = np.array([[2.0, 0.0], [-1.0, 1.7], [-1.0, -1.7]])


NO_REG = ScoreParams(lambda_reg=0.0, k_reg=0)


def mass_above(p):
    """Each label's probability mass above it: its score with u = 0 and no regularizer."""
    return scores_all_labels(p, 0.0, NO_REG)


def rank_of(p):
    """Each label's rank: the integer part of its score with u = 0 and a unit
    regularizer from rank 0, since the mass above a label is below 1."""
    return np.floor(scores_all_labels(p, 0.0, ScoreParams(lambda_reg=1.0, k_reg=0)))


class TestScorePieces:
    """``scores_all_labels``, the one score implementation, by hand and
    against the per-label oracle."""

    def test_mass_above_hand_values(self):
        assert mass_above(P_532)[0] == 0.0
        assert mass_above(P_532)[2] == pytest.approx(0.8)
        uniform = np.full(4, 0.25)
        assert mass_above(uniform)[2] == 0.0

    def test_rank_hand_values(self):
        assert rank_of(P_532)[0] == 1
        assert rank_of(P_532)[2] == 3
        assert rank_of(np.full(4, 0.25))[1] == 1  # ties share the top rank

    def test_score_hand_value(self):
        sp = ScoreParams(lambda_reg=1.0, k_reg=2)
        assert scores_all_labels(P_532, 0.4, sp)[0] == pytest.approx(0.0 + 0.5 * 0.4 + 0.0)

    def test_score_regularizer_switches(self):
        also_no_reg = ScoreParams(lambda_reg=0.0, k_reg=3)
        assert scores_all_labels(P_532, 0.7, NO_REG)[2] == scores_all_labels(P_532, 0.7, also_no_reg)[2]
        sp = ScoreParams(lambda_reg=1.0, k_reg=2)
        assert scores_all_labels(P_532, 0.0, sp)[2] == pytest.approx(mass_above(P_532)[2] + 1.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        sp = ScoreParams(lambda_reg=0.7, k_reg=1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            u = float(rng.uniform())
            batch = scores_all_labels(p, u, sp)
            for c in range(5):
                assert batch[c] == pytest.approx(naive_label_score(p, c, u, sp.lambda_reg, sp.k_reg))

    def test_monotonicity_of_deterministic_parts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            c1, c2 = rng.choice(6, size=2, replace=False)
            if p[c1] <= p[c2]:
                c1, c2 = c2, c1
            assert mass_above(p)[c1] <= mass_above(p)[c2]
            assert rank_of(p)[c1] <= rank_of(p)[c2]


class TestWindowFractions:
    """``_window_fractions`` on a hand-built stream: the batch of rows starting
    at s reads ``stream[s:s + window]``."""

    STREAM = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 0.0, 6.0])

    def test_hand_counted_fractions(self):
        stream = np.arange(0.1, 1.05, 0.1)
        scores = np.array([[0.35, 0.0, 0.6, 2.0]])
        assert _window_fractions(stream, 10, scores, 1)[0].tolist() == pytest.approx([0.3, 0.0, 0.6, 1.0])

    def test_each_batch_reads_its_own_window(self):
        scores = np.array([[0.5, 2.5, 4.5], [3.5, 5.5, 9.0], [0.5, 2.5, 4.5], [3.5, 5.5, 9.0]])
        fraction = _window_fractions(self.STREAM, 4, scores, 2)
        # batch 0 reads [5, 1, 4, 2], batch 1 reads stream[2:6] = [4, 2, 3, 0]
        assert fraction.tolist() == [[0, 0.5, 0.75], [0.5, 1, 1], [0.25, 0.5, 1], [0.75, 1, 1]]

    def test_short_last_batch(self):
        # windows [5, 1, 4] and [4, 2, 3], then [3, 0, 6] for the last row alone
        fraction = _window_fractions(self.STREAM, 3, np.full((5, 1), 3.5), 2)
        assert fraction[:, 0].tolist() == [1 / 3, 1 / 3, 2 / 3, 2 / 3, 2 / 3]

    def test_one_batch_never_slides(self):
        # batch_size >= the number of rows, as SRAPS calls it: every row reads stream[:window]
        scores = np.array([[0.5], [4.5], [9.0]])
        for batch_size in (3, 10):
            assert _window_fractions(self.STREAM, 4, scores, batch_size)[:, 0].tolist() == [0.0, 0.75, 1.0]

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="calibration window is empty"):
            _window_fractions(np.zeros(0), 0, np.array([[0.5]]), 1)
        with pytest.raises(ValueError, match="calibration window is empty"):
            build_set(np.array([0.5, 0.5]), np.zeros(0), 0.1, 0.5, ScoreParams())


class TestBuildSet:
    def test_hand_counted_inclusion(self):
        # empirical fraction at 0.35 is 3/10 < 1 - 0.3, so the label stays
        calibration = np.arange(0.1, 1.05, 0.1)
        sp = ScoreParams(lambda_reg=0.0, k_reg=0)
        p = np.array([0.65, 0.35])
        # with u=1: score(c=0) = 0.65, score(c=1) = 0.65 + 0.35 = 1.0
        labels = build_set(p, calibration, alpha=0.3, u=1.0, sp=sp)
        assert 0 in labels  # fraction(<=0.65) = 0.6 < 0.7
        assert 1 not in labels  # fraction(<=1.0) = 1.0 >= 0.7

    def test_alpha_limits(self):
        # one large stored score keeps every label's fraction strictly below 1
        calibration = np.append(np.linspace(0.05, 1.0, 20), 10.0)
        sp = ScoreParams()
        p = np.array([0.7, 0.2, 0.1])
        tiny = build_set(p, calibration, alpha=1e-9, u=0.5, sp=sp)
        assert len(tiny) == 3  # every score undercuts the top stored one
        huge = build_set(p, calibration, alpha=1 - 1e-9, u=0.5, sp=sp)
        assert len(huge) == 0

    def test_nestedness_in_alpha(self):
        rng = np.random.default_rng(2)
        calibration = rng.uniform(size=40)
        sp = ScoreParams()
        for _ in range(25):
            p = rng.dirichlet(np.ones(4))
            u = float(rng.uniform())
            loose = set(build_set(p, calibration, 0.05, u, sp).tolist())
            tight = set(build_set(p, calibration, 0.2, u, sp).tolist())
            assert tight <= loose

    @pytest.mark.parametrize("lambda_reg", [-0.5, float("nan")])
    def test_score_params_reject_a_negative_or_nan_lambda_reg(self, lambda_reg):
        # a NaN weight used to give every label a NaN score: coverage 0 and empty sets, without an error
        with pytest.raises(ValueError, match="lambda_reg"):
            ScoreParams(lambda_reg=lambda_reg)

    def test_rejects_bad_inputs(self):
        calibration = np.array([0.5])
        with pytest.raises(ValueError):
            build_set(np.array([0.9, 0.2]), calibration, 0.1, 0.5, ScoreParams())
        with pytest.raises(ValueError):
            build_set(np.array([0.5, 0.5]), calibration, 1.5, 0.5, ScoreParams())


class TestLogisticClassifier:
    def test_deterministic_and_learns(self):
        rng = np.random.default_rng(3)
        X, y = gaussian_class_data(rng, 400, MEANS, sigma=0.6)
        a = LogisticClassifier().fit(X, y, num_classes=3)
        b = LogisticClassifier().fit(X, y, num_classes=3)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
        acc = (a.predict_proba(X).argmax(axis=1) == y).mean()
        assert acc > 0.9
        rows = a.predict_proba(X)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("case", ["absent_class", "separable", "constant_feature", "last_step_rounds_up"])
    def test_newton_converges_on_edge_cases(self, case):
        X, y = _edge_case_data(case)
        clf = LogisticClassifier().fit(X, y, num_classes=3)  # raises if MAX_ITER is reached
        _, grad = logistic_objective_oracle(X, y, 3)(clf._weights.ravel())
        assert np.abs(grad).max() <= LogisticClassifier.TOL
        assert np.isfinite(clf._weights).all()
        assert np.allclose(clf.predict_proba(X).sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_max_iter_reached_raises(self, monkeypatch):
        monkeypatch.setattr(LogisticClassifier, "MAX_ITER", 1)
        X, y = gaussian_class_data(np.random.default_rng(3), 100, MEANS)
        with pytest.raises(RuntimeError, match="did not reach"):
            LogisticClassifier().fit(X, y, num_classes=3)


def _edge_case_data(case):
    if case == "last_step_rounds_up":
        # the last Newton step (max-abs gradient 6e-10 before it, 2e-17 after)
        # raises the objective by one ulp: neither it nor a halving passes Armijo
        return gaussian_class_data(np.random.default_rng(25), 200, MEANS, sigma=1.5)
    rng = np.random.default_rng(5)
    if case == "absent_class":  # as in a bootstrap draw: three classes, labels {0, 1}
        return gaussian_class_data(rng, 200, MEANS[:2], sigma=0.8)
    if case == "separable":  # the class follows the first feature through two thresholds
        X = rng.uniform(size=(300, 2))
        return X, np.minimum((3 * X[:, 0]).astype(int), 2)
    X, y = gaussian_class_data(rng, 200, MEANS, sigma=1.0)
    return np.column_stack([X, np.full(len(X), 0.1)]), y


class FixedClassifier:
    """Plug-in returning one fixed probability row for every input."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def clone(self):
        return FixedClassifier(self.row)

    def fit(self, X, y, num_classes):
        return self

    def predict_proba(self, X):
        return np.tile(self.row, (len(X), 1))


class TruePosteriorClassifier:
    """Consistent plug-in: returns the exact mixture posterior."""

    def fit(self, X, y, num_classes):
        return self

    def predict_proba(self, X):
        return gaussian_true_posterior(X, MEANS, sigma=1.0)


class TestEraps:
    def _data(self, seed=0, n_train=60, n_test=40, sigma=1.0):
        rng = np.random.default_rng(seed)
        X, y = gaussian_class_data(rng, n_train + n_test, MEANS, sigma=sigma)
        return X[:n_train], y[:n_train], X[n_train:], y[n_train:]

    def test_validation_errors(self):
        tx, ty, ex, ey = self._data()
        with pytest.raises(ValueError):
            eraps(tx, ty, ex, ey, num_bootstrap=1, batch_size=5, alphas=[0.1])
        with pytest.raises(ValueError):
            eraps(tx[:5], ty[:5], ex, ey, num_bootstrap=5, batch_size=5, alphas=[0.1])
        with pytest.raises(ValueError):
            eraps(tx, ty, ex, ey, num_bootstrap=5, batch_size=0, alphas=[0.1])
        with pytest.raises(ValueError):
            eraps(tx, np.zeros_like(ty), ex, ey, num_bootstrap=5, batch_size=5, alphas=[0.1])

    @pytest.mark.parametrize("alphas", [[0.0], [1.0], [0.1, 1.5], [-0.1], [np.nan]])
    def test_alpha_outside_the_unit_interval_rejected(self, alphas):
        tx, ty, ex, ey = self._data()
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            eraps(tx, ty, ex, ey, num_bootstrap=3, batch_size=5, alphas=alphas)

    def test_empty_alphas_rejected(self):
        # both used to run without a set to build
        tx, ty, ex, ey = self._data()
        with pytest.raises(ValueError, match=r"^alphas must name at least one level$"):
            eraps(tx, ty, ex, ey, num_bootstrap=3, batch_size=5, alphas=[])
        with pytest.raises(ValueError, match=r"^alphas must name at least one level$"):
            sraps(tx, ty, ex, ey, split_fraction=0.5, alphas=())

    def test_repeated_alphas_rejected(self):
        # a repeated level used to write its summary row and every one of its sets twice
        tx, ty, ex, ey = self._data()
        with pytest.raises(ValueError, match=r"^alphas repeat 0\.1$"):
            sraps(tx, ty, ex, ey, split_fraction=0.5, alphas=[0.1, 0.1])
        with pytest.raises(ValueError, match=r"^alphas repeat 0\.1, 0\.2$"):
            eraps(tx, ty, ex, ey, num_bootstrap=3, batch_size=5, alphas=[0.2, 0.1, 0.2, 0.1])

    @pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.nan] * 3, [np.inf, 0.5, 0.5]])
    def test_non_finite_probabilities_rejected(self, bad):
        tx, ty, ex, ey = self._data()
        with pytest.raises(ValueError, match="finite"):
            eraps(tx, ty, ex, ey, num_bootstrap=3, batch_size=5, alphas=[0.1],
                  classifier_factory=lambda: FixedClassifier(bad))

    def test_batch_longer_than_the_window_rejected(self):
        tx, ty, ex, ey = self._data(n_train=20, n_test=40)
        with pytest.raises(ValueError, match="calibration window"):
            eraps(tx, ty, ex, ey, num_bootstrap=3, batch_size=21, alphas=[0.1])
        eraps(tx, ty, ex, ey, num_bootstrap=3, batch_size=20, alphas=[0.1])

    def test_loo_fallback_path_runs(self):
        # small training set: some index lands in every bootstrap sample
        rng = np.random.default_rng(9)
        X, y = gaussian_class_data(rng, 22, MEANS, sigma=1.0)
        for seed in range(30):
            run = eraps(
                X[:12], y[:12], X[12:], y[12:],
                num_bootstrap=2, batch_size=5, alphas=[0.1],
                classifier_factory=lambda: FixedClassifier([0.5, 0.3, 0.2]),
                seed=seed,
            )
            if run.loo_fallbacks > 0:
                break
        assert run.loo_fallbacks > 0
        assert run.sets[0.1].shape == (10, 3)

    def test_nested_sets_across_alpha(self):
        tx, ty, ex, ey = self._data(seed=4, n_train=80, n_test=60)
        run = eraps(tx, ty, ex, ey, num_bootstrap=8, batch_size=10, alphas=[0.05, 0.2], seed=1)
        assert np.all(run.sets[0.2] <= run.sets[0.05])

    def test_reasonable_coverage_single_seed(self):
        tx, ty, ex, ey = self._data(seed=5, n_train=300, n_test=300, sigma=1.2)
        run = eraps(tx, ty, ex, ey, num_bootstrap=15, batch_size=20, alphas=[0.1], seed=2)
        assert run.coverage[0.1] >= 0.85
        assert 1.0 <= run.mean_size[0.1] <= 3.0

    def test_unseen_test_label_rejected(self):
        tx, ty, ex, ey = self._data()
        ey = ey.copy()
        ey[0] = 7
        with pytest.raises(ValueError, match="never appear"):
            eraps(tx, ty, ex, ey, num_bootstrap=4, batch_size=5, alphas=[0.1])

    def test_deterministic_given_seed(self):
        tx, ty, ex, ey = self._data(seed=6)
        a = eraps(tx, ty, ex, ey, num_bootstrap=5, batch_size=10, alphas=[0.1], seed=3)
        b = eraps(tx, ty, ex, ey, num_bootstrap=5, batch_size=10, alphas=[0.1], seed=3)
        assert np.array_equal(a.sets[0.1], b.sets[0.1])


class TestSraps:
    def test_reduces_to_pointwise_build_set(self):
        # with a fixed classifier the stream must equal build_set per point
        rng = np.random.default_rng(7)
        X, y = gaussian_class_data(rng, 80, MEANS, sigma=1.0)
        tx, ty, ex, ey = X[:60], y[:60], X[60:], y[60:]
        row = np.array([0.5, 0.3, 0.2])
        seed = 11
        run = sraps(
            tx, ty, ex, ey,
            split_fraction=0.5,
            alphas=[0.1, 0.3],
            classifier_factory=lambda: FixedClassifier(row),
            seed=seed,
        )
        # replay the internal randomness: permutation then uniforms
        rng2 = np.random.default_rng(seed)
        perm = rng2.permutation(60)
        cal = perm[30:]
        uniforms = rng2.uniform(size=len(cal) + len(ex))
        sp = ScoreParams()
        tau = np.array(
            [naive_label_score(row, int(np.searchsorted(np.unique(ty), ty[i])), uniforms[j], sp.lambda_reg, sp.k_reg)
             for j, i in enumerate(cal)]
        )
        for a in (0.1, 0.3):
            for j in range(len(ex)):
                expected = build_set(row, tau, a, uniforms[len(cal) + j], sp)
                assert np.array_equal(np.flatnonzero(run.sets[a][j]), expected)

    def test_coverage_on_exchangeable_data(self):
        rng = np.random.default_rng(8)
        X, y = gaussian_class_data(rng, 900, MEANS, sigma=1.2)
        run = sraps(X[:600], y[:600], X[600:], y[600:], split_fraction=0.5, alphas=[0.1], seed=4)
        n_cal = 300
        assert run.coverage[0.1] >= 0.9 - 2 / np.sqrt(n_cal)

    def test_split_fraction_validation(self):
        tx, ty, ex, ey = TestEraps()._data()
        with pytest.raises(ValueError):
            sraps(tx, ty, ex, ey, split_fraction=0.0, alphas=[0.1])
        with pytest.raises(ValueError):
            sraps(tx, ty, ex, ey, split_fraction=1.0, alphas=[0.1])


class TestCoverageReport:
    """Coverage and mean set size of hand-made membership matrices."""

    def _run(self, sets, y_test):
        return _conformal_run("sraps", tuple(sets), sets, y_test, np.array([1, 2, 3]))

    def test_full_and_empty(self):
        y = np.array([0, 1, 2, 0, 1])
        run = self._run({0.1: np.ones((5, 3), dtype=bool)}, y)
        assert run.coverage[0.1] == 1.0 and run.mean_size[0.1] == 3.0
        run = self._run({0.1: np.zeros((5, 3), dtype=bool)}, y)
        assert run.coverage[0.1] == 0.0 and run.mean_size[0.1] == 0.0

    def test_hand_stream(self):
        sets = {0.2: np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool),
                0.1: np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0], [1, 0, 1]], dtype=bool)}
        run = self._run(sets, np.array([0, 1, 1, 0]))
        assert run.coverage == {0.2: 0.75, 0.1: 1.0}
        assert run.mean_size == {0.2: 1.25, 0.1: 1.75}

    def test_empty_stream(self):
        run = self._run({0.1: np.zeros((0, 3), dtype=bool)}, np.zeros(0, dtype=np.int64))
        assert np.isnan(run.coverage[0.1]) and run.mean_size[0.1] == 0.0


class TestSlidingWindow:
    def test_revealed_labels_feed_later_sets(self):
        rng = np.random.default_rng(21)
        X, y = gaussian_class_data(rng, 260, MEANS, sigma=1.0)
        tx, ty, ex, ey = X[:200], y[:200], X[200:], y[200:]
        kwargs = dict(num_bootstrap=8, batch_size=10, alphas=[0.1], seed=5)
        base = eraps(tx, ty, ex, ey, **kwargs)
        flipped = ey.copy()
        flipped[:10] = np.where(flipped[:10] == 0, 1, 0)  # corrupt first batch
        other = eraps(tx, ty, ex, flipped, **kwargs)
        first_batch_same = np.array_equal(base.sets[0.1][:10], other.sets[0.1][:10])
        later_differ = not np.array_equal(base.sets[0.1][10:], other.sets[0.1][10:])
        assert first_batch_same  # labels are revealed only after the batch
        assert later_differ      # ...and then they move the calibration window

    def test_alpha_queries_share_one_store(self):
        rng = np.random.default_rng(22)
        X, y = gaussian_class_data(rng, 160, MEANS, sigma=1.0)
        tx, ty, ex, ey = X[:120], y[:120], X[120:], y[120:]
        solo = eraps(tx, ty, ex, ey, num_bootstrap=6, batch_size=8, alphas=[0.1], seed=6)
        trio = eraps(tx, ty, ex, ey, num_bootstrap=6, batch_size=8,
                     alphas=[0.05, 0.1, 0.2], seed=6)
        assert np.array_equal(solo.sets[0.1], trio.sets[0.1])


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("bad", [[np.nan] * 3, [np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]])
    def test_rejected_one_by_one_and_in_a_batch(self, bad):
        with pytest.raises(ValueError):
            check_probability_vector(bad)
        calibration = np.linspace(0.1, 1.0, 10)
        with pytest.raises(ValueError):
            build_set(np.array(bad), calibration, 0.1, 0.5, ScoreParams())
        tx, ty, ex, ey = TestEraps()._data()
        with pytest.raises(ValueError, match="finite"):
            sraps(tx, ty, ex, ey, alphas=[0.1], classifier_factory=lambda: FixedClassifier(bad))


class TestErapsNeedsRevealedLabels:
    def test_missing_test_labels_rejected_up_front(self):
        tx, ty, ex, _ = TestEraps()._data()
        with pytest.raises(ValueError, match="revealed test labels"):
            eraps(tx, ty, ex, None, num_bootstrap=3, batch_size=5, alphas=[0.1])


class RowTableClassifier:
    """Plug-in returning one of four fixed rows, chosen by the signs of the
    first two features."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def fit(self, X, y, num_classes):
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return self.rows[(X[:, 0] > 0) + 2 * (X[:, 1] > 0)]


# dyadic rows summing to exactly 1, so leave-one-out averaging is exact (below)
ROW_3 = np.array([0.5, 0.375, 0.125])
ROW_9 = np.array([30, 22, 18, 16, 14, 12, 8, 5, 3]) / 128.0
ROWS_3 = np.array([[0.5, 0.375, 0.125], [0.25, 0.25, 0.5], [0.125, 0.75, 0.125], [0.0, 0.5, 0.5]])
CLASSIFIERS = {
    "fixed-3": (3, lambda: FixedClassifier(ROW_3)),
    "fixed-9": (9, lambda: FixedClassifier(ROW_9)),
    "table-3": (3, lambda: RowTableClassifier(ROWS_3)),
}


class TestBatchedSetsMatchPerPointOracle:
    """``eraps``/``sraps`` against the per-point loop of ``conformal_sets_oracle``.

    With 2 bootstrap models and 64 training points every leave-one-out weight
    is 0, 1/2 or 1 and the test weights are multiples of 1/128, so each
    aggregated probability row equals the classifier's row exactly and the
    oracle can be fed the classifier's own rows.
    """

    ALPHAS = (0.05, 0.1, 0.2)
    N_TRAIN, N_TEST, BATCH = 64, 47, 10   # 10 does not divide 47

    def _data(self, C, seed, n_test=N_TEST):
        rng = np.random.default_rng(seed)
        n = self.N_TRAIN + n_test
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, C, size=n)
        y[:C] = np.arange(C)  # every class appears in training
        return X[: self.N_TRAIN], y[: self.N_TRAIN], X[self.N_TRAIN:], y[self.N_TRAIN:]

    def _compare(self, run, expected):
        for a in self.ALPHAS:
            assert [np.flatnonzero(keep).tolist() for keep in run.sets[a]] == expected[a]

    def _compare_eraps(self, name, seed, n_test=N_TEST, batch_size=BATCH):
        C, factory = CLASSIFIERS[name]
        tx, ty, ex, ey = self._data(C, seed, n_test)
        run = eraps(tx, ty, ex, ey, num_bootstrap=2, batch_size=batch_size, alphas=self.ALPHAS,
                    classifier_factory=factory, seed=seed)
        rng = np.random.default_rng(seed)
        rng.integers(0, self.N_TRAIN, size=(2, self.N_TRAIN))  # the bootstrap draws
        uniforms = rng.uniform(size=self.N_TRAIN + n_test)
        clf = factory()
        expected = conformal_sets_oracle(
            clf.predict_proba(tx), ty, clf.predict_proba(ex), ey, uniforms, self.ALPHAS,
            batch_size=batch_size,
        )
        self._compare(run, expected)

    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eraps(self, name, seed):
        self._compare_eraps(name, seed)

    # one point per batch, a divisor of the stream, the whole stream, and a
    # batch as long as the window, which the next batch then reads whole
    @pytest.mark.parametrize("n_test, batch_size", [(47, 1), (48, 12), (47, 47), (70, 64)])
    @pytest.mark.parametrize("name", ["fixed-9", "table-3"])
    def test_eraps_batch_sizes(self, name, n_test, batch_size):
        self._compare_eraps(name, 4, n_test, batch_size)

    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sraps(self, name, seed):
        C, factory = CLASSIFIERS[name]
        tx, ty, ex, ey = self._data(C, seed)
        run = sraps(tx, ty, ex, ey, split_fraction=0.5, alphas=self.ALPHAS,
                    classifier_factory=factory, seed=seed)
        rng = np.random.default_rng(seed)
        cal = rng.permutation(self.N_TRAIN)[self.N_TRAIN // 2:]
        uniforms = rng.uniform(size=len(cal) + self.N_TEST)
        clf = factory()
        expected = conformal_sets_oracle(
            clf.predict_proba(tx[cal]), ty[cal], clf.predict_proba(ex), ey, uniforms, self.ALPHAS
        )
        self._compare(run, expected)

    def test_sraps_with_varying_posteriors(self):
        rng = np.random.default_rng(13)
        X, y = gaussian_class_data(rng, 160, MEANS, sigma=1.0)
        tx, ty, ex, ey = X[:100], y[:100], X[100:], y[100:]
        run = sraps(tx, ty, ex, ey, split_fraction=0.5, alphas=self.ALPHAS,
                    classifier_factory=TruePosteriorClassifier, seed=3)
        rng2 = np.random.default_rng(3)
        cal = rng2.permutation(100)[50:]
        uniforms = rng2.uniform(size=len(cal) + len(ex))
        clf = TruePosteriorClassifier()
        expected = conformal_sets_oracle(
            clf.predict_proba(tx[cal]), ty[cal], clf.predict_proba(ex), ey, uniforms, self.ALPHAS
        )
        self._compare(run, expected)


def test_logistic_fit_reaches_the_regularized_optimum():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(14)
    X, y = gaussian_class_data(rng, 500, MEANS, sigma=1.1)
    weights = LogisticClassifier().fit(X, y, num_classes=3)._weights.ravel()
    fun = logistic_objective_oracle(X, y, 3)
    value, grad = fun(weights)
    assert np.abs(grad).max() <= LogisticClassifier.TOL
    ref = optimize.minimize(fun, np.zeros(9), jac=True, method="BFGS", options={"gtol": 1e-12}).x
    assert np.abs(weights - ref).max() <= 1e-6 * np.abs(ref).max()
    epochs = np.zeros(9)
    for _ in range(300):  # the former fit: 300 unit-rate gradient steps from zero
        epochs -= fun(epochs)[1]
    assert value <= fun(epochs)[0]
