import math

import numpy as np
import pytest

from firecast.events import EventSequence, load_events_csv, save_events_csv
from firecast.marks import LinearMarkModel, NonLinearMarkModel, kde_scorer, precomputed_scorer
from firecast.model import (
    RATE_FLOOR,
    ModelParams,
    conditional_intensity,
    excitation_matrix,
    ground_intensity,
    integrated_ground_intensity,
    log_likelihood,
    mask_from_centroids,
    mask_from_index_distance,
    objective_gradient,
    penalized_objective,
)

from oracles import (
    finite_difference_gradient,
    naive_log_likelihood,
    quadrature_compensator,
    random_instance,
)


def single_cell_params(mu=0.1, alpha=0.5, beta=1.0, gamma=(1.0,)):
    return ModelParams(
        mu=np.array([mu]),
        alpha=np.array([[alpha]]),
        beta=beta,
        gamma=np.array(gamma),
        mask=np.array([[True]]),
    )


def one_event_seq(t=1.0, horizon=10.0, mark=0.5):
    return EventSequence(
        times=np.array([t]),
        locations=np.array([0]),
        marks=np.array([[mark]]),
        horizon=horizon,
        num_locations=1,
    )


def empty_seq(K=1, p=1, horizon=10.0):
    return EventSequence(
        times=np.zeros(0),
        locations=np.zeros(0, dtype=int),
        marks=np.zeros((0, p)),
        horizon=horizon,
        num_locations=K,
    )


class TestGroundIntensity:
    def test_no_history_is_baseline(self):
        params = single_cell_params(mu=0.3)
        assert ground_intensity(params, empty_seq(), 5.0, 0) == pytest.approx(0.3)

    def test_one_event_hand_value(self):
        # mu + alpha * beta * exp(-beta * (t - t1)) at t=2, t1=1
        expected = 0.1 + 0.5 * 1.0 * math.exp(-1.0)
        params = single_cell_params()
        got = ground_intensity(params, one_event_seq(), 2.0, 0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.28394, abs=5e-6)

    def test_zero_decay_reduces_to_baseline(self):
        params = single_cell_params(mu=0.1, alpha=0.5, beta=0.0)
        assert ground_intensity(params, one_event_seq(), 2.0, 0) == pytest.approx(0.1)

    def test_history_is_strictly_exclusive(self):
        # querying exactly at an event time must not count that event
        params = single_cell_params()
        assert ground_intensity(params, one_event_seq(t=1.0), 1.0, 0) == pytest.approx(0.1)

    def test_monotone_history_effect(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, seq = random_instance(rng)
            if len(seq) == 0:
                continue
            t = float(rng.uniform(0, seq.horizon))
            k = int(rng.integers(0, seq.num_locations))
            base = ground_intensity(params, seq, t, k)
            extra_t = float(rng.uniform(0, t)) if t > 0 else 0.0
            extra_u = int(rng.integers(0, seq.num_locations))
            if not params.mask[extra_u, k]:
                continue
            times = np.sort(np.append(seq.times, extra_t))
            idx = np.searchsorted(np.append(seq.times, extra_t), extra_t)
            locs = np.insert(seq.locations, np.searchsorted(seq.times, extra_t), extra_u)
            marks = np.insert(seq.marks, np.searchsorted(seq.times, extra_t), 0.5, axis=0)
            bigger = EventSequence(times, locs, marks, seq.horizon, seq.num_locations)
            assert ground_intensity(params, bigger, t, k) >= base - 1e-12

    def test_domain_errors(self):
        params = single_cell_params()
        seq = one_event_seq()
        with pytest.raises(ValueError):
            ground_intensity(params, seq, -0.1, 0)
        with pytest.raises(ValueError):
            ground_intensity(params, seq, 11.0, 0)
        with pytest.raises(ValueError):
            ground_intensity(params, seq, 2.0, 1)


class TestConditionalIntensity:
    def test_zero_mark_weights_clamp(self):
        params = single_cell_params(gamma=(0.0,))
        got = conditional_intensity(params, one_event_seq(), LinearMarkModel(), 2.0, 0, [0.7])
        assert got == RATE_FLOOR

    def test_product_of_factors(self):
        params = single_cell_params()
        ground = 0.1 + 0.5 * math.exp(-1.0)
        got = conditional_intensity(params, one_event_seq(), LinearMarkModel(), 2.0, 0, [0.5])
        assert got == pytest.approx(0.5 * ground, rel=1e-12)
        assert got == pytest.approx(0.14197, abs=5e-6)

    def test_unit_nonlinear_scorer_matches_ground(self):
        params = single_cell_params()
        mm = NonLinearMarkModel(lambda m, t, k: 1.0)
        seq = one_event_seq()
        got = conditional_intensity(params, seq, mm, 2.0, 0, [0.3])
        assert got == pytest.approx(ground_intensity(params, seq, 2.0, 0), rel=1e-12)

    def test_mark_length_mismatch(self):
        params = single_cell_params()
        with pytest.raises(ValueError):
            conditional_intensity(params, one_event_seq(), LinearMarkModel(), 2.0, 0, [0.5, 0.5])


class TestLogLikelihood:
    def test_empty_sequence_is_baseline_compensator(self):
        params = ModelParams(
            mu=np.array([0.2, 0.2]),
            alpha=np.zeros((2, 2)),
            beta=1.0,
            gamma=np.array([1.0]),
            mask=np.ones((2, 2), dtype=bool),
        )
        assert log_likelihood(params, empty_seq(K=2), LinearMarkModel()) == pytest.approx(-4.0)

    def test_one_event_closed_form(self):
        params = single_cell_params()
        seq = one_event_seq(mark=0.5)
        compensator = 10.0 * 0.1 + 0.5 * (1.0 - math.exp(-(10.0 - 1.0)))
        expected = math.log(0.1) + math.log(0.5) - compensator
        assert log_likelihood(params, seq, LinearMarkModel()) == pytest.approx(expected, rel=1e-12)
        # compensator term cross-checked against quadrature of the intensity
        assert quadrature_compensator(params, seq) == pytest.approx(compensator, rel=1e-6)

    def test_block_diagonal_additivity(self):
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.1, 0.4, size=4)
        a1 = rng.uniform(0.0, 0.3, size=(2, 2))
        a2 = rng.uniform(0.0, 0.3, size=(2, 2))
        alpha = np.zeros((4, 4))
        alpha[:2, :2] = a1
        alpha[2:, 2:] = a2
        mask = alpha > -1  # all True
        params = ModelParams(mu=mu, alpha=alpha, beta=0.7, gamma=np.array([0.8]), mask=mask)

        times_a = np.sort(rng.uniform(0, 20, size=15))
        locs_a = rng.integers(0, 2, size=15)
        marks_a = rng.uniform(0.2, 1.0, size=(15, 1))
        times_b = np.sort(rng.uniform(0, 20, size=18))
        locs_b = rng.integers(0, 2, size=18)
        marks_b = rng.uniform(0.2, 1.0, size=(18, 1))
        seq_a = EventSequence(times_a, locs_a, marks_a, 20.0, 2)
        seq_b = EventSequence(times_b, locs_b, marks_b, 20.0, 2)
        merged = np.argsort(np.concatenate([times_a, times_b]), kind="stable")
        both = EventSequence(
            np.concatenate([times_a, times_b])[merged],
            np.concatenate([locs_a, locs_b + 2])[merged],
            np.concatenate([marks_a, marks_b])[merged],
            20.0,
            4,
        )
        p_a = ModelParams(mu=mu[:2], alpha=a1, beta=0.7, gamma=np.array([0.8]), mask=mask[:2, :2])
        p_b = ModelParams(mu=mu[2:], alpha=a2, beta=0.7, gamma=np.array([0.8]), mask=mask[2:, 2:])
        mm = LinearMarkModel()
        total = log_likelihood(params, both, mm)
        parts = log_likelihood(p_a, seq_a, mm) + log_likelihood(p_b, seq_b, mm)
        assert total == pytest.approx(parts, abs=1e-12 * max(1, abs(parts)))

    def test_nan_parameter_rejected(self):
        params = single_cell_params(mu=float("nan"))
        with pytest.raises(ValueError):
            log_likelihood(params, one_event_seq(), LinearMarkModel())

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            params, seq = random_instance(rng, allow_negative_alpha=True)
            scores = seq.marks @ params.gamma
            fast = log_likelihood(params, seq, LinearMarkModel())
            slow = naive_log_likelihood(params, seq, scores)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)

    def test_exact_for_weights_off_the_mask(self):
        # only alpha's nonzeros are gathered, whatever the mask says
        rng = np.random.default_rng(12)
        params, seq = random_instance(rng)
        while len(seq) == 0 or params.mask.all():
            params, seq = random_instance(rng)
        alpha = np.where(params.mask, params.alpha, 0.05)
        off = ModelParams(mu=params.mu, alpha=alpha, beta=params.beta, gamma=params.gamma, mask=params.mask)
        fast = log_likelihood(off, seq, LinearMarkModel())
        slow = naive_log_likelihood(off, seq, seq.marks @ params.gamma)
        assert fast == pytest.approx(slow, rel=1e-10)


class TestPenalizedObjective:
    def test_zero_gamma_is_negative_loglik(self):
        params = single_cell_params(gamma=(0.0,))
        seq = one_event_seq()
        mm = LinearMarkModel()
        assert penalized_objective(params, seq, mm, 1.0) == pytest.approx(
            -log_likelihood(params, seq, mm)
        )

    def test_l1_arithmetic(self):
        params = ModelParams(
            mu=np.array([0.1]),
            alpha=np.zeros((1, 1)),
            beta=1.0,
            gamma=np.array([0.3, -0.4]),
            mask=np.array([[True]]),
        )
        seq = empty_seq(p=2)
        mm = LinearMarkModel()
        ll = log_likelihood(params, seq, mm)
        assert penalized_objective(params, seq, mm, 1.0) == pytest.approx(-ll + 0.7)
        # linearity in the weight
        diff = penalized_objective(params, seq, mm, 2.0) - penalized_objective(params, seq, mm, 1.0)
        assert diff == pytest.approx(0.7)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            penalized_objective(single_cell_params(), one_event_seq(), LinearMarkModel(), -0.5)


class TestCompensatorProperty:
    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 12:
            params, seq = random_instance(rng, allow_negative_alpha=bool(checked % 2))
            closed = seq.horizon * params.mu.sum()
            if len(seq):
                w = 1.0 - np.exp(-params.beta * (seq.horizon - seq.times))
                closed += float((params.alpha.sum(axis=1)[seq.locations] * w).sum())
            quad = quadrature_compensator(params, seq)
            assert quad == pytest.approx(closed, rel=1e-5, abs=1e-8)
            checked += 1


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(31)
        mm = LinearMarkModel()
        for _ in range(5):
            params, seq = random_instance(rng)
            K, p = params.num_locations, params.mark_dim

            def unpack(x):
                return ModelParams(
                    mu=x[:K],
                    alpha=x[K : K + K * K].reshape(K, K),
                    beta=params.beta,
                    gamma=x[K + K * K :],
                    mask=params.mask,
                )

            x0 = np.concatenate([params.mu, params.alpha.ravel(), params.gamma])
            g_mu, g_alpha, g_gamma = objective_gradient(params, seq, mm, l1_weight=1.0)
            analytic = np.concatenate([g_mu, g_alpha.ravel(), g_gamma])
            fd = finite_difference_gradient(
                lambda x: penalized_objective(unpack(x), seq, mm, 1.0), x0
            )
            assert np.all(np.abs(analytic - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))


class TestExcitation:
    def test_tied_events_share_history(self):
        times = np.array([1.0, 1.0, 2.0])
        locs = np.array([0, 1, 0])
        R = excitation_matrix(times, locs, 2, beta=1.0)
        assert np.allclose(R[0], [0.0, 0.0])
        assert np.allclose(R[1], [0.0, 0.0])  # simultaneous event excluded
        assert np.allclose(R[2], [math.exp(-1.0), math.exp(-1.0)])

    def test_integrated_ground_intensity_matches_quadrature(self):
        rng = np.random.default_rng(41)
        params, seq = random_instance(rng)
        full = integrated_ground_intensity(params, seq, seq.horizon)
        assert full == pytest.approx(quadrature_compensator(params, seq), rel=1e-5, abs=1e-8)


class TestMasks:
    def test_centroid_mask(self):
        centroids = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 1.0]])
        mask = mask_from_centroids(centroids, 0.5)
        assert mask[0, 1] and mask[1, 0]
        assert not mask[0, 2]
        assert mask.diagonal().all()

    def test_index_mask(self):
        mask = mask_from_index_distance(4, 2)
        assert mask[0, 1] and not mask[0, 2]


class TestSerialization:
    def test_params_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        params, _ = random_instance(rng)
        path = tmp_path / "params.json"
        params.to_json(path)
        back = ModelParams.from_json(path)
        assert np.array_equal(back.mu, params.mu)
        assert np.array_equal(back.alpha, params.alpha)
        assert back.beta == params.beta
        assert np.array_equal(back.gamma, params.gamma)
        assert np.array_equal(back.mask, params.mask)

    def test_events_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        _, seq = random_instance(rng)
        path = tmp_path / "events.csv"
        save_events_csv(seq, path)
        back = load_events_csv(path, horizon=seq.horizon, num_locations=seq.num_locations)
        assert np.array_equal(back.times, seq.times)
        assert np.array_equal(back.locations, seq.locations)
        assert np.array_equal(back.marks, seq.marks)

    def test_validate_catches_violations(self):
        with pytest.raises(ValueError):
            ModelParams(
                mu=np.array([-0.1]),
                alpha=np.zeros((1, 1)),
                beta=1.0,
                gamma=np.array([0.5]),
                mask=np.array([[True]]),
            ).validate()
        with pytest.raises(ValueError):
            ModelParams(
                mu=np.array([0.1]),
                alpha=np.array([[0.5]]),
                beta=1.0,
                gamma=np.array([0.5]),
                mask=np.array([[False]]),
            ).validate()


class TestMarkModels:
    def test_precomputed_scorer_lookup(self):
        scorer = precomputed_scorer(np.array([1.0, 2.0]), np.array([0, 1]), np.array([0.3, 0.9]))
        assert scorer(None, 1.0, 0) == 0.3
        assert scorer(None, 2.0, 1) == 0.9
        with pytest.raises(KeyError):
            scorer(None, 3.0, 0)

    def test_kde_scorer_deterministic_and_nonnegative(self):
        rng = np.random.default_rng(17)
        train = rng.uniform(size=(50, 2))
        scorer = kde_scorer(train)
        q = np.array([0.5, 0.5])
        assert scorer(q, 0.0, 0) == scorer(q, 9.0, 3)
        assert scorer(q, 0.0, 0) >= 0.0


class TestKernelConfig:
    def test_partition_validation(self):
        from firecast.model import KernelConfig

        with pytest.raises(ValueError):
            KernelConfig(neighbor_radius=1.0, cell_size=0.24,
                         static_indices=(0, 2), dynamic_indices=(3,))
        cfg = KernelConfig(neighbor_radius=0.96, cell_size=0.24,
                           static_indices=(0, 1), dynamic_indices=(2, 3))
        static, dynamic = cfg.split_gamma(np.array([0.1, 0.2, 0.3, 0.4]))
        assert static.tolist() == [0.1, 0.2]
        assert dynamic.tolist() == [0.3, 0.4]

    def test_build_mask_uses_radius(self):
        from firecast.model import KernelConfig

        cfg = KernelConfig(neighbor_radius=0.5, cell_size=0.24)
        centroids = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 2.0]])
        mask = cfg.build_mask(centroids)
        assert mask[0, 1] and not mask[0, 2]


def test_construction_does_not_freeze_caller_arrays():
    mu = np.array([0.3])
    ModelParams(mu=mu, alpha=np.zeros((1, 1)), beta=1.0,
                gamma=np.array([0.5]), mask=np.array([[True]]))
    mu[0] = 0.9  # caller's buffer must stay writeable
    assert mu[0] == 0.9


def test_negative_alpha_keeps_objective_finite():
    # inhibitory weights can drive raw intensities to zero or below; the
    # floor keeps the objective and gradient finite everywhere
    params = ModelParams(
        mu=np.array([0.01]),
        alpha=np.array([[-0.9]]),
        beta=2.0,
        gamma=np.array([0.5]),
        mask=np.array([[True]]),
    )
    seq = EventSequence(
        times=np.array([1.0, 1.1, 1.2, 1.3]),
        locations=np.zeros(4, dtype=int),
        marks=np.full((4, 1), 0.5),
        horizon=5.0,
        num_locations=1,
    )
    mm = LinearMarkModel()
    obj = penalized_objective(params, seq, mm, 1.0)
    assert np.isfinite(obj)
    g = objective_gradient(params, seq, mm, 1.0)
    assert all(np.all(np.isfinite(part)) for part in g)
