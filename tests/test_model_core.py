import json
import math
import tracemalloc

import numpy as np
import pytest

from firecast.events import EventSequence, load_events_csv, save_events_csv
from firecast.pipeline import GridSpec, counterfactual_delta, risk_series
from firecast.marks import KDE_BLOCK, LinearMarkModel, NonLinearMarkModel, kde_scorer
from firecast import model
from firecast.model import (
    JSON_BLOCK,
    PAIR_BLOCK,
    RATE_FLOOR,
    DecayedExcitation,
    EventKernel,
    FeasibleSet,
    ModelParams,
    Objective,
    excitation_matrix,
    inverse_above_floor,
    mask_from_centroids,
    neighbor_pairs,
    objective_gradient,
    penalized_objective,
)

from oracles import (
    KERNEL_CASES,
    centroid_mask_oracle,
    finite_difference_gradient,
    integrated_ground_intensity,
    kde_broadcast_oracle,
    kernel_case,
    mask_from_index_distance,
    naive_ground_intensity,
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


UNIT_MARKS = NonLinearMarkModel(lambda m: np.ones(len(m)))


def risk_at(params, seq, t, k, mark_model=UNIT_MARKS, marks=None):
    """``risk_series`` at one time and location; the unit mark score leaves
    the ground intensity."""
    query_marks = None if marks is None else np.tile(marks, (seq.num_locations, 1))
    return float(risk_series(params, seq, mark_model, times=[t], query_marks=query_marks)[0, k])


class TestGroundIntensity:
    def test_no_history_is_baseline(self):
        params = single_cell_params(mu=0.3)
        assert risk_at(params, empty_seq(), 5.0, 0) == pytest.approx(0.3)

    def test_one_event_hand_value(self):
        # mu + alpha * beta * exp(-beta * (t - t1)) at t=2, t1=1
        expected = 0.1 + 0.5 * 1.0 * math.exp(-1.0)
        params = single_cell_params()
        got = risk_at(params, one_event_seq(), 2.0, 0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.28394, abs=5e-6)

    def test_zero_decay_reduces_to_baseline(self):
        params = single_cell_params(mu=0.1, alpha=0.5, beta=0.0)
        assert risk_at(params, one_event_seq(), 2.0, 0) == pytest.approx(0.1)

    def test_history_is_strictly_exclusive(self):
        # querying exactly at an event time must not count that event
        params = single_cell_params()
        assert risk_at(params, one_event_seq(t=1.0), 1.0, 0) == pytest.approx(0.1)

    def test_monotone_history_effect(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, seq = random_instance(rng)
            if len(seq) == 0:
                continue
            t = float(rng.uniform(0, seq.horizon))
            k = int(rng.integers(0, seq.num_locations))
            base = risk_at(params, seq, t, k)
            assert base == pytest.approx(naive_ground_intensity(params, seq, t, k), rel=1e-12)
            extra_t = float(rng.uniform(0, t)) if t > 0 else 0.0
            extra_u = int(rng.integers(0, seq.num_locations))
            if not params.mask[extra_u, k]:
                continue
            times = np.sort(np.append(seq.times, extra_t))
            idx = np.searchsorted(np.append(seq.times, extra_t), extra_t)
            locs = np.insert(seq.locations, np.searchsorted(seq.times, extra_t), extra_u)
            marks = np.insert(seq.marks, np.searchsorted(seq.times, extra_t), 0.5, axis=0)
            bigger = EventSequence(times, locs, marks, seq.horizon, seq.num_locations)
            assert risk_at(params, bigger, t, k) >= base - 1e-12

    def test_domain_errors(self):
        # the per-query range checks live in counterfactual_delta
        params = single_cell_params()
        seq = one_event_seq()
        for t, k in ((-0.1, 0), (11.0, 0), (2.0, 1)):
            with pytest.raises(ValueError):
                counterfactual_delta(params, seq, LinearMarkModel(), t, k, [0.5], [0.5])


class TestConditionalIntensity:
    def test_zero_mark_weights_clamp(self):
        params = single_cell_params(gamma=(0.0,))
        got = risk_at(params, one_event_seq(), 2.0, 0, LinearMarkModel(), [0.7])
        assert got == RATE_FLOOR

    def test_product_of_factors(self):
        params = single_cell_params()
        ground = 0.1 + 0.5 * math.exp(-1.0)
        got = risk_at(params, one_event_seq(), 2.0, 0, LinearMarkModel(), [0.5])
        assert got == pytest.approx(0.5 * ground, rel=1e-12)
        assert got == pytest.approx(0.14197, abs=5e-6)

    def test_unit_nonlinear_scorer_matches_ground(self):
        params = single_cell_params()
        seq = one_event_seq()
        got = risk_at(params, seq, 2.0, 0, marks=[0.3])
        assert got == pytest.approx(naive_ground_intensity(params, seq, 2.0, 0), rel=1e-12)

    def test_mark_length_mismatch(self):
        params = single_cell_params()
        with pytest.raises(ValueError):
            risk_at(params, one_event_seq(), 2.0, 0, LinearMarkModel(), [0.5, 0.5])


MARK_MODELS = {"linear": LinearMarkModel(), "gamma_free": NonLinearMarkModel(lambda m: 0.3 + m[:, 0])}


class TestLogLikelihood:
    def test_empty_sequence_is_baseline_compensator(self):
        params = ModelParams(
            mu=np.array([0.2, 0.2]),
            alpha=np.zeros((2, 2)),
            beta=1.0,
            gamma=np.array([1.0]),
            mask=np.ones((2, 2), dtype=bool),
        )
        assert -penalized_objective(params, empty_seq(K=2), LinearMarkModel(), 0.0) == pytest.approx(-4.0)

    def test_one_event_closed_form(self):
        params = single_cell_params()
        seq = one_event_seq(mark=0.5)
        compensator = 10.0 * 0.1 + 0.5 * (1.0 - math.exp(-(10.0 - 1.0)))
        expected = math.log(0.1) + math.log(0.5) - compensator
        assert -penalized_objective(params, seq, LinearMarkModel(), 0.0) == pytest.approx(expected, rel=1e-12)
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
        total = -penalized_objective(params, both, mm, 0.0)
        parts = -(penalized_objective(p_a, seq_a, mm, 0.0) + penalized_objective(p_b, seq_b, mm, 0.0))
        assert total == pytest.approx(parts, abs=1e-12 * max(1, abs(parts)))

    def test_nan_parameter_rejected(self):
        params = single_cell_params(mu=float("nan"))
        with pytest.raises(ValueError):
            penalized_objective(params, one_event_seq(), LinearMarkModel(), 0.0)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            params, seq = random_instance(rng, allow_negative_alpha=True)
            scores = seq.marks @ params.gamma
            fast = -penalized_objective(params, seq, LinearMarkModel(), 0.0)
            slow = naive_log_likelihood(params, seq, scores)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("marks", sorted(MARK_MODELS))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kernel_cases_match_naive_implementation(self, case, marks):
        # signed weights, so some intensities sit at the floor; both mark models
        params, seq = kernel_case(case, negative_alpha=True)
        mm = MARK_MODELS[marks]
        slow = naive_log_likelihood(params, seq, mm.event_scores(params.gamma, seq))
        assert -penalized_objective(params, seq, mm, 0.0) == pytest.approx(slow, rel=1e-10, abs=1e-10)

    def test_constructor_rejects_weights_off_the_mask(self):
        # the support is the mask: a weight off it has nowhere to live
        rng = np.random.default_rng(12)
        params, seq = random_instance(rng)
        while params.mask.all():
            params, seq = random_instance(rng)
        for off_value in (0.05, -0.05, np.nan):
            alpha = np.where(params.mask, params.alpha, off_value)
            with pytest.raises(ValueError, match="alpha must be zero where the mask is false"):
                ModelParams(mu=params.mu, alpha=alpha, beta=params.beta, gamma=params.gamma, mask=params.mask)
        # an explicit zero off the mask is fine
        same = ModelParams(mu=params.mu, alpha=params.alpha, beta=params.beta, gamma=params.gamma, mask=params.mask)
        assert np.array_equal(same.alpha_values, params.alpha_values)


class TestPenalizedObjective:
    def test_zero_gamma_is_negative_loglik(self):
        params = single_cell_params(gamma=(0.0,))
        seq = one_event_seq()
        mm = LinearMarkModel()
        assert penalized_objective(params, seq, mm, 1.0) == pytest.approx(penalized_objective(params, seq, mm, 0.0))

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
        ll = -penalized_objective(params, seq, mm, 0.0)
        assert penalized_objective(params, seq, mm, 1.0) == pytest.approx(-ll + 0.7)
        # linearity in the weight
        diff = penalized_objective(params, seq, mm, 2.0) - penalized_objective(params, seq, mm, 1.0)
        assert diff == pytest.approx(0.7)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            penalized_objective(single_cell_params(), one_event_seq(), LinearMarkModel(), -0.5)


class TestOneObjective:
    """``penalized_objective`` and ``objective_gradient`` are calls into ``Objective``, the solver's objective, to the last bit."""

    @pytest.mark.parametrize("marks", sorted(MARK_MODELS))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_penalized_objective_is_objective_value(self, case, marks):
        params, seq = kernel_case(case, negative_alpha=True)
        mm = MARK_MODELS[marks]
        feasible = FeasibleSet(params.alpha != 0)
        value = Objective(seq, mm, feasible, params.beta, 0.7).value(feasible.flatten(params))
        assert penalized_objective(params, seq, mm, 0.7) == value
        # zero weights on further pairs change no bit: the solver's value on the mask
        feasible = FeasibleSet(params.mask)
        assert Objective(seq, mm, feasible, params.beta, 0.7).value(feasible.flatten(params)) == value

    @pytest.mark.parametrize("marks", sorted(MARK_MODELS))
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_objective_gradient_on_the_mask_is_smooth_gradient(self, case, marks):
        params, seq = kernel_case(case, negative_alpha=True)
        mm = MARK_MODELS[marks]
        feasible = FeasibleSet(params.mask)
        src, dst = feasible.src, feasible.dst
        objective = Objective(seq, mm, feasible, params.beta, 0.7)
        g_mu, g_alpha, g_gamma = feasible.split(objective.smooth_gradient(feasible.flatten(params)))
        full_mu, full_alpha, full_gamma = objective_gradient(params, seq, mm, 0.7)
        assert np.array_equal(full_mu, g_mu) and np.array_equal(full_alpha[src, dst], g_alpha)
        assert np.array_equal(full_gamma, g_gamma + 0.7 * np.sign(params.gamma))


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
                # every alpha entry is perturbed, so the support is all pairs
                return ModelParams(
                    mu=x[:K],
                    alpha=x[K : K + K * K].reshape(K, K),
                    beta=params.beta,
                    gamma=x[K + K * K :],
                    mask=np.ones((K, K), dtype=bool),
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

    @pytest.mark.parametrize("beta", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("case", ["ties", "silent_source", "empty", "full"])
    def test_kernel_pairs_equal_reference_gather(self, case, beta):
        seq, mask = kernel_layout_case(case)
        times, locs = seq.times, seq.locations
        src, dst = np.nonzero(mask)
        kernel = EventKernel(seq, src, dst, beta)
        rows, srcs = np.nonzero(mask[:, locs].T)  # (event, allowed source), sources ascending
        # the kernel keeps the entries whose source has a strictly earlier event
        kept = np.array([np.any((locs == s) & (times < times[i])) for i, s in zip(rows, srcs)], dtype=bool)
        assert np.array_equal(kernel.rows, rows[kept])
        assert np.array_equal(src[kernel.pairs], srcs[kept]) and np.array_equal(dst[kernel.pairs], locs[rows[kept]])
        reference = excitation_matrix(times, locs, seq.num_locations, beta)[rows, srcs]
        assert np.all(np.abs(kernel.vals - reference[kept]) <= 1e-12 * np.abs(reference[kept]))
        assert np.all(reference[~kept] == 0) and np.all(reference[kept] > 0)
        assert kernel.rows.dtype == kernel.pairs.dtype == kernel.last.dtype == np.int32

    @pytest.mark.parametrize("case", ["ties", "silent_source", "full"])
    def test_dropped_entries_change_no_bit(self, case):
        # every (event, allowed source) entry, the ones without history worth 0
        seq, mask = kernel_layout_case(case)
        K, locs = seq.num_locations, seq.locations
        src, dst = np.nonzero(mask)
        kernel = EventKernel(seq, src, dst, 0.8)
        rows, srcs = np.nonzero(mask[:, locs].T)
        pair_of = np.full((K, K), -1)
        pair_of[src, dst] = np.arange(len(src))
        pairs = pair_of[srcs, locs[rows]]
        vals = np.zeros(len(rows))
        vals[np.searchsorted(rows * K + srcs, kernel.rows * K + src[kernel.pairs])] = kernel.vals
        rng = np.random.default_rng(len(case))
        for alpha in (rng.uniform(0.0, 0.5, len(src)), rng.uniform(-0.5, 0.5, len(src))):
            mu = rng.uniform(0.1, 0.3, K)
            lam = kernel.intensities(mu, alpha)
            full = mu[locs] + kernel.beta * np.bincount(rows, vals * alpha.take(pairs), minlength=len(seq))
            assert lam.tobytes() == full.tobytes()
            event_part = np.bincount(pairs, vals * (kernel.beta * inverse_above_floor(lam))[rows], minlength=len(src))
            assert kernel.gradients(lam)[1].tobytes() == (kernel.sum_w[src] - event_part).tobytes()

    def test_kernel_retains_under_32_bytes_per_entry_on_the_state_box(self):
        grid = GridSpec(lat_min=32.0, lon_min=-124.0, lat_max=42.0, lon_max=-114.0, cell_size=0.24)
        src, dst = np.nonzero(mask_from_centroids(grid.centroids(), 0.96))
        rng = np.random.default_rng(20)
        n, K = 20_000, grid.num_cells
        seq = EventSequence(times=np.sort(rng.uniform(0.0, 365.0, n)), locations=rng.integers(0, K, n),
                            marks=np.full((n, 1), 0.5), horizon=365.0, num_locations=K)
        tracemalloc.start()
        try:
            kernel = EventKernel(seq, src, dst, 1.0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kernel.rows) > 500_000
        # int32 rows, pairs and last plus float lag and vals make 28 bytes;
        # five 8-byte arrays over every entry made more than 40
        assert retained / len(kernel.rows) < 32

    def test_decayed_excitation_matches_event_by_event_sum(self):
        # cell 2 is the source of no pair; two events tie at t=1.5
        mask = np.array([[True, True, False], [False, True, True], [False, False, False]])
        alpha = np.array([[0.3, 0.2, 0.0], [0.0, 0.25, 0.15], [0.0, 0.0, 0.0]])
        params = ModelParams(mu=np.array([0.2, 0.1, 0.3]), alpha=alpha, beta=0.8, gamma=np.array([0.5]), mask=mask)
        seq = EventSequence(times=np.array([0.5, 1.5, 1.5, 2.0, 3.0]), locations=np.array([0, 1, 2, 2, 1]),
                            marks=np.full((5, 1), 0.5), horizon=5.0, num_locations=3)
        state = DecayedExcitation(params)
        i = 0
        # query times at events see only the strictly earlier history
        for t in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5):
            while i < len(seq) and seq.times[i] < t:
                state.advance(seq.times[i])
                state.add(seq.locations[i])
                i += 1
            before = state.values.copy()
            got = params.mu + state.at(t)
            assert got == pytest.approx([naive_ground_intensity(params, seq, t, k) for k in range(3)], rel=1e-12)
            assert np.array_equal(state.values, before)  # reading leaves the state where it is

    def test_integrated_ground_intensity_matches_quadrature(self):
        rng = np.random.default_rng(41)
        params, seq = random_instance(rng)
        full = integrated_ground_intensity(params, seq, seq.horizon)
        assert full == pytest.approx(quadrature_compensator(params, seq), rel=1e-5, abs=1e-8)


def kernel_layout_case(case):
    """(seq, mask) on 4 cells: ties across and within sources, cell 3 silent."""
    times = np.array([0.5, 1.0, 1.0, 1.0, 2.5, 2.5, 4.0, 6.0, 6.0, 7.5])
    locs = np.array([0, 1, 1, 2, 0, 1, 1, 2, 0, 0])
    mask = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
    if case == "empty":
        times, locs = times[:0], locs[:0]
    if case == "full":
        mask[:] = True
    seq = EventSequence(times=times, locations=locs, marks=np.ones((len(times), 1)), horizon=8.0, num_locations=4)
    return seq, mask


STATE_BOX = dict(lat_min=32.0, lon_min=-124.0, lat_max=42.0, lon_max=-114.0, cell_size=0.24)


def assert_pairs_are_the_broadcast_formula(centroids, radius):
    """neighbor_pairs is np.nonzero of the oracle mask, and the mask its scatter."""
    oracle = centroid_mask_oracle(centroids, radius)
    src, dst = neighbor_pairs(centroids, radius)
    assert src.dtype == dst.dtype == np.intp
    want_src, want_dst = np.nonzero(oracle)
    assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)
    mask = mask_from_centroids(centroids, radius)
    assert mask.shape == oracle.shape and mask.dtype == bool
    assert np.array_equal(mask, oracle)


class TestMasks:
    def test_centroid_mask_equals_broadcast_formula_on_the_state_box(self):
        # the README's 0.24-degree California box with a 0.96-degree radius
        centroids = GridSpec(**STATE_BOX).centroids()
        diff = centroids[:, None, :] - centroids[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        assert np.sum(np.abs(dist - 0.96) < 1e-9) > 0  # pairs that rounding puts on either side
        assert np.array_equal(mask_from_centroids(centroids, 0.96), dist <= 0.96)
        for radius in (0.24, 0.5, 0.96, 3.0):
            assert_pairs_are_the_broadcast_formula(centroids, radius)

    # a source in a box-wide bucket has K candidates: K = sqrt(PAIR_BLOCK) + 1 needs two blocks
    @pytest.mark.parametrize("K", [0, 1, math.isqrt(PAIR_BLOCK) - 1, math.isqrt(PAIR_BLOCK), math.isqrt(PAIR_BLOCK) + 1])
    def test_pair_blocks_equal_broadcast_formula(self, K):
        rng = np.random.default_rng(K)
        # lattice points 0.24 apart put distances within ulps of 0.96 and 0.72
        lattice = rng.integers(0, 12, size=(K, 2)) * 0.24 + np.array([32.0, -124.0])
        for centroids in (lattice, rng.uniform(0.0, 3.0, size=(K, 2))):
            # radii equal to computed distances: a formula off by one ulp flips those pairs
            ties = np.sqrt(((centroids[:7] - centroids[-7:][::-1]) ** 2).sum(axis=1)).tolist()
            for radius in [0.0, 0.72, 0.96, 1.5, 10.0] + ties:
                assert_pairs_are_the_broadcast_formula(centroids, radius)

    def test_pairs_one_radius_apart_across_a_bucket_edge(self):
        # a cell just below a bucket edge and one a radius beyond it: buckets
        # narrower than the radius, by any margin, would put them two apart
        for radius in (0.24, 0.96, 1.0):
            for eta in 10.0 ** (-np.arange(61) / 4):
                for axis in (0, 1):
                    centroids = np.zeros((102, 2))  # cells at the origin keep the buckets radius-wide
                    centroids[100, axis] = radius * (1.0 - eta)
                    centroids[101, axis] = centroids[100, axis] + radius
                    tie = float(np.sqrt(((centroids[101] - centroids[100]) ** 2).sum()))
                    assert_pairs_are_the_broadcast_formula(centroids, tie)

    @pytest.mark.parametrize("block", [1, 7, 500])
    def test_pairs_do_not_depend_on_the_block(self, block, monkeypatch):
        monkeypatch.setattr(model, "PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        lattice = rng.integers(0, 12, size=(150, 2)) * 0.24
        for centroids in (lattice, rng.uniform(0.0, 3.0, size=(150, 2))):
            for radius in (0.0, 0.24, 0.72, 0.96, 10.0, math.inf):
                assert_pairs_are_the_broadcast_formula(centroids, radius)

    def test_duplicates_zero_and_box_wide_radii(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-1.0, 1.0, size=(40, 2))
        duplicated = points[rng.integers(0, 40, size=90)]  # every cell has twins
        one_point = np.tile([[36.5, -120.25]], (6, 1))
        tiny = np.array([[0.0, 0.0], [1e-160, 0.0], [0.0, 3e-155], [2e-150, 0.0]])  # squared gaps underflow
        for centroids in (points, duplicated, one_point, tiny):
            for radius in (0.0, -0.0, 0.3, 2.0, 2.9, 1e6, 1e300, math.inf):
                assert_pairs_are_the_broadcast_formula(centroids, radius)
        K = len(duplicated)
        assert len(neighbor_pairs(duplicated, 0.0)[0]) > K  # twins are 0 apart
        assert len(neighbor_pairs(duplicated, 3.0)[0]) == K * K  # wider than the box

    @pytest.mark.parametrize("radius", [-0.5, math.nan, -math.inf])
    def test_negative_or_nan_radius_allows_no_pair(self, radius):
        centroids = np.random.default_rng(2).uniform(0.0, 1.0, size=(20, 2))
        assert_pairs_are_the_broadcast_formula(centroids, radius)
        assert len(neighbor_pairs(centroids, radius)[0]) == 0

    def test_non_finite_centroid_fails(self):
        with pytest.raises(ValueError, match="finite"):
            neighbor_pairs(np.array([[0.0, 0.0], [np.nan, 1.0]]), 0.5)

    def test_state_box_mask_peaks_below_25_mb(self):
        centroids = GridSpec(**STATE_BOX).centroids()
        tracemalloc.start()
        try:
            mask = mask_from_centroids(centroids, 0.96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the broadcast formula holds five 1764 x 1764 float arrays, about 100 MB at its peak
        assert peak < 25e6
        assert np.array_equal(mask, centroid_mask_oracle(centroids, 0.96))

    def test_state_box_pairs_peak_below_the_dense_mask(self):
        centroids = GridSpec(**STATE_BOX).centroids()
        tracemalloc.start()
        try:
            src, dst = neighbor_pairs(centroids, 0.96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense mask and its np.nonzero peak at 5.9 MB; the pairs alone are 1.2 MB
        assert peak < 5.9e6
        assert len(src) == 75_708

    def test_box_wide_radius_holds_one_block_of_floats(self):
        # every pair allowed: the output is 2 x K^2 indices, the float temporaries one block
        centroids = GridSpec(**STATE_BOX).centroids()
        K = len(centroids)
        tracemalloc.start()
        try:
            src, dst = neighbor_pairs(centroids, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(src, np.repeat(np.arange(K), K)) and np.array_equal(dst, np.tile(np.arange(K), K))
        # one K x K float array would take 25 MB more
        assert peak < src.nbytes + dst.nbytes + 8 * (PAIR_BLOCK + K) * 8

    def test_centroid_mask(self):
        centroids = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 1.0]])
        mask = mask_from_centroids(centroids, 0.5)
        assert mask[0, 1] and mask[1, 0]
        assert not mask[0, 2]
        assert mask.diagonal().all()

    def test_index_mask(self):
        mask = mask_from_index_distance(4, 2)
        assert mask[0, 1] and not mask[0, 2]


def sorted_keys_dump(params: ModelParams) -> str:
    payload = {"mu": params.mu.tolist(), "alpha": params.alpha_values.tolist(), "beta": params.beta,
               "gamma": params.gamma.tolist(),
               "support": {"src": params.src.tolist(), "dst": params.dst.tolist()}}
    return json.dumps(payload, sort_keys=True)


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
        assert np.array_equal(np.signbit(back.alpha), np.signbit(params.alpha))

    def test_dense_json_form_still_loads(self):
        rng = np.random.default_rng(4)
        params, _ = random_instance(rng)
        dense = {"mu": params.mu.tolist(), "alpha": params.alpha.tolist(), "beta": params.beta,
                 "gamma": params.gamma.tolist(), "mask": params.mask.tolist()}
        back = ModelParams.from_json(json.dumps(dense))
        assert back.to_json() == params.to_json()
        assert np.array_equal(back.alpha, params.alpha) and np.array_equal(back.mask, params.mask)

    @staticmethod
    def pair_json(src, dst, alpha):
        return json.dumps({"mu": [0.1, 0.2], "alpha": alpha, "beta": 1.0, "gamma": [0.5],
                           "support": {"src": src, "dst": dst}})

    def test_support_index_out_of_range_fails(self):
        # -1 would otherwise wrap around to cell 1
        with pytest.raises(ValueError, match=r"support indices must lie in \[0, 2\)"):
            ModelParams.from_json(self.pair_json([-1], [0], [0.3]))
        with pytest.raises(ValueError, match=r"support indices must lie in \[0, 2\)"):
            ModelParams.from_json(self.pair_json([0], [2], [0.3]))

    def test_repeated_support_pair_fails(self):
        with pytest.raises(ValueError, match=r"support repeats a \(src, dst\) pair"):
            ModelParams.from_json(self.pair_json([0, 1, 0], [1, 1, 1], [0.3, 0.2, 0.1]))

    def test_alpha_length_must_match_support(self):
        with pytest.raises(ValueError, match="support has 2 src, 2 dst and 1 alpha entries"):
            ModelParams.from_json(self.pair_json([0, 1], [1, 1], [0.3]))

    @pytest.mark.parametrize("src, dst, message", [
        ([5], [0], r"support indices must lie in \[0, 2\)"),
        ([0, 1], [1, -1], r"support indices must lie in \[0, 2\)"),
        ([0, 1, 0], [1, 1, 1], r"support repeats a \(src, dst\) pair"),
        ([0, 0], [1, 0], r"support pairs must come in np.nonzero order: by src, then dst"),
        ([1, 0], [0, 1], r"support pairs must come in np.nonzero order: by src, then dst"),
        ([0], [0, 1], r"support has 1 src and 2 dst entries"),
    ])
    def test_feasible_set_on_pairs_checks_its_pairs(self, src, dst, message):
        # each used to construct: a source of 5 failed as an IndexError in EventKernel, a
        # repeated pair only after the first solve, and unsorted pairs fit in another order
        with pytest.raises(ValueError, match="^" + message + "$"):
            FeasibleSet.on_pairs(np.array(src), np.array(dst), 2)

    def test_state_grid_params_json_is_small(self, tmp_path):
        # the state-ingest truth: 0.24-degree cells of the California box, 0.96-degree mask
        grid = GridSpec(lat_min=32.0, lon_min=-124.0, lat_max=42.0, lon_max=-114.0, cell_size=0.24)
        mask = mask_from_centroids(grid.centroids(), 0.96)
        truth = ModelParams(mu=np.full(grid.num_cells, 0.012), alpha=np.where(mask, 0.003, 0.0),
                            beta=1.0, gamma=np.array([0.5, 0.3, 0.7]), mask=mask)
        path = tmp_path / "params.json"
        truth.to_json(path)
        assert path.stat().st_size < 3_000_000
        back = ModelParams.from_json(path)
        assert np.array_equal(back.alpha, truth.alpha) and np.array_equal(back.mask, truth.mask)

    @pytest.mark.parametrize("K", [0, 1, 5, 80])
    def test_to_json_is_the_sorted_keys_dump(self, K):
        # blocks of JSON_BLOCK entries join to the one-call text; K=80 holds more than one block
        rng = np.random.default_rng(K)
        mask = rng.uniform(size=(K, K)) < 0.7
        alpha = np.where(mask, rng.normal(size=(K, K)) * 1e-3, 0.0)
        params = ModelParams(mu=rng.uniform(size=K) / 100, alpha=alpha, beta=0.3, gamma=[0.1, -0.2], mask=mask)
        assert len(params.alpha_values) > JSON_BLOCK or K < 80
        assert params.to_json() == sorted_keys_dump(params)

    def test_to_json_of_repeated_values_is_the_sorted_keys_dump(self):
        # each block formats its distinct values once: mostly zero alpha, repeats, and -0.0 beside
        # 0.0 in one block, which must keep their own texts, over more than one block
        rng = np.random.default_rng(21)
        K = 90
        src, dst = np.nonzero(rng.uniform(size=(K, K)) < 0.8)
        alpha = rng.choice([0.0, 1e-3, 2.5e-4, 0.1 + 0.2, 5e-324], p=[0.8, 0.05, 0.05, 0.05, 0.05], size=len(src))
        alpha[:6] = [-0.0, 0.0, -0.0, 0.0, 1e-3, -1e-3]
        alpha[JSON_BLOCK + 1 : JSON_BLOCK + 3] = [0.0, -0.0]
        assert len(alpha) > JSON_BLOCK and np.count_nonzero(alpha) < len(alpha) / 2
        mu = rng.choice([0.01, 0.02, 0.0, -0.0], size=K)
        params = ModelParams.from_pairs(mu, src, dst, alpha, 0.3, [0.5, -0.0, 0.5, 0.0])
        text = params.to_json()
        assert text == sorted_keys_dump(params)
        back = ModelParams.from_json(text)
        assert back.alpha_values.tobytes() == params.alpha_values.tobytes()
        assert back.mu.tobytes() == params.mu.tobytes() and back.gamma.tobytes() == params.gamma.tobytes()

    @pytest.mark.parametrize("cells", [0, 1, None], ids=["empty", "K=1", "state-box"])
    def test_json_array_of_support_indices_is_json_dumps(self, cells):
        # integer entries take their texts from the table of str(0..max); the box spans many blocks
        src, dst = neighbor_pairs(GridSpec(**STATE_BOX).centroids()[:cells], 0.96)
        assert cells is not None or len(src) > JSON_BLOCK
        for values in (src, dst):
            assert model._json_array(values) == json.dumps(values.tolist())

    def test_from_pairs_sorts_the_support(self):
        params = ModelParams.from_pairs([0.1, 0.2], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 0.1], 1.0, [0.5])
        assert params.src.tolist() == [0, 0, 1] and params.dst.tolist() == [0, 1, 0]
        assert params.alpha_values.tolist() == [0.1, 0.2, 0.3]
        assert np.array_equal(params.alpha, [[0.1, 0.2], [0.3, 0.0]])
        assert np.array_equal(params.mask, [[True, True], [True, False]])

    def test_events_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        _, seq = random_instance(rng)
        path = tmp_path / "events.csv"
        save_events_csv(seq, path)
        back = load_events_csv(path, horizon=seq.horizon, num_locations=seq.num_locations)
        assert np.array_equal(back.times, seq.times)
        assert np.array_equal(back.locations, seq.locations)
        assert np.array_equal(back.marks, seq.marks)

    @pytest.mark.parametrize("row, column", [
        ("nan,0,0.5,0.5", "time"),
        ("1.5,0,nan,0.5", "m_0"),
        ("1.5,0,0.5,inf", "m_1"),
    ])
    def test_load_rejects_a_non_finite_column(self, tmp_path, row, column):
        # every comparison with NaN is false, so the range checks alone let it through
        path = tmp_path / "events.csv"
        path.write_text(f"time,location,m_0,m_1\r\n0.5,0,0.2,0.3\r\n{row}\r\n")
        with pytest.raises(ValueError, match=rf"^column '{column}' has a non-finite value$"):
            load_events_csv(path, horizon=10.0, num_locations=1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0])
    def test_load_rejects_a_horizon_that_is_not_positive_and_finite(self, tmp_path, horizon):
        path = tmp_path / "events.csv"
        path.write_text("time,location,m_0\r\n0.5,0,0.2\r\n")
        with pytest.raises(ValueError, match=r"^horizon must be positive and finite"):
            load_events_csv(path, horizon=horizon, num_locations=1)

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
    def test_kde_scorer_deterministic_and_nonnegative(self):
        rng = np.random.default_rng(17)
        train = rng.uniform(size=(50, 2))
        scorer = kde_scorer(train)
        q = np.array([0.5, 0.5])
        assert scorer(q) >= 0.0

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_kde_scorer_matches_scipy_gaussian_kde(self, d):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(d)
        train = rng.uniform(size=(60, d))
        # query rows near the marks, spanning several KDE_BLOCK blocks
        queries = rng.uniform(-0.1, 1.1, size=(3 * KDE_BLOCK + 5, d))
        got = kde_scorer(train)(queries)
        np.testing.assert_allclose(got, stats.gaussian_kde(train.T)(queries.T), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows", [KDE_BLOCK - 1, KDE_BLOCK, KDE_BLOCK + 1])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_kde_scorer_is_the_broadcast_formula_bit_for_bit(self, d, rows):
        # under 8 mark columns numpy sums the mark axis left to right, as the scorer's columns add
        rng = np.random.default_rng(100 * d + rows)
        train = rng.uniform(size=(30 + 5 * d, d))
        distinct = rng.uniform(-0.1, 1.1, size=(rows, d))
        distinct[:4] = train[:4]  # a query on a training row
        distinct[4] = 0.0
        # repeated rows: the scorer scores each of the `rows` distinct rows once
        queries = rng.permutation(np.concatenate([distinct, distinct[::3], -distinct[4:5]]))
        got = kde_scorer(train)(queries)
        assert got.tobytes() == kde_broadcast_oracle(train, queries).tobytes()

    def test_kde_scorer_of_two_training_rows_is_the_broadcast_formula(self):
        train = np.array([[0.25], [0.75]])
        queries = np.array([[0.0], [0.25], [0.5], [0.5], [1.0]])
        assert kde_scorer(train)(queries).tobytes() == kde_broadcast_oracle(train, queries).tobytes()

    @pytest.mark.parametrize("d", [8, 9])
    def test_kde_scorer_of_many_mark_columns_is_the_broadcast_formula_to_rounding(self, d):
        # from 8 columns numpy's unrolled sum adds in another order: the last bits may differ
        rng = np.random.default_rng(d)
        train = rng.uniform(size=(200, d))
        queries = rng.uniform(size=(2 * KDE_BLOCK + 3, d))
        np.testing.assert_allclose(kde_scorer(train)(queries), kde_broadcast_oracle(train, queries), rtol=1e-13, atol=0)

    def test_kde_scorer_holds_two_blocks_of_distances(self):
        # the broadcast formula holds about three KDE_BLOCK x n x d temporaries; the scorer two KDE_BLOCK x n
        rng = np.random.default_rng(23)
        n = 20_000
        scorer = kde_scorer(rng.uniform(size=(n, 3)))
        queries = rng.uniform(size=(2_000, 3))
        tracemalloc.start()
        try:
            scorer(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * KDE_BLOCK * n * 8

    def test_kde_scorer_scores_a_row_alike_in_any_batch(self):
        rng = np.random.default_rng(11)
        scorer = kde_scorer(rng.uniform(size=(200, 3)))
        queries = rng.uniform(size=(5 * KDE_BLOCK + 17, 3))
        batch = scorer(queries)
        alone = np.array([scorer(row) for row in queries[::13]])
        assert np.array_equal(alone, batch[::13])

    def test_kde_scorer_rejects_a_constant_mark_column(self):
        train = np.column_stack([np.random.default_rng(2).uniform(size=20), np.full(20, 0.5)])
        with pytest.raises(ValueError, match="singular mark covariance"):
            kde_scorer(train)


class TestBatchScoring:
    def _seq(self):
        return EventSequence(
            times=np.array([0.5, 1.5, 1.5, 4.0]),
            locations=np.array([0, 2, 1, 2]),
            marks=np.array([[0.2, 0.8], [0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]),
            horizon=5.0,
            num_locations=3,
        )

    @pytest.mark.parametrize(
        "mm",
        [
            LinearMarkModel(),
            NonLinearMarkModel(kde_scorer(np.random.default_rng(3).uniform(size=(40, 2)))),
        ],
        ids=["linear", "kde"],
    )
    def test_event_scores_equal_per_row_score(self, mm):
        seq, gamma = self._seq(), np.array([0.6, 0.5])
        got = mm.event_scores(gamma, seq)
        rows = [mm.score(gamma, seq.marks[i]) for i in range(len(seq))]
        assert got.shape == (len(seq),)
        assert got == pytest.approx(rows, rel=1e-12)

    def test_one_scorer_call_per_event_scores(self):
        calls = []

        def scorer(m):
            calls.append(len(m))
            return np.ones(len(m))

        NonLinearMarkModel(scorer).event_scores(None, self._seq())
        assert calls == [4]

    def test_scorer_of_the_wrong_shape_raises(self):
        # a scalar would enter the log-likelihood once instead of once per event
        params, seq = kernel_case("partial")
        with pytest.raises(ValueError, match=r"scorer returned shape \(\), expected \(40,\)"):
            penalized_objective(params, seq, NonLinearMarkModel(lambda m: 0.5), 0.0)
        with pytest.raises(ValueError, match="scorer returned shape"):
            NonLinearMarkModel(lambda m: np.ones((len(m), 1))).scores(None, seq.marks)


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
