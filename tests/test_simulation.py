import numpy as np
import pytest
from scipy import stats

from firecast.estimation import FitConfig
from firecast.model import ModelParams
from firecast.simulation import (
    SimConfig,
    _cdf,
    _draw_index,
    linear_density_mark_sampler,
    simulate,
)

from oracles import (
    integrated_ground_intensity,
    linear_density_sampler_with_choice,
    recovery_experiment,
    simulate_with_choice,
)


def poisson_params(mu=0.5, K=1):
    return ModelParams(
        mu=np.full(K, mu),
        alpha=np.zeros((K, K)),
        beta=1.0,
        gamma=np.array([1.0]),
        mask=np.ones((K, K), dtype=bool),
    )


def hawkes_params():
    return ModelParams(
        mu=np.array([0.5]),
        alpha=np.array([[0.5]]),
        beta=1.0,
        gamma=np.array([1.0]),
        mask=np.array([[True]]),
    )


class TestSimulate:
    def test_poisson_count_within_three_sigma(self):
        seq = simulate(SimConfig(params=poisson_params(), horizon=1000.0, seed=42, mark_dim=1))
        assert abs(len(seq) - 500) <= 3 * np.sqrt(500)

    def test_seeded_run_is_reproducible(self):
        cfg = SimConfig(params=hawkes_params(), horizon=200.0, seed=7, mark_dim=2)
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.marks, b.marks)

    def test_negative_alpha_rejected(self):
        params = ModelParams(
            mu=np.array([0.5]),
            alpha=np.array([[-0.2]]),
            beta=1.0,
            gamma=np.array([1.0]),
            mask=np.array([[True]]),
        )
        with pytest.raises(ValueError, match="negative interaction"):
            simulate(SimConfig(params=params, horizon=10.0, seed=0))

    def test_output_satisfies_sequence_invariants(self):
        params = ModelParams(
            mu=np.array([0.3, 0.2]),
            alpha=np.array([[0.3, 0.1], [0.1, 0.3]]),
            beta=1.5,
            gamma=np.array([0.5, 0.5]),
            mask=np.ones((2, 2), dtype=bool),
        )
        seq = simulate(SimConfig(params=params, horizon=300.0, seed=3))
        assert np.all(np.diff(seq.times) >= 0)
        assert seq.times[0] >= 0 and seq.times[-1] <= 300.0
        assert seq.marks.min() >= 0 and seq.marks.max() <= 1
        assert seq.num_locations == 2 and seq.mark_dim == 2

    def test_poisson_interevent_times_exponential(self):
        # thinning exactness on the degenerate case, KS at the 1% level
        for seed in range(3):
            seq = simulate(SimConfig(params=poisson_params(), horizon=1000.0, seed=seed, mark_dim=1))
            gaps = np.diff(np.concatenate([[0.0], seq.times]))
            assert stats.kstest(gaps, "expon", args=(0, 1 / 0.5)).pvalue > 0.01

    def test_time_rescaling_gives_unit_exponentials(self):
        params = ModelParams(
            mu=np.array([0.4, 0.3]),
            alpha=np.array([[0.35, 0.1], [0.15, 0.3]]),
            beta=1.2,
            gamma=np.array([1.0]),
            mask=np.ones((2, 2), dtype=bool),
        )
        for seed in range(3):
            seq = simulate(SimConfig(params=params, horizon=600.0, seed=seed, mark_dim=1))
            rescaled = np.array(
                [integrated_ground_intensity(params, seq, float(t)) for t in seq.times]
            )
            gaps = np.diff(np.concatenate([[0.0], rescaled]))
            assert stats.kstest(gaps, "expon").pvalue > 0.01

    def test_magnitude_sampler_attaches_labels(self):
        cfg = SimConfig(
            params=poisson_params(),
            horizon=100.0,
            seed=1,
            mark_dim=1,
            magnitude_sampler=lambda rng, m, k: 1 + int(m[0] > 0.5),
        )
        seq = simulate(cfg)
        assert seq.magnitudes is not None
        assert set(np.unique(seq.magnitudes)) <= {1, 2}


class TestMarkSamplers:
    def test_linear_density_sampler_statistics(self):
        rng = np.random.default_rng(0)
        sampler = linear_density_mark_sampler(np.array([1.0, 0.0]))
        draws = np.array([sampler(rng, 0, 2) for _ in range(4000)])
        # coordinate 0 has density 2m (mean 2/3); coordinate 1 stays uniform
        assert abs(draws[:, 0].mean() - 2 / 3) < 0.02
        assert abs(draws[:, 1].mean() - 1 / 2) < 0.02

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            linear_density_mark_sampler(np.array([-0.5, 1.0]))


class TestRecoveryExperiment:
    def test_exact_init_with_zero_steps_has_zero_error(self):
        params = hawkes_params()
        sim = SimConfig(params=params, horizon=300.0, seed=5, mark_dim=1)
        cfg = FitConfig(beta_low=1.0, beta_high=1.0, grid_points=1, pgd_steps=0)
        rep = recovery_experiment(params, sim, cfg, mark_model=None)
        # grid contains the true beta; the projected init is the feasible truth
        assert rep.beta_error == 0.0
        # default init differs from truth; rerun handing the truth in directly
        from firecast.estimation import FeasibleSet, grid_fit
        from firecast.marks import LinearMarkModel
        from firecast.simulation import parameter_errors, simulate

        seq = simulate(sim)
        fit = grid_fit(seq, LinearMarkModel(), cfg, FeasibleSet.of(params), init=params)
        errs = parameter_errors(params, fit.params)
        assert errs["total"] <= 1e-12


class TestInverseCdfDraws:
    @pytest.mark.parametrize("K", [1, 3, 400, 1764])
    def test_draw_equals_generator_choice(self, K):
        for seed in range(20):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            rates = mine.uniform(size=K) ** 3
            theirs.uniform(size=K)
            rates[mine.uniform(size=K) < 0.3] = 0.0  # zero-probability locations
            theirs.uniform(size=K)
            rates[-1] += 1e-3
            p = rates / float(rates.sum())
            for _ in range(50):
                assert _draw_index(mine, _cdf(p)) == int(theirs.choice(K, p=p))
            assert mine.bit_generator.state == theirs.bit_generator.state

    def test_mark_sampler_equals_choice_sampler(self):
        gamma = np.array([0.2, 0.0, 0.7, 0.1])
        ours, theirs = linear_density_mark_sampler(gamma), linear_density_sampler_with_choice(gamma)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            assert ours(a, 0, 4).tobytes() == theirs(b, 0, 4).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    def test_simulate_equals_choice_simulator(self):
        K = 30
        rng = np.random.default_rng(0)
        mask = rng.uniform(size=(K, K)) < 0.2
        params = ModelParams(
            mu=rng.uniform(0.01, 0.05, size=K),
            alpha=np.where(mask, 0.02, 0.0),
            beta=0.7,
            gamma=np.array([0.3, 0.5]),
            mask=mask,
        )
        for seed in range(3):
            cfg = SimConfig(
                params=params,
                horizon=100.0,
                seed=seed,
                mark_sampler=linear_density_mark_sampler(params.gamma),
                magnitude_sampler=lambda r, m, k: int(r.integers(3)),
            )
            seq = simulate(cfg)
            times, locs, marks, mags = simulate_with_choice(cfg)
            assert len(seq) > 50
            assert seq.times.tobytes() == times.tobytes()
            assert np.array_equal(seq.locations, locs)
            assert seq.marks.tobytes() == marks.tobytes()
            assert np.array_equal(seq.magnitudes, mags)
