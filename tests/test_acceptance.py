"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
parameter-recovery criterion takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest
from scipy import stats

from firecast import model
from firecast.conformal import eraps
from firecast.estimation import (
    FeasibleSet,
    FitConfig,
    alternating_fit,
    projected_gradient_descent,
)
from firecast.marks import LinearMarkModel
from firecast.model import ModelParams, penalized_objective
from firecast.pipeline import run_end_to_end
from firecast.simulation import SimConfig, linear_density_mark_sampler, simulate
from firecast.thresholding import ScreeningState, ThresholdConfig, detect

from oracles import (
    finite_difference_gradient,
    gaussian_class_data,
    gaussian_true_posterior,
    mask_from_index_distance,
    oracle_prediction_set_size,
    quadrature_compensator,
    random_instance,
    recovery_experiment,
)
from reference_threshold import reference_dynamic_threshold


def announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared desk-scale generating model (K=4, nonnegative interactions)

def desk_scale_truth():
    K, p = 4, 3
    mask = mask_from_index_distance(K, 2)
    mu = np.array([0.25, 0.2, 0.225, 0.175])
    alpha = np.zeros((K, K))
    diag = [0.30, 0.25, 0.30, 0.28]
    for i in range(K):
        alpha[i, i] = diag[i]
        if i > 0:
            alpha[i, i - 1] = 0.12
        if i < K - 1:
            alpha[i, i + 1] = 0.14
    alpha *= mask
    gamma = np.full(p, 1 / np.sqrt(p))
    return ModelParams(mu=mu, alpha=alpha, beta=0.8, gamma=gamma, mask=mask).validate()


def test_criterion_01_likelihood_quadrature_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(50):
        params, seq = random_instance(rng, allow_negative_alpha=bool(trial % 2))
        closed = seq.horizon * params.mu.sum()
        if len(seq):
            w = 1.0 - np.exp(-params.beta * (seq.horizon - seq.times))
            closed += float((params.alpha.sum(axis=1)[seq.locations] * w).sum())
        quad = quadrature_compensator(params, seq)
        assert quad == pytest.approx(closed, rel=1e-5, abs=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(1, f"closed-form compensator matches quadrature on 50 instances ({elapsed:.1f}s)")


def test_criterion_02_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    mm = LinearMarkModel()
    checked = 0
    while checked < 20:
        params, seq = random_instance(rng)
        if len(seq) == 0:
            continue
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
        g_mu, g_alpha, g_gamma = model.objective_gradient(params, seq, mm, l1_weight=1.0)
        analytic = np.concatenate([g_mu, g_alpha.ravel(), g_gamma])
        fd = finite_difference_gradient(
            lambda x: penalized_objective(unpack(x), seq, mm, 1.0), x0, h=1e-6
        )
        assert np.all(np.abs(analytic - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(2, f"analytic gradient matches central differences at 20 points ({elapsed:.1f}s)")


def test_criterion_03_pgd_rate_bound_on_known_quadratic():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    theta_star = np.array([0.5, -0.3, 0.2, 0.1, -0.4])
    kappa = 3.0
    radius = 2.0
    # f = (kappa/2) ||x - x*||^2 on the radius-2 ball: strong monotonicity
    # constant kappa, gradient bound M = kappa (radius + ||x*||)
    bound_const = (radius + np.linalg.norm(theta_star)) ** 2  # M^2 / kappa^2

    def project(x):
        nrm = np.linalg.norm(x)
        return x if nrm <= radius else x * (radius / nrm)

    dists = []
    projected_gradient_descent(
        rng.normal(size=5) * 10,
        grad_fn=lambda x: kappa * (x - theta_star),
        project_fn=project,
        steps=10_000,
        kappa=kappa,
        callback=lambda k, x: dists.append(float(np.linalg.norm(x - theta_star) ** 2)),
    )
    for k, d in enumerate(dists):
        assert d <= bound_const / (k + 1) + 1e-12, f"rate bound violated at step {k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    announce(3, f"error^2 <= M^2/(kappa^2 (k+1)) for all k <= 1e4 ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_04_parameter_recovery():
    start = time.perf_counter()
    truth = desk_scale_truth()
    sampler = linear_density_mark_sampler(truth.gamma)
    big_cfg = FitConfig(beta_low=0.01, beta_high=2.0, grid_points=16, pgd_steps=2000)
    small_cfg = FitConfig(beta_low=0.01, beta_high=2.0, grid_points=4, pgd_steps=100)
    wins = 0
    big_errors = []
    for seed in range(10):
        sim = SimConfig(params=truth, horizon=2800.0, seed=seed, mark_sampler=sampler)
        big = recovery_experiment(truth, sim, big_cfg)
        small = recovery_experiment(truth, sim, small_cfg)
        assert big.n_events > 3000  # ~5000 events per run
        big_errors.append(big.relative_error)
        wins += big.relative_error < small.relative_error
    elapsed = time.perf_counter() - start
    assert max(big_errors) < 0.15, f"relative errors {big_errors}"
    assert wins >= 8, f"only {wins}/10 paired wins"
    assert elapsed < 600
    announce(
        4,
        f"recovery error max {max(big_errors):.3f} < 0.15, {wins}/10 paired wins ({elapsed:.0f}s)",
    )


def test_criterion_05_alternating_minimization():
    start = time.perf_counter()
    truth = desk_scale_truth()
    sampler = linear_density_mark_sampler(truth.gamma)
    config = FitConfig(pgd_steps=600, eps_beta=0.02, max_outer=10)
    iterations = []
    for seed in (100, 101, 102):
        seq = simulate(SimConfig(params=truth, horizon=700.0, seed=seed, mark_sampler=sampler))
        fit = alternating_fit(seq, LinearMarkModel(), config, FeasibleSet(mask=truth.mask))
        assert np.all(np.diff(fit.outer_trace) <= 1e-9), "objective increased across outers"
        iterations.append(fit.outer_iterations)
    assert all(3 <= n <= 5 for n in iterations), f"outer iterations {iterations}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    announce(5, f"alternating fit terminated in {iterations} outer iterations ({elapsed:.0f}s)")


def test_criterion_06_simulator_exactness():
    start = time.perf_counter()
    poisson = ModelParams(
        mu=np.array([0.5]),
        alpha=np.zeros((1, 1)),
        beta=1.0,
        gamma=np.array([1.0]),
        mask=np.array([[True]]),
    )
    for seed in range(10):
        seq = simulate(SimConfig(params=poisson, horizon=1000.0, seed=seed, mark_dim=1))
        gaps = np.diff(np.concatenate([[0.0], seq.times]))
        p = stats.kstest(gaps, "expon", args=(0, 1 / 0.5)).pvalue
        assert p > 0.01, f"seed {seed}: KS p-value {p}"

    hawkes = ModelParams(
        mu=np.array([0.5]),
        alpha=np.array([[0.5]]),
        beta=1.0,
        gamma=np.array([1.0]),
        mask=np.array([[True]]),
    )
    counts = [
        len(simulate(SimConfig(params=hawkes, horizon=1000.0, seed=seed, mark_dim=1)))
        for seed in range(200)
    ]
    mean_count = float(np.mean(counts))
    expected = 0.5 * 1000.0 / (1 - 0.5)  # stationary rate mu/(1 - branching)
    assert abs(mean_count - expected) / expected < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    announce(
        6,
        f"Poisson KS passed on 10 seeds; mean count {mean_count:.0f} within 5% of "
        f"{expected:.0f} ({elapsed:.0f}s)",
    )


def test_criterion_07_threshold_algorithm_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(100):
        risk = np.exp(rng.normal(0.0, 0.4, size=(50, 1)))
        truth = np.where(rng.uniform(size=(50, 1)) < 0.15, 1, -1)
        cfg = ThresholdConfig.from_first_day_risk(risk[0], 50)
        trace = detect(risk, truth, cfg)
        ref_tau, ref_pred = reference_dynamic_threshold(
            risk[:, 0], truth[:, 0],
            float(cfg.tau_min[0]), float(cfg.tau_max[0]), float(cfg.eta[0]),
            float(cfg.delta[0]), float(cfg.a1[0]), float(cfg.a2[0]),
        )
        assert np.array_equal(trace.prediction[:, 0], ref_pred)
        assert np.array_equal(trace.threshold[:, 0], ref_tau)

    # screening rule 2: emitted detections never exceed the validation count
    for trial in range(30):
        risk = np.exp(rng.normal(0.0, 0.6, size=(50, 2)))
        truth = np.where(rng.uniform(size=(50, 2)) < 0.2, 1, -1)
        counts = rng.integers(0, 4, size=2)
        screening = ScreeningState(fire_count=counts, avg_gap=np.ones(2))
        cfg = ThresholdConfig.from_first_day_risk(risk[0], 50)
        trace = detect(risk, truth, cfg, screening)
        detections = (trace.prediction == 1).sum(axis=0)
        assert np.all(detections <= counts)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    announce(7, f"detector matches the literal interpreter on 100 series ({elapsed:.1f}s)")


MEANS = np.array([[2.0, 0.0], [-1.0, 1.7], [-1.0, -1.7]])
SIGMA = 1.2
ALPHAS = (0.05, 0.1, 0.2)


def _eraps_run(seed, n_train, n_test=500):
    rng = np.random.default_rng(seed)
    X, y = gaussian_class_data(rng, n_train + n_test, MEANS, sigma=SIGMA)
    return eraps(
        X[:n_train], y[:n_train], X[n_train:], y[n_train:],
        num_bootstrap=20, batch_size=25, alphas=ALPHAS, seed=seed,
    )


@pytest.fixture(scope="module")
def eraps_runs():
    return [_eraps_run(seed, 500) for seed in range(20)]


def test_criterion_08_eraps_coverage(eraps_runs):
    start = time.perf_counter()
    for a in ALPHAS:
        mean_cov = float(np.mean([run.coverage[a] for run in eraps_runs]))
        assert mean_cov >= 1 - a - 0.02, f"alpha={a}: coverage {mean_cov:.4f}"

    gaps_small, gaps_large = [], []
    for seed in range(20):
        gaps_small.append(abs(_eraps_run(seed, 100).coverage[0.1] - 0.9))
        gaps_large.append(abs(_eraps_run(seed, 1000).coverage[0.1] - 0.9))
    assert np.median(gaps_large) <= np.median(gaps_small)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    covs = {a: round(float(np.mean([r.coverage[a] for r in eraps_runs])), 3) for a in ALPHAS}
    announce(8, f"marginal coverage {covs}; median gap shrinks with N ({elapsed:.0f}s)")


def test_criterion_09_set_properties(eraps_runs):
    # nestedness in alpha, exact, on every test point of criterion 8's runs
    for run in eraps_runs:
        tight, mid, loose = run.sets[0.2], run.sets[0.1], run.sets[0.05]
        assert np.all(tight <= mid) and np.all(mid <= loose)

    # consistent classifier: mean set size within one label of the oracle size
    class TruePosterior:
        def fit(self, X, y, num_classes, seed=0):
            return self

        def predict_proba(self, X):
            return gaussian_true_posterior(X, MEANS, sigma=SIGMA)

    sizes, oracle_sizes = [], []
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        X, y = gaussian_class_data(rng, 1500, MEANS, sigma=SIGMA)
        run = eraps(
            X[:1000], y[:1000], X[1000:], y[1000:],
            num_bootstrap=10, batch_size=25, alphas=(0.1,),
            classifier_factory=TruePosterior, seed=seed,
        )
        post = gaussian_true_posterior(X[1000:], MEANS, sigma=SIGMA)
        sizes.append(run.mean_size[0.1])
        oracle_sizes.append(float(np.mean([oracle_prediction_set_size(r, 0.1) for r in post])))
    diff = abs(float(np.mean(sizes)) - float(np.mean(oracle_sizes)))
    assert diff <= 1.0
    announce(9, f"sets nested in alpha; mean size within {diff:.2f} of the oracle size")


def test_criterion_10_run_determinism(tmp_path):
    bundle = {
        "seed": 11,
        "simulate": {
            "params": {
                "mu": [0.35, 0.3],
                "alpha": [[0.25, 0.1], [0.1, 0.2]],
                "beta": 1.0,
                "gamma": [0.7071067811865475, 0.7071067811865475],
                "mask": [[True, True], [True, True]],
            },
            "horizon": 150.0,
            "magnitude_classes": 3,
        },
        "fit": {"grid_points": 2, "pgd_steps": 80, "beta_low": 0.5, "beta_high": 1.5},
        "predict": {"screening": True},
        "conformal": {"num_bootstrap": 5, "batch_size": 5, "alphas": [0.1], "train_fraction": 0.6},
    }
    a, b = tmp_path / "a", tmp_path / "b"
    run_end_to_end(bundle, a)
    run_end_to_end(bundle, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
    announce(10, f"two seeded runs produced byte-identical artifacts ({len(names)} files)")
