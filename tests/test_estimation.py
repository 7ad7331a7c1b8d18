import numpy as np
import pytest

from firecast import estimation, model
from firecast.estimation import (
    FeasibleSet,
    FitConfig,
    NonFiniteGradientError,
    alternating_fit,
    default_init,
    grid_fit,
    pgd_fit,
    project,
    projected_gradient_descent,
)
from firecast.marks import LinearMarkModel, NonLinearMarkModel, kde_scorer
from firecast.model import ModelParams

from oracles import KERNEL_CASES, finite_difference_gradient, kernel_case, naive_log_likelihood, random_instance


def make_feasible(K=2):
    return FeasibleSet(mask=np.ones((K, K), dtype=bool))


def random_feasible_params(rng, feasible, p=2):
    K = feasible.num_locations
    raw = ModelParams(
        mu=rng.uniform(-1, 2, size=K),
        alpha=rng.uniform(-1, 1, size=(K, K)),
        beta=float(rng.uniform(0, 2)),
        gamma=rng.uniform(-1, 1, size=p),
        mask=np.ones((K, K), dtype=bool),
    )
    return project(raw, feasible)


class TestProject:
    def test_idempotent_on_feasible_points(self):
        rng = np.random.default_rng(0)
        feasible = make_feasible(3)
        for _ in range(20):
            point = random_feasible_params(rng, feasible)
            again = project(point, feasible)
            assert np.all(np.abs(again.mu - point.mu) <= 1e-15)
            assert np.all(np.abs(again.alpha - point.alpha) <= 1e-15)
            assert np.all(np.abs(again.gamma - point.gamma) <= 1e-15)

    def test_clamp_then_scale(self):
        feasible = FeasibleSet(mask=np.ones((2, 2), dtype=bool))
        raw = ModelParams(
            mu=np.array([-1.0, 3.0]),
            alpha=np.zeros((2, 2)),
            beta=1.0,
            gamma=np.zeros(1),
            mask=np.ones((2, 2), dtype=bool),
        )
        out = project(raw, feasible)
        assert np.allclose(out.mu, [0.0, 1.0])

    def test_mask_and_beta(self):
        mask = np.array([[True, False], [False, True]])
        feasible = FeasibleSet(mask=mask)
        raw = ModelParams(
            mu=np.zeros(2),
            alpha=np.array([[0.5, 0.9], [0.9, 0.5]]),
            beta=-2.0,
            gamma=np.zeros(1),
            mask=np.ones((2, 2), dtype=bool),  # raw weights on every pair
        )
        out = project(raw, feasible)
        assert out.alpha[0, 1] == 0.0 and out.alpha[1, 0] == 0.0
        assert out.beta == 0.0
        out.validate()

    def test_nonexpansive(self):
        # ||proj(x) - y|| <= ||x - y|| for feasible y, the projection oracle
        rng = np.random.default_rng(1)
        feasible = make_feasible(2)
        for _ in range(100):
            raw = ModelParams(
                mu=rng.normal(size=2) * 3,
                alpha=rng.normal(size=(2, 2)) * 3,
                beta=float(rng.normal()),
                gamma=rng.normal(size=2) * 3,
                mask=np.ones((2, 2), dtype=bool),
            )
            proj = project(raw, feasible)
            y = random_feasible_params(rng, feasible)

            def dist(a, b):
                return np.sqrt(
                    np.linalg.norm(a.mu - b.mu) ** 2
                    + np.linalg.norm(a.alpha - b.alpha) ** 2
                    + np.linalg.norm(a.gamma - b.gamma) ** 2
                )

            assert dist(proj, y) <= dist(raw, y) + 1e-12

    def test_shape_mismatch(self):
        feasible = make_feasible(2)
        raw = ModelParams(
            mu=np.zeros(3),
            alpha=np.zeros((3, 3)),
            beta=1.0,
            gamma=np.zeros(1),
            mask=np.ones((3, 3), dtype=bool),
        )
        with pytest.raises(ValueError):
            project(raw, feasible)


def ball_projection(radius):
    def proj(x):
        nrm = np.linalg.norm(x)
        return x if nrm <= radius else x * (radius / nrm)

    return proj


class TestProjectedGradientDescent:
    def test_stays_at_optimum(self):
        theta_star = np.array([0.5, -0.3, 0.2])
        kappa = 3.0
        x, _ = projected_gradient_descent(
            theta_star.copy(),
            grad_fn=lambda x: kappa * (x - theta_star),
            project_fn=ball_projection(2.0),
            steps=200,
            kappa=kappa,
        )
        assert np.linalg.norm(x - theta_star) <= 1e-8

    def test_quadratic_rate_bound(self):
        # f = (kappa/2) ||x - x*||^2 on a radius-2 ball: M = kappa (2 + ||x*||)
        rng = np.random.default_rng(2)
        theta_star = np.array([0.5, -0.3, 0.2, 0.1])
        kappa = 3.0
        bound_const = (2.0 + np.linalg.norm(theta_star)) ** 2
        dists = []
        x0 = rng.normal(size=4) * 5
        projected_gradient_descent(
            x0,
            grad_fn=lambda x: kappa * (x - theta_star),
            project_fn=ball_projection(2.0),
            steps=500,
            kappa=kappa,
            callback=lambda k, x: dists.append(np.linalg.norm(x - theta_star) ** 2),
        )
        for k, d in enumerate(dists):
            assert d <= bound_const / (k + 1) + 1e-12

    def test_zero_steps_projects_initial_point(self):
        x, trace = projected_gradient_descent(
            np.array([5.0, 0.0]),
            grad_fn=lambda x: x,
            project_fn=ball_projection(1.0),
            steps=0,
            kappa=1.0,
            objective_fn=lambda x: float(x @ x),
        )
        assert np.allclose(x, [1.0, 0.0])
        assert len(trace) == 1

    def test_non_finite_gradient_aborts_with_step(self):
        with pytest.raises(NonFiniteGradientError) as exc:
            projected_gradient_descent(
                np.zeros(2),
                grad_fn=lambda x: np.array([np.nan, 0.0]),
                project_fn=lambda x: x,
                steps=5,
                kappa=1.0,
            )
        assert exc.value.step == 1
        assert "step 1" in str(exc.value)


class TestPgdFit:
    def test_zero_steps_returns_projected_init(self):
        rng = np.random.default_rng(3)
        params, seq = random_instance(rng)
        config = FitConfig(pgd_steps=0)
        feasible = FeasibleSet(mask=params.mask)
        res = pgd_fit(seq, LinearMarkModel(), 1.0, config, feasible, init=params)
        proj = project(params, feasible)
        assert np.array_equal(res.params.mu, proj.mu)
        assert np.array_equal(res.params.alpha, proj.alpha)

    def test_backtracking_trace_monotone(self):
        rng = np.random.default_rng(4)
        params, seq = random_instance(rng)
        if len(seq) == 0:
            seq = random_instance(np.random.default_rng(5))[1]
        config = FitConfig(pgd_steps=60)
        res = pgd_fit(seq, LinearMarkModel(), 0.8, config)
        assert np.all(np.diff(res.trace) <= 1e-9)

    def test_final_trace_matches_scratch_objective(self):
        rng = np.random.default_rng(6)
        _, seq = random_instance(rng)
        config = FitConfig(pgd_steps=40)
        res = pgd_fit(seq, LinearMarkModel(), 0.5, config)
        scratch = model.penalized_objective(res.params, seq, LinearMarkModel(), config.l1_weight)
        assert res.trace[-1] == pytest.approx(scratch, abs=1e-9 * max(1, abs(scratch)))

    def test_rejects_nonpositive_beta(self):
        rng = np.random.default_rng(7)
        _, seq = random_instance(rng)
        with pytest.raises(ValueError):
            pgd_fit(seq, LinearMarkModel(), 0.0, FitConfig())

    def test_iterate_holds_alpha_on_the_mask_only(self, monkeypatch):
        params, seq = kernel_case("partial")
        lengths = []
        solver = estimation.projected_gradient_descent

        def spy(x0, *args, **kwargs):
            lengths.append(len(x0))
            return solver(x0, *args, **kwargs)

        monkeypatch.setattr(estimation, "projected_gradient_descent", spy)
        res = pgd_fit(seq, LinearMarkModel(), 0.9, FitConfig(pgd_steps=2), FeasibleSet(params.mask))
        assert lengths == [params.num_locations + params.mask.sum() + params.mark_dim]
        assert np.all(res.params.alpha[~params.mask] == 0.0)


def mask_objective(seq, mark_model, beta, l1_weight, feasible):
    return model.Objective(seq, mark_model, feasible.src, feasible.dst, beta, l1_weight)


class TestFixedBetaKernel:
    """``model.Objective`` on the mask's pairs, the solver's objective,
    against the naive oracle."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_objective_matches_naive_likelihood(self, case):
        params, seq = kernel_case(case)
        feasible = FeasibleSet(params.mask)
        problem = mask_objective(seq, LinearMarkModel(), params.beta, 0.5, feasible)
        naive = -naive_log_likelihood(params, seq, seq.marks @ params.gamma) + 0.5 * params.gamma.sum()
        assert problem.value(feasible.flatten(params)) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_gradient_matches_finite_differences_on_the_mask(self, case):
        params, seq = kernel_case(case)
        feasible = FeasibleSet(params.mask)
        problem = mask_objective(seq, LinearMarkModel(), params.beta, 0.0, feasible)
        x0 = feasible.flatten(params)

        def naive_objective(x):
            trial = feasible.params(x, params.beta)
            return -naive_log_likelihood(trial, seq, seq.marks @ trial.gamma)

        # the flat vector holds alpha on the mask only
        analytic = problem.smooth_gradient(x0)
        fd = finite_difference_gradient(naive_objective, x0)
        assert np.all(np.abs(analytic - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_gathers_one_pair_per_allowed_source(self, case):
        params, seq = kernel_case(case)
        problem = mask_objective(seq, LinearMarkModel(), params.beta, 0.0, FeasibleSet(params.mask))
        # (event, allowed source) entries whose source has a strictly earlier event
        earlier = seq.times[None, :] < seq.times[:, None]  # [i, j]: t_j < t_i
        has_history = np.zeros((len(seq), seq.num_locations), dtype=bool)
        for i, j in zip(*np.nonzero(earlier)):
            has_history[i, seq.locations[j]] = True
        expected = (params.mask[:, seq.locations].T & has_history).sum()
        assert len(problem.kernel.rows) == expected

    def test_beta_profile_equals_penalized_objective(self):
        params, seq = kernel_case("partial")
        mm = LinearMarkModel()
        feasible = FeasibleSet(params.mask)
        f = mask_objective(seq, mm, 0.3, 1.0, feasible).beta_profile(feasible.flatten(params))
        for b in (0.05, 0.9, 3.0):
            trial = ModelParams(mu=params.mu, alpha=params.alpha, beta=b, gamma=params.gamma, mask=params.mask)
            assert f(b) == model.penalized_objective(trial, seq, mm, 1.0)

    def test_gamma_free_mark_term_scored_once(self):
        params, seq = kernel_case("partial")
        calls = []

        class CountingModel(NonLinearMarkModel):
            def event_scores(self, gamma, seq):
                calls.append(1)
                return super().event_scores(gamma, seq)

        feasible = FeasibleSet(params.mask)
        problem = mask_objective(seq, CountingModel(lambda m, t, k: 0.5), 0.3, 1.0, feasible)
        f = problem.beta_profile(feasible.flatten(params))
        values = [f(b) for b in np.linspace(0.1, 2.0, 25)]
        assert len(calls) == 1 and np.all(np.isfinite(values))


class TestGridFit:
    def test_degenerate_grid_matches_pgd_fit(self):
        rng = np.random.default_rng(8)
        _, seq = random_instance(rng)
        config = FitConfig(beta_low=0.7, beta_high=0.7, grid_points=1, pgd_steps=30)
        fit = grid_fit(seq, LinearMarkModel(), config)
        single = pgd_fit(seq, LinearMarkModel(), 0.7, config)
        assert np.array_equal(fit.params.mu, single.params.mu)
        assert np.array_equal(fit.params.alpha, single.params.alpha)
        assert fit.params.beta == 0.7

    def test_argmin_contract(self):
        rng = np.random.default_rng(9)
        _, seq = random_instance(rng)
        config = FitConfig(grid_points=4, pgd_steps=30)
        fit = grid_fit(seq, LinearMarkModel(), config)
        assert fit.objective == np.min(fit.grid_objectives)
        assert fit.selected_index == int(np.argmin(fit.grid_objectives))
        rescored = model.penalized_objective(fit.params, seq, LinearMarkModel(), config.l1_weight)
        assert fit.objective == pytest.approx(rescored, abs=1e-9 * max(1, abs(fit.objective)))
        assert fit.objective == rescored  # the solver's last value, bit for bit

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        _, seq = random_instance(rng)
        config = FitConfig(grid_points=3, pgd_steps=25)
        a = grid_fit(seq, LinearMarkModel(), config)
        b = grid_fit(seq, LinearMarkModel(), config)
        assert np.array_equal(a.params.mu, b.params.mu)
        assert np.array_equal(a.params.alpha, b.params.alpha)
        assert np.array_equal(a.params.gamma, b.params.gamma)
        assert a.params.beta == b.params.beta
        assert np.array_equal(a.trace, b.trace)


@pytest.mark.parametrize("method", [grid_fit, alternating_fit])
@pytest.mark.parametrize("marks", ["linear", "kde"])
def test_fit_objective_is_the_penalized_objective(method, marks):
    # FitResult.objective comes from the solver's trace, not a rescoring
    params, seq = kernel_case("partial")
    mm = LinearMarkModel() if marks == "linear" else NonLinearMarkModel(kde_scorer(seq.marks))
    config = FitConfig(grid_points=3, pgd_steps=25, max_outer=3, eps_beta=1e-3, l1_weight=0.5)
    fit = method(seq, mm, config, FeasibleSet(params.mask))
    assert fit.objective == model.penalized_objective(fit.params, seq, mm, config.l1_weight)
    if method is grid_fit:
        for beta, value in zip(fit.grid_betas, fit.grid_objectives):
            res = pgd_fit(seq, mm, float(beta), config, FeasibleSet(params.mask))
            assert value == model.penalized_objective(res.params, seq, mm, config.l1_weight)


class TestAlternatingFit:
    def _small_seq(self, seed=11):
        rng = np.random.default_rng(seed)
        while True:
            _, seq = random_instance(rng)
            if len(seq) >= 20:
                return seq

    def test_converged_start_terminates_in_one_outer(self):
        seq = self._small_seq()
        config = FitConfig(pgd_steps=150, eps_beta=0.05, max_outer=8)
        first = alternating_fit(seq, LinearMarkModel(), config)
        warm = FitConfig(
            pgd_steps=150,
            eps_beta=0.05,
            max_outer=8,
            beta_init=first.params.beta,
        )
        second = alternating_fit(seq, LinearMarkModel(), warm, init=first.params)
        assert second.outer_iterations == 1

    def test_outer_trace_monotone(self):
        rng = np.random.default_rng(12)
        count = 0
        while count < 20:
            _, seq = random_instance(rng)
            if len(seq) < 5:
                continue
            config = FitConfig(pgd_steps=40, max_outer=4, eps_beta=1e-4)
            fit = alternating_fit(seq, LinearMarkModel(), config)
            assert np.all(np.diff(fit.outer_trace) <= 1e-9)
            count += 1

    def test_reports_outer_iterations(self):
        seq = self._small_seq(13)
        config = FitConfig(pgd_steps=60, max_outer=6, eps_beta=0.02)
        fit = alternating_fit(seq, LinearMarkModel(), config)
        assert 1 <= fit.outer_iterations <= 6
        assert fit.params.beta > 0


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(beta_low=2.0, beta_high=1.0)
        with pytest.raises(ValueError):
            FitConfig(grid_points=0)
        with pytest.raises(ValueError):
            FitConfig(eps_beta=0.0)
        with pytest.raises(ValueError):
            FitConfig(pgd_steps=-1)
        with pytest.raises(ValueError):
            FitConfig(l1_weight=-0.1)

    def test_default_init_feasible(self):
        rng = np.random.default_rng(14)
        _, seq = random_instance(rng)
        feasible = FeasibleSet(mask=np.ones((seq.num_locations,) * 2, dtype=bool))
        init = default_init(seq, feasible, beta=1.0)
        init.validate()


def test_projection_output_always_feasible():
    rng = np.random.default_rng(99)
    mask = rng.uniform(size=(3, 3)) < 0.6
    np.fill_diagonal(mask, True)
    feasible = FeasibleSet(mask=mask)
    for _ in range(50):
        raw = ModelParams(
            mu=rng.normal(size=3) * 10,
            alpha=rng.normal(size=(3, 3)) * 10,
            beta=float(rng.normal() * 5),
            gamma=rng.normal(size=4) * 10,
            mask=np.ones((3, 3), dtype=bool),  # raw weights on every pair
        )
        project(raw, feasible).validate()
