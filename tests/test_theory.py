"""Variance growth, ensembling bound, recursion, equivalence, Chebyshev."""

import numpy as np
import pytest

from reservoir_tta import theory
from reservoir_tta.errors import ConfigurationError, InsufficientDataError


class TestTask:
    def test_total_noise_variance_is_trace(self):
        task = theory.NoisyQuadraticTask(
            optimum=np.zeros(3), curvature=np.zeros(3), noise_std=np.array([1.0, 2.0, 3.0])
        )
        assert task.total_noise_variance == pytest.approx(14.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.NoisyQuadraticTask(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_negative_curvature_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.NoisyQuadraticTask(np.zeros(2), -np.ones(2), np.ones(2))


class TestSimulateSgd:
    def test_zero_noise_gives_zero_variance(self):
        task = theory.pure_noise_task(2, 0.0)
        curve = theory.simulate_sgd(task, 0.1, 20, 200, seed=1)
        np.testing.assert_array_equal(curve.variance, np.zeros(21))

    def test_zero_lr_gives_zero_variance(self):
        task = theory.pure_noise_task(2, 1.0)
        curve = theory.simulate_sgd(task, 0.0, 20, 200, seed=2)
        np.testing.assert_array_equal(curve.variance, np.zeros(21))

    def test_linear_growth_slope(self):
        # eta = 0.1, unit total noise: slope must be eta^2 * vbar within 10%
        # with a near-perfect linear fit. Smaller than the acceptance run but
        # the same contract.
        task = theory.pure_noise_task(1, 1.0)
        curve = theory.simulate_sgd(task, 0.1, 60, 4000, seed=3)
        slope, r2 = theory.fit_slope(curve)
        assert slope == pytest.approx(0.01, rel=0.10)
        assert r2 > 0.99

    def test_trial_floor(self):
        with pytest.raises(ConfigurationError):
            theory.simulate_sgd(theory.pure_noise_task(1), 0.1, 10, 50, seed=0)

    def test_chunked_equals_sequential(self, monkeypatch):
        # Counter-based per-trial seeding: chunk size must not change the
        # trials, so the curves agree to reduction-order tolerance.
        task = theory.pure_noise_task(2, 1.0)
        a = theory.simulate_sgd(task, 0.1, 15, 300, seed=9)
        monkeypatch.setattr(theory, "_CHUNK", 7)
        b = theory.simulate_sgd(task, 0.1, 15, 300, seed=9)
        np.testing.assert_allclose(a.variance, b.variance, rtol=1e-12, atol=1e-14)


class TestSimulateWeightEnsemble:
    def test_alpha_zero_stays_at_start(self):
        task = theory.pure_noise_task(2, 1.0)
        curve = theory.simulate_weight_ensemble(task, 0.1, 0.0, 15, 200, seed=4)
        np.testing.assert_array_equal(curve.variance, np.zeros(16))

    def test_closed_form_near_alpha_one_matches_linear(self):
        t = np.arange(1, 101)
        near_one = theory.ensemble_variance_closed_form(0.1, 1 - 1e-9, 1.0, t)
        linear = theory.linear_variance_closed_form(0.1, 1.0, t)
        np.testing.assert_allclose(near_one, linear, rtol=1e-3)

    def test_empirical_matches_closed_form(self):
        # eta = 0.1, alpha = 0.9, vbar = 1: the t = 50 point within 5%.
        task = theory.pure_noise_task(1, 1.0)
        curve = theory.simulate_weight_ensemble(task, 0.1, 0.9, 50, 20000, seed=5)
        closed = theory.ensemble_variance_closed_form(0.1, 0.9, 1.0, curve.steps)
        rel = np.abs(curve.variance[1:] - closed[1:]) / closed[1:]
        assert rel.max() < 0.05
        assert curve.variance[50] == pytest.approx(
            0.01 * 0.9**2 * (1 - 0.9**100) / (1 - 0.9**2), rel=0.05
        )

    def test_curvature_rejected(self):
        task = theory.NoisyQuadraticTask(np.zeros(2), np.ones(2), np.ones(2))
        with pytest.raises(ConfigurationError):
            theory.simulate_weight_ensemble(task, 0.1, 0.9, 10, 200, seed=0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ConfigurationError):
            theory.simulate_weight_ensemble(
                theory.pure_noise_task(1), 0.1, 1.0, 10, 200, seed=0
            )


class TestCheckRecursion:
    def test_zero_gradients_zero_discrepancy(self):
        grads = np.zeros((50, 4))
        assert theory.check_recursion(grads, 0.1, 0.9, np.ones(4)) == 0.0

    def test_single_step_base_case(self):
        g = np.array([[2.0, -1.0]])
        theta0 = np.array([1.0, 1.0])
        # Both paths give theta0 - eta * alpha * g exactly.
        assert theory.check_recursion(g, 0.2, 0.7, theta0) < 1e-15

    def test_long_random_log(self):
        rng = np.random.default_rng(6)
        grads = rng.standard_normal((200, 8))
        disc = theory.check_recursion(grads, 0.1, 0.95, rng.standard_normal(8))
        assert disc < 1e-10

    def test_empty_log_rejected(self):
        with pytest.raises(InsufficientDataError):
            theory.check_recursion(np.empty((0, 3)), 0.1, 0.9, np.zeros(3))


class TestFisherTrajectory:
    def test_lambda_zero_plain_sgd(self):
        task = theory.NoisyQuadraticTask(np.zeros(3), np.full(3, 0.4), np.ones(3))
        assert theory.check_fisher_trajectory(task, 0.0, 1.0, 0.1, 50, seed=7) == 0.0

    def test_spec_case_dimension_four(self):
        task = theory.NoisyQuadraticTask(np.zeros(4), np.full(4, 0.3), np.ones(4))
        disc = theory.check_fisher_trajectory(task, 0.5, 1.0, 0.1, 100, seed=8)
        assert disc < 1e-10

    def test_no_drift_stays_at_start(self):
        # Zero curvature and zero noise: both paths rest at the start.
        task = theory.NoisyQuadraticTask(np.zeros(3), np.zeros(3), np.zeros(3))
        assert theory.check_fisher_trajectory(task, 0.5, 1.0, 0.1, 50, seed=9) == 0.0

    def test_inadmissible_alpha_rejected(self):
        task = theory.pure_noise_task(2)
        with pytest.raises(ConfigurationError):
            theory.check_fisher_trajectory(task, 10.0, 1.0, 0.1, 10, seed=0)


class TestChebyshev:
    def _task(self, dim=4, curvature=0.5, noise=1.0):
        return theory.NoisyQuadraticTask(
            np.zeros(dim), np.full(dim, curvature), np.full(dim, noise)
        )

    def test_zero_noise_rate_zero(self):
        task = self._task(noise=0.0)
        spec = theory.StabilitySpec(beta=2.0, theta0=np.full(4, 0.5))
        rep = theory.check_chebyshev(task, spec, 0.1, 30, 500, seed=10)
        assert rep.holds
        np.testing.assert_array_equal(rep.empirical_rate, np.zeros(31))

    def test_huge_beta_trivially_holds(self):
        task = self._task()
        spec = theory.StabilitySpec(beta=100.0, theta0=np.full(4, 0.5))
        rep = theory.check_chebyshev(task, spec, 0.1, 30, 500, seed=11)
        assert rep.holds
        assert rep.empirical_rate.max() == 0.0
        assert rep.bound[1:].max() < 1e-3

    def test_bound_holds_on_contractive_task(self):
        task = self._task()
        theta0 = np.full(4, 0.5)
        beta = 5.0 * float(np.linalg.norm(theta0))
        spec = theory.StabilitySpec(beta=beta, theta0=theta0)
        rep = theory.check_chebyshev(task, spec, 0.1, 100, 2000, seed=12)
        assert rep.holds

    def test_beta_below_start_rejected(self):
        task = self._task()
        spec = theory.StabilitySpec(beta=0.5, theta0=np.full(4, 2.0))
        with pytest.raises(ConfigurationError):
            theory.check_chebyshev(task, spec, 0.1, 10, 200, seed=0)

    def test_noncontractive_rejected(self):
        task = theory.pure_noise_task(4)
        spec = theory.StabilitySpec(beta=5.0, theta0=np.full(4, 0.5))
        with pytest.raises(ConfigurationError):
            theory.check_chebyshev(task, spec, 0.1, 10, 200, seed=0)

    def test_contractive_closed_form_is_sane(self):
        task = self._task()
        t = np.arange(0, 50)
        var = theory.contractive_variance_closed_form(task, 0.1, t)
        assert var[0] == 0.0
        assert np.all(np.diff(var) >= 0)
        # Stationary limit: eta^2 sigma^2 / (1 - rho^2) per coordinate.
        limit = 4 * 0.01 / (1 - 0.95**2)
        assert var[-1] == pytest.approx(limit, rel=0.01)


class TestReproducibility:
    def test_same_seed_same_curve(self):
        task = theory.pure_noise_task(2, 1.0)
        a = theory.simulate_sgd(task, 0.1, 20, 500, seed=42)
        b = theory.simulate_sgd(task, 0.1, 20, 500, seed=42)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_different_seed_different_curve(self):
        task = theory.pure_noise_task(2, 1.0)
        a = theory.simulate_sgd(task, 0.1, 20, 500, seed=42)
        b = theory.simulate_sgd(task, 0.1, 20, 500, seed=43)
        assert not np.array_equal(a.variance, b.variance)


def _oracle_noise(seed, trial, steps, std):
    """The per-trial noise as first specified: a tuple-seeded generator's
    ``normal`` draw with the per-coordinate stds as the scale array."""
    return np.random.default_rng((seed, trial)).normal(0.0, std, size=(steps, std.size))


_NOISE_TASKS = [
    pytest.param(
        theory.NoisyQuadraticTask(np.zeros(1), np.zeros(1), np.array([0.37])), id="dim1"
    ),
    pytest.param(
        theory.NoisyQuadraticTask(
            np.array([0.5, -1.0, 0.0, 2.0]),
            np.array([0.3, 0.0, 1.1, 0.05]),
            np.array([0.25, 1.7, 0.0, 3.1]),
        ),
        id="dim4",
    ),
]


class TestNoiseOracle:
    """The Monte-Carlo noise is bit-identical to the original per-trial draw."""

    @pytest.mark.parametrize("task", _NOISE_TASKS)
    def test_trial_noise_matches_oracle(self, task):
        for seed, trial in ((0, 0), (101, 7), (2**32 - 1, 12345)):
            np.testing.assert_array_equal(
                theory._trial_noise(seed, trial, 30, task),
                _oracle_noise(seed, trial, 30, task.noise_std),
            )

    @pytest.mark.parametrize("alpha", [None, 0.9])
    @pytest.mark.parametrize("task", _NOISE_TASKS)
    def test_every_chunk_matches_oracle(self, monkeypatch, task, alpha):
        # 7 does not divide 17: the last chunk holds 3 trials.
        monkeypatch.setattr(theory, "_CHUNK", 7)
        eta, steps, trials, seed = 0.3, 12, 17, 5
        theta0 = task.optimum + 0.25
        iterates = theory._mc_iterates(task, eta, steps, trials, seed, theta0, alpha)
        for start in range(0, trials, 7):
            n = min(7, trials - start)
            noise = np.stack(
                [_oracle_noise(seed, start + i, steps, task.noise_std) for i in range(n)]
            )
            x = np.tile(theta0, (n, 1))
            t, got = next(iterates)
            assert t == 0
            np.testing.assert_array_equal(got, x)
            for step in range(steps):
                grad = task.curvature * (x - task.optimum) + noise[:, step, :]
                x = x - eta * grad
                if alpha is not None:
                    x = alpha * x + (1.0 - alpha) * theta0
                t, got = next(iterates)
                assert t == step + 1
                np.testing.assert_array_equal(got, x)
        assert next(iterates, None) is None

    def test_one_generator_per_trial(self, monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        monkeypatch.setattr(theory, "_CHUNK", 64)
        theory.simulate_sgd(theory.pure_noise_task(2, 1.0), 0.1, 5, 150, seed=3)
        assert len(calls) == 150
        calls.clear()
        task = theory.NoisyQuadraticTask(np.zeros(4), np.full(4, 0.3), np.ones(4))
        theory.check_fisher_trajectory(task, 0.5, 1.0, 0.1, 20, seed=3)
        assert len(calls) == 1
