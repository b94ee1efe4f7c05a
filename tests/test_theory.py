"""Variance growth, ensembling bound, recursion, equivalence, Chebyshev."""

import sys
import threading

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

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(([np.nan], [0.0], [np.inf]), id="nan-optimum-inf-std"),
            pytest.param(([0.0, np.inf], [0.0, 0.0], [1.0, 1.0]), id="inf-optimum"),
            pytest.param(([0.0], [np.nan], [1.0]), id="nan-curvature"),
            pytest.param(([0.0], [np.inf], [1.0]), id="inf-curvature"),
            pytest.param(([0.0], [0.0], [np.nan]), id="nan-std"),
        ],
    )
    def test_non_finite_field_rejected(self, fields):
        # A NaN field would pass the sign checks and give NaN variances.
        with pytest.raises(ConfigurationError, match="must be finite"):
            theory.NoisyQuadraticTask(*fields)


class TestSimulateSgd:
    def test_zero_noise_gives_zero_variance(self):
        task = theory.pure_noise_task(2, 0.0)
        variance = theory.simulate_sgd(task, 0.1, 20, 200, seed=1)
        np.testing.assert_array_equal(variance, np.zeros(21))

    def test_zero_lr_gives_zero_variance(self):
        task = theory.pure_noise_task(2, 1.0)
        variance = theory.simulate_sgd(task, 0.0, 20, 200, seed=2)
        np.testing.assert_array_equal(variance, np.zeros(21))

    def test_linear_growth_slope(self):
        # eta = 0.1, unit total noise: slope must be eta^2 * vbar within 10%
        # with a near-perfect linear fit. Smaller than the default `rtta
        # theory` check but the same contract.
        task = theory.pure_noise_task(1, 1.0)
        variance = theory.simulate_sgd(task, 0.1, 60, 4000, seed=3)
        slope, r2 = theory.fit_slope(variance)
        assert slope == pytest.approx(0.01, rel=0.10)
        assert r2 > 0.99

    def test_trial_floor(self):
        with pytest.raises(ConfigurationError):
            theory.simulate_sgd(theory.pure_noise_task(1), 0.1, 10, 50, seed=0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError, match="need >= 0 steps, got -1"):
            theory.simulate_sgd(theory.pure_noise_task(1), 0.1, -1, 200, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ConfigurationError, match="eta must be finite"):
            theory.simulate_sgd(theory.pure_noise_task(1), eta, 10, 200, seed=0)

    def test_zero_steps_is_the_start_row(self):
        variance = theory.simulate_sgd(theory.pure_noise_task(2), 0.1, 0, 150, seed=0)
        assert variance.shape == (1,)
        assert variance[0] == 0.0

    def test_chunk_size_fixes_the_draws(self, monkeypatch):
        """A trial is a column of its chunk's draw, so the module's
        ``_CHUNK`` and the seed fix the draws: a repeat call gives the same
        bits, and another chunk size gives other draws."""
        task = theory.pure_noise_task(2, 1.0)
        default = theory.simulate_sgd(task, 0.1, 15, 300, seed=9)
        # 7 does not divide 300: 43 chunks, the last of 6 trials.
        monkeypatch.setattr(theory, "_CHUNK", 7)
        a = theory.simulate_sgd(task, 0.1, 15, 300, seed=9)
        b = theory.simulate_sgd(task, 0.1, 15, 300, seed=9)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, default)


class TestSimulateWeightEnsemble:
    def test_alpha_zero_stays_at_start(self):
        task = theory.pure_noise_task(2, 1.0)
        variance = theory.simulate_weight_ensemble(task, 0.1, [0.0], 15, 200, seed=4)
        np.testing.assert_array_equal(variance, np.zeros((1, 16)))

    def test_closed_form_near_alpha_one_matches_linear(self):
        # The zero-curvature contractive form is plain SGD's t * eta^2 * vbar.
        t = np.arange(1, 101)
        near_one = theory.ensemble_variance_closed_form(0.1, 1 - 1e-9, 1.0, t)
        linear = theory.contractive_variance_closed_form(theory.pure_noise_task(), 0.1, t)
        np.testing.assert_allclose(near_one, linear, rtol=1e-3)

    def test_empirical_matches_closed_form(self):
        # eta = 0.1, alpha = 0.9, vbar = 1: the t = 50 point within 5%.
        task = theory.pure_noise_task(1, 1.0)
        (variance,) = theory.simulate_weight_ensemble(task, 0.1, [0.9], 50, 20000, seed=5)
        closed = theory.ensemble_variance_closed_form(0.1, 0.9, 1.0, np.arange(51))
        rel = np.abs(variance[1:] - closed[1:]) / closed[1:]
        assert rel.max() < 0.05
        assert variance[50] == pytest.approx(
            0.01 * 0.9**2 * (1 - 0.9**100) / (1 - 0.9**2), rel=0.05
        )

    def test_curvature_rejected(self):
        task = theory.NoisyQuadraticTask(np.zeros(2), np.ones(2), np.ones(2))
        with pytest.raises(ConfigurationError):
            theory.simulate_weight_ensemble(task, 0.1, [0.9], 10, 200, seed=0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError, match="need >= 0 steps, got -1"):
            theory.simulate_weight_ensemble(
                theory.pure_noise_task(1), 0.1, [0.9], -1, 200, seed=0
            )

    @pytest.mark.parametrize(
        "alphas", [[1.0], [0.9, 1.0], [-0.1], [np.nan], [], 0.9, [[0.9]]],
        ids=["one", "one-among-two", "negative", "nan", "empty", "scalar", "nested"],
    )
    def test_bad_alphas_rejected(self, alphas):
        with pytest.raises(ConfigurationError, match="alphas must be"):
            theory.simulate_weight_ensemble(
                theory.pure_noise_task(1), 0.1, alphas, 10, 200, seed=0
            )

    def test_non_finite_eta_rejected(self):
        with pytest.raises(ConfigurationError, match="eta must be finite"):
            theory.simulate_weight_ensemble(
                theory.pure_noise_task(1), np.nan, [0.9], 10, 200, seed=0
            )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_each_row_is_its_one_alpha_call(self, monkeypatch, dim):
        # 32 does not divide 150: the last chunk holds 22 trials. The walks
        # include alpha = 0, which stays at the start, and a repeated alpha.
        monkeypatch.setattr(theory, "_CHUNK", 32)
        task = theory.NoisyQuadraticTask(
            np.linspace(-1.0, 2.0, dim), np.zeros(dim), np.linspace(0.5, 1.5, dim)
        )
        alphas = [0.9, 0.0, 0.5, 0.9, 0.99]
        rows = theory.simulate_weight_ensemble(task, 0.3, alphas, 12, 150, seed=6)
        assert rows.shape == (len(alphas), 13)
        for alpha, row in zip(alphas, rows):
            (alone,) = theory.simulate_weight_ensemble(task, 0.3, [alpha], 12, 150, seed=6)
            assert row.tobytes() == alone.tobytes()
        np.testing.assert_array_equal(rows[1], np.zeros(13))


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

    @pytest.mark.parametrize("shape", [(1,), (), (8, 1), (7,)])
    def test_theta0_of_another_shape_rejected(self, shape):
        # A (1,) start would broadcast against every coordinate of the log.
        grads = np.random.default_rng(6).standard_normal((20, 8))
        with pytest.raises(ConfigurationError, match=r"theta0 must have shape \(8,\)"):
            theory.check_recursion(grads, 0.1, 0.95, np.zeros(shape))

    @pytest.mark.parametrize(
        "name, eta, alpha, grads, theta0",
        [
            ("eta", np.nan, 0.9, np.ones((5, 2)), np.zeros(2)),
            ("alpha", 0.1, np.nan, np.ones((5, 2)), np.zeros(2)),
            ("gradient log", 0.1, 0.9, np.full((5, 2), np.inf), np.zeros(2)),
            ("theta0", 0.1, 0.9, np.ones((5, 2)), np.array([0.0, np.nan])),
        ],
        ids=["eta", "alpha", "gradient-log", "theta0"],
    )
    def test_non_finite_input_rejected(self, name, eta, alpha, grads, theta0):
        # max(worst, nan) keeps worst: a NaN discrepancy would read as 0.
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            theory.check_recursion(grads, eta, alpha, theta0)


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

    def test_negative_steps_rejected(self):
        task = theory.pure_noise_task(2)
        with pytest.raises(ConfigurationError, match="need >= 0 steps, got -1"):
            theory.check_fisher_trajectory(task, 0.5, 1.0, 0.1, -1, seed=0)


def _within_slack(rate, bound, trials):
    """The rate stays under the bound plus 3-sigma binomial slack."""
    return bool(np.all(rate <= bound + 3.0 * np.sqrt(rate * (1.0 - rate) / trials)))


class TestChebyshev:
    def _task(self, dim=4, curvature=0.5, noise=1.0):
        return theory.NoisyQuadraticTask(
            np.zeros(dim), np.full(dim, curvature), np.full(dim, noise)
        )

    def test_zero_noise_rate_zero(self):
        task = self._task(noise=0.0)
        _, rate, bound = theory.check_chebyshev(
            task, 2.0, np.full(4, 0.5), 0.1, 30, 500, seed=10
        )
        assert _within_slack(rate, bound, 500)
        np.testing.assert_array_equal(rate, np.zeros(31))

    def test_huge_beta_trivially_holds(self):
        task = self._task()
        _, rate, bound = theory.check_chebyshev(
            task, 100.0, np.full(4, 0.5), 0.1, 30, 500, seed=11
        )
        assert _within_slack(rate, bound, 500)
        assert rate.max() == 0.0
        assert bound[1:].max() < 1e-3

    def test_bound_holds_on_contractive_task(self):
        task = self._task()
        theta0 = np.full(4, 0.5)
        beta = 5.0 * float(np.linalg.norm(theta0))
        _, rate, bound = theory.check_chebyshev(task, beta, theta0, 0.1, 100, 2000, seed=12)
        assert _within_slack(rate, bound, 2000)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta):
        # A NaN beta would slip past the beta <= d0 guard.
        with pytest.raises(ConfigurationError, match="beta must be finite"):
            theory.check_chebyshev(self._task(), beta, np.full(4, 0.5), 0.1, 10, 200, seed=0)

    def test_non_finite_theta0_rejected(self):
        # A NaN start makes d0 NaN, which the beta <= d0 guard lets through.
        theta0 = np.array([0.5, np.nan, 0.5, 0.5])
        with pytest.raises(ConfigurationError, match="theta0 must be finite"):
            theory.check_chebyshev(self._task(), 5.0, theta0, 0.1, 10, 200, seed=0)

    def test_non_finite_eta_rejected(self):
        with pytest.raises(ConfigurationError, match="eta must be finite"):
            theory.check_chebyshev(self._task(), 5.0, np.full(4, 0.5), np.nan, 10, 200, seed=0)

    def test_beta_below_start_rejected(self):
        # beta must exceed ||theta0 - optimum|| >= 0, so beta <= 0 is rejected too.
        for beta, theta0 in ((0.5, np.full(4, 2.0)), (0.0, np.zeros(4)), (-1.0, np.zeros(4))):
            with pytest.raises(ConfigurationError, match="must exceed the initial distance"):
                theory.check_chebyshev(self._task(), beta, theta0, 0.1, 10, 200, seed=0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError, match="need >= 0 steps, got -1"):
            theory.check_chebyshev(self._task(), 5.0, np.full(4, 0.5), 0.1, -1, 200, seed=0)

    def test_zero_steps_is_the_start_row(self):
        variance, rate, bound = theory.check_chebyshev(
            self._task(), 5.0, np.full(4, 0.5), 0.1, 0, 150, seed=0
        )
        for row in (variance, rate, bound):
            np.testing.assert_array_equal(row, np.zeros(1))

    def test_noncontractive_rejected(self):
        task = theory.pure_noise_task(4)
        with pytest.raises(ConfigurationError):
            theory.check_chebyshev(task, 5.0, np.full(4, 0.5), 0.1, 10, 200, seed=0)

    def test_contractive_closed_form_is_sane(self):
        task = self._task()
        t = np.arange(0, 50)
        var = theory.contractive_variance_closed_form(task, 0.1, t)
        assert var[0] == 0.0
        assert np.all(np.diff(var) >= 0)
        # Stationary limit: eta^2 sigma^2 / (1 - rho^2) per coordinate.
        limit = 4 * 0.01 / (1 - 0.95**2)
        assert var[-1] == pytest.approx(limit, rel=0.01)


class TestTrialSums:
    @pytest.mark.parametrize("trials", [1, 7, 9, 300])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bits_of_each_row_summed_alone(self, dim, trials):
        # Each (walk, step, coordinate) row of trials is summed as numpy
        # sums that row alone, pairwise, whatever the dim or the block;
        # scales 1e-8..1e8 make any other summation order show in the low
        # bits.
        rng = np.random.default_rng(dim * 1000 + trials)
        xs = rng.standard_normal((3, 5, dim, trials)) * 10.0 ** rng.integers(
            -8, 9, (3, 5, dim, trials)
        )
        squared = xs.copy()
        total, total_sq = theory._trial_sums(squared)
        assert total.shape == total_sq.shape == (3, 5, dim)
        # The block is dead once summed, so it is squared in place.
        assert squared.tobytes() == np.square(xs).tobytes()
        for index in np.ndindex(total.shape):
            row = xs[index].copy()
            assert total[index].tobytes() == row.sum().tobytes()
            assert total_sq[index].tobytes() == (row**2).sum().tobytes()


class TestReproducibility:
    def test_same_seed_same_curve(self):
        task = theory.pure_noise_task(2, 1.0)
        a = theory.simulate_sgd(task, 0.1, 20, 500, seed=42)
        b = theory.simulate_sgd(task, 0.1, 20, 500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_curve(self):
        task = theory.pure_noise_task(2, 1.0)
        a = theory.simulate_sgd(task, 0.1, 20, 500, seed=42)
        b = theory.simulate_sgd(task, 0.1, 20, 500, seed=43)
        assert not np.array_equal(a, b)


def _oracle_noise(seed, trial, steps, std):
    """One trial's noise as first specified: a tuple-seeded generator's
    ``normal`` draw with the per-coordinate stds as the scale array."""
    return np.random.default_rng((seed, trial)).normal(0.0, std, size=(steps, std.size))


def _oracle_chunk_noise(seed, chunk, tag, steps, n, std):
    """A chunk's ``(steps, dim, n)`` noise as specified: its generator's
    standard normals in C order, scaled per coordinate."""
    z = np.random.default_rng((seed, chunk, tag)).standard_normal((steps, std.size, n))
    return z * std[:, None]


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
    """The Monte-Carlo noise is bit-identical to its specified draws."""

    @pytest.mark.parametrize("task", _NOISE_TASKS)
    def test_fisher_trajectory_steps_on_oracle_noise(self, monkeypatch, task):
        # The check draws one standard_normal((steps, dim)) from
        # keyed_rng(seed, 0); scaled per coordinate it is the oracle's noise,
        # equal as numbers (a zero std may give -0.0 where normal gives 0.0),
        # and both trajectories step on it as the reference below does.
        lam, omega, eta, steps = 5.0, 0.3, 0.05, 30
        alpha = 1.0 - 2.0 * lam * omega * eta
        keyed_rng, draws = theory.keyed_rng, []

        class Recording:
            def __init__(self, *key):
                self.rng = keyed_rng(*key)

            def standard_normal(self, *args, **kwargs):
                draws.append(self.rng.standard_normal(*args, **kwargs))
                return draws[-1]

        monkeypatch.setattr(theory, "keyed_rng", Recording)
        for seed in (0, 101, 2**32 - 1):
            got = theory.check_fisher_trajectory(task, lam, omega, eta, steps, seed)
            noise = _oracle_noise(seed, 0, steps, task.noise_std)
            (draw,) = draws
            draws.clear()
            np.testing.assert_array_equal(draw * task.noise_std, noise)
            start = task.optimum + 1.0
            fis, ens, worst = start, start, 0.0
            for t in range(steps):
                half = fis - eta * (task.curvature * (fis - task.optimum) + noise[t])
                fis = half - 2.0 * lam * omega * eta * (half - start)
                grad = task.curvature * (ens - task.optimum) + noise[t]
                ens = alpha * (ens - eta * grad) + (1.0 - alpha) * start
                worst = max(worst, float(np.abs(fis - ens).max()))
            assert got == worst

    @pytest.mark.parametrize("trials", [17, 5], ids=["three-chunks", "one-chunk"])
    @pytest.mark.parametrize(
        "alphas", [None, (0.9,), (0.9, 0.0, 0.5, 0.9)], ids=["sgd", "one", "stack"]
    )
    @pytest.mark.parametrize("task", _NOISE_TASKS)
    def test_every_chunk_matches_oracle(self, monkeypatch, task, alphas, trials):
        # 7 does not divide 17: the chunk map hands the driver chunks of 7,
        # 7 and 3 trials, the second on the helper thread. 5 trials are one
        # chunk, and the helper gets none. 5 does not divide 12: each chunk
        # yields t = 0, then blocks of 5, 5 and 2 steps. Each walk of the
        # stack steps on the chunk's one draw as if it ran alone.
        monkeypatch.setattr(theory, "_CHUNK", 7)
        monkeypatch.setattr(theory, "_BLOCK", 5)
        eta, steps, seed, tag = 0.3, 12, 5, 9
        theta0 = task.optimum + 0.25
        stack = None if alphas is None else np.array(alphas)
        walks = [None] if alphas is None else list(alphas)

        def chunk_blocks(rng, n):
            blocks = theory._chunk_iterates(task, eta, steps, rng, n, theta0, stack)
            return n, [(t, xs.copy()) for t, xs in blocks]

        chunks = list(theory._map_chunks(chunk_blocks, trials, seed, tag))
        assert [n for n, _ in chunks] == {17: [7, 7, 3], 5: [5]}[trials]
        start, optimum, curvature = (
            v[:, None] for v in (theta0, task.optimum, task.curvature)
        )
        for chunk, (n, blocks) in enumerate(chunks):
            noise = _oracle_chunk_noise(seed, chunk, tag, steps, n, task.noise_std)
            xs = [np.tile(start, (1, n)) for _ in walks]
            oracle = [np.stack(xs)]
            for step in range(steps):
                for w, alpha in enumerate(walks):
                    grad = curvature * (xs[w] - optimum) + noise[step]
                    xs[w] = xs[w] - eta * grad
                    if alpha is not None:
                        xs[w] = alpha * xs[w] + (1.0 - alpha) * start
                oracle.append(np.stack(xs))
            assert [(t, got.shape) for t, got in blocks] == [
                (t, (len(walks), k, task.dim, n)) for t, k in ((0, 1), (1, 5), (6, 5), (11, 2))
            ]
            for t, got in blocks:
                for j in range(got.shape[1]):
                    assert got[:, j].tobytes() == oracle[t + j].tobytes()

    def test_one_generator_per_chunk(self, monkeypatch, default_rng_calls):
        # 64 does not divide 150: three chunks, keyed (seed, chunk, tag),
        # all made on the calling thread in chunk order though the helper
        # runs chunk 1.
        monkeypatch.setattr(theory, "_CHUNK", 64)
        threads = []
        counting = np.random.default_rng

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return counting(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", recording)

        def keys():
            got = [tuple(args[0].tolist()) for args in default_rng_calls]
            assert threads == [threading.current_thread()] * len(got)
            default_rng_calls.clear()
            threads.clear()
            return got

        task = theory.pure_noise_task(2, 1.0)
        theory.simulate_sgd(task, 0.1, 5, 150, seed=3)
        assert keys() == [(3, c, theory._SGD_TAG) for c in range(3)]
        # Every alpha steps on the one draw of each chunk.
        theory.simulate_weight_ensemble(task, 0.1, [0.9, 0.5, 0.99], 5, 150, seed=3)
        assert keys() == [(3, c, theory._ENSEMBLE_TAG) for c in range(3)]
        task = theory.NoisyQuadraticTask(np.zeros(4), np.full(4, 0.5), np.ones(4))
        theory.check_chebyshev(task, 5.0, np.full(4, 0.5), 0.1, 5, 150, seed=3)
        assert keys() == [(3, c, theory._CHEBYSHEV_TAG) for c in range(3)]
        theory.check_fisher_trajectory(task, 0.5, 1.0, 0.1, 20, seed=3)
        assert keys() == [(3, 0)]

    @pytest.mark.parametrize("dim", [1, 4])
    def test_curves_do_not_depend_on_the_block(self, monkeypatch, dim):
        # Each chunk draws its steps in order, whatever the block, and the
        # trial sums and distances are per step; 3 does not divide 20 steps.
        task = theory.NoisyQuadraticTask(np.zeros(dim), np.full(dim, 0.5), np.ones(dim))
        walk = theory.pure_noise_task(dim, 1.0)
        monkeypatch.setattr(theory, "_CHUNK", 64)
        curves = {}
        for block in (8, 3):
            monkeypatch.setattr(theory, "_BLOCK", block)
            curves[block] = [
                theory.simulate_sgd(walk, 0.1, 20, 150, seed=4),
                theory.simulate_weight_ensemble(walk, 0.1, [0.9, 0.5], 20, 150, seed=4),
                *theory.check_chebyshev(task, 2.0, np.full(dim, 0.5), 0.1, 20, 150, seed=4),
            ]
        for a, b in zip(curves[8], curves[3], strict=True):
            assert a.tobytes() == b.tobytes()


def _monte_carlo_outputs(dim):
    """Every Monte-Carlo routine's arrays at one small configuration."""
    walk = theory.pure_noise_task(dim, 1.0)
    task = theory.NoisyQuadraticTask(
        np.linspace(-1.0, 1.0, dim), np.full(dim, 0.5), np.linspace(0.5, 2.0, dim)
    )
    theta0 = np.linspace(-1.0, 1.0, dim) + 0.3
    return [
        theory.simulate_sgd(walk, 0.1, 20, 300, seed=8),
        theory.simulate_weight_ensemble(walk, 0.1, [0.9, 0.0, 0.5, 0.99], 20, 300, seed=8),
        *theory.check_chebyshev(task, 3.0, theta0, 0.1, 20, 300, seed=8),
    ]


def _serial_map_chunks(work, trials, seed, tag):
    """The chunk map's reference: one pass over the chunks, on the calling
    thread alone."""
    for chunk, first in enumerate(range(0, trials, theory._CHUNK)):
        yield work(theory.keyed_rng(seed, chunk, tag), min(theory._CHUNK, trials - first))


def _monte_carlo_calls(trials):
    """One call of each Monte-Carlo routine at ``trials`` trials."""
    walk = theory.pure_noise_task(2, 1.0)
    task = theory.NoisyQuadraticTask(np.zeros(2), np.full(2, 0.5), np.ones(2))
    return [
        lambda: theory.simulate_sgd(walk, 0.1, 5, trials, seed=3),
        lambda: theory.simulate_weight_ensemble(walk, 0.1, [0.9, 0.5], 5, trials, seed=3),
        lambda: theory.check_chebyshev(task, 5.0, np.full(2, 0.5), 0.1, 5, trials, seed=3),
    ]


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


class TestHelperThread:
    """The chunk map's helper thread changes no bit and leaks nothing."""

    @pytest.mark.parametrize("dim", [1, 4])
    def test_outputs_do_not_depend_on_the_helper(self, monkeypatch, dim):
        # 64 does not divide 300: five chunks, the last of 44 trials, so the
        # calling thread runs three chunks and the helper two. A short
        # switch interval interleaves the two threads as finely as it can.
        monkeypatch.setattr(theory, "_CHUNK", 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            helped = _monte_carlo_outputs(dim)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(theory, "_map_chunks", _serial_map_chunks)
        for alone, got in zip(_monte_carlo_outputs(dim), helped, strict=True):
            assert alone.tobytes() == got.tobytes()

    @pytest.mark.parametrize("trials", [300, 256], ids=["lone-last", "paired-last"])
    @pytest.mark.parametrize("on_helper", [True, False], ids=["helper", "caller"])
    @pytest.mark.parametrize("routine", range(3), ids=["sgd", "ensemble", "chebyshev"])
    def test_a_failing_chunk_raises_its_exception(
        self, monkeypatch, routine, on_helper, trials
    ):
        # The exception object itself comes out of the public routine, and
        # the helper has ended: no thread is left behind either way. 64
        # divides 256 into four chunks, so the last pair has a helper too.
        monkeypatch.setattr(theory, "_CHUNK", 64)
        caller = threading.current_thread()
        error = ArithmeticError("chunk failed")
        chunk_iterates = theory._chunk_iterates

        def failing(*args, **kwargs):
            if (threading.current_thread() is not caller) == on_helper:
                raise error
            return chunk_iterates(*args, **kwargs)

        monkeypatch.setattr(theory, "_chunk_iterates", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            _monte_carlo_calls(trials)[routine]()
        assert raised.value is error
        assert threading.active_count() == before

    @pytest.mark.parametrize("routine", range(3), ids=["sgd", "ensemble", "chebyshev"])
    def test_one_helper_per_chunk_pair(self, monkeypatch, started_threads, routine):
        # 64 does not divide 300: five chunks, so two pairs start a helper
        # each and the lone last chunk none. Every block of every chunk
        # samples the live threads: the helper sees itself and the caller,
        # and never a second helper.
        monkeypatch.setattr(theory, "_CHUNK", 64)
        chunk_iterates, counts = theory._chunk_iterates, []

        def sampling(*args, **kwargs):
            for block in chunk_iterates(*args, **kwargs):
                counts.append(threading.active_count())
                yield block

        monkeypatch.setattr(theory, "_chunk_iterates", sampling)
        before = threading.active_count()
        _monte_carlo_calls(300)[routine]()
        assert len(started_threads) == 2
        assert max(counts) == before + 1
        assert threading.active_count() == before

    def test_one_chunk_starts_no_thread(self, monkeypatch, started_threads):
        monkeypatch.setattr(theory, "_CHUNK", 128)
        for call in _monte_carlo_calls(100):
            call()
        assert started_threads == []

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(theory, "_CHUNK", 64)
        before = threading.active_count()
        _monte_carlo_outputs(4)
        assert threading.active_count() == before
