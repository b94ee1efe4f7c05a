"""Classifier, objectives, analytic gradients, and update-rule properties."""

import numpy as np
import pytest

from reservoir_tta import stream, tta
from reservoir_tta.errors import (
    ConfigurationError,
    InputDomainError,
    InsufficientDataError,
    NumericalError,
    TrainingError,
)


@pytest.fixture(scope="module")
def small_model():
    """Trained 3-class classifier with h = 4 (the FD-test geometry)."""
    ds = stream.make_source_dataset(3, 200, 6, seed=12, separation=7.0)
    model, params = tta.train_source(12, (ds.inputs, ds.labels), epochs=10, lr=0.05, hidden=4)
    return model, params, ds


def _fd_grad(model, params, batch, cfg, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (
            tta.objective_loss(model, hi, batch, cfg)
            - tta.objective_loss(model, lo, batch, cfg)
        ) / (2 * h)
    return g


def _rel_err(analytic, fd):
    scale = np.maximum(np.abs(fd), 1e-6 * max(1.0, np.abs(fd).max()))
    return float((np.abs(analytic - fd) / scale).max())


def _mask_margin(model, params, batch, cfg):
    """Distance of every row entropy from the filter margin."""
    probs = tta.predict(model, params, batch)
    ent = tta.row_entropies(probs)
    return float(np.abs(ent - tta.resolve_margin(cfg, model.n_classes)).min())


class TestPredict:
    def test_identity_affine_matches_source(self, small_model):
        model, params, ds = small_model
        batch = ds.inputs[:16]
        np.testing.assert_array_equal(
            tta.predict(model, model.source_params, batch),
            tta.predict(model, params, batch),
        )

    def test_zeroed_params_give_constant_rows(self, small_model):
        model, _, ds = small_model
        probs = tta.predict(model, np.zeros(model.param_dim), ds.inputs[:8])
        bias = np.exp(model.head_b) / np.exp(model.head_b).sum()
        for row in probs:
            np.testing.assert_allclose(row, bias, rtol=1e-12)

    def test_rows_sum_to_one_and_deterministic(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(3)
        p = params + 0.5 * rng.standard_normal(params.size)
        a = tta.predict(model, p, ds.inputs[:32])
        b = tta.predict(model, p, ds.inputs[:32])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_matmul_softmax_oracle(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(4)
        p = params + rng.standard_normal(params.size)
        batch = ds.inputs[:8]
        probs = tta.predict(model, p, batch)
        feats = model.features(batch)
        logits = (p[:4] * feats + p[4:]) @ model.head_w.T + model.head_b
        expect = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, expect, rtol=1e-12)

    def test_nonfinite_logits_rejected(self, small_model):
        model, _, ds = small_model
        with pytest.raises(NumericalError):
            tta.predict(model, np.full(model.param_dim, 1e308), ds.inputs[:4])


class TestEntropyLoss:
    def test_uniform_rows(self):
        assert tta.entropy_loss(np.full((5, 4), 0.25)) == pytest.approx(np.log(4))

    def test_one_hot_rows(self):
        assert tta.entropy_loss(np.eye(4)) == 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.random((10, 6)) + 1e-9
        probs = raw / raw.sum(axis=1, keepdims=True)
        acc = 0.0
        for row in probs:
            acc += -sum(p * np.log(p) for p in row)
        assert tta.entropy_loss(probs) == pytest.approx(acc / 10, rel=1e-12)


class TestSampleFilter:
    def test_one_hot_rows_all_pass(self):
        assert tta.sample_filter(np.eye(4), 0.01).tolist() == [1, 1, 1, 1]

    def test_uniform_rows_all_fail(self):
        probs = np.full((6, 5), 0.2)
        margin = 0.4 * np.log(5)
        assert tta.sample_filter(probs, margin).tolist() == [0] * 6

    def test_mixed_batch_matches_per_row_oracle(self):
        rng = np.random.default_rng(6)
        raw = rng.random((20, 5)) ** 4 + 1e-9
        probs = raw / raw.sum(axis=1, keepdims=True)
        margin = 0.7
        mask = tta.sample_filter(probs, margin)
        for i, row in enumerate(probs):
            ent = -sum(p * np.log(p) for p in row)
            assert mask[i] == (1 if ent < margin else 0)

    def test_margin_must_be_positive(self):
        with pytest.raises(InputDomainError):
            tta.sample_filter(np.eye(3), 0.0)


class TestGradients:
    def test_entropy_gradient_matches_fd_spec_geometry(self, small_model):
        # 8-sample batch, h = 4, |Y| = 3, relative error < 1e-5.
        model, params, _ = small_model
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((8, 6)) * 2
        cfg = tta.TTAObjectiveConfig(kind="entropy")
        p = params + 0.3 * rng.standard_normal(params.size)
        assert _rel_err(tta.objective_grad(model, p, batch, cfg), _fd_grad(model, p, batch, cfg)) < 1e-5

    @pytest.mark.parametrize("kind", tta.OBJECTIVE_KINDS)
    def test_all_objectives_match_fd(self, small_model, kind):
        model, params, _ = small_model
        rng = np.random.default_rng(hash(kind) % 2**31)
        checked = 0
        trial = 0
        while checked < 10:
            trial += 1
            batch = rng.standard_normal((8, 6)) * rng.uniform(0.5, 3.0)
            omega = np.abs(rng.standard_normal(model.param_dim))
            cfg = tta.TTAObjectiveConfig(
                kind=kind, fisher_lambda=0.5, fisher_omega=omega, alpha=0.9
            )
            p = params + 0.4 * rng.standard_normal(params.size)
            if cfg.filtered and _mask_margin(model, p, batch, cfg) < 1e-3:
                assert trial < 200
                continue
            assert _rel_err(
                tta.objective_grad(model, p, batch, cfg),
                _fd_grad(model, p, batch, cfg),
            ) < 1e-5
            checked += 1

    def test_empty_filter_mask_gives_zero_gradient(self, small_model):
        model, params, _ = small_model
        cfg = tta.TTAObjectiveConfig(kind="filtered_entropy", entropy_margin=1e-9)
        batch = np.random.default_rng(8).standard_normal((6, 6))
        grad = tta.objective_grad(model, params, batch, cfg)
        np.testing.assert_array_equal(grad, np.zeros_like(params))
        assert tta.objective_loss(model, params, batch, cfg) == 0.0


class TestTTAStep:
    def test_zero_lr_identity(self, small_model):
        model, params, ds = small_model
        for kind in ("entropy", "filtered_fisher"):
            cfg = tta.TTAObjectiveConfig(kind=kind, lr=0.0, fisher_lambda=5.0)
            out = tta.tta_step(model, params, ds.inputs[:8], cfg)
            np.testing.assert_array_equal(out, params)

    def test_alpha_zero_returns_source(self, small_model):
        model, params, ds = small_model
        cfg = tta.TTAObjectiveConfig(kind="weight_ensemble_entropy", lr=0.1, alpha=0.0)
        start = params + 3.0
        out = tta.tta_step(model, start, ds.inputs[:8], cfg)
        np.testing.assert_array_equal(out, model.source_params)

    def test_inputs_not_mutated(self, small_model):
        model, params, ds = small_model
        cfg = tta.TTAObjectiveConfig(kind="entropy", lr=0.1)
        snap = params.copy()
        tta.tta_step(model, params, ds.inputs[:8], cfg)
        np.testing.assert_array_equal(params, snap)

    def test_fisher_step_equals_entropy_step_plus_interpolation(self, small_model):
        # Per-coordinate equivalence with diagonal weights:
        # alpha_i = 1 - 2 * lam * omega_i * lr.
        model, params, ds = small_model
        rng = np.random.default_rng(9)
        batch = ds.inputs[:16]
        for _ in range(20):
            lam, lr = rng.uniform(0.05, 2.0), rng.uniform(0.001, 0.1)
            omega = rng.uniform(0.0, 1.0, model.param_dim)
            alpha_i = 1 - 2 * lam * omega * lr
            assert np.all(alpha_i > 0)
            p = params + 0.5 * rng.standard_normal(params.size)
            fisher = tta.tta_step(
                model, p, batch,
                tta.TTAObjectiveConfig(kind="fisher_entropy", lr=lr,
                                       fisher_lambda=lam, fisher_omega=omega),
            )
            hat = tta.tta_step(
                model, p, batch, tta.TTAObjectiveConfig(kind="entropy", lr=lr)
            )
            interp = alpha_i * hat + (1 - alpha_i) * model.source_params
            assert np.abs(fisher - interp).max() < 1e-12

    def test_weight_ensembling_contracts_geometrically(self, small_model):
        # A margin that filters out every sample makes the data gradient
        # exactly zero; the iteration must then contract to the source with
        # ratio alpha per step.
        model, params, ds = small_model
        alpha = 0.9
        cfg = tta.TTAObjectiveConfig(
            kind="filtered_ensemble", lr=0.5, alpha=alpha, entropy_margin=1e-12
        )
        start = params + np.linspace(1.0, 2.0, params.size)
        theta = start.copy()
        for t in range(1, 51):
            theta = tta.tta_step(model, theta, ds.inputs[:8], cfg)
            expect = model.source_params + alpha**t * (start - model.source_params)
            np.testing.assert_allclose(theta, expect, rtol=1e-9, atol=1e-12)

    def test_filtering_reduces_gradient_variance(self):
        # Mixed-reliability draws: blob-core samples plus fuzzy inter-class
        # mixtures with erratic high-entropy gradients. Variance of the
        # filtered batch gradient must not exceed the unfiltered one.
        ds = stream.make_source_dataset(3, 300, 6, seed=12, separation=7.0)
        model, params = tta.train_source(
            12, (ds.inputs, ds.labels), epochs=25, lr=0.05, hidden=8
        )
        cfg_u = tta.TTAObjectiveConfig(kind="entropy")
        cfg_f = tta.TTAObjectiveConfig(kind="filtered_entropy")
        rng = np.random.default_rng(10)
        means = ds.blob.class_means
        draws_u, draws_f = [], []
        for _ in range(400):
            easy, _ = ds.blob.sample(rng, 48)
            pair = rng.integers(0, 3, size=(16, 2))
            fuzzy = 0.5 * (means[pair[:, 0]] + means[pair[:, 1]])
            fuzzy = fuzzy + 1.5 * rng.standard_normal((16, 6))
            batch = np.vstack([easy, fuzzy])
            draws_u.append(tta.objective_grad(model, params, batch, cfg_u))
            draws_f.append(tta.objective_grad(model, params, batch, cfg_f))
        gu, gf = np.stack(draws_u), np.stack(draws_f)

        def trace_var(g):
            return g.var(axis=0, ddof=1).sum()

        # Group the draws to get a Monte-Carlo error bar on the difference.
        groups_u = gu.reshape(10, 40, -1)
        groups_f = gf.reshape(10, 40, -1)
        diffs = np.array(
            [trace_var(u) - trace_var(f) for u, f in zip(groups_u, groups_f)]
        )
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert trace_var(gf) <= trace_var(gu) + 3 * se
        # The construction should show a real reduction, not a tie.
        assert trace_var(gf) < trace_var(gu)


class TestEstimateFisher:
    def test_zero_gradient_coordinates_give_zero_omega(self, small_model):
        model, _, ds = small_model
        import copy

        clone = copy.deepcopy(model)
        clone.head_w[:, 2] = 0.0  # feature 2 unused by the head
        omega = tta.estimate_fisher(clone, [ds.inputs[:32], ds.inputs[32:64]])
        assert omega[2] == 0.0  # gamma_2
        assert omega[4 + 2] == 0.0  # beta_2

    def test_single_batch_is_square_of_gradient(self, small_model):
        model, _, ds = small_model
        batch = ds.inputs[:32]
        g = tta.objective_grad(
            model, model.source_params, batch, tta.TTAObjectiveConfig(kind="entropy")
        )
        np.testing.assert_allclose(tta.estimate_fisher(model, [batch]), g**2, rtol=1e-12)

    def test_matches_accumulate_and_divide_oracle(self, small_model):
        model, _, ds = small_model
        rng = np.random.default_rng(11)
        batches = [ds.blob.sample(rng, 16)[0] for _ in range(10)]
        acc = np.zeros(model.param_dim)
        for b in batches:
            g = tta.objective_grad(
                model, model.source_params, b, tta.TTAObjectiveConfig(kind="entropy")
            )
            acc += g**2
        np.testing.assert_allclose(
            tta.estimate_fisher(model, batches), acc / 10, rtol=1e-12
        )

    def test_empty_rejected(self, small_model):
        model, _, _ = small_model
        with pytest.raises(InsufficientDataError):
            tta.estimate_fisher(model, [])


class TestTrainSource:
    def test_separable_blobs_reach_99_percent(self):
        ds = stream.make_source_dataset(2, 300, 8, seed=3, separation=10.0)
        model, params = tta.train_source(3, (ds.inputs, ds.labels), epochs=10, lr=0.05)
        held_x, held_y = ds.blob.sample(np.random.default_rng(99), 2000)
        acc = (tta.predict(model, params, held_x).argmax(axis=1) == held_y).mean()
        assert acc >= 0.99

    def test_default_config_reaches_90_percent(self, context, default_config):
        held_x, held_y = context.blob.sample(np.random.default_rng(171), 2000)
        acc = (
            tta.predict(context.model, context.source_params, held_x).argmax(axis=1)
            == held_y
        ).mean()
        assert acc >= 0.90

    def test_zero_epochs_returns_initialization(self):
        ds = stream.make_source_dataset(3, 50, 5, seed=4)
        model, params = tta.train_source(4, (ds.inputs, ds.labels), epochs=0, lr=0.1)
        np.testing.assert_array_equal(params, tta.init_params(model.hidden))
        fresh = tta.AdaptableClassifier(5, 3, model.hidden, 4)
        np.testing.assert_array_equal(model.head_w, fresh.head_w)

    def test_fixed_seed_bit_identical(self):
        ds = stream.make_source_dataset(3, 80, 5, seed=5)
        m1, p1 = tta.train_source(5, (ds.inputs, ds.labels), epochs=4, lr=0.05)
        m2, p2 = tta.train_source(5, (ds.inputs, ds.labels), epochs=4, lr=0.05)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(m1.head_w, m2.head_w)

    def test_divergence_raises(self):
        ds = stream.make_source_dataset(2, 40, 4, seed=6)
        with pytest.raises(TrainingError):
            tta.train_source(6, (ds.inputs, ds.labels), epochs=60, lr=1e6)


class TestObjectiveConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            tta.TTAObjectiveConfig(kind="mystery")

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            tta.TTAObjectiveConfig(kind="weight_ensemble_entropy", alpha=1.5)

    def test_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            tta.TTAObjectiveConfig(kind="fisher_entropy", fisher_lambda=-1.0)

    def test_negative_omega(self):
        with pytest.raises(ConfigurationError):
            tta.TTAObjectiveConfig(kind="fisher_entropy", fisher_omega=np.array([-1.0]))

    def test_default_regimes(self):
        assert tta.default_anchoring("filtered_fisher", reservoir=False) == (2000.0, 1.0)
        assert tta.default_anchoring("filtered_fisher", reservoir=True) == (1000.0, 1.0)
        assert tta.default_anchoring("filtered_ensemble", reservoir=False) == (0.0, 0.99)
        assert tta.default_anchoring("filtered_ensemble", reservoir=True) == (0.0, 0.995)
        assert tta.default_anchoring("entropy", reservoir=True) == (0.0, 1.0)
