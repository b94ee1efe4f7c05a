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
    model = tta.train_source(12, (ds.inputs, ds.labels), epochs=10, lr=0.05, hidden=4)
    return model, model.source_params.copy(), ds


def _fd_grad(model, params, feats, cfg, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (
            tta.objective_loss(model, hi, feats, cfg)
            - tta.objective_loss(model, lo, feats, cfg)
        ) / (2 * h)
    return g


def _rel_err(analytic, fd):
    scale = np.maximum(np.abs(fd), 1e-6 * max(1.0, np.abs(fd).max()))
    return float((np.abs(analytic - fd) / scale).max())


def _entropy_per_row(probs):
    """Per-row Shannon entropy by an explicit sum (0 ln 0 := 0)."""
    return np.array([-sum(v * np.log(v) for v in row if v > 0) for row in probs])


ENTROPY = tta.TTAObjectiveConfig(kind="entropy")
FILTERED = tta.TTAObjectiveConfig(kind="filtered_entropy")
CONFIDENT = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # gamma = 0, beta = e_0


def _confident_model(gap):
    """Untrained 3-class model (zero head bias) whose logits at ``CONFIDENT``
    are ``[gap, 0, 0]`` on every row."""
    model = tta.AdaptableClassifier(4, 3, 3, seed=0)
    model.head_w = gap * np.eye(3)
    return model


def _mask_margin(model, params, feats, cfg):
    """Distance of every row entropy from the filter margin."""
    ent = _entropy_per_row(tta.predict(model, params, feats))
    return float(np.abs(ent - tta.resolve_margin(cfg, model.n_classes)).min())


class TestPredict:
    def test_identity_affine_matches_source(self, small_model):
        model, params, ds = small_model
        feats = model.features(ds.inputs[:16])
        np.testing.assert_array_equal(
            tta.predict(model, model.source_params, feats),
            tta.predict(model, params, feats),
        )

    def test_zeroed_params_give_constant_rows(self, small_model):
        model, _, ds = small_model
        probs = tta.predict(model, np.zeros(model.param_dim), model.features(ds.inputs[:8]))
        bias = np.exp(model.head_b) / np.exp(model.head_b).sum()
        for row in probs:
            np.testing.assert_allclose(row, bias, rtol=1e-12)

    def test_rows_sum_to_one_and_deterministic(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(3)
        p = params + 0.5 * rng.standard_normal(params.size)
        feats = model.features(ds.inputs[:32])
        a = tta.predict(model, p, feats)
        b = tta.predict(model, p, feats)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_matmul_softmax_oracle(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(4)
        p = params + rng.standard_normal(params.size)
        feats = model.features(ds.inputs[:8])
        probs = tta.predict(model, p, feats)
        logits = (p[:4] * feats + p[4:]) @ model.head_w.T + model.head_b
        expect = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, expect, rtol=1e-12)

    def test_raw_batch_in_place_of_features_rejected(self, small_model):
        # The batch has 6 input columns, the features h = 4.
        model, params, ds = small_model
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.predict(model, params, ds.inputs[:8])
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.tta_step(model, params, ds.inputs[:8], ENTROPY)

    def test_nonfinite_logits_rejected(self, small_model):
        model, _, ds = small_model
        # The huge head overflows the logits on purpose.
        with pytest.warns(RuntimeWarning), pytest.raises(NumericalError):
            tta.predict(
                model, np.full(model.param_dim, 1e308), model.features(ds.inputs[:4])
            )


class TestEntropyLoss:
    """The engine's data term: the mean Shannon entropy of the predictions."""

    def test_uniform_rows(self):
        # An untrained head has zero bias: zero parameters give uniform rows.
        model = tta.AdaptableClassifier(4, 4, 3, seed=0)
        feats = model.features(np.random.default_rng(1).standard_normal((5, 4)))
        loss = tta.objective_loss(model, np.zeros(model.param_dim), feats, ENTROPY)
        assert loss == pytest.approx(np.log(4))

    def test_one_hot_rows(self):
        # A logit gap of 1000 underflows the other classes to exactly 0.
        model = _confident_model(1000.0)
        feats = model.features(np.random.default_rng(2).standard_normal((4, 4)))
        np.testing.assert_array_equal(
            tta.predict(model, CONFIDENT, feats), np.tile([1.0, 0.0, 0.0], (4, 1))
        )
        assert tta.objective_loss(model, CONFIDENT, feats, ENTROPY) == 0.0

    def test_matches_summation_oracle(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(5)
        p = params + 0.5 * rng.standard_normal(params.size)
        feats = model.features(ds.inputs[:10])
        oracle = _entropy_per_row(tta.predict(model, p, feats)).mean()
        loss = tta.objective_loss(model, p, feats, ENTROPY)
        assert loss == pytest.approx(oracle, rel=1e-12)


class TestSampleFilter:
    """The engine's reliability filter: only rows whose entropy is below the
    margin enter the filtered data term."""

    def test_one_hot_rows_all_pass(self):
        # Near one-hot rows (logit gap 10) sit far below the default margin.
        model = _confident_model(10.0)
        feats = model.features(np.random.default_rng(3).standard_normal((6, 4)))
        loss = tta.objective_loss(model, CONFIDENT, feats, FILTERED)
        assert loss > 0.0
        assert loss == tta.objective_loss(model, CONFIDENT, feats, ENTROPY)

    def test_uniform_rows_all_fail(self):
        model = tta.AdaptableClassifier(4, 5, 3, seed=0)
        params = np.zeros(model.param_dim)
        feats = model.features(np.random.default_rng(4).standard_normal((6, 4)))
        assert tta.objective_loss(model, params, feats, FILTERED) == 0.0
        grad = tta.objective_grad(model, params, feats, FILTERED)
        np.testing.assert_array_equal(grad, np.zeros(model.param_dim))

    def test_mixed_batch_matches_per_row_oracle(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(6)
        p = params + 0.5 * rng.standard_normal(params.size)
        feats = model.features(ds.inputs[:20])
        ent = _entropy_per_row(tta.predict(model, p, feats))
        ranked = np.sort(ent)
        margin = 0.5 * (ranked[9] + ranked[10])  # half the rows pass
        cfg = tta.TTAObjectiveConfig(kind="filtered_entropy", entropy_margin=margin)
        passed = [e for e in ent if e < margin]
        assert len(passed) == 10
        oracle = sum(passed) / len(passed)
        assert tta.objective_loss(model, p, feats, cfg) == pytest.approx(oracle, rel=1e-12)

    def test_margin_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="entropy_margin: must be > 0"):
            tta.TTAObjectiveConfig(kind="filtered_entropy", entropy_margin=0.0)


class TestGradients:
    def test_entropy_gradient_matches_fd_spec_geometry(self, small_model):
        # 8-sample batch, h = 4, |Y| = 3, relative error < 1e-5.
        model, params, _ = small_model
        rng = np.random.default_rng(7)
        feats = model.features(rng.standard_normal((8, 6)) * 2)
        cfg = tta.TTAObjectiveConfig(kind="entropy")
        p = params + 0.3 * rng.standard_normal(params.size)
        assert _rel_err(tta.objective_grad(model, p, feats, cfg), _fd_grad(model, p, feats, cfg)) < 1e-5

    @pytest.mark.parametrize("kind", tta.OBJECTIVE_KINDS)
    def test_all_objectives_match_fd(self, small_model, kind):
        model, params, _ = small_model
        rng = np.random.default_rng(hash(kind) % 2**31)
        checked = 0
        trial = 0
        while checked < 10:
            trial += 1
            feats = model.features(rng.standard_normal((8, 6)) * rng.uniform(0.5, 3.0))
            omega = np.abs(rng.standard_normal(model.param_dim))
            cfg = tta.TTAObjectiveConfig(
                kind=kind, fisher_lambda=0.5, fisher_omega=omega, alpha=0.9
            )
            p = params + 0.4 * rng.standard_normal(params.size)
            if cfg.filtered and _mask_margin(model, p, feats, cfg) < 1e-3:
                assert trial < 200
                continue
            assert _rel_err(
                tta.objective_grad(model, p, feats, cfg),
                _fd_grad(model, p, feats, cfg),
            ) < 1e-5
            checked += 1

    def test_empty_filter_mask_gives_zero_gradient(self, small_model):
        model, params, _ = small_model
        cfg = tta.TTAObjectiveConfig(kind="filtered_entropy", entropy_margin=1e-9)
        feats = model.features(np.random.default_rng(8).standard_normal((6, 6)))
        grad = tta.objective_grad(model, params, feats, cfg)
        np.testing.assert_array_equal(grad, np.zeros_like(params))
        assert tta.objective_loss(model, params, feats, cfg) == 0.0


class TestTTAStep:
    def test_zero_lr_identity(self, small_model):
        model, params, ds = small_model
        for kind in ("entropy", "filtered_fisher"):
            cfg = tta.TTAObjectiveConfig(kind=kind, lr=0.0, fisher_lambda=5.0)
            out = tta.tta_step(model, params, model.features(ds.inputs[:8]), cfg)
            np.testing.assert_array_equal(out, params)

    def test_alpha_zero_returns_source(self, small_model):
        model, params, ds = small_model
        cfg = tta.TTAObjectiveConfig(kind="weight_ensemble_entropy", lr=0.1, alpha=0.0)
        start = params + 3.0
        out = tta.tta_step(model, start, model.features(ds.inputs[:8]), cfg)
        np.testing.assert_array_equal(out, model.source_params)

    def test_inputs_not_mutated(self, small_model):
        model, params, ds = small_model
        cfg = tta.TTAObjectiveConfig(kind="entropy", lr=0.1)
        snap = params.copy()
        tta.tta_step(model, params, model.features(ds.inputs[:8]), cfg)
        np.testing.assert_array_equal(params, snap)

    def test_fisher_step_equals_entropy_step_plus_interpolation(self, small_model):
        # Per-coordinate equivalence with diagonal weights:
        # alpha_i = 1 - 2 * lam * omega_i * lr.
        model, params, ds = small_model
        rng = np.random.default_rng(9)
        feats = model.features(ds.inputs[:16])
        for _ in range(20):
            lam, lr = rng.uniform(0.05, 2.0), rng.uniform(0.001, 0.1)
            omega = rng.uniform(0.0, 1.0, model.param_dim)
            alpha_i = 1 - 2 * lam * omega * lr
            assert np.all(alpha_i > 0)
            p = params + 0.5 * rng.standard_normal(params.size)
            fisher = tta.tta_step(
                model, p, feats,
                tta.TTAObjectiveConfig(kind="fisher_entropy", lr=lr,
                                       fisher_lambda=lam, fisher_omega=omega),
            )
            hat = tta.tta_step(
                model, p, feats, tta.TTAObjectiveConfig(kind="entropy", lr=lr)
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
        feats = model.features(ds.inputs[:8])
        theta = start.copy()
        for t in range(1, 51):
            theta = tta.tta_step(model, theta, feats, cfg)
            expect = model.source_params + alpha**t * (start - model.source_params)
            np.testing.assert_allclose(theta, expect, rtol=1e-9, atol=1e-12)

    def test_filtering_reduces_gradient_variance(self):
        # Mixed-reliability draws: blob-core samples plus fuzzy inter-class
        # mixtures with erratic high-entropy gradients. Variance of the
        # filtered batch gradient must not exceed the unfiltered one.
        ds = stream.make_source_dataset(3, 300, 6, seed=12, separation=7.0)
        model = tta.train_source(12, (ds.inputs, ds.labels), epochs=25, lr=0.05, hidden=8)
        params = model.source_params
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
            feats = model.features(np.vstack([easy, fuzzy]))
            draws_u.append(tta.objective_grad(model, params, feats, cfg_u))
            draws_f.append(tta.objective_grad(model, params, feats, cfg_f))
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
            model, model.source_params, model.features(batch), ENTROPY
        )
        np.testing.assert_allclose(tta.estimate_fisher(model, [batch]), g**2, rtol=1e-12)

    def test_matches_accumulate_and_divide_oracle(self, small_model):
        model, _, ds = small_model
        rng = np.random.default_rng(11)
        batches = [ds.blob.sample(rng, 16)[0] for _ in range(10)]
        acc = np.zeros(model.param_dim)
        for b in batches:
            g = tta.objective_grad(
                model, model.source_params, model.features(b), ENTROPY
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
        model = tta.train_source(3, (ds.inputs, ds.labels), epochs=10, lr=0.05)
        held_x, held_y = ds.blob.sample(np.random.default_rng(99), 2000)
        probs = tta.predict(model, model.source_params, model.features(held_x))
        acc = (probs.argmax(axis=1) == held_y).mean()
        assert acc >= 0.99

    def test_default_config_reaches_90_percent(self, context, default_config):
        model = context.model
        held_x, held_y = context.blob.sample(np.random.default_rng(171), 2000)
        acc = (
            tta.predict(model, model.source_params, model.features(held_x)).argmax(axis=1)
            == held_y
        ).mean()
        assert acc >= 0.90

    def test_zero_epochs_returns_initialization(self):
        ds = stream.make_source_dataset(3, 50, 5, seed=4)
        model = tta.train_source(4, (ds.inputs, ds.labels), epochs=0, lr=0.1)
        np.testing.assert_array_equal(model.source_params, tta.init_params(model.hidden))
        fresh = tta.AdaptableClassifier(5, 3, model.hidden, 4)
        np.testing.assert_array_equal(model.head_w, fresh.head_w)

    def test_fixed_seed_bit_identical(self):
        ds = stream.make_source_dataset(3, 80, 5, seed=5)
        m1 = tta.train_source(5, (ds.inputs, ds.labels), epochs=4, lr=0.05)
        m2 = tta.train_source(5, (ds.inputs, ds.labels), epochs=4, lr=0.05)
        np.testing.assert_array_equal(m1.source_params, m2.source_params)
        np.testing.assert_array_equal(m1.head_w, m2.head_w)

    def test_divergence_raises(self):
        ds = stream.make_source_dataset(2, 40, 4, seed=6)
        # The huge rate overflows the parameters on purpose.
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingError):
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
