"""Classifier, data terms, analytic gradients, method records and update-rule
properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _loss(model, params, feats, filtered=False):
    """The data term by the summation oracle: the mean entropy of the rows of
    ``tta.predict``, with ``filtered`` of the rows below the margin 0.4 ln C
    (0 when none is)."""
    ent = _entropy_per_row(tta.predict(model, params, feats))
    if filtered:
        ent = ent[ent < 0.4 * np.log(model.n_classes)]
    return float(ent.mean()) if ent.size else 0.0


def _grad(model, params, feats, filtered=False):
    return tta.entropy_grad(model, params, feats, filtered)


def _fd_grad(model, params, feats, filtered, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (_loss(model, hi, feats, filtered) - _loss(model, lo, feats, filtered)) / (2 * h)
    return g


def _rel_err(analytic, fd):
    scale = np.maximum(np.abs(fd), 1e-6 * max(1.0, np.abs(fd).max()))
    return float((np.abs(analytic - fd) / scale).max())


def _entropy_per_row(probs):
    """Per-row Shannon entropy by an explicit sum (0 ln 0 := 0)."""
    return np.array([-sum(v * np.log(v) for v in row if v > 0) for row in probs])


TENT = tta.MethodConfig(name="tent")
CONFIDENT = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # gamma = 0, beta = e_0


def _confident_model(gap):
    """Untrained 3-class model (zero head bias) whose logits at ``CONFIDENT``
    are ``[gap, 0, 0]`` on every row."""
    model = tta.AdaptableClassifier(4, 3, 3, seed=0)
    model.head_w = gap * np.eye(3)
    return model


def _mask_margin(model, params, feats):
    """Distance of every row entropy from the filter margin 0.4 ln C."""
    ent = _entropy_per_row(tta.predict(model, params, feats))
    return float(np.abs(ent - 0.4 * np.log(model.n_classes)).min())


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
            tta.tta_step(model, params, ds.inputs[:8], TENT, np.ones(model.param_dim))

    @given(
        stack=st.integers(1, 6),
        rows=st.integers(1, 40),
        scale=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_stacked_slices_equal_single_calls(self, small_model, stack, rows, scale, seed):
        model, params, _ = small_model
        rng = np.random.default_rng(seed)
        stacked_params = params + scale * rng.standard_normal((stack, params.size))
        feats = model.features(rng.standard_normal((stack, rows, model.input_dim)))
        probs = tta.predict(model, stacked_params, feats)
        assert probs.shape == (stack, rows, model.n_classes)
        for i in range(stack):
            single = tta.predict(model, stacked_params[i], feats[i])
            assert probs[i].tobytes() == single.tobytes(), i

    def test_mismatched_stacks_rejected(self, small_model):
        model, params, ds = small_model
        feats = model.features(ds.inputs[:8])
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.predict(model, np.stack([params] * 2), np.stack([feats] * 3))
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.predict(model, np.stack([params] * 2), feats)
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.predict(model, params, feats[0])
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.predict(model, np.stack([params] * 2), feats[0])
        with pytest.raises(InputDomainError, match="features must have shape"):
            tta.entropy_grad(model, params, feats[0], filtered=False)
        with pytest.raises(InputDomainError, match="parameter vector has shape"):
            tta.predict(model, params[None, None], feats[None, None])

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
        loss = _loss(model, np.zeros(model.param_dim), feats)
        assert loss == pytest.approx(np.log(4))

    def test_one_hot_rows(self):
        # A logit gap of 1000 underflows the other classes to exactly 0.
        model = _confident_model(1000.0)
        feats = model.features(np.random.default_rng(2).standard_normal((4, 4)))
        np.testing.assert_array_equal(
            tta.predict(model, CONFIDENT, feats), np.tile([1.0, 0.0, 0.0], (4, 1))
        )
        assert _loss(model, CONFIDENT, feats) == 0.0

class TestSampleFilter:
    """The engine's reliability filter: only rows whose entropy is below the
    margin enter the filtered data term."""

    def test_one_hot_rows_all_pass(self):
        # Near one-hot rows (logit gap 10) sit far below the default margin.
        model = _confident_model(10.0)
        feats = model.features(np.random.default_rng(3).standard_normal((6, 4)))
        assert _loss(model, CONFIDENT, feats, filtered=True) > 0.0
        grad = _grad(model, CONFIDENT, feats, filtered=True)
        assert np.any(grad != 0.0)
        np.testing.assert_array_equal(grad, _grad(model, CONFIDENT, feats))

    def test_uniform_rows_all_fail(self):
        model = tta.AdaptableClassifier(4, 5, 3, seed=0)
        params = np.zeros(model.param_dim)
        feats = model.features(np.random.default_rng(4).standard_normal((6, 4)))
        assert _loss(model, params, feats, filtered=True) == 0.0
        np.testing.assert_array_equal(
            _grad(model, params, feats, filtered=True), np.zeros(model.param_dim)
        )

    def test_mixed_batch_matches_per_row_oracle(self, small_model):
        model, params, ds = small_model
        rng = np.random.default_rng(6)
        p = params + 0.5 * rng.standard_normal(params.size)
        feats = model.features(ds.inputs[:20])
        ent = _entropy_per_row(tta.predict(model, p, feats))
        passed = ent < 0.4 * np.log(3)  # the margin 0.4 ln C
        assert 0 < passed.sum() < len(ent)
        # The filtered gradient is the plain one of the passing rows alone.
        np.testing.assert_allclose(
            _grad(model, p, feats, filtered=True), _grad(model, p, feats[passed]), rtol=1e-12
        )


class TestGradients:
    def test_entropy_gradient_matches_fd_spec_geometry(self, small_model):
        # 8-sample batch, h = 4, |Y| = 3, relative error < 1e-5.
        model, params, _ = small_model
        rng = np.random.default_rng(7)
        feats = model.features(rng.standard_normal((8, 6)) * 2)
        p = params + 0.3 * rng.standard_normal(params.size)
        assert _rel_err(_grad(model, p, feats), _fd_grad(model, p, feats, False)) < 1e-5

    # The anchor and the ensembling never enter the data term, so each kind's
    # gradient is the filtered or the plain entropy gradient, checked on its
    # own random draws.
    @pytest.mark.parametrize("kind", tta.OBJECTIVE_KINDS)
    def test_all_objectives_match_fd(self, small_model, kind):
        model, params, _ = small_model
        filtered = tta.MethodConfig(name="m", kind=kind).filtered
        rng = np.random.default_rng(8 + tta.OBJECTIVE_KINDS.index(kind))
        checked = 0
        trial = 0
        while checked < 10:
            trial += 1
            feats = model.features(rng.standard_normal((8, 6)) * rng.uniform(0.5, 3.0))
            p = params + 0.4 * rng.standard_normal(params.size)
            if filtered and _mask_margin(model, p, feats) < 1e-3:
                assert trial < 200
                continue
            assert _rel_err(
                _grad(model, p, feats, filtered), _fd_grad(model, p, feats, filtered)
            ) < 1e-5
            checked += 1


def plain_log_probs(model, params, feats):
    """``_log_probs`` as plain numpy expressions, each pass a new array."""
    gamma, beta = params[..., : model.hidden], params[..., model.hidden :]
    logits = (gamma[..., None, :] * feats + beta[..., None, :]) @ model.head_w.T + model.head_b
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def plain_entropy_grad(model, params, feats, filtered):
    logp = plain_log_probs(model, params, feats)
    p = np.exp(logp)
    ent = -(p * logp).sum(axis=1)
    dl_du = -p * (logp + ent[:, None])
    if filtered:
        mask = ent < 0.4 * np.log(model.n_classes)
        if not mask.any():
            return np.zeros(2 * model.hidden)
        dl_du[~mask] = 0.0
        dl_du /= int(mask.sum())
    else:
        dl_du /= ent.shape[0]
    grad_act = dl_du @ model.head_w
    return np.concatenate([(grad_act * feats).sum(axis=0), grad_act.sum(axis=0)])


def plain_tta_step(model, params, feats, method, omega):
    grad = plain_entropy_grad(model, params, feats, method.filtered)
    lr, lam, alpha = method.lr, method.fisher_lambda, method.alpha
    theta = params - lr * grad
    if lam:
        shrink = np.clip(1.0 - 2.0 * lam * lr * omega, 0.0, 1.0)
        theta = model.source_params + shrink * (theta - model.source_params)
    if alpha != 1.0:
        theta = alpha * theta + (1.0 - alpha) * model.source_params
    return theta


class TestPlainFormOracle:
    """The prediction, entropy gradient and step, which write into buffers of
    their own, give the bits of their plain expressions."""

    @given(
        kind=st.sampled_from(tta.OBJECTIVE_KINDS),
        reservoir=st.booleans(),
        rows=st.integers(1, 64),
        scale=st.sampled_from([0.0, 0.3, 3.0, 30.0]),
        lr=st.sampled_from([0.0, tta.DEFAULT_TTA_LR, 0.1, 10.0]),
        zeros=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_step_equals_plain_form(
        self, small_model, kind, reservoir, rows, scale, lr, zeros, seed
    ):
        # Large perturbations make confident rows that pass the filter, small
        # ones rows that fail it; a large rate clips the anchor's shrink at 0.
        model, params, ds = small_model
        rng = np.random.default_rng(seed)
        theta = params + scale * rng.standard_normal(params.size)
        feats = model.features(ds.inputs[rng.integers(len(ds.inputs), size=rows)])
        omega = rng.uniform(0.0, 1.0, params.size)
        omega[rng.integers(params.size, size=zeros)] = 0.0
        method = tta.MethodConfig(name="m", kind=kind, reservoir=reservoir, lr=lr)
        for filtered in (False, True):
            got = tta.entropy_grad(model, theta, feats, filtered)
            assert got.tobytes() == plain_entropy_grad(model, theta, feats, filtered).tobytes()
        got = tta.tta_step(model, theta, feats, method, omega)
        assert got.tobytes() == plain_tta_step(model, theta, feats, method, omega).tobytes()
        stack = np.stack([theta, params])
        got = tta.predict(model, stack, np.stack([feats, feats]))
        assert got.tobytes() == np.exp(plain_log_probs(model, stack, feats)).tobytes()


class TestTTAStep:
    def test_zero_lr_identity(self, small_model):
        model, params, ds = small_model
        omega = np.ones(model.param_dim)
        for kind in ("entropy", "filtered_fisher"):
            method = tta.MethodConfig(name="m", kind=kind, lr=0.0)
            out = tta.tta_step(model, params, model.features(ds.inputs[:8]), method, omega)
            np.testing.assert_array_equal(out, params)

    def test_inputs_not_mutated(self, small_model):
        model, params, ds = small_model
        method = tta.MethodConfig(name="m", kind="filtered_fisher", lr=0.1)
        snap, omega = params.copy(), np.ones(model.param_dim)
        tta.tta_step(model, params, model.features(ds.inputs[:8]), method, omega)
        np.testing.assert_array_equal(params, snap)
        np.testing.assert_array_equal(omega, np.ones(model.param_dim))

    def test_fisher_step_equals_entropy_step_plus_interpolation(self, small_model):
        # Per-coordinate equivalence with diagonal weights:
        # alpha_i = 1 - 2 * lam * omega_i * lr, at the method's own lam; the
        # rates keep every alpha_i inside (0, 1).
        model, params, ds = small_model
        rng = np.random.default_rng(9)
        feats = model.features(ds.inputs[:16])
        for reservoir, lam in ((False, 2000.0), (True, 1000.0)):
            for _ in range(10):
                lr = rng.uniform(1e-5, 2e-4)
                omega = rng.uniform(0.1, 1.0, model.param_dim)
                alpha_i = 1 - 2 * lam * omega * lr
                assert np.all((alpha_i > 0) & (alpha_i < 1))
                p = params + 0.5 * rng.standard_normal(params.size)
                fisher = tta.tta_step(
                    model, p, feats,
                    tta.MethodConfig(name="m", kind="fisher_entropy", reservoir=reservoir, lr=lr),
                    omega,
                )
                hat = tta.tta_step(
                    model, p, feats, tta.MethodConfig(name="m", lr=lr), omega
                )
                interp = alpha_i * hat + (1 - alpha_i) * model.source_params
                assert np.abs(fisher - interp).max() < 1e-12

    def test_weight_ensembling_contracts_geometrically(self, small_model):
        # A zero learning rate makes the data step exactly zero; the
        # iteration must then contract to the source with ratio alpha per step.
        model, params, ds = small_model
        start = params + np.linspace(1.0, 2.0, params.size)
        feats = model.features(ds.inputs[:8])
        omega = np.ones(model.param_dim)
        for reservoir, alpha in ((False, 0.99), (True, 0.995)):
            method = tta.MethodConfig(
                name="m", kind="filtered_ensemble", reservoir=reservoir, lr=0.0
            )
            theta = start.copy()
            for t in range(1, 51):
                theta = tta.tta_step(model, theta, feats, method, omega)
                expect = model.source_params + alpha**t * (start - model.source_params)
                np.testing.assert_allclose(theta, expect, rtol=1e-9, atol=1e-12)

    def test_filtering_reduces_gradient_variance(self):
        # Mixed-reliability draws: blob-core samples plus fuzzy inter-class
        # mixtures with erratic high-entropy gradients. Variance of the
        # filtered batch gradient must not exceed the unfiltered one.
        ds = stream.make_source_dataset(3, 300, 6, seed=12, separation=7.0)
        model = tta.train_source(12, (ds.inputs, ds.labels), epochs=25, lr=0.05, hidden=8)
        params = model.source_params
        rng = np.random.default_rng(10)
        means = ds.blob.class_means
        draws_u, draws_f = [], []
        for _ in range(400):
            easy, _ = ds.blob.sample(rng, 48)
            pair = rng.integers(0, 3, size=(16, 2))
            fuzzy = 0.5 * (means[pair[:, 0]] + means[pair[:, 1]])
            fuzzy = fuzzy + 1.5 * rng.standard_normal((16, 6))
            feats = model.features(np.vstack([easy, fuzzy]))
            draws_u.append(_grad(model, params, feats))
            draws_f.append(_grad(model, params, feats, filtered=True))
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
        g = _grad(model, model.source_params, model.features(batch))
        np.testing.assert_allclose(tta.estimate_fisher(model, [batch]), g**2, rtol=1e-12)

    def test_matches_accumulate_and_divide_oracle(self, small_model):
        model, _, ds = small_model
        rng = np.random.default_rng(11)
        batches = [ds.blob.sample(rng, 16)[0] for _ in range(10)]
        acc = np.zeros(model.param_dim)
        for b in batches:
            g = _grad(model, model.source_params, model.features(b))
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


class TestMethodConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="^kind: unknown objective 'mystery'$"):
            tta.MethodConfig(name="m", kind="mystery")

    @pytest.mark.parametrize("lr", [-1e-3, float("nan")], ids=["negative", "nan"])
    def test_bad_lr(self, lr):
        with pytest.raises(ConfigurationError, match="^lr: must be finite and >= 0$"):
            tta.MethodConfig(name="m", lr=lr)

    def test_default_regimes(self):
        # (kind, reservoir) -> (filtered, fisher_lambda, alpha)
        table = {
            ("entropy", False): (False, 0.0, 1.0),
            ("entropy", True): (False, 0.0, 1.0),
            ("filtered_entropy", False): (True, 0.0, 1.0),
            ("filtered_entropy", True): (True, 0.0, 1.0),
            ("fisher_entropy", False): (False, 2000.0, 1.0),
            ("fisher_entropy", True): (False, 1000.0, 1.0),
            ("weight_ensemble_entropy", False): (False, 0.0, 0.99),
            ("weight_ensemble_entropy", True): (False, 0.0, 0.995),
            ("filtered_fisher", False): (True, 2000.0, 1.0),
            ("filtered_fisher", True): (True, 1000.0, 1.0),
            ("filtered_ensemble", False): (True, 0.0, 0.99),
            ("filtered_ensemble", True): (True, 0.0, 0.995),
        }
        assert {kind for kind, _ in table} == set(tta.OBJECTIVE_KINDS)
        for (kind, reservoir), regime in table.items():
            m = tta.MethodConfig(name="m", kind=kind, reservoir=reservoir)
            assert (m.filtered, m.fisher_lambda, m.alpha) == regime, (kind, reservoir)
