"""The set-up stage (calibration styles, threshold, domain checks) against
the per-row and per-batch code it replaced.

``reference_threshold`` is the former ``calibrate_threshold``: one distance
row per style, every distance concatenated and fully sorted.
``reference_style`` is the former single-batch ``extract_style``, and the
``reference_*`` loops draw and extract one batch at a time, as
``config.calibration_styles`` and ``stream.domain_style_mean`` did.
``reference_make_domains`` checks a pool one candidate at a time, and
``reference_train_source`` computes each minibatch's features alone. The
library must agree with every one of them bit for bit.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reservoir_tta import config, stream, tta
from reservoir_tta.style import (
    VAR_FLOOR,
    FeatureExtractor,
    calibrate_threshold,
    extract_style,
)


def reference_threshold(styles, quantile):
    styles = np.asarray(styles, dtype=np.float64)
    n = styles.shape[0]
    blocks = [
        np.sqrt(((styles[i + 1 :] - styles[i]) ** 2).sum(axis=1)) for i in range(n - 1)
    ]
    dists = np.sort(np.concatenate(blocks))
    rank = int(np.ceil(quantile * dists.size))
    return float(dists[rank - 1])


def reference_style(batch, extractor):
    x = np.asarray(batch, dtype=np.float64)
    parts = []
    for w, b in zip(extractor._weights, extractor._biases):
        x = np.tanh(x @ w.T + b)
        parts.append(np.log(np.maximum(x.var(axis=0), VAR_FLOOR)))
    return np.concatenate(parts)


def reference_calibration_styles(blob, extractor, count):
    styles = []
    for i in range(count):
        rng = np.random.default_rng((config.STYLE_SEED, config._TAG_CALIBRATION, i))
        x, _ = blob.sample(rng, config.CALIBRATION_BATCH_SIZE)
        styles.append(reference_style(x, extractor))
    return np.stack(styles)


def reference_domain_style_mean(domain, blob, extractor, batch_size, batches, seed_key):
    styles = []
    for i in range(batches):
        rng = np.random.default_rng((*seed_key, i))
        x, _ = blob.sample(rng, batch_size)
        noise = rng.standard_normal(x.shape)
        styles.append(reference_style(domain.apply(x, noise), extractor))
    return np.mean(styles, axis=0)


def reference_make_domains(count, severity, seed, blob, extractor, tau, source_mean, batch_size):
    for attempt in range(stream.DOMAIN_MAX_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        points = stream._sphere_points(8 * count, rng)
        tiers = np.array([-0.8, 0.0, 0.0]) + np.array([0.9, 1.0, 1.0]) * points
        pool = [stream._draw_domain(severity, rng, blob.input_dim, tier=t) for t in tiers]
        means = np.stack(
            [
                reference_domain_style_mean(
                    d, blob, extractor, batch_size, stream.DOMAIN_STYLE_BATCHES,
                    (seed, stream._TAG_DOMAIN_CHECK, attempt, k),
                )
                for k, d in enumerate(pool)
            ]
        )
        chosen, closest = stream._farthest_point_subset(means, count, source_mean)
        if closest > stream.MIN_SEPARATION_FACTOR * tau:
            return [pool[i] for i in chosen]
    raise AssertionError("no pool accepted")


def reference_train_source(seed, inputs, labels, epochs, lr, hidden=32):
    model = tta.AdaptableClassifier(inputs.shape[1], int(labels.max()) + 1, hidden, seed)
    params = tta.init_params(hidden)
    rng = np.random.default_rng(seed + 1)
    onehot = np.eye(model.n_classes)[labels]
    for _ in range(epochs):
        order = rng.permutation(inputs.shape[0])
        for start in range(0, inputs.shape[0], tta.SOURCE_BATCH_SIZE):
            idx = order[start : start + tta.SOURCE_BATCH_SIZE]
            raw = np.tanh(inputs[idx] @ model._w_feat.T + model._b_feat)
            feats = (raw - raw.mean(axis=0)) / (raw.std(axis=0) + model.BN_EPS)
            act = params[:hidden] * feats + params[hidden:]
            logp = tta.log_softmax(act @ model.head_w.T + model.head_b)
            dl_du = (np.exp(logp) - onehot[idx]) / idx.size
            grad_act = dl_du @ model.head_w
            model.head_w -= lr * (dl_du.T @ act)
            model.head_b -= lr * dl_du.sum(axis=0)
            params = params - lr * np.concatenate(
                [(grad_act * feats).sum(axis=0), grad_act.sum(axis=0)]
            )
    return model, params


@st.composite
def style_sets(draw):
    """Style matrices with the cases a distance screen can get wrong:
    duplicated rows (zero distances), exact and one-ulp ties (integer
    lattices, nudged copies), and rows offset to norm 1e3, either all by
    one vector (centring must remove it) or one by one (a wide spread)."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        styles = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        styles = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    dup = draw(st.integers(0, n // 2))
    styles[rng.integers(0, n, dup)] = styles[rng.integers(0, n, dup)]
    near = draw(st.integers(0, n // 2))
    src, dst = rng.integers(0, n, near), rng.integers(0, n, near)
    nudge = rng.integers(-2, 3, size=(near, d)) * np.spacing(styles[src])
    styles[dst] = styles[src] + nudge
    offset = draw(st.sampled_from(["none", "all", "some"]))
    if offset != "none":
        vec = rng.standard_normal((n if offset == "some" else 1, d))
        vec *= 1e3 / np.linalg.norm(vec, axis=1, keepdims=True)
        if offset == "some":
            vec[rng.random(n) < 0.7] = 0.0
        styles = styles + vec
    return styles


class TestThresholdOracle:
    @given(
        style_sets(),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.sampled_from([1.0, 0.99, 0.5, 1e-9]),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_tau_bit_identical(self, styles, quantile):
        assert calibrate_threshold(styles, quantile) == reference_threshold(styles, quantile)

    def test_default_size_bit_identical(self):
        rng = np.random.default_rng(2000)
        styles = rng.standard_normal((2000, 40)) + 5.0
        for q in (0.5, 0.9, 0.99, 1.0):
            assert calibrate_threshold(styles, q) == reference_threshold(styles, q)

    def test_default_size_both_tails_bit_identical(self):
        # The screen keeps the rank-th smallest values up to rank 999500 of
        # the 1999000 pairs, and the largest ones, negated, above it.
        rng = np.random.default_rng(2001)
        styles = rng.standard_normal((2000, 40)) + 5.0
        pairs = 2000 * 1999 // 2
        for q in (0.01, 0.5, 999501 / pairs):
            assert calibrate_threshold(styles, q) == reference_threshold(styles, q)


class TestStyleLoopOracle:
    @given(
        # The config's smallest calibration sample is 2 styles.
        count=st.integers(2, 40),
        input_dim=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    # Counts at and across the edges of the 128-batch stack.
    @example(count=127, input_dim=3, seed=1)
    @example(count=128, input_dim=2, seed=2)
    @example(count=129, input_dim=5, seed=3)
    @example(count=257, input_dim=1, seed=4)
    def test_calibration_styles_bit_identical(self, count, input_dim, seed):
        blob = stream.make_blob(3, input_dim, seed)
        extractor = FeatureExtractor(input_dim, layer_channels=(3, 5), seed=seed)
        cfg = config.RunConfig(style=config.StyleParams(calibration_styles=count))
        got = config.calibration_styles(cfg, blob, extractor)
        want = reference_calibration_styles(blob, extractor, count)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(
        batches=st.integers(1, 20),
        batch_size=st.integers(2, 70),
        # A 1-D domain has no rotation generator to normalise.
        input_dim=st.integers(2, 8),
        severity=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_domain_style_mean_bit_identical(
        self, batches, batch_size, input_dim, severity, seed
    ):
        rng = np.random.default_rng(seed)
        domain = stream._draw_domain(severity, rng, input_dim, tier=rng.normal(size=3))
        blob = stream.make_blob(4, input_dim, seed)
        extractor = FeatureExtractor(input_dim, seed=seed)
        key = (seed, 2, 0)
        got = stream.domain_style_mean([domain], blob, extractor, batch_size, batches, key)[0]
        want = reference_domain_style_mean(
            domain, blob, extractor, batch_size, batches, (*key, 0)
        )
        assert got.tobytes() == want.tobytes()

    def test_default_domains_unchanged(self, context):
        # Two of the default config's domains at the default batch size.
        plan = context.plan
        for i, d in enumerate(context.domains[:2]):
            key = (config.DOMAIN_SEED, 99, i)
            got = stream.domain_style_mean(
                [d], context.blob, context.extractor, plan.batch_size, 16, key
            )[0]
            want = reference_domain_style_mean(
                d, context.blob, context.extractor, plan.batch_size, 16, (*key, 0)
            )
            assert got.tobytes() == want.tobytes()

    def test_one_generator_per_batch(self, default_rng_calls):
        blob = stream.make_blob(3, 4, 0)
        extractor = FeatureExtractor(4, seed=0)
        rng = np.random.default_rng(1)
        domain = stream._draw_domain(1.0, rng, 4, tier=rng.normal(size=3))
        default_rng_calls.clear()
        cfg = config.RunConfig(style=config.StyleParams(calibration_styles=37))
        config.calibration_styles(cfg, blob, extractor)
        assert len(default_rng_calls) == 37
        default_rng_calls.clear()
        stream.domain_style_mean([domain], blob, extractor, 8, 21, (5, 2, 0))
        assert len(default_rng_calls) == 21

    def test_fisher_weights_equal_per_batch_draws(self, context, default_config):
        batches = [
            context.blob.sample(
                np.random.default_rng((config.STYLE_SEED, config._TAG_FISHER, i)),
                context.plan.batch_size,
            )[0]
            for i in range(default_config.style.fisher_batches)
        ]
        want = tta.estimate_fisher(context.model, batches)
        assert context.fisher_omega.tobytes() == want.tobytes()

    @given(
        stack=st.integers(0, 8),
        batch_size=st.integers(2, 70),
        input_dim=st.integers(1, 8),
        channels=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        scale=st.sampled_from([1e-3, 1.0, 50.0]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_style_equals_single_calls(
        self, stack, batch_size, input_dim, channels, scale, seed
    ):
        ex = FeatureExtractor(input_dim, layer_channels=channels, seed=seed)
        x = scale * np.random.default_rng(seed).standard_normal((stack, batch_size, input_dim))
        got = extract_style(x, ex)
        assert got.shape == (stack, ex.style_dim)
        for i in range(stack):
            assert got[i].tobytes() == extract_style(x[i], ex).tobytes()
            assert got[i].tobytes() == reference_style(x[i], ex).tobytes()

    def test_single_batch_style_bit_identical(self):
        ex = FeatureExtractor(16, seed=11)
        for i in range(20):
            x = np.random.default_rng(i).standard_normal((2 + 3 * i, 16))
            assert extract_style(x, ex).tobytes() == reference_style(x, ex).tobytes()


class TestBatchedSetUp:
    @pytest.mark.parametrize(
        "seed, stack", [(config.DOMAIN_SEED, None), (5, 3)], ids=["default", "seed5-stack3"]
    )
    def test_make_domains_equals_per_candidate_loop(self, context, monkeypatch, seed, stack):
        # A stack of 3 candidates leaves a ragged last stack of the 64.
        if stack:
            monkeypatch.setattr(stream, "_CANDIDATE_STACK", stack)
        plan = context.plan
        args = (plan.domains, plan.severity, seed)
        got = stream.make_domains(
            *args, blob=context.blob, extractor=context.extractor, tau=context.tau,
            source_style_mean=context.source_style_mean, batch_size=plan.batch_size,
        )
        want = reference_make_domains(
            *args, context.blob, context.extractor, context.tau,
            context.source_style_mean, plan.batch_size,
        )
        assert len(got) == len(want) == plan.domains
        for g, w in zip(got, want):
            for f in fields(stream.DomainSpec):
                assert np.asarray(getattr(g, f.name)).tobytes() == (
                    np.asarray(getattr(w, f.name)).tobytes()
                ), f.name

    def test_domain_list_means_are_the_single_domain_means(self, context):
        # A list's k-th domain is keyed (*seed_key, k, i), as the one-batch-
        # at-a-time reference at (*seed_key, k) is; 5 domains make a ragged
        # last stack.
        pool = context.domains[:5]
        key = (config.DOMAIN_SEED, 99)
        got = stream.domain_style_mean(pool, context.blob, context.extractor, 8, 3, key)
        for k, d in enumerate(pool):
            want = reference_domain_style_mean(
                d, context.blob, context.extractor, 8, 3, (*key, k)
            )
            assert got[k].tobytes() == want.tobytes(), k

    @pytest.mark.parametrize(
        "classes, per_class, epochs",
        [(5, 128, 3), (5, 400, 2), (3, 10, 4), (4, 16, 2)],
        ids=["n640-full", "n2000-ragged", "n30-ragged-only", "n64-one-full"],
    )
    def test_train_source_equals_per_minibatch_loop(self, classes, per_class, epochs):
        data = stream.make_source_dataset(classes, per_class, 6, seed=3)
        got = tta.train_source(4, (data.inputs, data.labels), epochs=epochs, lr=0.05)
        want, params = reference_train_source(4, data.inputs, data.labels, epochs, 0.05)
        assert got.source_params.tobytes() == params.tobytes()
        assert got.head_w.tobytes() == want.head_w.tobytes()
        assert got.head_b.tobytes() == want.head_b.tobytes()

    def test_stacked_features_equal_single_batches(self, context):
        x = np.random.default_rng(6).standard_normal((7, 64, context.blob.input_dim)) * 3.0
        stacked = context.model.features(x)
        for i in range(x.shape[0]):
            assert stacked[i].tobytes() == context.model.features(x[i]).tobytes()

    def test_build_context_makes_one_generator_per_key(self, default_rng_calls):
        # One generator each for the source blob, the source sample, the
        # extractor, the classifier and its minibatch order; 2000 calibration
        # batches; the domain pool and its 64 x 16 candidate batches; 10
        # Fisher batches.
        config.build_context(config.RunConfig())
        keys = [tuple(key.tolist()) for (key,) in default_rng_calls]
        assert len(keys) == 2000 + 64 * 16 + 10 + 6 == 3040
        assert keys[:5] == [(7,), (7, 1), (11,), (7,), (8,)]
        assert keys[5:2005] == [(11, 10, i) for i in range(2000)]
        assert keys[2005] == (23, 0)
        assert keys[2006:3030] == [(23, 2, 0, k, i) for k in range(64) for i in range(16)]
        assert keys[3030:] == [(11, 11, i) for i in range(10)]
