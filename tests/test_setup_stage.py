"""The set-up stage (calibration styles, threshold, domain checks) against
the per-row and per-batch code it replaced.

``reference_threshold`` is the former ``calibrate_threshold``: one distance
row per style, every distance concatenated and fully sorted.
``reference_style`` is the former single-batch ``extract_style``, and the
``reference_*`` loops draw and extract one batch at a time, as
``config.calibration_styles`` and ``stream.domain_style_mean`` did. The
library must agree with every one of them bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoir_tta import config, seeding, stream
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


class TestStyleLoopOracle:
    @given(
        # The config's smallest calibration sample is 2 styles.
        count=st.integers(2, 40),
        input_dim=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
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
        key = (seed, 2, 0, 0)
        got = stream.domain_style_mean(domain, blob, extractor, batch_size, batches, key)
        want = reference_domain_style_mean(
            domain, blob, extractor, batch_size, batches, key
        )
        assert got.tobytes() == want.tobytes()

    def test_default_domains_unchanged(self, context):
        # Two of the default config's domains at the default batch size.
        plan = context.plan
        for i, d in enumerate(context.domains[:2]):
            key = (config.DOMAIN_SEED, 99, i)
            got = stream.domain_style_mean(
                d, context.blob, context.extractor, plan.batch_size, 16, key
            )
            want = reference_domain_style_mean(
                d, context.blob, context.extractor, plan.batch_size, 16, key
            )
            assert got.tobytes() == want.tobytes()

    def test_one_generator_per_batch(self, monkeypatch, default_rng_calls):
        # Several hash chunks per call.
        monkeypatch.setattr(seeding, "_CHUNK", 16)
        blob = stream.make_blob(3, 4, 0)
        extractor = FeatureExtractor(4, seed=0)
        rng = np.random.default_rng(1)
        domain = stream._draw_domain(1.0, rng, 4, tier=rng.normal(size=3))
        default_rng_calls.clear()
        cfg = config.RunConfig(style=config.StyleParams(calibration_styles=37))
        config.calibration_styles(cfg, blob, extractor)
        assert len(default_rng_calls) == 37
        default_rng_calls.clear()
        stream.domain_style_mean(domain, blob, extractor, 8, 21, (5, 2, 0, 0))
        assert len(default_rng_calls) == 21

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
