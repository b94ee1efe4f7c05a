"""Style extraction and threshold calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoir_tta.errors import (
    DegenerateBatchError,
    InputDomainError,
    InsufficientDataError,
)
from reservoir_tta.style import (
    VAR_FLOOR,
    FeatureExtractor,
    calibrate_threshold,
    extract_style,
)

# ||s(B) - s(B + noise)|| for the fixed batches below, computed once with an
# independent loop-based forward/variance oracle and frozen.
NOISE_SHIFT_NORM = 2.330165752262114


def _oracle_style(batch, ex):
    """Independent reference: explicit loops + direct variance formula."""
    x = np.array(batch, dtype=float)
    out = []
    for w, b in zip(ex._weights, ex._biases):
        nxt = np.empty((x.shape[0], w.shape[0]))
        for i in range(x.shape[0]):
            for c in range(w.shape[0]):
                nxt[i, c] = float(np.dot(w[c], x[i]) + b[c])
        x = np.tanh(nxt)
        for c in range(x.shape[1]):
            col = x[:, c]
            var = float(np.mean((col - col.mean()) ** 2))
            out.append(np.log(max(var, VAR_FLOOR)))
    return np.array(out)


class TestExtractStyle:
    def test_engineered_channel_variance_gives_its_log(self):
        # Batch engineered for per-channel variance 1/4: each channel's six
        # activations are sqrt(3)/2, -sqrt(3)/2 and four zeros.
        ex = FeatureExtractor(3, layer_channels=(3,), seed=1)
        target = np.vstack([np.eye(3), -np.eye(3)]) * np.sqrt(3) / 2
        # Solve for inputs whose layer-1 activations are `target`.
        w = ex._weights[0]
        batch = (np.arctanh(target) - ex._biases[0]) @ np.linalg.inv(w).T
        style = extract_style(batch, ex)
        np.testing.assert_allclose(style, np.log(0.25), atol=1e-12)

    def test_constant_batch_hits_floor_everywhere(self):
        ex = FeatureExtractor(4, seed=2)
        batch = np.ones((6, 4)) * 0.37
        style = extract_style(batch, ex)
        np.testing.assert_array_equal(style, np.log(VAR_FLOOR))
        assert np.all(np.isfinite(style))

    def test_noise_shift_matches_frozen_oracle_constant(self):
        ex = FeatureExtractor(6, layer_channels=(4, 5), seed=20240601)
        b1 = np.random.default_rng(421).standard_normal((4, 6))
        b2 = b1 + 0.5 * np.random.default_rng(422).standard_normal((4, 6))
        s1, s2 = extract_style(b1, ex), extract_style(b2, ex)
        np.testing.assert_array_equal(s1, _oracle_style(b1, ex))
        np.testing.assert_array_equal(s2, _oracle_style(b2, ex))
        assert np.linalg.norm(s1 - s2) == pytest.approx(NOISE_SHIFT_NORM, abs=1e-12)

    def test_single_sample_batch_rejected(self):
        ex = FeatureExtractor(4, seed=3)
        with pytest.raises(DegenerateBatchError):
            extract_style(np.ones((1, 4)), ex)

    def test_stack_with_one_sample_per_batch_rejected(self):
        ex = FeatureExtractor(4, seed=3)
        with pytest.raises(DegenerateBatchError, match="at least 2 samples per batch"):
            extract_style(np.ones((5, 1, 4)), ex)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4, 4)], ids=["1-D", "4-D"])
    def test_other_ranks_rejected_naming_both_shapes(self, shape):
        ex = FeatureExtractor(4, seed=3)
        with pytest.raises(InputDomainError, match=r"\(b, input_dim\) or a \(B, b, input_dim\)"):
            extract_style(np.ones(shape), ex)
        with pytest.raises(InputDomainError, match=r"\(b, 4\) or \(B, b, 4\)"):
            ex.activations(np.ones(shape))

    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 5)], ids=["batch", "stack"])
    def test_wrong_width_rejected_naming_both_shapes(self, shape):
        ex = FeatureExtractor(4, seed=3)
        for call in (lambda x: extract_style(x, ex), ex.activations):
            with pytest.raises(InputDomainError, match=r"\(b, 4\) or \(B, b, 4\)"):
                call(np.ones(shape))

    def test_nonfinite_batch_rejected(self):
        ex = FeatureExtractor(4, seed=3)
        bad = np.ones((4, 4))
        bad[2, 1] = np.nan
        with pytest.raises(InputDomainError):
            extract_style(bad, ex)

    def test_deterministic_across_reconstructions(self):
        batch = np.random.default_rng(9).standard_normal((8, 5))
        a = extract_style(batch, FeatureExtractor(5, seed=77))
        b = extract_style(batch, FeatureExtractor(5, seed=77))
        np.testing.assert_array_equal(a, b)

    def test_all_zero_input_is_finite(self):
        ex = FeatureExtractor(4, seed=6)
        style = extract_style(np.zeros((5, 4)), ex)
        assert np.all(np.isfinite(style))

    def test_dimension_layout_is_layer_major(self):
        ex = FeatureExtractor(4, layer_channels=(2, 3), seed=8)
        batch = np.random.default_rng(0).standard_normal((6, 4))
        style = extract_style(batch, ex)
        assert style.shape == (5,)
        acts = ex.activations(batch)
        np.testing.assert_allclose(style[:2], np.log(acts[0].var(axis=0)))
        np.testing.assert_allclose(style[2:], np.log(acts[1].var(axis=0)))


class TestFeatureExtractor:
    def test_same_seed_bit_identical_weights(self):
        a = FeatureExtractor(6, seed=123)
        b = FeatureExtractor(6, seed=123)
        for wa, wb in zip(a._weights, b._weights):
            np.testing.assert_array_equal(wa, wb)

    def test_weights_immutable(self):
        ex = FeatureExtractor(6, seed=1)
        with pytest.raises(ValueError):
            ex._weights[0][0, 0] = 1.0

    def test_channel_counts_match_spec(self):
        ex = FeatureExtractor(7, layer_channels=(3, 9, 2), seed=0)
        acts = ex.activations(np.zeros((2, 7)))
        assert [a.shape[1] for a in acts] == [3, 9, 2]
        assert ex.style_dim == 14
        stacked = ex.activations(np.zeros((4, 2, 7)))
        assert [a.shape for a in stacked] == [(4, 2, 3), (4, 2, 9), (4, 2, 2)]

    def test_invalid_construction(self):
        with pytest.raises(InputDomainError):
            FeatureExtractor(0)
        with pytest.raises(InputDomainError):
            FeatureExtractor(4, layer_channels=())


class TestCalibrateThreshold:
    def test_identical_vectors_give_zero_tau(self):
        styles = [np.ones(3)] * 10
        tau = calibrate_threshold(styles, 0.99)
        assert type(tau) is float
        assert tau == 0.0

    def test_single_pair(self):
        tau = calibrate_threshold([np.array([0.0, 0.0]), np.array([3.0, 4.0])], 0.5)
        assert tau == pytest.approx(5.0)

    def test_matches_nearest_rank_oracle_on_large_sample(self):
        rng = np.random.default_rng(31)
        styles = [rng.standard_normal(8) for _ in range(2000)]
        tau = calibrate_threshold(styles, 0.99)
        # Brute-force oracle: every pair individually, sort, ceil(q*N)-th.
        dists = [
            float(np.sqrt(((a - b) ** 2).sum()))
            for i, a in enumerate(styles)
            for b in styles[i + 1 :]
        ]
        dists.sort()
        rank = int(np.ceil(0.99 * len(dists)))
        assert tau == dists[rank - 1]

    def test_requires_two_vectors(self):
        with pytest.raises(InsufficientDataError):
            calibrate_threshold([np.zeros(3)], 0.9)

    def test_ragged_styles_rejected(self):
        with pytest.raises(InputDomainError, match="share one dimension"):
            calibrate_threshold([np.zeros(3), np.zeros(4)], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_styles_rejected(self, bad):
        styles = np.zeros((4, 3))
        styles[2, 1] = bad
        with pytest.raises(InputDomainError, match="finite"):
            calibrate_threshold(styles, 0.5)

    def test_quantile_bounds(self):
        pts = [np.zeros(2), np.ones(2)]
        with pytest.raises(InputDomainError):
            calibrate_threshold(pts, 0.0)
        with pytest.raises(InputDomainError):
            calibrate_threshold(pts, 1.5)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, rnd):
        rng = np.random.default_rng(77)
        styles = [rng.standard_normal(4) for _ in range(12)]
        shuffled = styles[:]
        rnd.shuffle(shuffled)
        assert calibrate_threshold(styles, 0.7) == calibrate_threshold(shuffled, 0.7)

    def test_quantile_monotone(self):
        rng = np.random.default_rng(5)
        styles = [rng.standard_normal(6) for _ in range(40)]
        taus = [calibrate_threshold(styles, q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))
