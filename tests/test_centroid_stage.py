"""The vectorized centroid stage against the broadcast code it replaced.

``reference_mi_grad`` is the former ``mi_grad_centroids``: an ``(n, K, d)``
difference tensor, ``scipy.special.logsumexp`` and an einsum contraction.
The library computes distances from a Gram product instead, so the two agree
to rounding, not bit for bit; the soft assignment and the style reservoir
are expected to stay bit-identical to their former versions.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from reservoir_tta.clustering import (
    CentroidSet,
    StyleReservoir,
    mi_grad_centroids,
    soft_assign_vector,
    update_centroids,
)
from reservoir_tta.errors import InputDomainError, InsufficientDataError, NumericalError
from reservoir_tta.stream import ClusterParams, EpisodeMetrics, MethodConfig, run_episode


def reference_logits(styles, cents):
    diff = styles[:, None, :] - cents[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    return -dist / np.sqrt(styles.shape[1]), dist


def reference_log_softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - logsumexp(shifted, axis=1, keepdims=True)


def reference_mi_grad(styles, cents, with_scale=False):
    n, d = styles.shape
    logits, dist = reference_logits(styles, cents)
    logq = reference_log_softmax_rows(logits)
    q = np.exp(logq)
    log_qbar = logsumexp(logq, axis=0) - np.log(n)
    with np.errstate(invalid="ignore"):
        dl_dq = np.where(q > 0.0, (log_qbar[None, :] - logq) / n, 0.0)
    row_dot = (dl_dq * q).sum(axis=1, keepdims=True)
    dl_dlogits = q * (dl_dq - row_dot)
    diff = cents[None, :, :] - styles[:, None, :]
    scale = np.sqrt(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        dlogit_dc = np.where(
            dist[:, :, None] > 0.0, -diff / (dist[:, :, None] * scale), 0.0
        )
    grad = np.einsum("ij,ijk->jk", dl_dlogits, dlogit_dc)
    if not with_scale:
        return grad
    # The same chain with every difference replaced by a sum of magnitudes:
    # the size of what each entry's rounding error is proportional to.
    with np.errstate(invalid="ignore"):
        abs_dq = np.where(q > 0.0, (np.abs(log_qbar[None, :]) + np.abs(logq)) / n, 0.0)
    abs_dlogits = q * (abs_dq + (abs_dq * q).sum(axis=1, keepdims=True))
    return grad, np.einsum("ij,ijk->jk", abs_dlogits, np.abs(dlogit_dc))


class ListReservoir:
    """The former list-backed reservoir, kept as a replay oracle."""

    def __init__(self, capacity, seed):
        self.capacity = capacity
        self.seen_count = 0
        self.buffer = []
        self.rng = np.random.default_rng(seed)

    def offer(self, vec):
        self.seen_count += 1
        if len(self.buffer) < self.capacity:
            self.buffer.append(vec.copy())
            return
        if self.rng.random() <= self.capacity / self.seen_count:
            slot = int(self.rng.integers(0, self.capacity))
            self.buffer[slot] = vec.copy()


def _reservoir(styles, seed=0):
    res = StyleReservoir(styles.shape[0], styles.shape[1], np.random.default_rng(seed))
    for s in styles:
        res.offer(s)
    return res


def _centroid_set(rows):
    cs = CentroidSet(rows[0], k_max=16)
    for row in rows[1:]:
        cs.detect(row, tau=-1.0)  # always spawns while under the cap
    return cs


def _assert_matches_reference(res, cs):
    # An entry can be far smaller than the terms summed into it, and is then
    # ill-conditioned: a one-ulp change of the styles moves it by up to ~1e-3
    # relative in the reference itself. The tolerance is therefore relative
    # to the size of those terms, not to the entry.
    grad = mi_grad_centroids(res, cs)
    ref, scale = reference_mi_grad(res.styles, cs.centroids, with_scale=True)
    assert np.all(np.isfinite(grad))
    assert np.all(np.abs(grad - ref) <= 1e-9 * scale)


class TestGradientOracle:
    @given(
        n=st.integers(min_value=1, max_value=48),
        k=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=12),
        offset=st.sampled_from([0.0, 5.0, 46.0]),
        copies=st.integers(min_value=0, max_value=3),
        near=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_reference(self, n, k, dim, offset, copies, near, seed):
        # Styles share a large common offset, as real style vectors do (norms
        # near 46). Some centroids are exact copies of reservoir rows (what a
        # spawn produces) and some sit 1e-6 away from one.
        rng = np.random.default_rng(seed)
        base = offset * rng.standard_normal(dim) / np.sqrt(dim)
        styles = base + rng.standard_normal((n, dim))
        rows = list(base + 1.5 * rng.standard_normal((k, dim)))
        for _ in range(copies):
            rows.append(styles[rng.integers(n)].copy())
        for _ in range(near):
            u = rng.standard_normal(dim)
            rows.append(styles[rng.integers(n)] + 1e-6 * u / np.linalg.norm(u))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        _assert_matches_reference(_reservoir(styles, seed), _centroid_set(rows))

    @pytest.mark.parametrize("gap", [0.0, 1e-6])
    def test_spawned_centroids_on_reservoir_rows(self, gap):
        # A centroid spawned from an incoming style is a copy of a reservoir
        # row (gap 0). Its distance must stay exactly 0 (subgradient 0); the
        # Gram form alone leaves ~1e-12 in the squared distance at style
        # norms near 46, sometimes negative. At gap 1e-6 the pair's direction
        # must come from the exact difference.
        rng = np.random.default_rng(3)
        base = 46.0 * rng.standard_normal(40) / np.sqrt(40)
        styles = base + 0.3 * rng.standard_normal((256, 40))
        res = _reservoir(styles)
        cs = _centroid_set([base, base + 2.0 * rng.standard_normal(40)])
        for row in (255, 200, 150, 100, 50, 0):
            u = rng.standard_normal(40)
            decision = cs.detect(styles[row] + gap * u / np.linalg.norm(u), tau=-1.0)
            assert decision.is_new and decision.distance > 0
        _assert_matches_reference(res, cs)

    def test_single_centroid_is_exactly_zero(self):
        rng = np.random.default_rng(4)
        res = _reservoir(rng.standard_normal((10, 5)))
        cs = CentroidSet(rng.standard_normal(5), k_max=1)
        grad = mi_grad_centroids(res, cs)
        ref = reference_mi_grad(res.styles, cs.centroids)
        np.testing.assert_array_equal(grad, np.zeros((1, 5)))
        np.testing.assert_array_equal(ref, grad)

    def test_descent_tracks_reference(self):
        # Forty descent steps at a large rate: the two gradients drive the
        # centroids along the same path.
        rng = np.random.default_rng(5)
        centers = 10.0 * rng.standard_normal((3, 6))
        styles = centers[rng.integers(0, 3, size=90)] + rng.standard_normal((90, 6))
        res = _reservoir(styles)
        cs = _centroid_set(list(centers + rng.standard_normal((3, 6))))
        expect = cs.centroids
        for _ in range(40):
            expect = expect - 0.5 * reference_mi_grad(res.styles, expect)
            update_centroids(cs, res, lr=0.5)
        np.testing.assert_allclose(cs.centroids, expect, rtol=1e-10, atol=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_style_still_raises(self):
        styles = np.zeros((4, 3))
        styles[2, 1] = np.inf
        res = _reservoir(styles)
        cs = _centroid_set([np.zeros(3), np.ones(3)])
        with pytest.raises(NumericalError):
            update_centroids(cs, res, lr=1e-4)


class TestSoftAssignBitIdentity:
    @given(
        n=st.integers(min_value=1, max_value=24),
        k=st.integers(min_value=1, max_value=10),
        dim=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_scipy_logsumexp_form(self, n, k, dim, seed):
        rng = np.random.default_rng(seed)
        styles = 4.0 * rng.standard_normal((n, dim))
        res = _reservoir(styles, seed)
        cs = _centroid_set(list(4.0 * rng.standard_normal((k, dim))))
        logits, _ = reference_logits(res.styles, cs.centroids)
        expect = np.exp(reference_log_softmax_rows(logits))
        q = np.stack([soft_assign_vector(s, cs) for s in styles])
        np.testing.assert_array_equal(q, expect)

    def test_ties_and_far_centroids(self):
        # Equidistant centroids tie for the row maximum; a distant one
        # underflows to probability 0.
        cs = _centroid_set(
            [np.array([-1.0, 0.0]), np.array([1.0, 0.0]), np.array([1e5, 0.0])]
        )
        styles = np.array([[0.0, 3.0], [0.0, -2.0]])
        logits, _ = reference_logits(styles, cs.centroids)
        expect = np.exp(reference_log_softmax_rows(logits))
        q = np.stack([soft_assign_vector(s, cs) for s in styles])
        np.testing.assert_array_equal(q, expect)
        assert q[0, 0] == q[0, 1] and q[0, 2] == 0.0


# Finite style entries small enough that every distance between two of them
# is finite too: the former full computation then gives the exact results
# that the K = 1 shortcuts return.
_finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@st.composite
def _k1_case(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=8))
    vec = st.lists(_finite, min_size=dim, max_size=dim)
    source = np.array(draw(vec))
    styles = np.array(draw(st.lists(vec, min_size=n, max_size=n)))
    return source, styles


class TestSingleCentroidIdentity:
    """At K = 1 the soft assignment and the centroid step skip their
    arithmetic; their results stay those of the full computation."""

    @given(case=_k1_case())
    @settings(max_examples=80, deadline=None)
    def test_soft_assign_is_exactly_one(self, case):
        source, styles = case
        cs = CentroidSet(source, k_max=1)
        logits, _ = reference_logits(styles, cs.centroids)
        expect = np.exp(reference_log_softmax_rows(logits))
        for s in styles:
            q = soft_assign_vector(s, cs)
            assert q.dtype == np.float64 and q.tobytes() == np.array([1.0]).tobytes()
        np.testing.assert_array_equal(expect, np.ones((len(styles), 1)))

    @given(case=_k1_case(), lr=st.floats(min_value=0.0, max_value=1e300))
    @settings(max_examples=80, deadline=None)
    def test_update_leaves_source_centroid_bit_identical(self, case, lr):
        source, styles = case
        cs = CentroidSet(source, k_max=1)
        res = _reservoir(styles)
        before = cs.centroids
        full = before - lr * mi_grad_centroids(res, cs)
        update_centroids(cs, res, lr=lr)
        assert cs.centroids.tobytes() == before.tobytes() == full.tobytes()

    @given(case=_k1_case())
    @settings(max_examples=20, deadline=None)
    def test_empty_reservoir_still_raises(self, case):
        source, _ = case
        cs = CentroidSet(source, k_max=1)
        with pytest.raises(InsufficientDataError):
            update_centroids(cs, StyleReservoir(4, source.size, np.random.default_rng(0)))

    @given(case=_k1_case(), lr=st.floats(max_value=0.0, exclude_max=True))
    @settings(max_examples=40, deadline=None)
    def test_negative_lr_still_raises(self, case, lr):
        source, styles = case
        cs = CentroidSet(source, k_max=1)
        with pytest.raises(InputDomainError):
            update_centroids(cs, _reservoir(styles), lr=lr)


class TestReservoirReplay:
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        dim=st.integers(min_value=1, max_value=4),
        offers=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_list_replay(self, capacity, dim, offers, seed):
        # Same seed, same offers: fill phase and replace phase both match the
        # list-backed reservoir after every offer.
        res = StyleReservoir(capacity, dim, np.random.default_rng((seed, 1)))
        ref = ListReservoir(capacity, (seed, 1))
        data = np.random.default_rng(seed).standard_normal((offers, dim))
        for vec in data:
            res.offer(vec)
            ref.offer(vec)
            assert len(res) == len(ref.buffer)
            assert res.seen_count == ref.seen_count
            np.testing.assert_array_equal(res.styles, np.stack(ref.buffer))
        assert res.seen_count == offers

    @pytest.mark.parametrize("capacity", [1024, 2500])
    def test_replace_phase_at_large_capacity(self, capacity):
        # Both capacities reach the replace phase within 4000 offers.
        res = StyleReservoir(capacity, 3, np.random.default_rng((7, 1)))
        ref = ListReservoir(capacity, (7, 1))
        for vec in np.random.default_rng(7).standard_normal((4000, 3)):
            res.offer(vec)
            ref.offer(vec)
        np.testing.assert_array_equal(res.styles, np.stack(ref.buffer))

    def test_huge_capacity_allocates_lazily(self, context):
        # The engine sizes the reservoir by the episode's offers, so a huge
        # configured size allocates no more and changes no bit.
        ctx = replace(context, plan=replace(context.plan, visits=1, batches_per_domain=2))
        method = MethodConfig(name="m", kind="filtered_fisher", reservoir=True)
        default = run_episode(ctx, method, seed=3)
        huge_ctx = replace(ctx, cluster=ClusterParams(reservoir_size=10**12))
        huge = run_episode(huge_ctx, method, seed=3)
        assert ctx.cluster.reservoir_size < 10**12
        for f in fields(EpisodeMetrics):
            a, b = getattr(default, f.name), getattr(huge, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name

    def test_styles_is_a_read_only_view_of_copied_offers(self):
        rows = np.arange(6.0).reshape(3, 2)
        res = _reservoir(rows)
        rows[:] = -1.0  # the fill phase copied every offer
        view = res.styles
        np.testing.assert_array_equal(view, np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError):
            view[0, 0] = 99.0
        offered = np.array([7.0, 8.0])
        res.offer(offered)  # at capacity: accepted or not, no aliasing
        offered[:] = -1.0
        assert not np.any(res.styles == -1.0)

    def test_empty_reservoir_shapes(self):
        res = StyleReservoir(4, 3, np.random.default_rng(0))
        assert res.styles.shape == (0, 3)
