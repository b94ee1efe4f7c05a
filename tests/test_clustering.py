"""Online clustering: reservoir sampling, domain detection, MI refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, xlogy

from reservoir_tta import clustering, stream
from reservoir_tta.clustering import (
    CentroidSet,
    StyleReservoir,
    mi_grad_centroids,
    mi_loss,
    soft_assign_vector,
    update_centroids,
)
from reservoir_tta.errors import (
    InputDomainError,
    InsufficientDataError,
    NumericalError,
)
from reservoir_tta.style import extract_style


def soft_assign_matrix(reservoir, centroids):
    """Row-softmax of every reservoir style's scaled negative distances to
    the centroids: the assignment whose ``mi_loss`` ``mi_grad_centroids``
    differentiates, and row by row what ``soft_assign_vector`` returns."""
    styles, cents = reservoir.styles, centroids.centroids
    diff = styles[:, None, :] - cents[None, :, :]
    logits = -np.linalg.norm(diff, axis=2) / np.sqrt(styles.shape[1])
    shifted = logits - logits.max(axis=1, keepdims=True)
    return np.exp(shifted - logsumexp(shifted, axis=1, keepdims=True))


def _filled_reservoir(n, dim, seed=0, spread=1.0, centers=None):
    rng = np.random.default_rng(seed)
    res = StyleReservoir(max(n, 1), dim, np.random.default_rng(seed))
    for i in range(n):
        base = np.zeros(dim) if centers is None else centers[i % len(centers)]
        res.offer(base + spread * rng.standard_normal(dim))
    return res


def _grown_centroids(vectors, k_max=16):
    cs = CentroidSet(vectors[0], k_max=k_max)
    for v in vectors[1:]:
        cs.detect(v, tau=-1.0)  # always creates while under the cap
    return cs


class _AlwaysAccept:
    def random(self):
        return 0.0

    def integers(self, low, high):
        self.last = getattr(self, "last", -1) + 1
        return self.last % (high - low) + low


class _AlwaysReject:
    def random(self):
        return 1.0

    def integers(self, low, high):  # pragma: no cover - never reached
        raise AssertionError("reject path must not draw a slot")


class TestStyleReservoir:
    def test_first_offers_kept_in_order(self):
        res = StyleReservoir(4, 2, np.random.default_rng(0))
        vecs = [np.array([float(i), 0.0]) for i in range(4)]
        for v in vecs:
            res.offer(v)
        np.testing.assert_array_equal(res.styles, np.stack(vecs))

    def test_buffer_length_invariant(self):
        res = StyleReservoir(8, 3, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for t in range(1, 40):
            res.offer(rng.standard_normal(3))
            assert len(res) == min(t, 8)
            assert res.seen_count == t

    def test_dimension_mismatch(self):
        res = StyleReservoir(4, 3, np.random.default_rng(0))
        with pytest.raises(InputDomainError):
            res.offer(np.zeros(2))

    def test_forced_accept_degenerates_to_replace(self):
        res = StyleReservoir(3, 1, np.random.default_rng(0))
        for i in range(3):
            res.offer(np.array([float(i)]))
        res._rng = _AlwaysAccept()
        res.offer(np.array([10.0]))
        res.offer(np.array([11.0]))
        # Slots cycle 0, 1 under the stub, so slots 0 and 1 are replaced.
        np.testing.assert_array_equal(res.styles.ravel(), [10.0, 11.0, 2.0])

    def test_forced_reject_freezes_buffer(self):
        res = StyleReservoir(3, 1, np.random.default_rng(0))
        for i in range(3):
            res.offer(np.array([float(i)]))
        res._rng = _AlwaysReject()
        for i in range(10):
            res.offer(np.array([100.0 + i]))
        np.testing.assert_array_equal(res.styles.ravel(), [0.0, 1.0, 2.0])
        assert res.seen_count == 13

    def test_single_slot_inclusion_frequencies(self):
        # M = 1, 1000 offers: every item should win with probability 1/1000.
        trials, n = 10_000, 1000
        wins = np.zeros(n, dtype=np.int64)
        items = np.arange(n, dtype=np.float64)[:, None]
        for trial in range(trials):
            res = StyleReservoir(1, 1, np.random.default_rng((555, trial)))
            for item in items:
                res.offer(item)
            wins[int(res.styles[0, 0])] += 1
        p = 1.0 / n
        bound = 3 * np.sqrt(p * (1 - p) / trials)
        for item in (0, 499, 999):  # spot checks per the 1, 500, 1000 cases
            assert abs(wins[item] / trials - p) <= bound

    def test_inclusion_uniformity_m8(self):
        # Monte-Carlo uniformity check: M = 8, T = 32, so each item is kept
        # with probability 1/4.
        trials = 4000
        counts = np.zeros(32)
        items = np.arange(32, dtype=np.float64)[:, None]
        for trial in range(trials):
            res = StyleReservoir(8, 1, np.random.default_rng((777, trial)))
            for item in items:
                res.offer(item)
            for v in res.styles.ravel():
                counts[int(v)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.25) < 0.033)  # ~4.8 sigma


class TestDetect:
    def test_zero_distance_existing(self):
        cs = CentroidSet(np.zeros(2), k_max=4)
        d = cs.detect(np.zeros(2), tau=1.0)
        assert d.kind == "existing" and d.distance == 0.0
        assert cs.count == 1

    def test_new_domain_appended(self):
        cs = CentroidSet(np.zeros(2), k_max=16)
        d = cs.detect(np.array([3.0, 4.0]), tau=2.0)
        assert d.kind == "new_domain"
        assert cs.count == 2
        np.testing.assert_array_equal(cs.centroids[1], [3.0, 4.0])
        assert d.distance == pytest.approx(5.0)

    def test_centroids_are_a_read_only_view(self):
        cs = _grown_centroids([np.zeros(2), np.ones(2)])
        with pytest.raises(ValueError):
            cs.centroids[1, 0] = 5.0
        np.testing.assert_array_equal(cs.centroids, [[0.0, 0.0], [1.0, 1.0]])

    def test_cap_reached_assigns_nearest(self):
        cs = CentroidSet(np.zeros(2), k_max=1)
        d = cs.detect(np.array([9.0, 0.0]), tau=0.5)
        assert d.kind == "existing" and d.distance == 9.0
        assert cs.count == 1

    def test_soft_assignment_attached(self):
        # The decision carries no assignment; the engine soft-assigns once,
        # after the centroid update, over the post-decision centroids.
        cs = _grown_centroids([np.zeros(3), np.ones(3) * 4])
        d = cs.detect(np.ones(3) * 4, tau=10.0)
        assert not hasattr(d, "soft_assignment")
        q = soft_assign_vector(np.ones(3) * 4, cs)
        assert q.shape == (2,)
        assert q.sum() == pytest.approx(1.0)
        assert d.kind == "existing" and d.distance == 0.0
        assert np.argmax(q) == 1

    def test_never_exceeds_cap_never_removes(self):
        rng = np.random.default_rng(4)
        cs = CentroidSet(np.zeros(4), k_max=5)
        for _ in range(200):
            cs.detect(rng.standard_normal(4) * 10, tau=0.1)
            assert 1 <= cs.count <= 5
        assert cs.count == 5

    def test_decisions_match_generator_labels(self, context, default_config, monkeypatch):
        # Centroids planted on the true style means of 15 synthetic domains:
        # no new clusters form and the routing tracks the hidden domain ids.
        monkeypatch.setattr(stream, "MIN_SEPARATION_FACTOR", 1.0)
        domains = stream.make_domains(
            15,
            default_config.scenario.severity,
            seed=4242,
            blob=context.blob,
            extractor=context.extractor,
            tau=context.tau,
            source_style_mean=context.source_style_mean,
            batch_size=64,
        )
        means = stream.domain_style_mean(
            domains, context.blob, context.extractor, 64, 16, seed_key=(91,)
        )
        cs = _grown_centroids(means, k_max=16)
        rng = np.random.default_rng(7)
        hits = 0
        for i in range(150):
            true = int(rng.integers(0, 15))
            r = np.random.default_rng((92, i))
            x, _ = context.blob.sample(r, 64)
            noise = r.standard_normal(x.shape)
            s = extract_style(domains[true].apply(x, noise), context.extractor)
            d = cs.detect(s, tau=context.tau)
            assert d.kind == "existing"
            routed = int(np.argmax(soft_assign_vector(s, cs)))
            # Independent nearest-centroid oracle.
            oracle = int(np.argmin([np.linalg.norm(s - m) for m in means]))
            assert routed == oracle
            hits += routed == true
        assert cs.count == 15
        assert hits / 150 >= 0.95


class TestSoftAssign:
    def test_equidistant_two_centroids(self):
        cs = _grown_centroids([np.array([-1.0, 0.0]), np.array([1.0, 0.0])])
        q = soft_assign_vector(np.array([0.0, 5.0]), cs)
        np.testing.assert_allclose(q, [0.5, 0.5])

    def test_single_centroid_rows_are_one(self):
        cs = CentroidSet(np.zeros(3), k_max=4)
        res = _filled_reservoir(6, 3, seed=1)
        q = np.stack([soft_assign_vector(s, cs) for s in res.styles])
        np.testing.assert_array_equal(q, np.ones((6, 1)))

    def test_matches_direct_softmax_oracle(self):
        rng = np.random.default_rng(8)
        cs = _grown_centroids([rng.standard_normal(5) for _ in range(3)])
        res = _filled_reservoir(8, 5, seed=9, spread=2.0)
        styles, cents = res.styles, cs.centroids
        q = np.stack([soft_assign_vector(s, cs) for s in styles])
        for i in range(8):
            logits = np.array(
                [-np.linalg.norm(styles[i] - c) / np.sqrt(5) for c in cents]
            )
            expect = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(q[i], expect, rtol=1e-12)

    def test_vector_on_centroid_dominates(self):
        cents = [np.zeros(4), np.full(4, 6.0), np.full(4, -6.0)]
        cs = _grown_centroids(cents)
        q = soft_assign_vector(np.full(4, 6.0), cs)
        assert int(np.argmax(q)) == 1
        assert q[1] > q[0] and q[1] > q[2]

    @pytest.mark.parametrize("shape", [(1,), (2,), (1, 3)])
    def test_wrong_shape_style_rejected(self, shape):
        # Against three centroid entries, a length-1 style would broadcast
        # and a (1, 3) one would pass as a row; a length-2 one would fail
        # inside numpy.
        cs = _grown_centroids([np.zeros(3), np.ones(3)])
        with pytest.raises(InputDomainError, match="shape"):
            soft_assign_vector(np.zeros(shape), cs)

    def test_vector_k1(self):
        cs = CentroidSet(np.ones(2), k_max=1)
        np.testing.assert_array_equal(soft_assign_vector(np.zeros(2), cs), [1.0])

    def test_midpoint_of_collinear_centroids(self):
        cents = [np.array([-2.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 0.0])]
        cs = _grown_centroids(cents)
        q = soft_assign_vector(np.array([0.0, 0.0]), cs)
        logits = np.array([-2.0, 0.0, -2.0]) / np.sqrt(2)
        expect = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(q, expect, rtol=1e-12)
        assert q[0] == pytest.approx(q[2])

    def test_one_logit_scale_for_routing_and_centroid_step(self, monkeypatch):
        # The routing softmax and the MI gradient read their logits from one
        # function, each passing its own distances: a change of scale there
        # reaches both.
        calls = []
        scale = clustering._assignment_logits

        def recording(dist, dim):
            out = scale(dist, dim)
            calls.append((dist.copy(), dim, out.copy()))
            return out

        monkeypatch.setattr(clustering, "_assignment_logits", recording)
        rng = np.random.default_rng(12)
        cs = _grown_centroids([3.0 * rng.standard_normal(4) for _ in range(3)])
        res = _filled_reservoir(7, 4, seed=12, spread=2.0)
        s = res.styles[2]
        soft_assign_vector(s, cs)
        mi_grad_centroids(res, cs)
        assert len(calls) == 2
        exact = np.linalg.norm(res.styles[None, :, :] - cs.centroids[:, None, :], axis=2)
        # soft_assign_vector: exact distances of one style; mi_grad_centroids:
        # the (K, n) Gram-form distances, equal to rounding.
        (d_vec, dim_vec, out_vec), (d_mat, dim_mat, out_mat) = calls
        np.testing.assert_array_equal(d_vec, np.linalg.norm(s - cs.centroids, axis=1))
        np.testing.assert_allclose(d_mat, exact, rtol=1e-9)
        for dist, dim, out in calls:
            assert dim == 4
            assert out.tobytes() == (-dist / np.sqrt(4)).tobytes()

    def test_empty_reservoir_rejected(self):
        # The reservoir-wide assignment exists only inside the centroid
        # gradient, which needs at least one style.
        cs = _grown_centroids([np.zeros(2), np.ones(2)])
        with pytest.raises(InsufficientDataError):
            mi_grad_centroids(StyleReservoir(4, 2, np.random.default_rng(0)), cs)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, n, k, dim, seed):
        rng = np.random.default_rng(seed)
        cs = _grown_centroids([10 * rng.standard_normal(dim) for _ in range(k)])
        res = _filled_reservoir(n, dim, seed=seed, spread=5.0)
        q = np.stack([soft_assign_vector(s, cs) for s in res.styles])
        assert np.all(q >= 0) and np.all(q <= 1)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


class TestMiLoss:
    def test_xlogx_matches_scipy_xlogy(self):
        # 0 ln 0 := 0, the smallest subnormal, a tiny normal, and two exact cases.
        a = np.array([0.0, np.nextafter(0.0, 1.0), 1e-300, 0.5, 1.0])
        got = clustering._xlogx(a)
        assert got[0] == 0.0 and got[-1] == 0.0
        np.testing.assert_allclose(got, xlogy(a, a), rtol=2**-52, atol=0)

    def test_uniform_matrix_is_zero(self):
        q = np.full((6, 4), 0.25)
        assert mi_loss(q) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_balanced_is_minimum(self):
        q = np.tile(np.eye(4), (3, 1))
        assert mi_loss(q) == pytest.approx(-np.log(4))

    def test_one_hot_collapsed_is_zero(self):
        q = np.zeros((8, 4))
        q[:, 0] = 1.0
        assert mi_loss(q) == pytest.approx(0.0)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_log_k(self, n, k, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((n, k)) + 1e-12
        q = raw / raw.sum(axis=1, keepdims=True)
        val = mi_loss(q)
        assert -np.log(k) - 1e-9 <= val <= np.log(k) + 1e-9


class TestMiGrad:
    def test_single_centroid_zero_gradient(self):
        cs = CentroidSet(np.zeros(3), k_max=1)
        res = _filled_reservoir(6, 3, seed=0)
        np.testing.assert_array_equal(mi_grad_centroids(res, cs), np.zeros((1, 3)))

    def test_mirror_symmetry(self):
        # Mirror-image centroids over a mirror-symmetric reservoir.
        cs = _grown_centroids([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        res = StyleReservoir(4, 2, np.random.default_rng(0))
        for v in ([2.0, 0.5], [-2.0, 0.5], [0.7, -1.0], [-0.7, -1.0]):
            res.offer(np.array(v))
        g = mi_grad_centroids(res, cs)
        flip = np.array([-1.0, 1.0])
        np.testing.assert_allclose(g[0], g[1] * flip, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        res = _filled_reservoir(16, 6, seed=5, spread=2.0)
        cs = _grown_centroids([rng.standard_normal(6) for _ in range(3)])
        grad = mi_grad_centroids(res, cs)
        c0 = cs.centroids
        h = 1e-5
        fd = np.zeros_like(c0)
        for j in range(c0.shape[0]):
            for k in range(c0.shape[1]):
                for sign in (1, -1):
                    c = c0.copy()
                    c[j, k] += sign * h
                    val = mi_loss(soft_assign_matrix(res, _grown_centroids(list(c))))
                    fd[j, k] += sign * val / (2 * h)
        scale = np.maximum(np.abs(fd), 1e-6 * max(1.0, np.abs(fd).max()))
        assert (np.abs(grad - fd) / scale).max() < 1e-5


class TestUpdateCentroids:
    def test_zero_lr_identity(self):
        cs = _grown_centroids([np.zeros(3), np.ones(3)])
        res = _filled_reservoir(8, 3, seed=1)
        before = cs.centroids
        for _ in range(3):
            update_centroids(cs, res, lr=0.0)
        np.testing.assert_array_equal(cs.centroids, before)

    def test_one_step_equals_gradient_times_lr(self):
        cs = _grown_centroids([np.zeros(4), np.full(4, 2.0)])
        res = _filled_reservoir(10, 4, seed=2, spread=1.5)
        expect = cs.centroids - 0.05 * mi_grad_centroids(res, cs)
        update_centroids(cs, res, lr=0.05)
        np.testing.assert_array_equal(cs.centroids, expect)

    def test_monitored_descent_nonincreasing(self):
        # Two clusters, centroids perturbed off the true means: the loss must
        # not increase across 200 default-rate steps.
        rng = np.random.default_rng(6)
        centers = [np.full(4, -3.0), np.full(4, 3.0)]
        res = _filled_reservoir(32, 4, seed=6, spread=0.5, centers=centers)
        cs = _grown_centroids([c + 0.3 * rng.standard_normal(4) for c in centers])
        losses = [mi_loss(soft_assign_matrix(res, cs))]
        for _ in range(200):
            update_centroids(cs, res, lr=1e-4)
            losses.append(mi_loss(soft_assign_matrix(res, cs)))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_nonfinite_lr_rejected(self, k, lr):
        cs = _grown_centroids([np.zeros(3), np.ones(3)][:k])
        with pytest.raises(InputDomainError, match="finite"):
            update_centroids(cs, _filled_reservoir(4, 3, seed=3), lr=lr)

    def test_overflowing_update_rejected_and_centroids_kept(self, monkeypatch):
        # A finite gradient whose step overflows: the step is refused and
        # the centroids keep their bits.
        cs = _grown_centroids([np.zeros(3), np.ones(3)])
        res = _filled_reservoir(4, 3, seed=3)
        before = cs.centroids.copy()
        monkeypatch.setattr(
            clustering, "mi_grad_centroids", lambda r, c: np.full((2, 3), 1e308)
        )
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericalError, match="non-finite"):
                update_centroids(cs, res, lr=10.0)
        np.testing.assert_array_equal(cs.centroids, before)

