"""The vectorized centroid stage against the code it replaced.

``reference_mi_grad`` is an earlier ``mi_grad_centroids``: an ``(n, K, d)``
difference tensor, ``scipy.special.logsumexp`` and an einsum contraction.
``dense_mi_grad`` is the one after it, a term per held style rather than
per distinct row. The library computes distances from a Gram product, sums
its log-sum-exp in one plain pass and weights each distinct row by its
count instead, so it agrees with both to rounding, not bit for bit, and an
episode routes as under ``dense_mi_grad``. The soft assignment equals the
plain log-softmax written out here bit for bit, and scipy's log-sum-exp form
to rounding; with tied or far centroids, or a single one, the two forms give
the same bits. The style reservoir's held styles stay bit-identical to its
list-backed version, and its cached row norms to one einsum over its rows.

``plain_mi_grad``, ``plain_squared_distances``, ``plain_detect_distance``
and ``plain_soft_assign`` are the routed step as plain numpy expressions,
before it wrote into buffers of its own; the library gives their bits.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from reservoir_tta import stream
from reservoir_tta.clustering import (
    _GRAM_CLOSE,
    DEFAULT_CENTROID_LR,
    CentroidSet,
    StyleReservoir,
    _assignment_logits,
    _logsumexp,
    _squared_distances,
    mi_grad_centroids,
    soft_assign_vector,
    update_centroids,
)
from reservoir_tta.errors import InputDomainError, InsufficientDataError, NumericalError
from reservoir_tta.stream import ClusterParams, EpisodeMetrics, run_episode
from reservoir_tta.tta import MethodConfig, log_softmax


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


def dense_mi_grad(styles, cents):
    """The MI gradient with one term per held style, duplicates included:
    ``mi_grad_centroids`` as it was before it weighted distinct rows."""
    if cents.shape[0] == 1:
        return np.zeros_like(cents)
    n, d = styles.shape
    sq, cols, rows, diff = _squared_distances(
        cents, styles, np.einsum("ij,ij->i", styles, styles)
    )
    dist = np.sqrt(sq)
    logq = log_softmax(_assignment_logits(dist, d), axis=0)
    q = np.exp(logq)
    log_qbar = _logsumexp(logq, axis=1) - np.log(n)
    with np.errstate(invalid="ignore"):
        dl_dq = np.where(q > 0.0, (log_qbar - logq) / n, 0.0)
    row_dot = (dl_dq * q).sum(axis=0, keepdims=True)
    dl_dlogits = q * (dl_dq - row_dot)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(dist > 0.0, -dl_dlogits / (dist * np.sqrt(d)), 0.0)
    close_w = w[cols, rows]
    w[cols, rows] = 0.0
    grad = cents * w.sum(axis=1, keepdims=True) - w @ styles
    np.add.at(grad, cols, close_w[:, None] * diff)
    return grad


def plain_log_softmax(logits, axis):
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def plain_logits(dist, dim):
    return -dist / np.sqrt(dim)


def plain_logsumexp(a, axis):
    top = a.max(axis=axis, keepdims=True)
    return top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))


def plain_squared_distances(a, b):
    norms = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
    sq = norms - 2.0 * (a @ b.T)
    ia, ib = np.nonzero(sq < _GRAM_CLOSE * norms)
    diff = a[ia] - b[ib]
    sq[ia, ib] = np.einsum("ij,ij->i", diff, diff)
    return sq, ia, ib, diff


def plain_mi_grad(reservoir, centroids):
    n = len(reservoir)
    styles, counts = reservoir.distinct
    cents = centroids.centroids
    if cents.shape[0] == 1:
        return np.zeros_like(cents)
    d = styles.shape[1]
    sq, cols, rows, diff = plain_squared_distances(cents, styles)
    dist = np.sqrt(sq)
    logq = plain_log_softmax(plain_logits(dist, d), axis=0)
    q = np.exp(logq)
    log_qbar = plain_logsumexp(logq + np.log(counts), axis=1) - np.log(n)
    with np.errstate(invalid="ignore"):
        dl_dq = np.where(q > 0.0, (log_qbar - logq) / n, 0.0)
    row_dot = (dl_dq * q).sum(axis=0, keepdims=True)
    dl_dlogits = q * (dl_dq - row_dot)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(dist > 0.0, -dl_dlogits / (dist * np.sqrt(d)), 0.0) * counts
    close_w = w[cols, rows]
    w[cols, rows] = 0.0
    grad = cents * w.sum(axis=1, keepdims=True) - w @ styles
    np.add.at(grad, cols, close_w[:, None] * diff)
    return grad


def plain_detect_distance(cents, s):
    return float(np.linalg.norm(cents - s, axis=1).min())


def plain_soft_assign(cents, s):
    dist = np.linalg.norm(s - cents, axis=1)
    return np.exp(plain_log_softmax(plain_logits(dist, s.size), axis=0))


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


class _ScriptedSlots:
    """An rng that accepts every offer and picks the scripted slots in turn."""

    def __init__(self, slots):
        self.slots = iter(slots)

    def random(self):
        return 0.0

    def integers(self, low, high):
        return next(self.slots)


class _ScriptedOffers:
    """An rng that accepts or rejects each offer as scripted and picks the
    scripted slot for an accepted one."""

    def __init__(self, script):
        self.script = iter([(accept, slot) for _, accept, slot in script])
        self.slot = None

    def random(self):
        accept, self.slot = next(self.script)
        return 0.0 if accept else 1.0

    def integers(self, low, high):
        return self.slot


# Entries with both zeros, so that some rows differ only in a zero's sign.
_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -46.0]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)


@st.composite
def _offer_script(draw):
    """A capacity of 1-8, a pool of 1-6 rows of 1-12 entries and up to 40
    offers from it, each with its accept flag and slot. Past the fill an
    accepted offer replaces a slot, so rows empty and are swap-removed."""
    capacity = draw(st.integers(min_value=1, max_value=8))
    dim = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.lists(st.lists(_entry, min_size=dim, max_size=dim), min_size=1, max_size=6))
    pool = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    script = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(rows) - 1),
                st.booleans(),
                st.integers(min_value=0, max_value=capacity - 1),
            ),
            max_size=40,
        )
    )
    return capacity, pool, script


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


def _routed_case(n, k, dim, offset, copies, near, repeats, seed, far=False):
    """Styles and centroid rows for the gradient oracles.

    Styles share a large common offset, as real style vectors do (norms near
    46). With repeats, they are drawn from a pool of about n / (repeats + 1)
    rows, as a recurring stream offers them. Some centroids are exact copies
    of reservoir rows (what a spawn produces) and some sit 1e-6 away from
    one. A ``far`` centroid sits 1e5 away, where its soft assignment
    underflows to 0.
    """
    rng = np.random.default_rng(seed)
    base = offset * rng.standard_normal(dim) / np.sqrt(dim)
    styles = base + rng.standard_normal((n, dim))
    if repeats:
        pool = max(1, n // (repeats + 1))
        styles = styles[rng.integers(pool, size=n)]
    rows = list(base + 1.5 * rng.standard_normal((k, dim)))
    for _ in range(copies):
        rows.append(styles[rng.integers(n)].copy())
    for _ in range(near):
        u = rng.standard_normal(dim)
        rows.append(styles[rng.integers(n)] + 1e-6 * u / np.linalg.norm(u))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    if far:
        u = rng.standard_normal(dim)
        rows.append(base + 1e5 * u / np.linalg.norm(u))
    return styles, rows


class TestGradientOracle:
    @given(
        n=st.integers(min_value=1, max_value=48),
        k=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=12),
        offset=st.sampled_from([0.0, 5.0, 46.0]),
        copies=st.integers(min_value=0, max_value=3),
        near=st.integers(min_value=0, max_value=3),
        repeats=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_reference(
        self, n, k, dim, offset, copies, near, repeats, seed
    ):
        styles, rows = _routed_case(n, k, dim, offset, copies, near, repeats, seed)
        _assert_matches_reference(_reservoir(styles, seed), _centroid_set(rows))

    @pytest.mark.parametrize("pool", [256, 48])
    @pytest.mark.parametrize("gap", [0.0, 1e-6])
    def test_spawned_centroids_on_reservoir_rows(self, gap, pool):
        # A centroid spawned from an incoming style is a copy of a reservoir
        # row (gap 0). Its distance must stay exactly 0 (subgradient 0); the
        # Gram form alone leaves ~1e-12 in the squared distance at style
        # norms near 46, sometimes negative. At gap 1e-6 the pair's direction
        # must come from the exact difference. With a pool of 48 rows each
        # spawn sits on a row the reservoir holds several times.
        rng = np.random.default_rng(3)
        base = 46.0 * rng.standard_normal(40) / np.sqrt(40)
        styles = base + 0.3 * rng.standard_normal((pool, 40))
        styles = styles[np.arange(256) % pool]
        res = _reservoir(styles)
        cs = _centroid_set([base, base + 2.0 * rng.standard_normal(40)])
        spawned = (255, 200, 150, 100, 50, 0)
        for row in spawned:
            u = rng.standard_normal(40)
            decision = cs.detect(styles[row] + gap * u / np.linalg.norm(u), tau=-1.0)
            assert decision.kind == "new_domain" and decision.distance > 0
        _assert_matches_reference(res, cs)
        rows, counts = res.distinct
        sq = _squared_distances(cs.centroids, rows, res._norms[: len(rows)])[0]
        for j, row in enumerate(spawned, start=2):
            (r,) = np.flatnonzero(np.all(rows == styles[row], axis=1))
            held = 256 // pool + (row % pool < 256 % pool)
            assert counts[r] == held and (held > 1) == (pool < 256)
            assert (sq[j, r] == 0.0) == (gap == 0.0)

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


class TestPlainFormOracle:
    """The routed step's buffered passes give the bits of its plain
    expressions, on the styles and centroids of the gradient oracle."""

    @given(
        n=st.integers(min_value=1, max_value=48),
        k=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=12),
        offset=st.sampled_from([0.0, 5.0, 46.0]),
        copies=st.integers(min_value=0, max_value=3),
        near=st.integers(min_value=0, max_value=3),
        repeats=st.integers(min_value=0, max_value=3),
        far=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_routed_step_equals_plain_form(
        self, n, k, dim, offset, copies, near, repeats, far, seed
    ):
        styles, rows = _routed_case(n, k, dim, offset, copies, near, repeats, seed, far)
        res, cs = _reservoir(styles, seed), _centroid_set(rows)
        cents, (distinct, _) = cs.centroids, res.distinct
        got = _squared_distances(cents, distinct, res._norms[: len(distinct)])
        for a, b in zip(got, plain_squared_distances(cents, distinct)):
            _assert_same_bits(a, b)
        grad = plain_mi_grad(res, cs)
        _assert_same_bits(mi_grad_centroids(res, cs), grad)
        for s in styles[:6]:
            _assert_same_bits(soft_assign_vector(s, cs), plain_soft_assign(cents, s))
            delta = cs.detect(s, tau=np.inf).distance
            assert delta.hex() == plain_detect_distance(cents, s).hex()
        if far:
            # The far centroid's column of Q underflows to exactly 0.
            q = np.exp(plain_log_softmax(plain_logits(np.sqrt(got[0]), dim), axis=0))
            assert cs.count > 1 and np.all(q[-1] == 0.0)
        update_centroids(cs, res, lr=0.5)
        _assert_same_bits(cs.centroids, cents - 0.5 * grad)


class TestSoftAssignBitIdentity:
    @given(
        n=st.integers(min_value=1, max_value=24),
        k=st.integers(min_value=1, max_value=10),
        dim=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_plain_form_and_scipy_to_rounding(self, n, k, dim, seed):
        rng = np.random.default_rng(seed)
        styles = 4.0 * rng.standard_normal((n, dim))
        res = _reservoir(styles, seed)
        cs = _centroid_set(list(4.0 * rng.standard_normal((k, dim))))
        logits, _ = reference_logits(res.styles, cs.centroids)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        q = np.stack([soft_assign_vector(s, cs) for s in styles])
        np.testing.assert_array_equal(q, np.exp(shifted - lse))
        # Against scipy's log-sum-exp, which splits out the maximal terms:
        # each log-sum-exp of k terms in (0, 1] is off by at most k + 1 ulps
        # of 1 (k exp roundings and k - 1 additions, the largest term being
        # exactly 1) plus 1 ulp of itself (the log). Both sides carry that,
        # the subtraction from ``shifted`` rounds each by half an ulp of the
        # log-probability, and each exp by 1 ulp of q.
        eps = np.finfo(np.float64).eps
        expect = np.exp(reference_log_softmax_rows(logits))
        bound = eps * (2 * (k + 1) + 2 * np.abs(lse) + np.abs(np.log(expect)) + 2)
        assert np.all(np.abs(q - expect) <= bound * expect)

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
    """At K = 1 the soft assignment of a finite distance is exactly
    ``[1.0]``, and the centroid step, whose gradient skips its arithmetic,
    leaves the centroid as the full computation would."""

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

    @given(
        capacity=st.integers(min_value=1, max_value=16),
        pool=st.integers(min_value=3, max_value=5),
        offers=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplicate_offers_as_counted_rows(self, capacity, pool, offers, seed):
        # Offers drawn from a pool of 3-5 rows, as a recurring stream makes
        # them: the held styles match the list replay bit for bit, and the
        # distinct rows count every held copy once.
        res = StyleReservoir(capacity, 2, np.random.default_rng((seed, 1)))
        ref = ListReservoir(capacity, (seed, 1))
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((pool, 2))
        for i in rng.integers(pool, size=offers):
            res.offer(vecs[i])
            ref.offer(vecs[i])
            held = np.stack(ref.buffer)
            assert res.styles.tobytes() == held.tobytes()
            rows, counts = res.distinct
            assert len({row.tobytes() for row in rows}) == len(rows)
            assert counts.tolist() == [np.all(held == row, axis=1).sum() for row in rows]
            assert counts.sum() == len(res)

    @given(case=_offer_script())
    @settings(max_examples=150, deadline=None)
    def test_cached_norms_equal_einsum_over_rows(self, case):
        # After every offer, fill or replacement, the cached squared norms of
        # the live rows are the bits of one einsum over them, signed zeros
        # and swap-removed rows included.
        capacity, pool, script = case
        res = StyleReservoir(capacity, pool.shape[1], _ScriptedOffers(script))
        for i, _, _ in script:
            res.offer(pool[i])
            rows, _ = res.distinct
            want = np.einsum("ij,ij->i", rows, rows)
            assert res._norms[: len(rows)].tobytes() == want.tobytes()

    def test_emptied_row_is_swap_removed(self):
        # Slot picks scripted so that row 0, not the last row, empties: the
        # last row moves into its place and its slot follows.
        a, b, c = np.eye(3)
        res = StyleReservoir(3, 3, _ScriptedSlots([0, 1]))
        for vec in (a, a, b):
            res.offer(vec)
        rows, counts = res.distinct
        np.testing.assert_array_equal(rows, [a, b])
        assert counts.tolist() == [2, 1]
        res.offer(c)  # slot 0: a -> c, a new row 2
        res.offer(c)  # slot 1: a -> c, row 0 empties and row 2 moves there
        rows, counts = res.distinct
        np.testing.assert_array_equal(rows, [c, b])
        assert counts.tolist() == [2, 1]
        np.testing.assert_array_equal(res.styles, [c, c, b])

    def test_signed_zeros_are_separate_rows(self):
        # Rows are keyed by their bytes: the held styles keep each sign.
        res = _reservoir(np.array([[0.0], [-0.0], [0.0]]))
        rows, counts = res.distinct
        assert rows.ravel().tobytes() == np.array([0.0, -0.0]).tobytes()
        assert counts.tolist() == [2, 1]
        assert res.styles.tobytes() == np.array([[0.0], [-0.0], [0.0]]).tobytes()

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
            if a is None:  # a trace column of an untraced episode
                assert b is None, f.name
                continue
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


class TestEpisodeAgainstDenseGradient:
    @pytest.mark.parametrize("seed", [1, 3])
    def test_same_routing_as_one_term_per_held_style(self, context, monkeypatch, seed):
        # A CSC stream replays each (domain, slot) batch on every visit, so
        # from the second visit on the reservoir holds repeated styles; 240
        # steps outlast its 128 slots. Routing and errors keep their bits;
        # the centroids, and through the soft assignment the ensemble, move
        # by rounding only.
        ctx = replace(
            context,
            plan=replace(context.plan, kind="csc", visits=3, batches_per_domain=10),
            cluster=ClusterParams(reservoir_size=128),
        )
        method = MethodConfig(name="m", kind="filtered_fisher", reservoir=True)
        held = []

        def counted_update(centroids, reservoir, lr=DEFAULT_CENTROID_LR):
            rows, _ = reservoir.distinct
            held.append((reservoir.seen_count, len(reservoir), len(rows)))
            update_centroids(centroids, reservoir, lr)

        def dense_update(centroids, reservoir, lr=DEFAULT_CENTROID_LR):
            grad = dense_mi_grad(reservoir.styles, centroids.centroids)
            centroids._centroids = centroids.centroids - lr * grad

        monkeypatch.setattr(stream, "update_centroids", counted_update)
        counted = run_episode(ctx, method, seed=seed, trace=True)
        monkeypatch.setattr(stream, "update_centroids", dense_update)
        dense = run_episode(ctx, method, seed=seed, trace=True)

        seen, n, u = held[-1]
        assert seen == 240 and n == 128 and u < n
        assert counted.detected_domains[-1] >= 2
        for name in ("assigned_models", "detected_domains", "per_batch_error"):
            assert getattr(counted, name).tobytes() == getattr(dense, name).tobytes(), name
        for name in ("drift_norm", "soft_assignment"):
            np.testing.assert_allclose(
                getattr(counted, name), getattr(dense, name), rtol=0, atol=1e-12
            )
