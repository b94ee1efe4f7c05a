"""Online domain identification over style vectors.

State lives in two small containers: a :class:`CentroidSet` of discovered
domain centroids (seeded with the mean source style) and a fixed-capacity
:class:`StyleReservoir` of past style vectors maintained by reservoir
sampling. The reservoir stores a multiset: its distinct rows, keyed by the
vector's bytes, with a count each, in a ``(capacity, dim)`` table allocated
once; an emptied row is swap-removed, so the live rows stay contiguous. On
a recurring stream the same batch is offered on every visit, and the
distinct rows are a fraction of the held styles. Both containers hand out
read-only arrays. A new centroid is spawned whenever an incoming style vector
is farther than the calibrated threshold from every existing centroid and
the cap has not been reached. Either way the vector is then soft-assigned
over the centroids. Centroids are refined by gradient descent on a
mutual-information objective over the reservoir, which sharpens assignments
while penalizing collapse onto a single centroid; that step and a spawn are
the only writes to the centroids.

The per-step centroid stage is the engine's hot path, so
:func:`mi_grad_centroids` works on ``(K, u)`` matrices over the ``u``
distinct rows only, each weighted by its count: distances come from one
Gram product, pairs too close for its cancellation error (a spawned
centroid is a copy of a reservoir row) are redone from exact differences,
and the gradient is contracted as ``c_j sum_i w_ij - sum_i w_ij s_i`` (one
matrix product) instead of through an ``(n, K, dim)`` broadcast. Duplicate
styles give identical terms, so this is the loss over all ``n`` held styles,
to rounding. The Gram product's row norms ``|s_i|^2`` are the reservoir's
own: each distinct row's squared norm is computed once, when the row is
inserted, and moves with it. At ``K <= 16`` and a few hundred rows the stage
costs numpy calls rather than arithmetic, so its passes write into buffers
they own (``out=`` and ``where=`` instead of ``np.where`` temporaries) in
the order of the plain expressions, which they equal bit for bit.

The module is plain numpy; scipy is only the tests' oracle. The softmax is
the package's one log-softmax, :func:`tta.log_softmax`; it and the plain
log-sum-exp agree with ``scipy.special`` to rounding. The MI loss's
``0 ln 0 := 0`` is a masked ``a * np.log(a)``, which agrees with
``scipy.special.xlogy(a, a)`` to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, InsufficientDataError, NumericalError
from .tta import log_softmax

DEFAULT_K_MAX = 16
DEFAULT_CENTROID_LR = 1e-4

# Style-centroid pairs whose Gram-form squared distance falls below this
# fraction of ``|s|^2 + |c|^2`` are recomputed from exact differences.
_GRAM_CLOSE = 1e-6


def _style_vector(s: np.ndarray, dim: int) -> np.ndarray:
    """``s`` as a float64 vector, checked to have the shape ``(dim,)``."""
    vec = np.asarray(s, dtype=np.float64)
    if vec.shape != (dim,):
        raise InputDomainError(f"style vector has shape {vec.shape}, expected ({dim},)")
    return vec


class StyleReservoir:
    """Fixed-capacity reservoir holding a uniform sample of all offered styles.

    The first ``capacity`` offers fill the slots in order. From then on the
    t-th offer is accepted with probability ``capacity / t`` and, if
    accepted, overwrites a uniformly chosen slot. After any number of offers
    every past vector is present with equal probability ``capacity / t``.

    The held styles are kept as a multiset: a table of distinct rows, a
    count and a squared norm per row and, per slot, the index of its row.
    A row is found by the bytes of its vector, so ``-0.0`` and ``0.0``
    entries make separate rows; that only splits a row's count, and every
    consumer sums over the rows. A row's squared norm is set once, when the
    row is inserted, by ``np.einsum("ij,ij->i")`` over its one-row slice,
    which gives the bits of that einsum over all rows. A row whose count
    drops to 0 is swap-removed with the last row, its norm with it, so the
    live rows are always the first ``u``; only then are the slots that
    pointed at the moved row remapped. The tables are made with
    ``np.empty``, so a huge capacity is only touched as far as it is filled.
    """

    def __init__(self, capacity: int, dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise InputDomainError(f"capacity must be positive, got {capacity}")
        if dim < 1:
            raise InputDomainError(f"dim must be positive, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.seen_count = 0
        self._rows = np.empty((self.capacity, self.dim))
        self._norms = np.empty(self.capacity)
        self._counts = np.zeros(self.capacity, dtype=np.int64)
        self._slots = np.empty(self.capacity, dtype=np.intp)
        self._row_of: dict[bytes, int] = {}
        self._size = 0
        self._rng = rng

    def __len__(self) -> int:
        return self._size

    @property
    def styles(self) -> np.ndarray:
        """Read-only ``(n, dim)`` array of the held styles, row i the style in slot i."""
        held = self._rows[self._slots[: self._size]]
        held.flags.writeable = False
        return held

    @property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the ``(u, dim)`` distinct rows and their ``(u,)``
        counts, which sum to ``len(self)``; valid until the next offer."""
        u = len(self._row_of)
        rows, counts = self._rows[:u], self._counts[:u]
        rows.flags.writeable = False
        counts.flags.writeable = False
        return rows, counts

    def offer(self, s: np.ndarray) -> None:
        """Offer one style vector; inserts or replaces per reservoir sampling."""
        vec = _style_vector(s, self.dim)
        self.seen_count += 1
        if self._size < self.capacity:
            slot = self._size
            self._size += 1
        elif self._rng.random() <= self.capacity / self.seen_count:
            slot = int(self._rng.integers(0, self.capacity))
            self._drop(int(self._slots[slot]))
        else:
            return
        key = vec.tobytes()
        row = self._row_of.get(key)
        if row is None:
            row = self._row_of[key] = len(self._row_of)
            self._rows[row] = vec
            added = self._rows[row : row + 1]
            np.einsum("ij,ij->i", added, added, out=self._norms[row : row + 1])
        self._counts[row] += 1
        self._slots[slot] = row

    def _drop(self, row: int) -> None:
        """Take one copy of ``row`` out; an emptied row is swap-removed."""
        self._counts[row] -= 1
        if self._counts[row]:
            return
        last = len(self._row_of) - 1
        del self._row_of[self._rows[row].tobytes()]
        if row != last:
            self._rows[row] = self._rows[last]
            self._norms[row] = self._norms[last]
            self._counts[row] = self._counts[last]
            self._counts[last] = 0
            self._row_of[self._rows[row].tobytes()] = row
            slots = self._slots[: self._size]
            slots[slots == last] = row


@dataclass
class DomainDecision:
    """Outcome of routing one style vector against the current centroids."""

    kind: str  # "existing" | "new_domain"
    distance: float


class CentroidSet:
    """Domain centroids, starting from a single source centroid."""

    def __init__(self, source_centroid: np.ndarray, k_max: int = DEFAULT_K_MAX):
        c = np.asarray(source_centroid, dtype=np.float64)
        if c.ndim != 1:
            raise InputDomainError("source centroid must be a vector")
        if k_max < 1:
            raise InputDomainError(f"k_max must be positive, got {k_max}")
        if not np.all(np.isfinite(c)):
            raise InputDomainError("source centroid has non-finite entries")
        self.dim = c.size
        self.k_max = int(k_max)
        self._centroids = c.copy().reshape(1, -1)

    @property
    def count(self) -> int:
        return self._centroids.shape[0]

    @property
    def centroids(self) -> np.ndarray:
        """Read-only ``(K, dim)`` view; the matrix is replaced, never
        written in place, so a view keeps the values it was taken with."""
        view = self._centroids.view()
        view.flags.writeable = False
        return view

    def detect(self, s: np.ndarray, tau: float) -> DomainDecision:
        """Decide whether a style vector opens a new domain.

        A new centroid (a copy of ``s``) is appended iff the minimum
        Euclidean distance to the centroids exceeds ``tau`` and the cap
        ``k_max`` has not been reached. The routing itself is left to the
        caller, which soft-assigns after the centroid update
        (:func:`soft_assign_vector`).
        """
        vec = _style_vector(s, self.dim)
        # The square root is monotone, so it is taken of the minimum alone.
        delta = math.sqrt(_squared_gaps(self._centroids, vec).min())
        if delta > tau and self.count < self.k_max:
            self._centroids = np.vstack([self._centroids, vec])
            return DomainDecision(kind="new_domain", distance=delta)
        return DomainDecision(kind="existing", distance=delta)


def _squared_gaps(cents: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The squared distance of ``vec`` to each row of ``cents``: the
    arithmetic of ``np.linalg.norm(axis=1)`` before its root, in one buffer."""
    sq = cents - vec
    sq *= sq
    return sq.sum(axis=1)


def _assignment_logits(dist: np.ndarray, dim: int) -> np.ndarray:
    """Soft-assignment logits ``-dist / sqrt(dim)`` of style-centroid distances,
    in one pass: rounding is symmetric in sign, so ``x / -y`` is ``-x / y``."""
    return dist / -math.sqrt(dim)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis`` (kept), the maximum split out."""
    top = a.max(axis=axis, keepdims=True)
    return top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))


def soft_assign_vector(s: np.ndarray, centroids: CentroidSet) -> np.ndarray:
    """Soft assignment of one style vector: the softmax over the centroids
    of its scaled negative distances ``-|s - c_j| / sqrt(dim)``. A vector of
    another shape than ``(centroids.dim,)`` raises :class:`InputDomainError`."""
    vec = _style_vector(s, centroids.dim)
    dist = _squared_gaps(centroids._centroids, vec)
    np.sqrt(dist, out=dist)
    q = log_softmax(_assignment_logits(dist, vec.size), axis=0)
    return np.exp(q, out=q)


def _xlogx(a: np.ndarray) -> np.ndarray:
    """``a ln a`` elementwise, with ``0 ln 0 := 0`` (``scipy.special.xlogy(a, a)``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a == 0, 0.0, a * np.log(a))


def mi_loss(q: np.ndarray) -> float:
    """Mutual-information clustering loss of an assignment matrix.

    ``L = -(1/M) sum_ij q_ij ln q_ij + sum_j qbar_j ln qbar_j`` with
    ``qbar_j`` the column means and ``0 ln 0 := 0``. The first term rewards
    confident rows, the second penalizes collapse onto few columns; the
    total is bounded by ``[-ln K, ln K]`` and minimized at confident,
    balanced assignments.
    """
    mat = np.asarray(q, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise InputDomainError("assignment matrix must be 2-D and nonempty")
    m = mat.shape[0]
    ent = -_xlogx(mat).sum() / m
    qbar = mat.mean(axis=0)
    cm = _xlogx(qbar).sum()
    return float(ent + cm)


def mi_grad_centroids(reservoir: StyleReservoir, centroids: CentroidSet) -> np.ndarray:
    """Analytic gradient of the MI loss of the reservoir's assignment w.r.t. centroids.

    The loss is ``mi_loss(Q)``, where row i of ``Q`` is the soft assignment
    (:func:`soft_assign_vector`) of the i-th reservoir style. The gradient
    chains through the row softmax and the Euclidean distance; at a
    zero-distance pair the norm's subgradient 0 is used. Returns a
    ``(K, dim)`` matrix of per-centroid gradients, exactly zero for K = 1
    (every row softmax is then the constant 1).

    Copies of one style give identical rows of ``Q`` and identical terms,
    so the sums over the ``n`` held styles run over the reservoir's ``u``
    distinct rows instead, each term weighted by its row's count
    (:attr:`StyleReservoir.distinct`). The result is the full sum's to
    rounding, not bit for bit.
    """
    n = len(reservoir)
    if n == 0:
        raise InsufficientDataError("gradient needs a nonempty reservoir")
    u = len(reservoir._row_of)
    styles, counts = reservoir._rows[:u], reservoir._counts[:u]
    cents = centroids._centroids
    if cents.shape[0] == 1:
        return np.zeros_like(cents)
    d = styles.shape[1]
    # Arrays are (K, u), indexed [centroid j, distinct style i], so that
    # reductions over the styles run along contiguous rows.
    dist, cols, rows, diff = _squared_distances(cents, styles, reservoir._norms[:u])
    np.sqrt(dist, out=dist)
    logq = log_softmax(_assignment_logits(dist, d), axis=0)
    q = np.exp(logq)

    # dL/dq_ij = (ln qbar_j - ln q_ij) / n, with zero-probability cells
    # masked; qbar_j = sum_i count_i q_ij / n.
    log_qbar = _logsumexp(logq + np.log(counts), axis=1) - np.log(n)
    dl_dq = np.zeros_like(q)
    np.subtract(log_qbar, logq, out=dl_dq, where=q > 0.0)
    dl_dq /= n
    row_dot = (dl_dq * q).sum(axis=0, keepdims=True)
    dl_dlogits = dl_dq
    dl_dlogits -= row_dot
    dl_dlogits *= q

    # Through _assignment_logits, d logit_ij / d c_j = -(c_j - s_i) /
    # (dist_ij * sqrt(d)), taken as 0 at dist 0. With w = -count_i dL/dlogit
    # / (dist * sqrt(d)) the gradient is sum_i w_ij (c_j - s_i)
    # = c_j sum_i w_ij - (w S)_j.
    # The minus sign rides on the divisor, which is exact.
    apart = dist > 0.0
    w = np.zeros_like(dist)
    np.multiply(dist, -math.sqrt(d), out=w, where=apart)
    np.divide(dl_dlogits, w, out=w, where=apart)
    w *= counts
    # Close pairs contribute through their exact differences instead: in the
    # contraction their two large terms would cancel to a small one.
    close_w = w[cols, rows]
    w[cols, rows] = 0.0
    grad = cents * w.sum(axis=1, keepdims=True)
    grad -= w @ styles
    np.add.at(grad, cols, close_w[:, None] * diff)
    return grad


def _squared_distances(
    a: np.ndarray, b: np.ndarray, b_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances between the rows of ``a`` and ``b`` (Gram form),
    ``b_norms`` the rows' squared norms ``np.einsum("ij,ij->i", b, b)``.

    ``|a|^2 - 2 a.b + |b|^2`` carries an absolute error of a few ulps of
    ``|a|^2 + |b|^2``; pairs below ``_GRAM_CLOSE`` of that are recomputed
    from exact differences, so a centroid sitting on a reservoir row keeps
    distance exactly 0. Returns the matrix plus the close pairs' indices
    into ``a`` and ``b`` and their differences ``a_i - b_j``.
    """
    norms = np.einsum("ij,ij->i", a, a)[:, None] + b_norms
    sq = a @ b.T
    sq *= -2.0  # norms - 2 a.b, exactly: x - y is x + (-y)
    sq += norms
    norms *= _GRAM_CLOSE
    ia, ib = np.nonzero(sq < norms)
    diff = a[ia] - b[ib]
    sq[ia, ib] = np.einsum("ij,ij->i", diff, diff)
    return sq, ia, ib, diff


def update_centroids(
    centroids: CentroidSet,
    reservoir: StyleReservoir,
    lr: float = DEFAULT_CENTROID_LR,
) -> None:
    """One plain gradient-descent step on the MI loss; besides a spawn, the
    one writer of the centroids.

    Every centroid is updated, the source centroid included. At K = 1 the
    gradient is exactly zero (:func:`mi_grad_centroids`), so the step
    leaves the centroid's bits as they are. A step with a non-finite entry
    raises :class:`NumericalError` and leaves the centroids unchanged.
    """
    if not (np.isfinite(lr) and lr >= 0):
        raise InputDomainError(f"lr must be finite and nonnegative, got {lr}")
    step = mi_grad_centroids(reservoir, centroids)
    step *= lr
    new = centroids._centroids - step
    if not np.isfinite(new).all():
        bad = np.argwhere(~np.isfinite(new))
        raise NumericalError(f"non-finite centroid update at entries {bad[:4].tolist()}")
    centroids._centroids = new
