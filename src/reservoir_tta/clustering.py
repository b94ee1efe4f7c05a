"""Online domain identification over style vectors.

State lives in two small containers: a :class:`CentroidSet` of discovered
domain centroids (seeded with the mean source style) and a fixed-capacity
:class:`StyleReservoir` of past style vectors maintained by reservoir
sampling in a ``(capacity, dim)`` array allocated once. A new centroid is
spawned whenever an incoming style vector is farther than the calibrated
threshold from every existing centroid and the cap has not been reached;
otherwise the vector is assigned to its nearest centroid. Centroids are
refined by gradient descent on a mutual-information objective over the
reservoir, which sharpens assignments while penalizing collapse onto a
single centroid.

The per-step centroid stage is the engine's hot path, so
:func:`mi_grad_centroids` works on ``(K, n)`` matrices only: distances come
from one Gram product, pairs too close for its cancellation error (a spawned
centroid is a copy of a reservoir row) are redone from exact differences,
and the gradient is contracted as ``c_j sum_i w_ij - sum_i w_ij s_i`` (one
matrix product) instead of through an ``(n, K, dim)`` broadcast. Log-sum-exp
is plain numpy, in the same max-split form as ``scipy.special.logsumexp`` and
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import InputDomainError, InsufficientDataError, NumericalError

DEFAULT_K_MAX = 16
DEFAULT_CENTROID_LR = 1e-4

# Style-centroid pairs whose Gram-form squared distance falls below this
# fraction of ``|s|^2 + |c|^2`` are recomputed from exact differences.
_GRAM_CLOSE = 1e-6


class StyleReservoir:
    """Fixed-capacity buffer holding a uniform sample of all offered styles.

    The first ``capacity`` offers fill the buffer in order. From then on the
    t-th offer is accepted with probability ``capacity / t`` and, if
    accepted, overwrites a uniformly chosen slot. After any number of offers
    every past vector is present with equal probability ``capacity / t``.
    """

    def __init__(self, capacity: int, dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise InputDomainError(f"capacity must be positive, got {capacity}")
        if dim < 1:
            raise InputDomainError(f"dim must be positive, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.seen_count = 0
        self._buffer = np.empty((self.capacity, self.dim))
        self._size = 0
        self._rng = rng

    def __len__(self) -> int:
        return self._size

    @property
    def styles(self) -> np.ndarray:
        """Read-only ``(n, dim)`` view of the filled rows, valid until the next offer."""
        filled = self._buffer[: self._size]
        filled.flags.writeable = False
        return filled

    def offer(self, s: np.ndarray) -> None:
        """Offer one style vector; inserts or replaces per reservoir sampling."""
        vec = np.asarray(s, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise InputDomainError(
                f"style vector has shape {vec.shape}, reservoir expects ({self.dim},)"
            )
        self.seen_count += 1
        if self._size < self.capacity:
            self._buffer[self._size] = vec
            self._size += 1
            return
        if self._rng.random() <= self.capacity / self.seen_count:
            slot = int(self._rng.integers(0, self.capacity))
            self._buffer[slot] = vec


@dataclass
class DomainDecision:
    """Outcome of routing one style vector against the current centroids."""

    kind: str  # "existing" | "new_domain"
    index: int
    distance: float

    @property
    def is_new(self) -> bool:
        return self.kind == "new_domain"


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
        """Current centroids as a ``(K, dim)`` matrix (copy)."""
        return self._centroids.copy()

    def set_centroids(self, values: np.ndarray) -> None:
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != self._centroids.shape:
            raise InputDomainError(
                f"expected shape {self._centroids.shape}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NumericalError("centroid update produced non-finite values")
        self._centroids = vals.copy()

    def detect(self, s: np.ndarray, tau: float) -> DomainDecision:
        """Route a style vector: nearest existing centroid, or a new domain.

        A new centroid (a copy of ``s``) is appended iff the minimum
        Euclidean distance exceeds ``tau`` and the cap ``k_max`` has not been
        reached. Ties in the nearest-centroid choice go to the lowest index.
        The soft assignment is left to the caller, which needs it only after
        the centroid update (:func:`soft_assign_vector`).
        """
        vec = np.asarray(s, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise InputDomainError(
                f"style vector has shape {vec.shape}, centroids expect ({self.dim},)"
            )
        dists = np.linalg.norm(self._centroids - vec, axis=1)
        delta = float(dists.min())
        if delta > tau and self.count < self.k_max:
            self._centroids = np.vstack([self._centroids, vec])
            index = self.count - 1
            kind = "new_domain"
        else:
            index = int(np.argmin(dists))
            kind = "existing"
        return DomainDecision(kind=kind, index=index, distance=delta)


def _assignment_logits(styles: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Logits ``-dist / sqrt(d)`` of every style against every centroid."""
    diff = styles[:, None, :] - centroids[None, :, :]
    return -np.linalg.norm(diff, axis=2) / np.sqrt(styles.shape[1])


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis`` (kept), as scipy computes it.

    The maximal terms are split out, ``max + ln(m) + log1p(rest / m)`` with
    ``m`` the number of maxima, which is exact for the dominant term and
    matches ``scipy.special.logsumexp`` bit for bit without its overhead.
    """
    top = a.max(axis=axis, keepdims=True)
    is_top = a == top
    ties = is_top.sum(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        rest = np.where(is_top, 0.0, np.exp(a - top)).sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        return np.log1p(rest / ties) + np.log(ties) + top


def _log_softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)  # max-subtraction
    return shifted - _logsumexp(shifted, axis=axis)


def soft_assign_vector(s: np.ndarray, centroids: CentroidSet) -> np.ndarray:
    """Soft assignment of one style vector: the softmax over the centroids
    of its scaled negative distances ``-|s - c_j| / sqrt(dim)``.

    At K = 1 this is ``[1.0]`` without computing a distance: the softmax of
    one finite logit is exactly 1.
    """
    if centroids.count == 1:
        return np.ones(1)
    vec = np.asarray(s, dtype=np.float64).reshape(1, -1)
    logits = _assignment_logits(vec, centroids.centroids)
    return np.exp(_log_softmax(logits))[0]


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
    ent = -xlogy(mat, mat).sum() / m
    qbar = mat.mean(axis=0)
    cm = xlogy(qbar, qbar).sum()
    return float(ent + cm)


def mi_grad_centroids(reservoir: StyleReservoir, centroids: CentroidSet) -> np.ndarray:
    """Analytic gradient of the MI loss of the reservoir's assignment w.r.t. centroids.

    The loss is ``mi_loss(Q)``, where row i of ``Q`` is the soft assignment
    (:func:`soft_assign_vector`) of the i-th reservoir style. The gradient
    chains through the row softmax and the Euclidean distance; at a
    zero-distance pair the norm's subgradient 0 is used. Returns a
    ``(K, dim)`` matrix of per-centroid gradients, exactly zero for K = 1
    (every row softmax is then the constant 1).
    """
    if len(reservoir) == 0:
        raise InsufficientDataError("gradient needs a nonempty reservoir")
    styles = reservoir.styles
    cents = centroids._centroids
    if cents.shape[0] == 1:
        return np.zeros_like(cents)
    n, d = styles.shape
    # Arrays are (K, n), indexed [centroid j, style i], so that reductions
    # over the styles run along contiguous rows.
    sq, cols, rows, diff = _squared_distances(cents, styles)
    dist = np.sqrt(sq)
    scale = np.sqrt(d)
    logq = _log_softmax(-dist / scale, axis=0)
    q = np.exp(logq)

    # dL/dq_ij = (ln qbar_j - ln q_ij) / n, with zero-probability cells masked.
    log_qbar = _logsumexp(logq, axis=1) - np.log(n)
    with np.errstate(invalid="ignore"):
        dl_dq = np.where(q > 0.0, (log_qbar - logq) / n, 0.0)
    row_dot = (dl_dq * q).sum(axis=0, keepdims=True)
    dl_dlogits = q * (dl_dq - row_dot)

    # d logit_ij / d c_j = -(c_j - s_i) / (dist_ij * scale), taken as 0 at
    # dist 0. With w = -dL/dlogit / (dist * scale) the gradient is
    # sum_i w_ij (c_j - s_i) = c_j sum_i w_ij - (w S)_j.
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(dist > 0.0, -dl_dlogits / (dist * scale), 0.0)
    # Close pairs contribute through their exact differences instead: in the
    # contraction their two large terms would cancel to a small one.
    close_w = w[cols, rows]
    w[cols, rows] = 0.0
    grad = cents * w.sum(axis=1, keepdims=True) - w @ styles
    np.add.at(grad, cols, close_w[:, None] * diff)
    return grad


def _squared_distances(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances between the rows of ``a`` and ``b`` (Gram form).

    ``|a|^2 - 2 a.b + |b|^2`` carries an absolute error of a few ulps of
    ``|a|^2 + |b|^2``; pairs below ``_GRAM_CLOSE`` of that are recomputed
    from exact differences, so a centroid sitting on a reservoir row keeps
    distance exactly 0. Returns the matrix plus the close pairs' indices
    into ``a`` and ``b`` and their differences ``a_i - b_j``.
    """
    norms = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
    sq = norms - 2.0 * (a @ b.T)
    ia, ib = np.nonzero(sq < _GRAM_CLOSE * norms)
    diff = a[ia] - b[ib]
    sq[ia, ib] = np.einsum("ij,ij->i", diff, diff)
    return sq, ia, ib, diff


def update_centroids(
    centroids: CentroidSet,
    reservoir: StyleReservoir,
    lr: float = DEFAULT_CENTROID_LR,
) -> None:
    """One plain gradient-descent step on the MI loss, in place.

    Every centroid is updated, the source centroid included. At K = 1 the
    gradient is exactly zero (:func:`mi_grad_centroids`), so after the
    argument checks the step leaves the centroid as it is.
    """
    if not (np.isfinite(lr) and lr >= 0):
        raise InputDomainError(f"lr must be finite and nonnegative, got {lr}")
    if len(reservoir) == 0:
        raise InsufficientDataError("centroid update needs a nonempty reservoir")
    if centroids.count == 1:
        return
    grad = mi_grad_centroids(reservoir, centroids)
    if not np.all(np.isfinite(grad)):
        bad = np.argwhere(~np.isfinite(grad))
        raise NumericalError(f"non-finite centroid gradient at entries {bad[:4].tolist()}")
    centroids.set_centroids(centroids.centroids - lr * grad)
