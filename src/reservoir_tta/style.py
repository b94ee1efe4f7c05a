"""Batch style fingerprints from a frozen random feature stack.

A "style vector" summarizes one test batch as the concatenated per-channel
log-variances of the activations of a small frozen extractor. Two batches
drawn from the same input distribution land close together; a covariate
shift (rotation, rescaling, added noise) moves the whole fingerprint.

The extractor here is a seeded stack of random linear layers, each followed
by tanh. It is intentionally tiny: shallow-layer channel statistics are what
carry the signal, not learned semantics.

Style extraction takes one ``(b, input_dim)`` batch or a ``(B, b, input_dim)``
stack of batches. A stack is reduced per batch (the variance runs over the
sample axis, -2) and gives the same ``(B, style_dim)`` bits as ``B`` single
calls, so the set-up, which needs thousands of styles, makes one call per
stack instead of one per batch. The new-domain threshold is an exact order
statistic of the pairwise style distances; a Gram-product screen with a
proven rounding bound picks the few pairs that can hold it, keeping only
the values near the order statistic's shorter tail, not every pair.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DegenerateBatchError,
    InputDomainError,
    InsufficientDataError,
    NumericalError,
)
from .seeding import keyed_rng

# Variance floor applied before the logarithm. Keeps style entries finite
# for constant channels without perturbing non-degenerate statistics.
VAR_FLOOR = 1e-12

DEFAULT_LAYER_CHANNELS = (8, 16, 16)

# Sub-unit weight scale keeps tanh activations out of saturation, where
# channel variances stay responsive to input changes.
WEIGHT_SCALE = 0.25

# Rows of the distance matrix the threshold screen holds at once, and pairs
# its exact recomputation gathers at once: with the kept tail, they bound the
# transient memory by O(_SCREEN_ROWS * n + min(rank, pairs - rank + 1)).
_SCREEN_ROWS = 64
_EXACT_PAIRS = 1 << 14


class FeatureExtractor:
    """Frozen, seeded stack of random linear maps, each followed by tanh.

    Weights are drawn once at construction, from ``keyed_rng(seed)``, and
    never change; two extractors built from the same ``(input_dim,
    layer_channels, seed)`` produce bit-identical activations on identical
    inputs. A seed outside ``[0, 2**32)`` raises ``OverflowError``.
    """

    def __init__(
        self,
        input_dim: int,
        layer_channels: Sequence[int] = DEFAULT_LAYER_CHANNELS,
        seed: int = 0,
    ):
        if input_dim < 1:
            raise InputDomainError(f"input_dim must be positive, got {input_dim}")
        if not layer_channels or any(c < 1 for c in layer_channels):
            raise InputDomainError(f"layer_channels must be positive, got {layer_channels}")
        self.input_dim = int(input_dim)
        self.layer_channels = tuple(int(c) for c in layer_channels)
        self.seed = int(seed)

        rng = keyed_rng(self.seed)
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        fan_in = self.input_dim
        for c in self.layer_channels:
            w = WEIGHT_SCALE * rng.standard_normal((c, fan_in)) / np.sqrt(fan_in)
            b = 0.1 * rng.standard_normal(c)
            self._weights.append(w)
            self._biases.append(b)
            fan_in = c
        for w in self._weights:
            w.setflags(write=False)
        for b in self._biases:
            b.setflags(write=False)

    @property
    def style_dim(self) -> int:
        """Total channel count across all layers (= style vector length)."""
        return sum(self.layer_channels)

    def activations(self, batch: np.ndarray) -> list[np.ndarray]:
        """Per-layer activations, ``(..., channels)`` each, of a
        ``(b, input_dim)`` batch or a ``(B, b, input_dim)`` stack of batches."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise InputDomainError(
                f"batch must have shape (b, {self.input_dim}) or "
                f"(B, b, {self.input_dim}), got {x.shape}"
            )
        out = []
        for w, b in zip(self._weights, self._biases):
            x = x @ w.T
            x += b
            np.tanh(x, out=x)
            out.append(x)
        return out


def extract_style(batch: np.ndarray, extractor: FeatureExtractor) -> np.ndarray:
    """Concatenated per-channel log-variances of the extractor's activations.

    For every channel of every layer the statistic is
    ``ln(max(var(channel activations over the batch), VAR_FLOOR))``; layers
    are concatenated in order, channels within a layer in order. Pure and
    deterministic for a fixed extractor.

    ``batch`` is one ``(b, input_dim)`` batch, giving a ``(style_dim,)``
    vector, or a ``(B, b, input_dim)`` stack, giving ``(B, style_dim)``: the
    variance runs over the sample axis (-2) of each batch, and row ``i`` is
    bit-identical to ``extract_style(batch[i], extractor)``.

    Raises:
        DegenerateBatchError: fewer than 2 samples per batch (variance is degenerate).
        InputDomainError: another shape, or non-finite entries in the batch.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise InputDomainError(
            f"batch must be (b, input_dim) or a (B, b, input_dim) stack, got shape {x.shape}"
        )
    if x.shape[-2] < 2:
        raise DegenerateBatchError(
            f"style extraction needs at least 2 samples per batch, got {x.shape[-2]}"
        )
    if not np.all(np.isfinite(x)):
        raise InputDomainError("batch contains non-finite entries")
    parts = [
        np.log(np.maximum(z.var(axis=-2), VAR_FLOOR)) for z in extractor.activations(x)
    ]
    return np.concatenate(parts, axis=-1)


def calibrate_threshold(source_styles: Sequence[np.ndarray], quantile: float) -> float:
    """The new-domain threshold tau: the empirical quantile of all pairwise
    Euclidean distances among source styles.

    Uses the nearest-rank method (the ``ceil(q * N)``-th smallest of the
    ``N = n(n-1)/2`` distances) so the result is exactly reproducible.
    Permutation-invariant in the input order.

    The distance of a pair is ``sqrt(((s_j - s_i)**2).sum())``, evaluated in
    exactly that form, and ``tau`` is its order statistic to the bit. Only
    the pairs that can hold it are evaluated so: every squared distance is
    first approximated from Gram products of the mean-centred styles, in
    blocks of rows, and ``E`` bounds how far any approximation can lie from
    the exact form's value (derivation below). With ``A`` the rank-th
    smallest approximation, every pair approximated below ``A - 2E`` is
    exactly smaller, and every pair above ``A + 2E`` exactly larger, than
    the rank-th exact value, which therefore is an order statistic of the
    pairs in between.

    The screen walks the shorter tail, the ``m = rank`` smallest values or,
    negated, the ``m = N - rank + 1`` largest. Its running bound, the m-th
    smallest kept value, renewed once the kept set has doubled, never drops
    below ``A`` (in that sign), and each block keeps only the values at most
    bound + 2E, so every value within 2E of ``A`` is kept, in
    ``O(_SCREEN_ROWS * n + m)`` memory.

    Raises:
        InputDomainError: quantile outside (0, 1], or non-finite styles.
        InsufficientDataError: fewer than 2 styles.
        NumericalError: the screen's window misses the rank (the bound failed).
    """
    if not 0.0 < quantile <= 1.0:
        raise InputDomainError(f"quantile must be in (0, 1], got {quantile}")
    styles = _as_style_matrix(source_styles)
    n, d = styles.shape
    if n < 2:
        raise InsufficientDataError(f"threshold calibration needs >= 2 styles, got {n}")
    if not np.all(np.isfinite(styles)):
        raise InputDomainError("source styles must be finite")
    pairs = n * (n - 1) // 2
    rank = int(np.ceil(quantile * pairs))  # 1-indexed order statistic

    # Negation is exact: either sign gives the window edges the same bits.
    sign, m = (1.0, rank) if 2 * rank <= pairs + 1 else (-1.0, pairs - rank + 1)
    # Pairs (i, j > i) in row-major order; row i starts at starts[i].
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    c = styles - styles.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    # Rounding bound, u = eps/2 and R^2 = max ||c_i||^2, to first order in u:
    # - screen vs ||c_j - c_i||^2: ||c_i||^2, ||c_j||^2 and c_i.c_j are
    #   length-d dot products, each off by at most d*u*R^2 in any summation
    #   order, so their combination by 4d*u*R^2; the two additions round
    #   values below 2R^2 and 4R^2: (2d + 3)*eps*R^2 in all;
    # - centring, c_i = (s_i - mean)(1 + theta), moves ||c_j - c_i|| off
    #   ||s_j - s_i|| by at most 2uR, and the square by 8uR^2 = 4*eps*R^2;
    # - the exact form rounds each difference and square and sums d terms,
    #   a relative error of (d + 2)*u on a value below 4R^2: (2d + 4)*eps*R^2.
    # The sum, (4d + 11)*eps*R^2, sits below E = (4d + 32)*eps*R^2; the rest
    # absorbs second-order terms and the rounding of R^2, E and the window
    # edges (about 2*eps*R^2 at most).
    err = (2 * d + 16) * np.finfo(np.float64).eps * 2.0 * sq.max()
    # After the last block, bound is A (signed).
    bound, held, vals, pos = np.inf, 0, [], []
    for r0 in range(0, n - 1, _SCREEN_ROWS):
        v, p = _screen_block(c, sq, r0, sign, bound + 2.0 * err)
        vals.append(v)
        pos.append(starts[r0] + p)
        if sum(map(len, vals)) >= max(m, 2 * held) or r0 + _SCREEN_ROWS >= n - 1:
            vals = np.concatenate(vals)
            bound = np.partition(vals, m - 1)[m - 1]
            keep = vals <= bound + 2.0 * err
            vals, pos = [vals[keep]], [np.concatenate(pos)[keep]]
            held = vals[0].size
    vals, pos = vals[0], pos[0]
    approx, a = sign * vals, sign * bound
    lo, hi = a - 2.0 * err, a + 2.0 * err
    # Kept: every pair below lo on the lower tail, every other one on the upper.
    below = np.count_nonzero(approx < lo) if sign > 0 else pairs - np.count_nonzero(approx >= lo)
    k = rank - below  # 1-indexed among the candidates
    cand = pos[(approx >= lo) & (approx <= hi)]
    if not 1 <= k <= cand.size:
        raise NumericalError(
            f"threshold screen missed rank {rank}: candidate {k} outside 1..{cand.size}"
        )
    exact = np.empty(cand.size)
    for p0 in range(0, cand.size, _EXACT_PAIRS):
        p = cand[p0 : p0 + _EXACT_PAIRS]
        i = np.searchsorted(starts, p, side="right") - 1
        j = p - starts[i] + i + 1
        exact[p0 : p0 + _EXACT_PAIRS] = ((styles[j] - styles[i]) ** 2).sum(axis=1)
    # sqrt is monotone, so the order statistic commutes with it.
    return float(np.sqrt(np.partition(exact, k - 1)[k - 1]))


def _screen_block(c, sq, r0, sign, limit):
    """The screen's signed values ``sign * ||c_j - c_i||^2`` of the pairs
    ``(i, j > i)`` in rows ``r0 .. r0 + _SCREEN_ROWS - 1`` that are at most
    ``limit``, and their offsets from row ``r0``'s first pair."""
    r1 = min(r0 + _SCREEN_ROWS, c.shape[0] - 1)
    block = sq[r0:r1, None] + sq[None, r0:] - 2.0 * (c[r0:r1] @ c[r0:].T)
    v = block[np.arange(r0, c.shape[0])[None, :] > np.arange(r0, r1)[:, None]]
    v *= sign
    p = np.flatnonzero(v <= limit)
    return v[p], p


def _as_style_matrix(styles: Sequence[np.ndarray]) -> np.ndarray:
    try:
        mat = np.asarray(list(styles), dtype=np.float64)
    except ValueError as exc:  # numpy refuses rows of different lengths
        raise InputDomainError(f"style vectors must all share one dimension ({exc})") from exc
    if mat.ndim != 2:
        raise InputDomainError("style vectors must all share one dimension")
    return mat
