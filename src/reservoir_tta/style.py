"""Batch style fingerprints from a frozen random feature stack.

A "style vector" summarizes one test batch as the concatenated per-channel
log-variances of the activations of a small frozen extractor. Two batches
drawn from the same input distribution land close together; a covariate
shift (rotation, rescaling, added noise) moves the whole fingerprint.

The extractor here is a seeded stack of random linear layers with an
elementwise nonlinearity. It is intentionally tiny: shallow-layer channel
statistics are what carry the signal, not learned semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateBatchError,
    InputDomainError,
    InsufficientDataError,
    StyleFileFormatError,
)

# Variance floor applied before the logarithm. Keeps style entries finite
# for constant channels without perturbing non-degenerate statistics.
VAR_FLOOR = 1e-12

DEFAULT_LAYER_CHANNELS = (8, 16, 16)
NONLINEARITIES = ("tanh", "identity")


class FeatureExtractor:
    """Frozen, seeded stack of random linear maps with a pointwise nonlinearity.

    Weights are drawn once at construction and never change; two extractors
    built from the same ``(input_dim, layer_channels, seed, nonlinearity)``
    produce bit-identical activations on identical inputs.
    """

    def __init__(
        self,
        input_dim: int,
        layer_channels: Sequence[int] = DEFAULT_LAYER_CHANNELS,
        seed: int = 0,
        nonlinearity: str = "tanh",
        weight_scale: float = 0.25,
    ):
        if input_dim < 1:
            raise InputDomainError(f"input_dim must be positive, got {input_dim}")
        if not layer_channels or any(c < 1 for c in layer_channels):
            raise InputDomainError(f"layer_channels must be positive, got {layer_channels}")
        if nonlinearity not in NONLINEARITIES:
            raise InputDomainError(f"unknown nonlinearity {nonlinearity!r}")
        if weight_scale <= 0:
            raise InputDomainError(f"weight_scale must be positive, got {weight_scale}")
        self.input_dim = int(input_dim)
        self.layer_channels = tuple(int(c) for c in layer_channels)
        self.seed = int(seed)
        self.nonlinearity = nonlinearity
        self.weight_scale = float(weight_scale)

        # Sub-unit weight scale keeps tanh activations out of saturation,
        # where channel variances stay responsive to input changes.
        rng = np.random.default_rng(self.seed)
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        fan_in = self.input_dim
        for c in self.layer_channels:
            w = weight_scale * rng.standard_normal((c, fan_in)) / np.sqrt(fan_in)
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
        """Per-layer activations for a ``(b, input_dim)`` batch."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InputDomainError(
                f"batch must have shape (b, {self.input_dim}), got {x.shape}"
            )
        out = []
        for w, b in zip(self._weights, self._biases):
            x = x @ w.T + b
            if self.nonlinearity == "tanh":
                x = np.tanh(x)
            out.append(x)
        return out


def extract_style(batch: np.ndarray, extractor: FeatureExtractor) -> np.ndarray:
    """Concatenated per-channel log-variances of the extractor's activations.

    For every channel of every layer the statistic is
    ``ln(max(var(channel activations over the batch), VAR_FLOOR))``; layers
    are concatenated in order, channels within a layer in order. Pure and
    deterministic for a fixed extractor.

    Raises:
        DegenerateBatchError: fewer than 2 samples (variance is degenerate).
        InputDomainError: non-finite entries in the batch.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise InputDomainError(f"batch must be 2-D (b, input_dim), got shape {x.shape}")
    if x.shape[0] < 2:
        raise DegenerateBatchError(
            f"style extraction needs at least 2 samples, got {x.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise InputDomainError("batch contains non-finite entries")
    parts = []
    for z in extractor.activations(x):
        var = z.var(axis=0)
        parts.append(np.log(np.maximum(var, VAR_FLOOR)))
    return np.concatenate(parts)


@dataclass(frozen=True)
class ThresholdCalibration:
    """New-domain threshold: a quantile of source pairwise style distances."""

    tau: float
    quantile: float
    dim: int
    source_sample_count: int


def calibrate_threshold(
    source_styles: Sequence[np.ndarray], quantile: float
) -> ThresholdCalibration:
    """Empirical quantile of all pairwise Euclidean distances among source styles.

    Uses the nearest-rank method (the ``ceil(q * N)``-th smallest of the
    ``N = n(n-1)/2`` distances) so the result is exactly reproducible.
    Permutation-invariant in the input order.
    """
    if not 0.0 < quantile <= 1.0:
        raise InputDomainError(f"quantile must be in (0, 1], got {quantile}")
    styles = _as_style_matrix(source_styles)
    n = styles.shape[0]
    if n < 2:
        raise InsufficientDataError(f"threshold calibration needs >= 2 styles, got {n}")
    blocks = [
        np.sqrt(((styles[i + 1 :] - styles[i]) ** 2).sum(axis=1)) for i in range(n - 1)
    ]
    dists = np.sort(np.concatenate(blocks))
    rank = int(np.ceil(quantile * dists.size))  # 1-indexed order statistic
    tau = float(dists[rank - 1])
    return ThresholdCalibration(
        tau=tau, quantile=float(quantile), dim=styles.shape[1], source_sample_count=n
    )


def mean_style(source_styles: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise arithmetic mean of a nonempty style collection."""
    if len(source_styles) == 0:
        raise InsufficientDataError("mean_style needs at least one style vector")
    return _as_style_matrix(source_styles).mean(axis=0)


def _as_style_matrix(styles: Sequence[np.ndarray]) -> np.ndarray:
    mat = np.asarray(list(styles), dtype=np.float64)
    if mat.ndim != 2:
        raise InputDomainError("style vectors must all share one dimension")
    return mat


def export_styles(path: str | Path, styles: Iterable[np.ndarray]) -> int:
    """Write style vectors to the text format; returns the number written.

    Format: UTF-8, one vector per line, comma-separated decimals with 17
    significant digits (float64 round-trips exactly); '#' lines are comments.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# style vectors, one per line, comma-separated\n")
        for s in styles:
            vec = np.asarray(s, dtype=np.float64)
            fh.write(",".join(f"{v:.17g}" for v in vec))
            fh.write("\n")
            count += 1
    return count


def import_styles(path: str | Path, expected_dim: int) -> list[np.ndarray]:
    """Read style vectors from the text format, validating shape and finiteness."""
    out: list[np.ndarray] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                vec = np.array([float(tok) for tok in stripped.split(",")])
            except ValueError as exc:
                raise StyleFileFormatError(f"{path}:{lineno}: unparseable entry ({exc})")
            if vec.size != expected_dim:
                raise StyleFileFormatError(
                    f"{path}:{lineno}: expected {expected_dim} entries, got {vec.size}"
                )
            if not np.all(np.isfinite(vec)):
                raise StyleFileFormatError(f"{path}:{lineno}: non-finite entry")
            out.append(vec)
    return out
