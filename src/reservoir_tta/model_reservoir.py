"""Pool of domain-specialized trainable-parameter vectors.

One flat parameter vector per discovered domain, index-aligned with the
style centroids and kept as the rows of one ``(count, dim)`` matrix. Only
vector-space structure is assumed: cloning, per-index writes, and
soft-assignment weighted sums. The model that interprets the layout lives
elsewhere.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .clustering import mi_loss
from .errors import InputDomainError, NumericalError

Predictor = Callable[[np.ndarray], np.ndarray]  # params -> (b, |Y|) probabilities


def select_active(q: np.ndarray) -> int:
    """Index of the largest soft-assignment weight; ties go to the lowest index."""
    vec = np.asarray(q, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise InputDomainError("soft assignment must be a nonempty vector")
    return int(np.argmax(vec))


class ModelReservoir:
    """Per-domain parameter vectors; entry 0 starts as the source parameters."""

    def __init__(self, source_params: np.ndarray):
        src = np.asarray(source_params, dtype=np.float64)
        if src.ndim != 1 or src.size == 0:
            raise InputDomainError("source parameters must be a nonempty vector")
        if not np.all(np.isfinite(src)):
            raise InputDomainError("source parameters have non-finite entries")
        self.dim = src.size
        self._entries = src[None, :].copy()  # (count, dim), grown on a spawn

    @property
    def count(self) -> int:
        return self._entries.shape[0]

    def entry(self, index: int) -> np.ndarray:
        """Copy of one entry's parameters."""
        self._check_index(index)
        return self._entries[index].copy()

    def entries_matrix(self) -> np.ndarray:
        """All entries as a ``(count, dim)`` matrix (copy)."""
        return self._entries.copy()

    def init_new_model(self, predictor: Predictor) -> np.ndarray:
        """Append a model for a newly detected domain; returns its parameters.

        The new model clones the existing entry whose predictions on the
        current batch (``predictor`` binds it) minimize the
        mutual-information loss (confident and diverse); ties go to the
        lowest index.
        """
        losses = []
        for idx, params in enumerate(self._entries):
            probs = np.asarray(predictor(params.copy()), dtype=np.float64)
            if not np.all(np.isfinite(probs)):
                raise NumericalError(f"entry {idx} produced non-finite predictions")
            losses.append(mi_loss(probs))
        chosen = self._entries[int(np.argmin(losses))].copy()
        self._entries = np.vstack([self._entries, chosen])
        return chosen

    def ensemble_params(self, q: np.ndarray) -> np.ndarray:
        """Soft-assignment weighted sum of all entries (prediction-only).

        At one entry the assignment is ``[1.0]`` and the sum is that entry
        exactly, so a single-model run predicts through here as well.
        """
        weights = np.asarray(q, dtype=np.float64)
        if weights.shape != (self.count,):
            raise InputDomainError(
                f"assignment length {weights.size} != entry count {self.count}"
            )
        return weights @ self._entries

    def write_active(self, index: int, new_params: np.ndarray) -> None:
        """Replace exactly one entry; all others stay bit-identical."""
        self._check_index(index)
        params = np.asarray(new_params, dtype=np.float64)
        if params.shape != (self.dim,):
            raise InputDomainError(
                f"parameter vector has shape {params.shape}, expected ({self.dim},)"
            )
        self._entries[index] = params

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise InputDomainError(
                f"entry index {index} out of range [0, {self.count})"
            )
