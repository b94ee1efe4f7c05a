"""Pool of domain-specialized trainable-parameter vectors.

One flat parameter vector per discovered domain, index-aligned with the
style centroids, plus the frozen source parameters. Only vector-space
structure is assumed: cloning, per-index writes, and soft-assignment
weighted sums. The model that interprets the layout lives elsewhere.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable

import numpy as np

from .clustering import mi_loss
from .errors import FileFormatError, InputDomainError, NumericalError

CHECKPOINT_MAGIC = b"RTTA"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<IIQ")  # version, entry count, dim; after the magic

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
        self.source_params = src.copy()
        self.source_params.setflags(write=False)
        self._entries: list[np.ndarray] = [src.copy()]

    @property
    def count(self) -> int:
        return len(self._entries)

    def entry(self, index: int) -> np.ndarray:
        """Copy of one entry's parameters."""
        self._check_index(index)
        return self._entries[index].copy()

    def entries_matrix(self) -> np.ndarray:
        """All entries stacked as a ``(count, dim)`` matrix (copy)."""
        return np.stack(self._entries)

    def init_new_model(self, batch: np.ndarray, predictor: Predictor) -> np.ndarray:
        """Append a model for a newly detected domain; returns its parameters.

        The new model clones the existing entry whose predictions on
        ``batch`` minimize the mutual-information loss (confident and
        diverse); ties go to the lowest index.
        """
        losses = []
        for idx, params in enumerate(self._entries):
            probs = np.asarray(predictor(params.copy()), dtype=np.float64)
            if not np.all(np.isfinite(probs)):
                raise NumericalError(f"entry {idx} produced non-finite predictions")
            losses.append(mi_loss(probs))
        chosen = self._entries[int(np.argmin(losses))].copy()
        self._entries.append(chosen.copy())
        return chosen

    def ensemble_params(self, q: np.ndarray) -> np.ndarray:
        """Soft-assignment weighted sum of all entries (prediction-only)."""
        weights = np.asarray(q, dtype=np.float64)
        if weights.shape != (self.count,):
            raise InputDomainError(
                f"assignment length {weights.size} != entry count {self.count}"
            )
        return weights @ self.entries_matrix()

    def write_active(self, index: int, new_params: np.ndarray) -> None:
        """Replace exactly one entry; all others stay bit-identical."""
        self._check_index(index)
        params = np.asarray(new_params, dtype=np.float64)
        if params.shape != (self.dim,):
            raise InputDomainError(
                f"parameter vector has shape {params.shape}, expected ({self.dim},)"
            )
        self._entries[index] = params.copy()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise InputDomainError(
                f"entry index {index} out of range [0, {self.count})"
            )

    def save_checkpoint(self, path: str | Path) -> None:
        """Write the length-prefixed binary checkpoint format."""
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(_HEADER.pack(CHECKPOINT_VERSION, self.count, self.dim))
            fh.write(self.source_params.astype("<f8").tobytes())
            for entry in self._entries:
                fh.write(entry.astype("<f8").tobytes())

    @classmethod
    def load_checkpoint(cls, path: str | Path) -> "ModelReservoir":
        """Read a checkpoint written by :meth:`save_checkpoint`.

        Raises:
            FileFormatError: bad magic or version, truncated header, or a
                payload whose length disagrees with the header.
        """
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise FileFormatError(f"bad checkpoint magic {magic!r}")
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise FileFormatError(
                    f"checkpoint header is {4 + len(header)} bytes, "
                    f"expected {4 + _HEADER.size}"
                )
            version, count, dim = _HEADER.unpack(header)
            if version != CHECKPOINT_VERSION:
                raise FileFormatError(f"unsupported checkpoint version {version}")
            expect = (count + 1) * dim * 8
            payload = fh.read()
            if len(payload) != expect:
                raise FileFormatError(
                    f"checkpoint payload is {len(payload)} bytes, expected {expect}"
                )
        flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        source = flat[:dim]
        reservoir = cls(source)
        reservoir._entries = [
            flat[(i + 1) * dim : (i + 2) * dim].copy() for i in range(count)
        ]
        return reservoir
