"""JSON-friendly encoding of complex matrices and vectors.

Complex arrays travel as flat row-major lists of [re, im] pairs so that a
round trip through ``json`` preserves every double bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch


def _to_pairs(a) -> list[list[float]]:
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], -1).tolist()


def _from_pairs(entries, shape: tuple[int, ...]) -> np.ndarray:
    """[re, im] pairs as a complex array of ``shape``, every bit kept (-0.0 too)."""
    count = math.prod(shape)
    if min(shape) <= 0:
        raise DimMismatch(f"dimensions {shape} must be positive")
    try:
        pairs = np.asarray(entries)
    except ValueError:  # ragged nesting
        raise DimMismatch("entries must be [re, im] pairs") from None
    if pairs.shape != (count, 2):
        raise DimMismatch(f"expected {count} [re, im] pairs, got shape {pairs.shape}")
    if pairs.dtype.kind not in "biuf":
        raise TypeError(f"entries must be numbers, got {pairs.dtype} values")
    return np.array(pairs, dtype=np.float64, order="C").view(complex).reshape(shape)


def matrix_to_entries(m: np.ndarray) -> list[list[float]]:
    """Flatten a complex matrix to row-major [re, im] pairs."""
    return _to_pairs(m)


def entries_to_matrix(entries, dim: int) -> np.ndarray:
    """Rebuild a dim x dim complex matrix from row-major [re, im] pairs."""
    return _from_pairs(entries, (int(dim), int(dim)))


def vector_to_entries(v: np.ndarray) -> list[list[float]]:
    """Flatten a complex vector to [re, im] pairs."""
    return _to_pairs(v)


def entries_to_vector(entries, dim: int) -> np.ndarray:
    """Rebuild a complex vector of length dim from [re, im] pairs."""
    return _from_pairs(entries, (int(dim),))
