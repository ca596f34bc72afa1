"""JSON-friendly encoding of complex matrices and vectors.

Complex arrays travel as flat row-major lists of [re, im] pairs so that a
round trip through ``json`` preserves every double bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch
from .linalg import _integral


def _to_pairs(a) -> list[list[float]]:
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], -1).tolist()


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _pairs_json(a) -> str:
    """``json.dumps(_to_pairs(a))``, written without building the pairs.

    Each +0.0 is the literal ``0.0``; every other double, -0.0 included,
    gets one ``float.__repr__``, and a non-finite one json's spelling.
    """
    flat = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(np.float64)
    if not flat.size:
        return "[]"
    # tokens: "[[", re, ", ", im, "], [", re, ", ", im, ..., "]]"
    tokens = np.empty(2 * flat.size + 1, dtype=object)
    tokens[1::2] = "0.0"
    tokens[2::4] = ", "
    tokens[4::4] = "], ["
    tokens[0], tokens[-1] = "[[", "]]"
    nonzero = np.flatnonzero(flat.view(np.uint64))  # -0.0 has its sign bit set
    values = flat[nonzero]
    text = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        text = [_NON_FINITE.get(t, t) for t in text]
    tokens[2 * nonzero + 1] = text
    return "".join(tokens.tolist())


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
    return _from_pairs(entries, (_integral(dim, "dim"),) * 2)


def vector_to_entries(v: np.ndarray) -> list[list[float]]:
    """Flatten a complex vector to [re, im] pairs."""
    return _to_pairs(v)


def entries_to_vector(entries, dim: int) -> np.ndarray:
    """Rebuild a complex vector of length dim from [re, im] pairs."""
    return _from_pairs(entries, (_integral(dim, "dim"),))
