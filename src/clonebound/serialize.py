"""JSON-friendly encoding of complex matrices and vectors.

Complex arrays travel as flat row-major lists of [re, im] pairs so that a
round trip through ``json`` preserves every double bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch
from .linalg import _integral


def _pairs(a) -> np.ndarray:
    """The entries of ``a``, row-major, as a (count, 2) float64 view of
    [re, im] pairs, every bit kept."""
    return np.ascontiguousarray(a, dtype=complex).reshape(-1).view(np.float64).reshape(-1, 2)


def _to_pairs(a) -> list[list[float]]:
    return _pairs(a).tolist()


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# one all-+0.0 entry as json.dumps writes it, with the separator before it
_ZERO = ", [0.0, 0.0]"


def _pairs_json(a) -> str:
    """``json.dumps(_to_pairs(a))``, in time proportional to the written entries.

    An entry with a set bit in either part (-0.0 included) is written with
    one ``float.__repr__`` per part, and a non-finite part in json's spelling;
    each run of k all-+0.0 entries between them is the one repetition
    ``_ZERO * k``.
    """
    pairs = _pairs(a)
    bits = pairs.view(np.uint64)
    written = np.flatnonzero((bits[:, 0] | bits[:, 1]) != 0)
    values = pairs[written]
    text = list(map(float.__repr__, values.ravel().tolist()))
    if not np.isfinite(values).all():
        text = [_NON_FINITE.get(t, t) for t in text]
    ends = [-1, *written.tolist()]  # the entry before the first is at -1
    pieces = [f"{_ZERO * (i - end - 1)}, [{re}, {im}]"
              for i, end, re, im in zip(ends[1:], ends, text[0::2], text[1::2])]
    pieces.append(_ZERO * (len(pairs) - 1 - ends[-1]))
    return f"[{''.join(pieces)[2:]}]"  # the first entry takes no separator


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
