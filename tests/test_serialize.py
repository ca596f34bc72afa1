import json

import numpy as np
import pytest

from clonebound.errors import DimMismatch
from clonebound.serialize import (
    entries_to_matrix,
    entries_to_vector,
    matrix_to_entries,
    vector_to_entries,
)

EDGE = [0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.0 / 3.0, -7.5]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


def test_round_trip_keeps_every_bit():
    vals = np.array(EDGE)
    m = np.empty((8, 8), dtype=complex)
    m.real = vals[:, None]  # -0.0, subnormals and +-1e308 in both parts
    m.imag = vals[::-1][None, :]
    assert np.signbit(m.real[1]).all() and np.signbit(m.imag[:, 6]).all()
    doc = json.loads(json.dumps(matrix_to_entries(m)))
    assert _same_bits(entries_to_matrix(doc, 8), m)
    v = m[3].copy()
    assert _same_bits(entries_to_vector(json.loads(json.dumps(vector_to_entries(v))), 8), v)


def test_array_views_match_the_per_element_loops():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m.real[0, :5] = EDGE[:5]
    m.imag[1, :5] = EDGE[3:]
    loop = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    assert json.dumps(matrix_to_entries(m)) == json.dumps(loop)
    back = np.array([complex(re, im) for re, im in loop]).reshape(5, 5)
    assert _same_bits(entries_to_matrix(loop, 5), back)


def test_entries_are_python_float_pairs():
    got = matrix_to_entries(np.array([[complex(-0.0, 1.0), complex(2.5, -0.0)]]))
    assert got == [[-0.0, 1.0], [2.5, -0.0]]
    assert all(type(x) is float for pair in got for x in pair)
    assert str(got[0][0]) == "-0.0" and str(got[1][1]) == "-0.0"


def test_integer_entries_read_as_doubles():
    assert np.array_equal(entries_to_vector([[1, 0], [0, -2]], 2), np.array([1, -2j]))


def test_wrong_pair_length_rejected():
    with pytest.raises(DimMismatch):
        entries_to_vector([[1.0, 0.0], [0.0, 0.0, 0.0]], 2)
    with pytest.raises(DimMismatch):
        entries_to_vector([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 2)


def test_wrong_count_rejected():
    with pytest.raises(DimMismatch):
        entries_to_matrix([[1.0, 0.0]] * 3, 2)
    with pytest.raises(DimMismatch):
        entries_to_vector([], 1)
    with pytest.raises(DimMismatch):
        entries_to_matrix([], 0)


@pytest.mark.parametrize("bad", ["1.0", None, [1.0], {"re": 1.0}])
def test_non_numeric_values_rejected(bad):
    with pytest.raises((TypeError, DimMismatch)):
        entries_to_vector([[1.0, 0.0], [bad, 0.0]], 2)
    with pytest.raises((TypeError, DimMismatch)):
        entries_to_vector([[1.0, 0.0], [0.0, bad]], 2)
