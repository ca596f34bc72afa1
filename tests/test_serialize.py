import json
import math

import numpy as np
import pytest

from clonebound.errors import DimMismatch
from clonebound.serialize import (
    _pairs_json,
    entries_to_matrix,
    entries_to_vector,
    matrix_to_entries,
    vector_to_entries,
)
from clonebound.states import _haar

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


def test_pairs_json_is_json_dumps_of_the_pairs_at_the_edges():
    inf, nan = float("inf"), float("nan")
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -5e-324)],
                  [complex(1e-5, 1e16), complex(1e300, -1e300), complex(-nan, 0.0)],
                  [complex(inf, -inf), complex(-inf, nan), complex(1.0 / 3.0, -7.5)]])
    assert np.signbit(m[1, 2].real)  # a NaN with its sign bit set
    text = _pairs_json(m)
    assert text == json.dumps(matrix_to_entries(m))
    assert text.startswith('[[-0.0, 0.0], [0.0, -0.0], [5e-324, -5e-324], [1e-05, 1e+16]')
    assert "[Infinity, -Infinity], [-Infinity, NaN]" in text
    assert _pairs_json(m.T) == json.dumps(matrix_to_entries(m.T))  # not C-contiguous
    assert _pairs_json(m[0]) == json.dumps(vector_to_entries(m[0]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64])
def test_pairs_json_matches_on_dense_and_identity_like_matrices(n):
    rng = np.random.default_rng(n)
    haar = _haar(rng, (n, n))
    near_identity = np.eye(n, dtype=complex)
    near_identity[: min(n, 3), : min(n, 3)] = _haar(rng, (min(n, 3),) * 2)
    near_identity[n - 1, 0] = complex(-0.0, 0.25)
    for m in (haar, haar.T, near_identity, near_identity[:, ::-1]):
        assert _pairs_json(m) == json.dumps(matrix_to_entries(m))


def test_pairs_json_matches_on_arbitrary_bit_patterns():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    bits = st.one_of(st.integers(0, 2 ** 64 - 1),
                     st.sampled_from([0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48]))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 6).flatmap(
        lambda n: st.lists(bits, min_size=2 * n * n, max_size=2 * n * n)))
    def check(words):
        n = math.isqrt(len(words) // 2)
        m = np.array(words, dtype=np.uint64).view(np.float64).view(complex).reshape(n, n)
        assert _pairs_json(m) == json.dumps(matrix_to_entries(m))

    check()
