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


def _sparse(n: int, entries: dict) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    for (i, j), z in entries.items():
        m[i, j] = z
    return m


def _near_identity(n: int) -> np.ndarray:
    m = np.eye(n, dtype=complex)
    m[0, n - 1], m[n // 2, 3], m[n - 1, n - 2] = 0.5j, complex(-0.0, 1e-17), -1.0 / 3.0
    m[7, 7] = complex(np.cos(0.3), np.sin(0.3))
    return m


ZERO_RUN_CASES = {
    # runs before the first written entry, between two and after the last
    "runs_at_start_middle_and_end": _sparse(6, {(2, 3): 1.5 - 2j, (4, 0): -0.25j}),
    "all_zero": np.zeros((5, 5), dtype=complex),
    "only_the_last_entry": _sparse(4, {(3, 3): 1e-300 + 0j}),
    "only_the_first_entry": _sparse(4, {(0, 0): 0.5}),
    "minus_zero_in_one_part": _sparse(4, {(0, 2): complex(0.0, -0.0),
                                          (3, 1): complex(-0.0, 0.0)}),
    "non_finite_next_to_runs": _sparse(5, {(0, 3): complex(np.nan, 0.0),
                                           (2, 2): complex(0.0, -np.inf),
                                           (4, 4): complex(np.inf, np.nan)}),
    "near_identity_512": _near_identity(512),
}


@pytest.mark.parametrize("name", ZERO_RUN_CASES)
def test_pairs_json_writes_zero_runs_as_json_dumps_does(name):
    m = ZERO_RUN_CASES[name]
    got, want = _pairs_json(m), json.dumps(matrix_to_entries(m))
    if got != want:  # named by its first difference: pytest's diff of MB strings takes minutes
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                  min(len(got), len(want)))
        lo = max(at - 30, 0)
        pytest.fail(f"differs at {at}: {got[lo:at + 30]!r} != {want[lo:at + 30]!r}")
