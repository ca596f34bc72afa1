import importlib
import inspect

import numpy as np
import pytest

from clonebound import linalg
from clonebound.errors import (
    DimMismatch,
    DimTooLarge,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotUnitary,
)

import oracles


def test_as_matrix_rejects_non_2d():
    with pytest.raises(DimMismatch):
        linalg.as_matrix(np.zeros(4))
    with pytest.raises(DimMismatch):
        linalg.as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_nonfinite():
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(NonFinite):
        linalg.as_matrix(m)
    m[0, 1] = np.inf * 1j
    with pytest.raises(NonFinite):
        linalg.as_matrix(m)


def test_as_matrix_rejects_nonsquare_and_oversize():
    with pytest.raises(DimMismatch):
        linalg.as_matrix(np.zeros((2, 3)))
    linalg.as_matrix(np.zeros((2, 3)), square=False)  # allowed when asked
    with pytest.raises(DimTooLarge):
        linalg.as_matrix(np.zeros((4097, 4097)))


def test_require_hermitian():
    linalg.require_hermitian(np.eye(3, dtype=complex))
    with pytest.raises(NotHermitian):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_unitary():
    linalg.require_unitary(np.eye(4, dtype=complex))
    with pytest.raises(NotUnitary):
        linalg.require_unitary(np.eye(4) * 1.001)


def test_hermitian_eig_ascending_and_reconstructs():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        w, u = linalg.hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm((u * w) @ u.conj().T - h) < 1e-12 * max(1, np.linalg.norm(h))


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 6):
        for rank in (1, d // 2 + 1, d):
            m = oracles.random_density(rng, d, rank)
            s = linalg.sqrt_psd(m)
            assert np.linalg.norm(s @ s - m) < 1e-9
            assert np.linalg.norm(s - s.conj().T) == 0.0


def test_sqrt_psd_matches_scipy():
    rng = np.random.default_rng(8)
    import scipy.linalg as sla
    for _ in range(20):
        m = oracles.random_density(rng, 3, 3)
        assert np.linalg.norm(linalg.sqrt_psd(m) - sla.sqrtm(m)) < 1e-9


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSD):
        linalg.sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_suppresses_null_space_noise():
    # rank-1 input: the root must be exactly rank 1 again, with no sqrt(eps)
    # contamination in the null space
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    m = np.outer(v, v.conj())
    s = linalg.sqrt_psd(m)
    w = np.linalg.eigvalsh(s)
    assert abs(w[0]) < 1e-13
    assert abs(w[1] - 1.0) < 1e-13


def test_kron_matches_numpy_and_caps():
    a = np.arange(4).reshape(2, 2) + 0j
    b = np.eye(3) * 2.0
    assert np.array_equal(linalg.kron(a, b), np.kron(a, b))
    with pytest.raises(DimTooLarge):
        linalg.kron(np.eye(100), np.eye(100))


def test_partial_trace_against_loop_oracle():
    rng = np.random.default_rng(11)
    dims = [2, 3, 2]
    total = int(np.prod(dims))
    g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    for keep in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}):
        got = linalg.partial_trace(g, dims, keep)
        want = oracles.partial_trace_loop(g, dims, keep)
        assert np.linalg.norm(got - want) < 1e-12


def test_partial_trace_full_trace_is_1x1():
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    out = linalg.partial_trace(m, [2, 2], set())
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 10.0) < 1e-12


def test_partial_trace_validates():
    with pytest.raises(DimMismatch):
        linalg.partial_trace(np.eye(4), [2, 3], {0})
    with pytest.raises(DimMismatch):
        linalg.partial_trace(np.eye(4), [2, 2], {0, 5})


def test_unitary_power_endpoints():
    rng = np.random.default_rng(17)
    u = oracles.haar_unitary(rng, 4)
    assert np.linalg.norm(linalg.unitary_power(u, 0.0) - np.eye(4)) < 1e-12
    assert np.linalg.norm(linalg.unitary_power(u, 1.0) - u) < 1e-12


def test_unitary_power_composes():
    rng = np.random.default_rng(19)
    u = oracles.haar_unitary(rng, 3)
    for t in (0.25, 0.5, 0.8):
        prod = linalg.unitary_power(u, t) @ linalg.unitary_power(u, 1.0 - t)
        assert np.linalg.norm(prod - u) < 1e-11


def test_unitary_power_phase_branch():
    # eigenphases live in (-pi, pi], so diag(e^{i pi/4}, 1)^(1/2) takes the
    # short way around
    u = np.diag([np.exp(1j * np.pi / 4), 1.0])
    half = linalg.unitary_power(u, 0.5)
    want = np.diag([np.exp(1j * np.pi / 8), 1.0])
    assert np.linalg.norm(half - want) < 1e-14


def test_unitary_power_pauli_x_half():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    want = np.array([[0.5 + 0.5j, 0.5 - 0.5j],
                     [0.5 - 0.5j, 0.5 + 0.5j]])
    half = linalg.unitary_power(x, 0.5)
    assert np.linalg.norm(half - want) < 1e-12
    assert np.linalg.norm(half @ half - x) < 1e-12


def test_unitary_power_deterministic_on_degenerate_spectrum():
    # eigenvalue -1 is doubly degenerate; two calls must agree bitwise
    u = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    a = linalg.unitary_power(u, 0.5)
    b = linalg.unitary_power(u, 0.5)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a @ a - u) < 1e-12


def test_unitary_power_of_a_diagonal_unitary_matches_the_schur_path_bitwise():
    # a diagonal unitary is its own Schur form, so reading its phases off the
    # diagonal must give the Schur path's bits, on degenerate +-1 spectra too
    rng = np.random.default_rng(23)
    cases = 0
    for d in range(1, 65):
        signs = np.where(rng.random(d) < 0.5, 1.0, -1.0) + 0j
        roots = np.exp(2j * np.pi * (np.arange(d) - (d - 1) // 2) / d)
        for lam in (np.exp(1j * rng.uniform(-np.pi, np.pi, d)), signs,
                    np.full(d, -1.0 + 0j), np.full(d, complex(-1.0, -0.0)), roots):
            u, t = np.diag(lam), rng.uniform()
            assert np.array_equal(linalg.unitary_power(u, t), oracles.schur_power(u, t))
            cases += 1
    assert cases == 320


def test_no_public_callable_takes_a_tolerance_override():
    # tolerances are module constants
    names = {"tol", "tol_herm", "tol_psd", "tol_root", "convergence_tol"}
    for mod in ("cli", "cloning", "linalg", "measure", "search", "serialize", "states"):
        module = importlib.import_module(f"clonebound.{mod}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            params = set(inspect.signature(obj).parameters)
            if inspect.isclass(obj):
                for meth in vars(obj).values():
                    if inspect.isfunction(meth):
                        params |= set(inspect.signature(meth).parameters)
            assert not params & names, (mod, name, params & names)
