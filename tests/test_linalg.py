import importlib
import inspect
import json
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from clonebound import cloning, linalg, measure, search, states
from clonebound.cloning import lower_bound, perfect_cloning_setup, tensor_power
from clonebound.measure import POVM, naimark_dilate, random_povm
from clonebound.search import OptimizerConfig, sweep_bound, sweep_to_json, verify_inequalities
from clonebound.serialize import entries_to_matrix, entries_to_vector
from clonebound.states import DensityMatrix, PureState, purify, random_density
from clonebound.errors import (
    DimMismatch,
    DimTooLarge,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotUnitary,
    OutOfRange,
)

import oracles


def test_as_matrix_rejects_non_2d():
    with pytest.raises(DimMismatch):
        linalg.as_matrix(np.zeros(4))
    with pytest.raises(DimMismatch):
        linalg.as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(DimMismatch):
        linalg.as_matrix(np.zeros((0, 3)))


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
    rng = np.random.default_rng(13)
    shapes = [(1, 1), (3, 1), (1, 3), (2, 3), (4, 2), (3, 3)]
    for sa in shapes:
        for sb in shapes:
            a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
            b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
            want = np.kron(a, b)
            for got in (linalg.kron(a, b), linalg._kron(a, b)):
                assert got.shape == want.shape and np.array_equal(got, want), (sa, sb)
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
    with pytest.raises(DimMismatch):
        linalg.partial_trace(np.eye(4), [4, 0], {0})
    with pytest.raises(DimTooLarge):  # 27 subsystems need 54 einsum letters
        linalg.partial_trace(np.eye(1), [1] * 27, {0})


def test_unitary_power_endpoints():
    rng = np.random.default_rng(17)
    u = oracles.haar_unitary(rng, 4)
    assert np.linalg.norm(linalg.unitary_power(u, 0.0) - np.eye(4)) < 1e-12
    assert np.linalg.norm(linalg.unitary_power(u, 1.0) - u) < 1e-12
    for t in (-0.1, 1.1):
        with pytest.raises(OutOfRange):
            linalg.unitary_power(u, t)


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


_QUBIT = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))

# every public count or dimension argument: (call with the value, returning
# arrays, numbers or JSON text; an integral value the call accepts; the
# argument's name in the refusal)
_COUNTS = {
    "purify.env_dim": (lambda v: purify(_QUBIT, v).amp, 2, "env_dim"),
    "random_density.d": (lambda v: random_density(v, 1, 0).matrix, 2, "d"),
    "random_density.rank": (lambda v: random_density(3, v, 0).matrix, 2, "rank"),
    "random_povm.d": (lambda v: np.stack(random_povm(v, 2, 0).elements), 2, "d"),
    "random_povm.outcomes": (lambda v: np.stack(random_povm(2, v, 0).elements), 3,
                             "outcomes"),
    "verify_inequalities.d": (lambda v: verify_inequalities(v, 3, 0).to_json(), 2, "d"),
    "verify_inequalities.trials": (lambda v: verify_inequalities(2, v, 0).to_json(), 3,
                                   "trials"),
    "verify_inequalities.seed": (lambda v: verify_inequalities(2, 3, v).to_json(), 1, "seed"),
    "OptimizerConfig.restarts": (lambda v: OptimizerConfig(restarts=v).to_dict(), 2,
                                 "restarts"),
    "OptimizerConfig.iterations": (lambda v: OptimizerConfig(iterations=v).to_dict(), 3,
                                   "iterations"),
    "OptimizerConfig.seed": (lambda v: OptimizerConfig(seed=v).to_dict(), 1, "seed"),
    "entries_to_matrix.dim": (lambda v: entries_to_matrix([[0.5, 0.0]] * 4, v), 2, "dim"),
    "entries_to_vector.dim": (lambda v: entries_to_vector([[0.5, 0.0]] * 3, v), 3, "dim"),
    "lower_bound.n_in": (lambda v: lower_bound(0.5, 0.9, v, 3), 2, "n_in"),
    "lower_bound.n_out": (lambda v: lower_bound(0.5, 0.9, 1, v), 3, "n_out"),
    "perfect_cloning_setup.n_out": (
        lambda v: perfect_cloning_setup(_QUBIT, DensityMatrix(np.eye(2) / 2), 0.5, 1,
                                        v).to_dict(), 2, "n_out"),
    "tensor_power.k": (lambda v: tensor_power(_QUBIT, v).matrix, 2, "tensor power"),
    "_problem_dims.env_dim": (
        lambda v: cloning._problem_dims(_QUBIT, _QUBIT, (4, 4), 1, 2, v), 2, "env_dim"),
    "sweep_bound.n_in": (lambda v: sweep_to_json(sweep_bound([0.3], 1.0, v, 3)), 1, "n_in"),
    "partial_trace.dims": (lambda v: linalg.partial_trace(np.eye(4), [2, v], {0}), 2, "dims"),
    "partial_trace.keep": (lambda v: linalg.partial_trace(np.eye(4), [2, 2], [v]), 1, "keep"),
}


def _view(result) -> str:
    """A call's result as text that tells an int from a float."""
    if isinstance(result, np.ndarray):
        return result.tobytes().hex() + str(result.shape)
    return result if isinstance(result, str) else json.dumps(result)


@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_every_count_argument_is_read_by_the_one_count_rule(entry):
    call, good, name = _COUNTS[entry]
    for bad in (good + 0.5, True, np.bool_(True), str(good), [good]):
        with pytest.raises(OutOfRange, match=rf"^{re.escape(name)} must be an integer, got "):
            call(bad)
    want = _view(call(good))
    for same in (float(good), np.float64(good), np.int64(good)):
        assert _view(call(same)) == want, same


def _no_allocation(*args, **kwargs):
    raise AssertionError("allocated before the cap was checked")


_OVER = linalg.MAX_DIM + 1

# an entry over the cap: (the first thing it would call to allocate, its
# arguments, built before that call is patched, and the entry)
_OVER_CAP = {
    "PureState": ((np, "zeros"), lambda: (np.ones(_OVER) / np.sqrt(_OVER),),
                  lambda a: PureState(a)),
    "naimark_dilate": ((np, "zeros"),
                       lambda: (POVM([[[1.0 / _OVER]]] * _OVER),),
                       naimark_dilate),
    "purify": ((np, "zeros"), lambda: (_QUBIT, 2 ** 40), purify),
    "random_density": ((states, "_ginibre"), lambda: (_OVER, 1, 0), random_density),
    "random_povm": ((measure, "_ginibre"), lambda: (_OVER, 2, 0), random_povm),
}


@pytest.mark.parametrize("entry", sorted(_OVER_CAP))
def test_an_over_cap_size_is_refused_before_it_is_allocated(monkeypatch, entry):
    (owner, attr), make_args, call = _OVER_CAP[entry]
    args = make_args()
    monkeypatch.setattr(owner, attr, _no_allocation)
    with pytest.raises(DimTooLarge, match=str(linalg.MAX_DIM)):
        call(*args)


# linalg's tolerance table, name and literal; no value may change
_TOLERANCES = {
    "TOL_HERM": "1e-10", "TOL_PSD": "1e-10", "TOL_RECON": "1e-9", "TOL_UNIT": "1e-10",
    "TOL_SUM": "1e-9", "TOL_PROB": "1e-12", "TOL_PROJ": "1e-9", "ROOT_CUTOFF": "1e-14",
    "RANK_CUTOFF": "1e-12", "TOL_ROOT": "1e-10", "PHI_BELOW": "1e-12", "PHI_ABOVE": "1e-9",
    "ANGLE_SLACK": "1e-12", "COPY_TOL": "1e-24", "DEGENERATE_TOL": "1e-12",
    "TOL_DENOM": "1e-9", "SOUNDNESS_TOL": "1e-8", "CHAIN_SLACK": "1e-9",
}


def test_every_tolerance_is_defined_once_in_linalgs_table():
    # every e-notation literal with a negative exponent in src/ is a
    # module-level assignment; the one outside linalg is the search's step
    # schedule, which is not a tolerance
    found = {}
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                    assign = re.match(r"([A-Z_]+) = ", tok.line)
                    key = (path.stem, assign.group(1) if assign else tok.line.strip())
                    found.setdefault(key, []).append(tok.string)
    want = {("linalg", name): [text] for name, text in _TOLERANCES.items()}
    assert found == {**want, ("search", "_STOP_STEP"): ["1e-9"]}
    for module in (states, measure, cloning, search):
        for name in _TOLERANCES.keys() & vars(module).keys():
            assert getattr(module, name) is getattr(linalg, name), (module, name)

