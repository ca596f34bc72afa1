import json
import math
import time

import numpy as np
import pytest

from clonebound import cloning, linalg
from clonebound.cloning import (
    BoundInput,
    CloningSetup,
    absolute_error,
    apply_cloning,
    lower_bound,
    perfect_cloning_setup,
    proof_chain_check,
    relative_error,
    tensor_power,
)
from clonebound.errors import (
    DegeneratePair,
    DimMismatch,
    DimTooLarge,
    IndistinguishablePair,
    NotDensity,
    NotUnitary,
    OutOfRange,
    SoundnessViolation,
)
from clonebound.search import OptimizerConfig, minimize_relative_error
from clonebound.states import (
    DensityMatrix,
    PureState,
    _blank_ancilla,
    angle,
    fidelity,
    purifications_with_overlap,
    random_density,
)

import oracles


def _pure(theta: float) -> DensityMatrix:
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return PureState(v).density()


def _blank(dim: int) -> DensityMatrix:
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def test_tensor_power():
    rho = _pure(0.3)
    t = tensor_power(rho, 3)
    assert t.dim == 8
    assert np.linalg.norm(t.matrix - np.kron(rho.matrix, np.kron(rho.matrix, rho.matrix))) < 1e-14
    assert np.array_equal(tensor_power(rho, 1).matrix, rho.matrix)
    assert tensor_power(rho, 1) is rho
    with pytest.raises(OutOfRange):
        tensor_power(rho, 0)


def test_tensor_power_refuses_a_power_over_the_cap_before_any_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("a Kronecker product was formed")

    monkeypatch.setattr(cloning, "_kron_power", no_product)
    monkeypatch.setattr(linalg, "_kron", no_product)
    monkeypatch.setattr(np, "kron", no_product)
    qubit = _pure(0.3)  # 2^12 = 4096 is the cap, 2^13 is over it
    qutrit = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
    for rho, k in ((qubit, 13), (qutrit, 10 ** 7)):
        start = time.perf_counter()
        with pytest.raises(DimTooLarge):
            tensor_power(rho, k)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n_in, n_out", [(1.7, 2.9), (1, 2.5), (1.5, 3), (1, "2")])
def test_fractional_copy_counts_are_refused_not_truncated(n_in, n_out):
    with pytest.raises(OutOfRange):
        lower_bound(0.5, 1.0, n_in, n_out)
    with pytest.raises(OutOfRange):
        BoundInput(0.5, 1.0, n_in, n_out)
    rho1, rho2 = _pure(0.0), _pure(0.4)
    setup = perfect_cloning_setup(rho1, rho2, 0.2)
    doc = dict(setup.to_dict(), n_in=n_in, n_out=n_out)
    with pytest.raises(OutOfRange):
        CloningSetup.from_dict(doc)
    with pytest.raises(OutOfRange):
        perfect_cloning_setup(rho1, rho2, 0.2, n_in, n_out)


def test_integral_copy_counts_read_as_ints():
    want = lower_bound(0.5, 1.0, 1, 3)
    for n_in, n_out in ((1.0, 3.0), (np.int64(1), np.int64(3)), (np.float64(1), 3)):
        assert lower_bound(0.5, 1.0, n_in, n_out) == want
        b = BoundInput(0.5, 1.0, n_in, n_out)
        assert (b.n_in, b.n_out) == (1, 3) and type(b.n_out) is int
    setup = perfect_cloning_setup(_pure(0.0), _pure(0.4), 0.2)
    again = CloningSetup.from_dict(dict(setup.to_dict(), n_in=1.0, n_out=2.0))
    assert (again.n_in, again.n_out) == (1, 2) and type(again.n_in) is int
    assert np.array_equal(tensor_power(_pure(0.3), 2.0).matrix,
                          tensor_power(_pure(0.3), 2).matrix)
    with pytest.raises(OutOfRange):
        tensor_power(_pure(0.3), 2.5)


def test_a_fractional_env_dim_is_refused_not_truncated():
    rho1, rho2 = _pure(0.0), _pure(0.4)
    ups = _blank(4)  # d^M * e = 2 * 2
    cfg = OptimizerConfig(restarts=1, iterations=1)
    for env in (2.7, 2.5, "2"):
        with pytest.raises(OutOfRange):
            minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, env), cfg=cfg)
        with pytest.raises(OutOfRange):
            CloningSetup(rho1, rho2, ups, ups, np.eye(8), 1, 2, env)
    for env in (2, 2.0, np.int64(2), np.float64(2)):
        res = minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, env), cfg=cfg)
        assert res.env_dim == 2 and type(res.env_dim) is int
        assert CloningSetup(rho1, rho2, ups, ups, np.eye(8), 1, 2, env).env_dim == 2


def test_a_one_dimensional_tensor_power_forms_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("a Kronecker product was formed")

    monkeypatch.setattr(np, "kron", no_product)
    one = DensityMatrix(np.array([[1.0]]))
    start = time.perf_counter()
    power = tensor_power(one, 10 ** 9)
    assert time.perf_counter() - start < 1.0
    assert power.matrix.tolist() == [[1.0]] and power._root_factor().tolist() == [[1.0]]
    # the trace check still reads the power: (1 + 2e-11)^(10^9) = e^0.02
    with pytest.raises(NotDensity):
        tensor_power(DensityMatrix(np.array([[1.0 + 2e-11]])), 10 ** 9)
    assert tensor_power(DensityMatrix(np.array([[1.0 + 2e-11]])), 3).dim == 1


def test_bound_input_validation():
    BoundInput(0.5, 0.5, 1, 2)
    with pytest.raises(OutOfRange):
        BoundInput(-0.1, 0.5, 1, 2)
    with pytest.raises(OutOfRange):
        BoundInput(0.5, 1.1, 1, 2)
    with pytest.raises(OutOfRange):
        BoundInput(0.5, 0.5, 0, 2)
    with pytest.raises(OutOfRange):
        BoundInput(0.5, 0.5, 2, 2)


def test_lower_bound_frozen_values():
    # phi = 1 closed form: f - f^2/sqrt(1+f^2)
    assert abs(lower_bound(0.6, 1.0, 1, 2) - 0.29130254674348405) < 1e-12
    assert abs(lower_bound(0.6, 0.8, 1, 2) - 0.14148681492357168) < 1e-12
    assert abs(lower_bound(0.6, 1.0, 2, 3) - 0.15361013189007608) < 1e-12
    assert lower_bound(0.6, 0.6, 1, 2) == 0.0
    assert lower_bound(0.6, 0.3, 1, 2) == 0.0
    assert lower_bound(0.0, 1.0, 1, 2) == 0.0


def test_lower_bound_matches_phi1_closed_form_on_grid():
    for k in range(1, 100):
        f = k / 100.0
        want = f - f * f / math.sqrt(1.0 + f * f)
        assert abs(lower_bound(f, 1.0, 1, 2) - want) <= 1e-12
        assert abs(lower_bound(f, f, 1, 2)) <= 1e-12


def test_lower_bound_two_routes_agree():
    for k in range(1, 100):
        f = k / 100.0
        for phi in (0.0, 0.2, f, min(1.0, f + 0.05), 0.9, 1.0):
            assert abs(lower_bound(f, phi, 1, 2)
                       - oracles.lower_bound_one_to_two(f, phi)) <= 1e-15


def test_lower_bound_near_f_one_matches_a_50_digit_reference():
    # 1 - f^k rounded directly loses digits as f -> 1 (relative error up to
    # ~5e-8 at f = 1 - 1e-9). phi is kept at least halfway from f^M to 1: nearer
    # the threshold the bound's own condition number ~ f^M / (phi - f^M)
    # sets the error of any float64 evaluation.
    hyp = pytest.importorskip("hypothesis")
    pytest.importorskip("mpmath")
    st = hyp.strategies

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(st.one_of(st.floats(1e-6, 1.0 - 1e-9),
                         st.floats(1e-9, 1e-3).map(lambda gap: 1.0 - gap)),
               st.floats(0.5, 1.0), st.integers(1, 3), st.integers(1, 3))
    def check(f, t, n_in, m_extra):
        n_out = n_in + m_extra
        phi = min(f ** m_extra + t * (1.0 - f ** m_extra), 1.0)
        hyp.assume(phi > f ** m_extra)
        want = oracles.lower_bound_mp(f, phi, n_in, n_out)
        got = lower_bound(f, phi, n_in, n_out)
        assert abs(got - want) <= 1e-14 * abs(want), (f, phi, n_in, n_out)

    check()
    assert lower_bound(0.0, 0.5, 2, 3) == 0.0


def test_lower_bound_monotone_in_phi():
    for f in (0.1, 0.45, 0.8):
        for n_in, n_out in ((1, 2), (2, 3)):
            thresh = f ** (n_out - n_in)
            grid = np.arange(thresh, 1.0 + 1e-12, 1e-3)
            vals = [lower_bound(f, min(p, 1.0), n_in, n_out) for p in grid]
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-12)
            assert abs(vals[0]) <= 1e-12  # zero at the phi = f^M threshold


def test_lower_bound_nonnegative_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(500):
        f = float(rng.uniform(0, 0.999))
        phi = float(rng.uniform(0, 1))
        n_in = int(rng.integers(1, 3))
        n_out = n_in + int(rng.integers(1, 3))
        assert lower_bound(f, phi, n_in, n_out) >= 0.0


def test_lower_bound_degenerate():
    with pytest.raises(DegeneratePair):
        lower_bound(1.0, 1.0, 1, 2)
    with pytest.raises(DegeneratePair):
        lower_bound(1.0 - 1e-13, 1.0, 1, 2)


def test_absolute_error_values():
    assert absolute_error(0.0, 0.0) == 0.0
    assert abs(absolute_error(math.pi / 2, math.pi / 2) - 2.0) < 1e-15
    assert abs(absolute_error(math.pi / 6, math.pi / 4)
               - (0.5 + math.sqrt(2) / 2)) < 1e-12
    with pytest.raises(OutOfRange):
        absolute_error(-0.1, 0.0)
    with pytest.raises(OutOfRange):
        absolute_error(0.0, math.pi / 2 + 0.1)


def test_relative_error_half_angle_identity():
    rho1, rho2 = _pure(0.0), _pure(0.55)
    delta = angle(tensor_power(rho1, 2), tensor_power(rho2, 2))
    r = relative_error(delta / 2, delta / 2, rho1, rho2, n_out=2)
    assert abs(r - 1.0 / math.cos(delta / 2)) < 1e-9


def test_relative_error_orthogonal_inputs():
    rho1, rho2 = _pure(0.0), _pure(math.pi / 2)
    r = relative_error(0.2, 0.3, rho1, rho2, n_out=2)
    assert abs(r - (math.sin(0.2) + math.sin(0.3))) < 1e-12


def test_relative_error_identical_inputs_rejected():
    rho = _pure(0.4)
    with pytest.raises(IndistinguishablePair):
        relative_error(0.1, 0.1, rho, rho, n_out=2)


def test_cloning_setup_validation():
    rho1, rho2 = _pure(0.0), _pure(0.4)
    ups = _blank(2)
    eye4 = np.eye(4, dtype=complex)  # total dim d^L * e = 4 * 1
    CloningSetup(rho1, rho2, ups, ups, eye4, 1, 2, 1)
    with pytest.raises(OutOfRange):
        CloningSetup(rho1, rho2, ups, ups, eye4, 2, 2, 1)
    with pytest.raises(DimMismatch):
        CloningSetup(rho1, rho2, _blank(3), _blank(3), eye4, 1, 2, 1)
    with pytest.raises(DimMismatch):
        CloningSetup(rho1, rho2, ups, ups, np.eye(8, dtype=complex), 1, 2, 1)
    with pytest.raises(NotUnitary):
        CloningSetup(rho1, rho2, ups, ups, eye4 * 1.01, 1, 2, 1)
    big = DensityMatrix(np.eye(16, dtype=complex) / 16)
    with pytest.raises(DimTooLarge):  # 16^3 * 2 = 8192 over the 4096 cap
        CloningSetup(big, big, _blank(512), _blank(512), np.eye(2), 1, 3, 2)


def test_cloning_setup_round_trip():
    rho1, rho2 = _pure(0.1), _pure(0.7)
    setup = perfect_cloning_setup(rho1, rho2, 0.5)
    again = CloningSetup.from_dict(setup.to_dict())
    assert np.array_equal(setup.v, again.v)
    assert again.n_in == 1 and again.n_out == 2 and again.env_dim == 2


def test_identity_with_purifying_ancilla_is_perfect():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho1 = DensityMatrix(oracles.random_density(rng, 2, 2))
        rho2 = DensityMatrix(oracles.random_density(rng, 2, 2))
        f = math.sqrt(fidelity(rho1, rho2))
        phi = float(rng.uniform(0.0, f))
        setup = perfect_cloning_setup(rho1, rho2, phi)
        out = apply_cloning(setup)
        assert out.delta1 <= 1e-9 and out.delta2 <= 1e-9
        assert out.relative_error <= 1e-9
        for o, rho in ((out.out1, rho1), (out.out2, rho2)):
            want = np.kron(rho.matrix, rho.matrix)
            assert np.linalg.norm(o.matrix - want) < 1e-9


def test_blank_ancilla_identity_outputs_product_state():
    rho1, rho2 = _pure(0.0), _pure(0.5)
    ups = _blank(2)
    setup = CloningSetup(rho1, rho2, ups, ups, np.eye(4, dtype=complex), 1, 2, 1)
    out = apply_cloning(setup)
    want1 = np.kron(rho1.matrix, ups.matrix)
    assert np.linalg.norm(out.out1.matrix - want1) < 1e-12
    want_delta = angle(DensityMatrix(want1), tensor_power(rho1, 2))
    assert abs(out.delta1 - want_delta) < 1e-12
    assert out.relative_error > 0.1


def test_apply_cloning_outputs_are_states_and_sound():
    rng = np.random.default_rng(37)
    for _ in range(50):
        rho1 = DensityMatrix(oracles.random_density(rng, 2, int(rng.integers(1, 3))))
        rho2 = DensityMatrix(oracles.random_density(rng, 2, int(rng.integers(1, 3))))
        if fidelity(rho1, rho2) > 1.0 - 1e-10:
            continue
        ups1 = DensityMatrix(oracles.random_density(rng, 4, int(rng.integers(1, 5))))
        ups2 = DensityMatrix(oracles.random_density(rng, 4, int(rng.integers(1, 5))))
        v = oracles.haar_unitary(rng, 8)
        setup = CloningSetup(rho1, rho2, ups1, ups2, v, 1, 2, 2)
        out = apply_cloning(setup)  # raises SoundnessViolation on any breach
        for o in (out.out1, out.out2):
            assert abs(np.real(np.trace(o.matrix)) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(o.matrix)[0] > -1e-10
        assert abs(out.absolute_error
                   - (math.sin(out.delta1) + math.sin(out.delta2))) < 1e-12
        f = math.sqrt(fidelity(rho1, rho2))
        phi = math.sqrt(fidelity(ups1, ups2))
        assert out.relative_error >= lower_bound(f, phi, 1, 2) - 1e-8


def test_outcome_serializes_to_json():
    setup = perfect_cloning_setup(_pure(0.0), _pure(0.6), 0.2)
    out = apply_cloning(setup)
    doc = json.loads(json.dumps(out.to_dict()))
    assert doc["relative_error"] == out.relative_error
    assert DensityMatrix.from_dict(doc["out1"]).dim == 4


def test_proof_chain_on_identity_purifying_setup():
    rho1 = _pure(0.0)
    rho2 = _pure(0.8)
    f = math.sqrt(fidelity(rho1, rho2))
    setup = perfect_cloning_setup(rho1, rho2, f)  # purifying ancilla, phi = f
    report = proof_chain_check(setup)
    assert report.all_hold
    names = [c.name for c in report.checks]
    assert "angle_triangle_chain" in names and "relative_error_floor" in names


def test_proof_chain_random_setups():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        rho1 = DensityMatrix(oracles.random_density(rng, 2, int(rng.integers(1, 3))))
        rho2 = DensityMatrix(oracles.random_density(rng, 2, int(rng.integers(1, 3))))
        if fidelity(rho1, rho2) > 1.0 - 1e-10:
            continue
        ups1 = DensityMatrix(oracles.random_density(rng, 4, int(rng.integers(1, 5))))
        ups2 = DensityMatrix(oracles.random_density(rng, 4, int(rng.integers(1, 5))))
        v = oracles.haar_unitary(rng, 8)
        setup = CloningSetup(rho1, rho2, ups1, ups2, v, 1, 2, 2)
        report = proof_chain_check(setup)
        assert report.all_hold, report.to_dict()


def test_sine_subadditivity_on_angle_range():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        a, b = rng.uniform(0, math.pi / 2, 2)
        assert math.sin(a) + math.sin(b) >= math.sin(min(a + b, math.pi / 2)) - 1e-15


def test_perfect_setup_rejects_unreachable_phi():
    rho1, rho2 = _pure(0.0), _pure(0.8)
    f = math.sqrt(fidelity(rho1, rho2))
    from clonebound.errors import TargetOutOfRange
    with pytest.raises(TargetOutOfRange):
        perfect_cloning_setup(rho1, rho2, f + 0.05)


def test_soundness_guard_fires_on_a_faulty_channel(monkeypatch):
    # blank ancilla, phi = 1: the bound f - f^2/sqrt(1+f^2) is well above 0,
    # so a channel that outputs the ideal clones breaks the theorem
    rho1, rho2 = _pure(0.0), _pure(0.9)
    ups = _blank(2)
    def setup():
        return CloningSetup(rho1, rho2, ups, ups, np.eye(4, dtype=complex), 1, 2, 1)

    assert lower_bound(math.sqrt(fidelity(rho1, rho2)), 1.0) > 0.2
    assert apply_cloning(setup()).relative_error > 0.1
    # the fault is in place before the setup's first, and only, evaluation
    monkeypatch.setattr(cloning._Channel, "_factors",
                        lambda self, v: self.ideal_factors)
    with pytest.raises(SoundnessViolation):
        apply_cloning(setup())
    with pytest.raises(SoundnessViolation):
        minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, 1),
                                cfg=OptimizerConfig(restarts=1, iterations=1))


def test_a_wrong_ideal_trips_the_denominator_cross_check(monkeypatch):
    # the ideal outputs' sine must match sqrt(1 - f^(2L)); an ideal formed
    # as the wrong tensor power (here the first, for L = 2) is caught
    rho1, rho2 = _pure(0.0), _pure(0.9)
    assert relative_error(0.1, 0.1, rho1, rho2) > 0.0
    monkeypatch.setattr(cloning, "_kron_power", lambda k, n: k)
    with pytest.raises(SoundnessViolation, match="denominator"):
        relative_error(0.1, 0.1, rho1, rho2)
    with pytest.raises(SoundnessViolation, match="denominator"):
        cloning._Channel(rho1, rho2, _blank(2), _blank(2), 1, 2)


def test_a_setup_evaluates_its_channel_once_and_checks_the_bound_on_every_call(monkeypatch):
    builds, evaluations = [], []
    init, evaluate = cloning._Channel.__init__, cloning._Channel.evaluate
    monkeypatch.setattr(cloning._Channel, "__init__",
                        lambda self, *problem: builds.append(1) or init(self, *problem))
    monkeypatch.setattr(cloning._Channel, "evaluate",
                        lambda self, v: evaluations.append(1) or evaluate(self, v))
    ups = _blank(2)
    setup = CloningSetup(_pure(0.0), _pure(0.9), ups, ups, np.eye(4, dtype=complex), 1, 2, 1)
    out = apply_cloning(setup)
    assert proof_chain_check(setup).all_hold
    assert (len(builds), len(evaluations)) == (1, 1)
    # a bound raised above the kept error must trip both calls' guard
    setup._channel().bound = out.relative_error + 1.0
    with pytest.raises(SoundnessViolation):
        apply_cloning(setup)
    with pytest.raises(SoundnessViolation):
        proof_chain_check(setup)
    assert (len(builds), len(evaluations)) == (1, 1)


def test_setup_fields_are_fixed_after_construction():
    setup = perfect_cloning_setup(_pure(0.0), _pure(0.9), 0.5)
    apply_cloning(setup)
    for name in ("rho1", "rho2", "upsilon1", "upsilon2", "v", "n_in", "n_out",
                 "env_dim", "_chan", "_eval"):
        with pytest.raises(AttributeError):
            setattr(setup, name, getattr(setup, name))
    # the kept output factors are read-only too
    with pytest.raises(ValueError):
        setup._eval[0][0, 0, 0] = 0.0


def test_a_setups_unitary_is_read_only_and_apart_from_the_callers_array():
    rho1, rho2 = random_density(2, 2, seed=1), random_density(2, 2, seed=2)
    perfect = perfect_cloning_setup(rho1, rho2, 0.3)
    flip = np.eye(8)[::-1]
    with pytest.raises(ValueError):
        perfect.v[:] = flip
    assert apply_cloning(perfect).relative_error == 0.0
    v = perfect.v.copy()
    for given in (v, v[:, :], memoryview(v)):
        setup = CloningSetup(rho1, rho2, perfect.upsilon1, perfect.upsilon2, given,
                             1, 2, perfect.env_dim)
        with pytest.raises(ValueError):
            setup.v[0, 1] = 0.5
        v[:] = flip
        assert apply_cloning(setup).relative_error == 0.0
        v[:] = perfect.v


def test_each_validated_state_is_decomposed_once_and_no_other_state_is(monkeypatch):
    seen = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, *a, _solve=solve, **k: seen.append(m) or _solve(m, *a, **k))
    for d in (2, 3, 4):
        seen.clear()
        rng = np.random.default_rng([83, d])
        rho1 = DensityMatrix(oracles.random_density(rng, d, d - 1))
        rho2 = DensityMatrix(oracles.random_density(rng, d, d))
        phi = 0.6 * math.sqrt(fidelity(rho1, rho2))
        y1, y2 = purifications_with_overlap(rho1, rho2, phi)
        setup = perfect_cloning_setup(rho1, rho2, phi)
        out = apply_cloning(setup)
        assert out.relative_error <= 1e-9 and proof_chain_check(setup).all_hold
        # blank, pure, tensor-power and output states are read through the
        # factors they were built from
        blank = _blank_ancilla(d)
        blank_setup = CloningSetup(rho1, rho2, blank, blank, np.eye(d * d), 1, 2, 1)
        blank_out = apply_cloning(blank_setup)
        assert proof_chain_check(blank_setup).all_hold
        square = tensor_power(rho1, 2)
        assert abs(fidelity(out.out1, square) - 1.0) <= 1e-9
        assert 0.0 <= fidelity(blank_out.out2, tensor_power(rho2, 2)) <= 1.0
        assert abs(math.sqrt(fidelity(y1.density(), y2.density())) - phi) <= 1e-9
        assert len(seen) == 2 and seen[0] is rho1.matrix and seen[1] is rho2.matrix
        for state in (rho1, rho2, setup.upsilon1, blank, square, out.out1, blank_out.out2):
            assert not state.matrix.flags.writeable


def test_each_state_forms_its_root_once(monkeypatch):
    roots = []
    eig_sqrt = linalg._eig_sqrt
    monkeypatch.setattr(linalg, "_eig_sqrt",
                        lambda w, u: roots.append(w) or eig_sqrt(w, u))
    for d in (2, 3, 4):
        roots.clear()
        rng = np.random.default_rng([89, d])
        rho1 = DensityMatrix(oracles.random_density(rng, d, d - 1))
        rho2 = DensityMatrix(oracles.random_density(rng, d, d))
        phi = 0.6 * math.sqrt(fidelity(rho1, rho2))
        y1, y2 = purifications_with_overlap(rho1, rho2, phi)
        assert abs(abs(np.vdot(y1.amp, y2.amp)) - phi) <= 1e-9
        setup = perfect_cloning_setup(rho1, rho2, phi)
        assert apply_cloning(setup).relative_error <= 1e-9
        # the walk's pair, reused by the purifications and by the setup's ancillas
        assert len(roots) == 2
        for state in (rho1, rho2):
            root = state._sqrt()
            assert root is state._sqrt()
            with pytest.raises(ValueError):
                root[0, 0] = 0.0
        assert len(roots) == 2


def _old_pure_density(amp: np.ndarray) -> np.ndarray:
    """PureState.density's matrix as it was formed eagerly."""
    m = np.tril(np.outer(amp, amp.conj()))
    m += linalg._dagger(np.tril(m, -1))
    np.fill_diagonal(m, m.diagonal().real)
    return m


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_factor_built_states_form_their_matrix_on_first_read_as_before():
    for d in (2, 3, 4):
        rng = np.random.default_rng([97, d])
        rho1 = DensityMatrix(oracles.random_density(rng, d, d - 1))
        rho2 = DensityMatrix(oracles.random_density(rng, d, d))
        phi = 0.6 * math.sqrt(fidelity(rho1, rho2))
        y1, _ = purifications_with_overlap(rho1, rho2, phi)
        setup = perfect_cloning_setup(rho1, rho2, phi)
        blank = _blank_ancilla(d * d)
        blank_setup = CloningSetup(rho1, rho2, blank, blank, oracles.haar_unitary(rng, d ** 3),
                                   1, 2, d)
        outs = [apply_cloning(s) for s in (setup, blank_setup)]
        pure, square = y1.density(), tensor_power(rho1, 3)
        # the old eager matrices: the mirrored outer product, e_0 e_0^dagger,
        # the Kronecker power, and the stacked, symmetrized Gram products
        old_blank = np.zeros((d * d, d * d), dtype=complex)
        old_blank[0, 0] = 1.0
        expected = [(pure, _old_pure_density(y1.amp)), (blank, old_blank),
                    (square, linalg._kron(linalg._kron(rho1.matrix, rho1.matrix),
                                          rho1.matrix))]
        for s, out in zip((setup, blank_setup), outs):
            factors = s._channel()._factors(s.v)
            grams = factors @ linalg._dagger(factors)
            grams = (grams + linalg._dagger(grams)) / 2.0
            expected += [(out.out1, grams[0]), (out.out2, grams[1])]
        states = [state for state, _ in expected] + [setup.upsilon1, setup.upsilon2]
        # dimension, factors and overlaps read the factor alone
        for state in states:
            assert state.dim == state._psd_factor().shape[0]
        assert abs(fidelity(outs[0].out1, tensor_power(rho1, 2)) - 1.0) <= 1e-9
        assert 0.0 <= fidelity(pure, pure) <= 1.0 and fidelity(blank, blank) == 1.0
        assert fidelity(outs[1].out2, tensor_power(rho2, 2)) <= 1.0
        proof_chain_check(setup)
        assert all(state._matrix is None for state in states)
        for state, old in expected:
            first = state.matrix
            assert _same_bits(first, old)
            assert state.matrix is first and not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 0.0
        # a blank-ancilla search reads the blank's factor alone
        blank = _blank_ancilla(d)
        minimize_relative_error(rho1, rho2, blank, blank, dims=(1, 2, 1),
                                cfg=OptimizerConfig(restarts=2, iterations=5))
        assert blank._matrix is None


def test_a_factor_off_unit_trace_is_refused_before_its_matrix_is_formed():
    formed = []

    def form():
        formed.append(1)
        return np.eye(3, dtype=complex)

    k = np.eye(3, 2, dtype=complex) / math.sqrt(2.0)
    DensityMatrix._from_factor(k * math.sqrt(1.0 + 0.5 * linalg.TOL_UNIT), form)
    # a squared norm off by 1.5 TOL_UNIT, whose norm is off by 0.75 TOL_UNIT
    for scale in (1.0 + 1.5 * linalg.TOL_UNIT, 1.0 - 1.5 * linalg.TOL_UNIT, 2.0, 0.0):
        with pytest.raises(NotDensity):
            DensityMatrix._from_factor(k * math.sqrt(scale), form)
    assert not formed


def test_a_pair_runs_six_svds_and_two_eighs_and_a_second_apply_cloning_none(monkeypatch):
    calls = []
    for name in ("svd", "eigh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, *a, _n=name, _solve=solve, **k:
                            calls.append(_n) or _solve(m, *a, **k))
    for d in (2, 3, 4):
        rng = np.random.default_rng([101, d])
        m1 = oracles.random_density(rng, d, d - 1)
        m2 = oracles.random_density(rng, d, d)
        phi = 0.6 * math.sqrt(oracles.fidelity_sqrtm(m1, m2))
        calls.clear()
        setup = perfect_cloning_setup(DensityMatrix(m1), DensityMatrix(m2), phi)
        out = apply_cloning(setup)
        assert proof_chain_check(setup).all_hold
        assert (calls.count("svd"), calls.count("eigh"), len(calls)) == (6, 2, 8)
        calls.clear()
        again = apply_cloning(setup)
        assert not calls
        assert (again.relative_error, again.delta1, again.delta2) == (
            out.relative_error, out.delta1, out.delta2)


def test_a_near_copy_reads_its_true_sine():
    # V rotates |00,0> by sqrt(5e-13) into |01,1>, so output 1 is
    # (1 - 5e-13)|00><00| + 5e-13|01><01| against the ideal |00><00|: within
    # 1e-12 in Frobenius norm of the ideal, yet sin(delta1) = sqrt(5e-13)
    ups = _blank(4)
    s = math.sqrt(5e-13)
    v = np.eye(8, dtype=complex)
    v[0, 0] = v[3, 3] = math.sqrt(1.0 - 5e-13)
    v[3, 0], v[0, 3] = s, -s
    setup = CloningSetup(_pure(0.0), DensityMatrix(np.eye(2) / 2), ups, ups, v, 1, 2, 2)
    assert abs(math.sin(apply_cloning(setup).delta1) / s - 1.0) <= 1e-9  # 7.0710678e-7


_ANCILLA_KINDS = ("blank", "mixed", "rank_deficient")


def _ancilla(rng, kind: str, dim: int) -> DensityMatrix:
    if kind == "blank":
        return _blank(dim)
    rank = dim if kind == "mixed" else max(1, dim // 2)
    return DensityMatrix(oracles.random_density(rng, dim, rank))


@pytest.mark.parametrize("kind", _ANCILLA_KINDS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_channel_angles_agree_with_the_state_angle(d, kind):
    rng = np.random.default_rng([d, _ANCILLA_KINDS.index(kind)])
    for _ in range(4):
        rho1 = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        rho2 = DensityMatrix(oracles.random_density(rng, d, d))
        env = int(rng.integers(1, 3))
        setup = CloningSetup(rho1, rho2, _ancilla(rng, kind, d * env),
                             _ancilla(rng, kind, d * env),
                             oracles.haar_unitary(rng, d * d * env), 1, 2, env)
        ideals = [tensor_power(rho, 2) for rho in (rho1, rho2)]
        want = angle(*ideals)
        channel = cloning._Channel(rho1, rho2, setup.upsilon1, setup.upsilon2, 1, 2)
        assert abs(channel.ideal_angle - want) <= 1e-13
        out = apply_cloning(setup)
        for delta, o, ideal in ((out.delta1, out.out1, ideals[0]),
                                (out.delta2, out.out2, ideals[1])):
            assert abs(delta - angle(o, ideal)) <= 1e-13


# (input dims, ancilla dim, n_in, n_out, env_dim, error); every case fails on
# its dimensions alone, before any unitary is looked at
_BAD_DIMS = {
    "n_out_equals_n_in": ((2, 2), 2, 2, 2, 1, OutOfRange),
    "n_in_below_one": ((2, 2), 4, 0, 2, 1, OutOfRange),
    "input_dims_differ": ((2, 3), 2, 1, 2, 1, DimMismatch),
    "ancilla_not_d_to_the_m_times_e": ((2, 2), 3, 1, 2, 1, DimMismatch),
    "joint_dim_over_the_cap": ((3, 3), 729, 2, 5, 27, DimTooLarge),  # 3^5 * 27
    # 16^3 * 2 here; the perfect cloner's own ancilla is 16^2-dim (e = 16^2),
    # and its 16^4-entry purification exceeds the cap
    "perfect_cloner_over_the_cap": ((16, 16), 512, 1, 3, 2, DimTooLarge),
    # d^L would have 4.8 million digits; L > log2(4096) is refused first.
    # Named to sort last, so the other cases keep their seeds.
    "too_many_outputs_for_the_cap": ((3, 3), 3, 1, 10 ** 7, 1, DimTooLarge),
    "zero_env_dim": ((2, 2), 4, 1, 2, 0, OutOfRange),  # sorts last, as above
}


@pytest.mark.parametrize("name", sorted(_BAD_DIMS))
def test_every_entry_point_refuses_a_bad_dimension_alike(name):
    (d1, d2), anc_dim, n_in, n_out, env, error = _BAD_DIMS[name]
    rng = np.random.default_rng(sorted(_BAD_DIMS).index(name))
    rho1 = DensityMatrix(oracles.random_density(rng, d1, d1))
    rho2 = DensityMatrix(oracles.random_density(rng, d2, d2))
    ups = _blank(anc_dim)
    with pytest.raises(error):
        CloningSetup(rho1, rho2, ups, ups, np.eye(2), n_in, n_out, env)
    with pytest.raises(error):
        minimize_relative_error(rho1, rho2, ups, ups, dims=(n_in, n_out, env),
                                cfg=OptimizerConfig(restarts=1, iterations=1))
    # it builds its own ancilla and environment
    if name not in ("ancilla_not_d_to_the_m_times_e", "zero_env_dim"):
        with pytest.raises(error):
            perfect_cloning_setup(rho1, rho2, 0.0, n_in, n_out)


def _tiny_eigenvalue_density(rng, d: int) -> DensityMatrix:
    # one eigenvalue at 1e-8 of the trace: copies of such states leave
    # B^dagger A with singular values near rounding
    w = np.full(d, 1e-8)
    w[0] = 1.0 - (d - 1) * 1e-8
    u = oracles.haar_unitary(rng, d)
    return DensityMatrix((u * w) @ u.conj().T)


def _floor_problem(kind: str, rng):
    """(channel, unitary) of one family of cloning problems the search's
    floor must bound from below."""
    if kind in ("perfect", "tiny-eigenvalue"):
        d = int(rng.integers(2, 4))
        make = (_tiny_eigenvalue_density if kind == "tiny-eigenvalue"
                else lambda rng, d: DensityMatrix(oracles.random_density(
                    rng, d, int(rng.integers(1, d + 1)))))
        rho1, rho2 = make(rng, d), make(rng, d)
        phi = float(rng.uniform(0.0, math.sqrt(fidelity(rho1, rho2))))
        setup = perfect_cloning_setup(rho1, rho2, phi)
        return setup._channel(), np.array(setup.v)
    if kind == "orthogonal":
        # X (x) X sends |0>|0> to |1>|1>, orthogonal to the ideal |0>|0>
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rho1, rho2 = _pure(0.0), _pure(float(rng.uniform(0.05, 1.5)))
        return cloning._Channel(rho1, rho2, _blank(2), _blank(2), 1, 2), np.kron(x, x)
    d, n_out, env = {"restricted": (int(rng.integers(2, 5)), 2, 1),
                     "1to3": (2, 3, 2), "mixed-ancilla": (2, 2, 4), "d4e4": (4, 2, 4)}[kind]
    rho1, rho2 = (DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
                  for _ in range(2))
    anc = d ** (n_out - 1) * env
    if kind == "mixed-ancilla":
        ups1, ups2 = (DensityMatrix(oracles.random_density(rng, anc, anc)) for _ in range(2))
    else:
        ups1 = ups2 = _blank(anc)
    channel = cloning._Channel(rho1, rho2, ups1, ups2, 1, n_out)
    return channel, oracles.haar_unitary(rng, d ** n_out * env)


_FLOOR_KINDS = ("perfect", "tiny-eigenvalue", "orthogonal", "restricted", "1to3",
                "mixed-ancilla", "d4e4")


def test_the_floor_never_exceeds_the_exact_relative_error():
    # as floats: a move the search rejects on the floor alone is one the
    # exact kernel would reject too. Each unitary is also moved by
    # exp(i s H), so u runs from exact copies (COPY_TOL zeroing) through
    # near copies to orthogonal outputs (u = 1)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    gaps = []

    @hyp.settings(max_examples=350, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(_FLOOR_KINDS), st.integers(0, 2 ** 32 - 1),
               st.one_of(st.just(0.0), st.floats(-9.0, -0.5).map(lambda e: 10.0 ** e)))
    def check(kind, seed, scale):
        rng = np.random.default_rng(seed)
        channel, v = _floor_problem(kind, rng)
        if scale:
            h = oracles.random_density(rng, v.shape[0], v.shape[0]) - np.eye(v.shape[0]) / v.shape[0]
            v = v @ oracles.expm_scipy(scale * h / np.linalg.norm(h, 2))
        factors = channel._factors(v)
        rel = channel.evaluate(factors)[2]
        floor = channel.floor(factors)
        assert floor <= rel, (kind, seed, scale, floor, rel)
        gaps.append(rel - floor)

    check()
    # and it is not vacuous: half the points sit within 1e-6 of the exact value
    assert float(np.median(gaps)) <= 1e-6
