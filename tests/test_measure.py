import math

import numpy as np
import pytest

from clonebound import linalg, measure
from clonebound.errors import (
    DimMismatch,
    InvalidPOVM,
    NotProjector,
    OutOfRange,
)
from clonebound.measure import (
    POVM,
    ProjectiveMeasurement,
    dilated_probabilities,
    naimark_dilate,
    probabilities,
    projector_gap,
    random_povm,
)
from clonebound.states import DensityMatrix, PureState, angle, angle_pure

import oracles


def _trine() -> POVM:
    elems = []
    for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        e = np.array([np.cos(t), np.sin(t)], dtype=complex)
        elems.append((2.0 / 3.0) * np.outer(e, e.conj()))
    return POVM(elems)


def _zero_state(d=2) -> DensityMatrix:
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def test_povm_validation():
    with pytest.raises(InvalidPOVM):
        POVM([np.eye(2) * 0.5, np.eye(3) * 0.5])  # elements of different dims
    with pytest.raises(InvalidPOVM):
        POVM([np.eye(2) * 0.5])  # sums to half identity
    with pytest.raises(InvalidPOVM):
        POVM([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # negative element
    with pytest.raises(InvalidPOVM):
        POVM([])


def test_povm_round_trip():
    p = _trine()
    again = POVM.from_dict(p.to_dict())
    for a, b in zip(p.elements, again.elements):
        assert np.array_equal(a, b)


def test_probabilities_computational_basis():
    meas = POVM([np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)])
    p = probabilities(meas, _zero_state())
    assert abs(p[0] - 1.0) < 1e-15 and abs(p[1]) < 1e-15


def test_probabilities_maximally_mixed_is_trace_over_d():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        povm = random_povm(d, 4, seed=int(rng.integers(10**6)))
        rho = DensityMatrix(np.eye(d, dtype=complex) / d)
        p = probabilities(povm, rho)
        for pa, e in zip(p, povm.elements):
            assert abs(pa - np.real(np.trace(e)) / d) < 1e-12


def test_trine_probabilities_frozen():
    p = probabilities(_trine(), _zero_state())
    assert abs(p[0] - 2.0 / 3.0) < 1e-12
    assert abs(p[1] - 1.0 / 6.0) < 1e-12
    assert abs(p[2] - 1.0 / 6.0) < 1e-12


def test_probabilities_dim_mismatch():
    with pytest.raises(DimMismatch):
        probabilities(_trine(), _zero_state(3))


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        povm = random_povm(d, int(rng.integers(2, 6)), seed=int(rng.integers(10**6)))
        rho = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        assert abs(sum(probabilities(povm, rho)) - 1.0) < 1e-9


def test_projective_measurement_validation():
    good = ProjectiveMeasurement([np.diag([1.0, 0.0]).astype(complex),
                                  np.diag([0.0, 1.0]).astype(complex)])
    assert good.outcomes == 2
    with pytest.raises(NotProjector):
        ProjectiveMeasurement([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])])
    with pytest.raises(NotProjector):
        ProjectiveMeasurement([])
    with pytest.raises(NotProjector):
        ProjectiveMeasurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])])
    with pytest.raises(NotProjector):  # orthogonal projectors that miss |1>
        ProjectiveMeasurement([np.diag([1.0, 0.0])])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(NotProjector):  # not mutually orthogonal
        ProjectiveMeasurement([np.outer(v, v), np.diag([1.0, 0.0]),
                               np.diag([0.0, 1.0]) - np.outer(v, v) + np.outer(v, v)])


def test_born_contraction_matches_the_trace_of_the_product():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 5, 6):
        elems = np.stack([np.stack(random_povm(d, 4, seed=int(s)).elements)
                          for s in rng.integers(10**6, size=8)])
        rhos = np.stack([oracles.random_density(rng, d, int(rng.integers(1, d + 1)))
                         for _ in range(16)]).reshape(2, 8, d, d)
        # (8, 4, d, d) elements against (2, 8, d, d) states, broadcast to (2, 8, 4)
        got = measure._probabilities(elems, rhos)
        ref = np.trace(elems @ rhos[..., None, :, :], axis1=-2, axis2=-1).real
        assert got.shape == (2, 8, 4)
        assert np.abs(got - ref).max() <= 1e-15
        povm = POVM(list(elems[0]))
        rho = DensityMatrix(rhos[1, 0])
        p = probabilities(povm, rho)
        assert np.abs(np.array(p) - ref[1, 0]).max() <= 1e-15
        q = dilated_probabilities(naimark_dilate(povm), rho)
        assert max(abs(a - b) for a, b in zip(p, q)) <= 1e-10


def test_naimark_projective_input_reproduces_distribution():
    meas = POVM([np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)])
    dil = naimark_dilate(meas)
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho = DensityMatrix(oracles.random_density(rng, 2, 2))
        p = probabilities(meas, rho)
        q = dilated_probabilities(dil, rho)
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-12


def test_naimark_trine_agreement():
    dil = naimark_dilate(_trine())
    assert dil.measurement.dim == 6
    assert dil.ancilla.dim == 3
    assert abs(dil.ancilla.matrix[0, 0] - 1.0) < 1e-15
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = DensityMatrix(oracles.random_density(rng, 2, int(rng.integers(1, 3))))
        p = probabilities(_trine(), rho)
        q = dilated_probabilities(dil, rho)
        assert max(abs(a - b) for a, b in zip(p, q)) <= 1e-10


def test_naimark_random_povm_agreement():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        for _ in range(25):
            povm = random_povm(d, int(rng.integers(2, 6)), seed=int(rng.integers(10**6)))
            dil = naimark_dilate(povm)
            rho = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
            p = probabilities(povm, rho)
            q = dilated_probabilities(dil, rho)
            assert max(abs(a - b) for a, b in zip(p, q)) <= 1e-10


def test_naimark_projectors_match_the_conjugated_ancilla_projector(monkeypatch):
    # capture the dilation unitary U as naimark_dilate checks it
    seen = []
    require_unitary = measure.linalg.require_unitary
    monkeypatch.setattr(measure.linalg, "require_unitary",
                        lambda u: (seen.append(u), require_unitary(u))[1])
    rng = np.random.default_rng(19)
    for _ in range(40):
        d, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        dil = naimark_dilate(random_povm(d, m, seed=int(rng.integers(10**6))))
        u = seen[-1]
        assert dil.measurement.outcomes == m
        for a, pi in enumerate(dil.measurement.projectors):
            assert np.abs(pi - oracles.naimark_projector(u, d, m, a)).max() <= 1e-15


def test_projective_measurement_is_a_povm():
    rng = np.random.default_rng(23)
    basis = oracles.haar_unitary(rng, 3)
    projs = [np.outer(basis[:, k], basis[:, k].conj()) for k in range(3)]
    meas = ProjectiveMeasurement(projs)
    assert isinstance(meas, POVM)
    assert meas.projectors is meas.elements
    assert (meas.dim, meas.outcomes) == (3, 3)
    assert repr(meas) == "ProjectiveMeasurement(dim=3, outcomes=3)"
    for _ in range(10):
        rho = DensityMatrix(oracles.random_density(rng, 3, int(rng.integers(1, 4))))
        assert probabilities(meas, rho) == probabilities(POVM(projs), rho)


def test_a_caller_mutating_its_arrays_changes_no_state_or_measurement():
    # each class keeps a read-only array of its own, whether the caller
    # passed an array or a view of one
    a = np.array([1, 0], dtype=complex)
    rows = np.array([[1, 0], [5, 5]], dtype=complex)
    for amp, source in ((a, a), (rows[0], rows)):
        x = PureState(amp)
        source[...] = 5
        assert np.array_equal(x.amp, [1, 0]) and not x.amp.flags.writeable
        with pytest.raises(AttributeError):
            x.amp = np.array([5, 0], dtype=complex)
        with pytest.raises(ValueError):
            x.amp[0] = 5
        assert np.array_equal(x.amp, [1, 0])
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    for cls in (POVM, ProjectiveMeasurement):
        e1, e2 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
        stack = np.stack([e1, e2])
        for meas, sources in ((cls([e1, e2]), (e1, e2)), (cls(list(stack)), (stack,))):
            for m in sources:
                m[..., 0, 0] = 7
            assert probabilities(meas, rho) == [0.5, 0.5]
            assert not any(e.flags.writeable for e in meas.elements)
            with pytest.raises(TypeError):
                meas.elements[0] = np.diag([7, 0]).astype(complex)
            with pytest.raises(AttributeError):
                meas.elements = [np.diag([7, 0]).astype(complex), e2]
            with pytest.raises(ValueError):
                meas.elements[0][0, 0] = 7
            assert probabilities(meas, rho) == [0.5, 0.5]
    meas = ProjectiveMeasurement([np.diag([1, 0]).astype(complex),
                                  np.diag([0, 1]).astype(complex)])
    with pytest.raises(AttributeError):
        meas.projectors = ()
    with pytest.raises(TypeError):
        meas.projectors[0] = np.eye(2, dtype=complex)


def test_probability_deviation_bounded_by_sine():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        povm = random_povm(d, int(rng.integers(2, 6)), seed=int(rng.integers(10**6)))
        chi = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        omega = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        dev = max(abs(a - b) for a, b in zip(probabilities(povm, chi),
                                             probabilities(povm, omega)))
        assert dev <= math.sin(angle(chi, omega)) + 1e-9


def test_projector_gap_frozen_and_edges():
    x = PureState([1.0, 0.0])
    y = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    pi = np.diag([1.0, 0.0]).astype(complex)
    assert abs(projector_gap(x, y, pi) - 0.5) < 1e-12
    assert projector_gap(x, x, pi) == 0.0
    assert projector_gap(x, y, np.eye(2)) < 1e-15


def test_projector_gap_bounded_by_pure_sine():
    rng = np.random.default_rng(19)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        xv = oracles.haar_unitary(rng, d)[:, 0]
        yv = oracles.haar_unitary(rng, d)[:, 0]
        x, y = PureState(xv), PureState(yv)
        basis = oracles.haar_unitary(rng, d)
        k = int(rng.integers(1, d + 1))
        pi = basis[:, :k] @ basis[:, :k].conj().T
        assert projector_gap(x, y, pi) <= math.sin(angle_pure(x, y)) + 1e-9


def test_projector_gap_rejects_non_projector():
    x = PureState([1.0, 0.0])
    with pytest.raises(NotProjector):
        projector_gap(x, x, np.diag([0.5, 0.5]))
    with pytest.raises(DimMismatch):
        projector_gap(x, x, np.eye(3))
    with pytest.raises(DimMismatch):
        projector_gap(x, PureState([1.0, 0.0, 0.0]), np.eye(2))


def test_random_povm_properties():
    povm = random_povm(2, 1, seed=0)
    assert np.linalg.norm(povm.elements[0] - np.eye(2)) < 1e-12
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        p = random_povm(d, int(rng.integers(1, 6)), seed=int(rng.integers(10**6)))
        total = sum(p.elements)
        assert np.linalg.norm(total - np.eye(d)) <= 1e-10
        for e in p.elements:
            assert np.linalg.eigvalsh(e)[0] >= -1e-12
    with pytest.raises(OutOfRange):
        random_povm(0, 2, seed=0)
    with pytest.raises(OutOfRange):
        random_povm(2, 0, seed=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gram_form_povm_elements_match_a_40_digit_oracle(d):
    # factors with rows scaled from 1 down to 10**-(spread/2), so S = sum_a
    # G_a G_a^dagger has condition numbers up to 1e8 and beyond; some lists
    # carry zero factors at random positions. The largest rows come first:
    # in another row order, or under a rotation, the eigh of the formed S
    # loses up to eps * cond(S) itself, for every formula built on it
    # (1.7e-8 at cond 1.5e8), so no 1e-12 match is possible there
    rng = np.random.default_rng(500 + d)
    conds = []
    for m in range(1, 6):
        for pad in sorted({0, 5 - m}):
            for spread in (0, 4, 8):
                g = measure._ginibre(rng, (m + pad, d, d))
                zero = rng.permutation(m + pad)[:pad]
                g[zero] = 0.0
                g *= np.logspace(0, -spread / 2, d)[:, None]
                conds.append(np.linalg.cond(sum(x @ x.conj().T for x in g)))
                elems = measure._normalized_povm(g)
                exact = oracles.normalized_povm_mp(g)
                for a, (e, x) in enumerate(zip(elems, exact)):
                    if a in zero:
                        assert np.all(e == 0.0)
                        continue
                    assert np.linalg.norm(e - x) <= 1e-12 * np.linalg.norm(x), (m, pad, spread, a)
                    assert np.array_equal(e, e.conj().T)
                    assert np.linalg.eigvalsh(e)[0] >= -linalg.TOL_PSD
                assert np.linalg.norm(elems.sum(axis=0) - np.eye(d)) <= linalg.TOL_SUM
    assert max(conds) > 1e8


def test_random_povm_deterministic():
    a = random_povm(3, 4, seed=42)
    b = random_povm(3, 4, seed=42)
    for x, y in zip(a.elements, b.elements):
        assert np.array_equal(x, y)


def test_stack_measurement_checks_name_the_same_errors():
    trine = np.stack(_trine().elements)
    lists = np.stack([trine, trine])
    measure._require_povm(lists)
    for k, e in ((0, np.array([[0.5, 0.1], [0.0, 0.0]])),  # not Hermitian
                 (2, np.diag([-0.5, 0.0]))):  # negative, and sum off identity
        bad = lists.copy()
        bad[1, k] = e
        with pytest.raises(InvalidPOVM):
            measure._require_povm(bad)
    halves = lists.copy()
    halves[1] *= 0.5
    with pytest.raises(InvalidPOVM):
        measure._require_povm(halves)

    rhos = np.stack([np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)])
    p = measure._probabilities(lists, rhos)
    assert np.array_equal(p[1], probabilities(_trine(), _zero_state()))
    for bad_rho in (np.array([[0.5, 1e-9j], [1e-9j, 0.5]]),  # imaginary probabilities
                    np.diag([-0.2, 1.2]),  # a probability below -1e-12
                    np.diag([0.6, 0.6])):  # total off 1
        with pytest.raises(InvalidPOVM):
            measure._probabilities(lists, np.stack([rhos[0], bad_rho]))

    projs = np.stack([np.diag([1.0, 0.0]), np.eye(2)]).astype(complex)
    measure._require_projector(projs)
    projs[1] = np.diag([0.5, 0.5])
    with pytest.raises(NotProjector):
        measure._require_projector(projs)
