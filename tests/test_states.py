import math

import numpy as np
import pytest

from clonebound import linalg, states
from clonebound.errors import (
    BadRank,
    DimMismatch,
    DimTooSmall,
    EnvTooSmall,
    NonFinite,
    NotDensity,
    NotHermitian,
    NotPSD,
    OutOfRange,
    TargetOutOfRange,
)
from clonebound.states import (
    DensityMatrix,
    PureState,
    angle,
    angle_pure,
    fidelity,
    max_overlap_unitary,
    overlap_under,
    purifications_with_overlap,
    purify,
    random_density,
    target_overlap_unitary,
    zero_overlap_unitary,
)

import oracles


def _zero():
    return DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def _plus():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def _mixed(d=2):
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def test_density_matrix_validation():
    with pytest.raises(NotHermitian):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NotPSD):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(NotDensity):
        DensityMatrix(np.eye(2))  # trace 2


def test_density_matrix_round_trip():
    rho = random_density(3, 2, seed=4)
    again = DensityMatrix.from_dict(rho.to_dict())
    assert np.array_equal(rho.matrix, again.matrix)


def test_a_density_matrix_is_fixed_and_apart_from_the_callers_array():
    m = np.diag([0.75, 0.25]).astype(complex)
    for rho in (DensityMatrix(m), DensityMatrix(m[:, :]), DensityMatrix(memoryview(m))):
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5
        assert m.flags.writeable
        m[0, 0] = 0.5
        assert rho.matrix[0, 0] == 0.75
        m[0, 0] = 0.75
    for built in (PureState([0.6, 0.8j]).density(), states._blank_ancilla(3)):
        with pytest.raises(AttributeError):
            built.matrix = built.matrix.copy()
        with pytest.raises(ValueError):
            built.matrix[0, 0] = 0.0
    # a state built from another state's matrix takes its own copy
    first = DensityMatrix(m)
    again = DensityMatrix(first.matrix)
    assert again.matrix is not first.matrix and np.array_equal(again.matrix, m)


def test_pure_state_validation_and_round_trip():
    with pytest.raises(NotDensity):
        PureState([1.0, 1.0])
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(NonFinite):
            PureState([1.0, bad])
    x = PureState(np.array([1.0, 1j]) / np.sqrt(2))
    again = PureState.from_dict(x.to_dict())
    assert np.array_equal(x.amp, again.amp)
    assert np.linalg.norm(x.density().matrix - np.array([[0.5, -0.5j], [0.5j, 0.5]])) < 1e-15


def test_a_pure_density_is_exactly_hermitian_and_decomposes_as_the_outer_product():
    rng = np.random.default_rng(61)
    for n in (2, 3, 4, 9, 16, 64):
        for _ in range(5):
            amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = PureState(amp / np.linalg.norm(amp))
            m = y.density().matrix
            assert np.array_equal(m, m.conj().T)
            outer = np.outer(y.amp, y.amp.conj())
            for got, want in zip(np.linalg.eigh(m), np.linalg.eigh(outer)):
                assert np.array_equal(got, want)


def test_a_pure_density_still_checks_its_trace():
    # a norm of 1 + 6e-11 passes PureState's 1e-10 check, but the trace
    # |y|^2 is off by 1.2e-10, which the density check refuses
    y = PureState(np.array([1.0 + 6e-11, 0.0, 0.0]))
    with pytest.raises(NotDensity):
        y.density()
    assert PureState(np.array([1.0 + 4e-11, 0.0])).density().dim == 2


def test_fidelity_frozen_values():
    assert abs(fidelity(_zero(), _plus()) - 0.5) < 1e-12
    assert abs(fidelity(_mixed(), _plus()) - 0.5) < 1e-12
    assert fidelity(_zero(), _zero()) == 1.0  # exact on equal inputs
    assert fidelity(_zero(), DensityMatrix(np.diag([0.0, 1.0]))) < 1e-15


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        a = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        b = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        fab = fidelity(a, b)
        assert abs(fab - fidelity(b, a)) < 1e-12
        assert 0.0 <= fab <= 1.0


def test_fidelity_matches_sqrtm_oracle():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        a = oracles.random_density(rng, d, int(rng.integers(1, d + 1)))
        b = oracles.random_density(rng, d, int(rng.integers(1, d + 1)))
        assert abs(fidelity(DensityMatrix(a), DensityMatrix(b))
                   - oracles.fidelity_sqrtm(a, b)) < 1e-7


def test_fidelity_is_max_purification_overlap():
    # the variational definition, optimized generically, agrees with the
    # closed-form value
    rng = np.random.default_rng(31)
    for _ in range(3):
        a = oracles.random_density(rng, 2, 2)
        b = oracles.random_density(rng, 2, int(rng.integers(1, 3)))
        var = oracles.variational_max_overlap(a, b) ** 2
        assert abs(var - fidelity(DensityMatrix(a), DensityMatrix(b))) < 1e-6


def test_fidelity_dim_mismatch():
    with pytest.raises(DimMismatch):
        fidelity(_zero(), _mixed(3))
    with pytest.raises(DimMismatch):
        angle_pure(PureState([1.0, 0.0]), PureState([1.0, 0.0, 0.0]))
    with pytest.raises(DimMismatch):
        overlap_under(np.eye(3), _zero(), _plus())


def test_angle_frozen_and_triangle():
    assert abs(angle(_zero(), _plus()) - math.pi / 4) < 1e-12
    assert angle(_zero(), _zero()) == 0.0
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        states = [DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
                  for _ in range(3)]
        chi, omega, rho = states
        assert angle(chi, omega) <= angle(chi, rho) + angle(omega, rho) + 1e-9


def test_angle_pure():
    x = PureState([1.0, 0.0])
    y = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(angle_pure(x, y) - math.pi / 4) < 1e-12


def _pure_pair(rng, d: int, theta: float):
    """Unit vectors x and y = e^(i gamma) (cos theta x + sin theta z), z a
    unit vector orthogonal to x and gamma a random global phase."""
    x, z = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
    x /= np.linalg.norm(x)
    z -= np.vdot(x, z) * x
    z /= np.linalg.norm(z)
    y = math.cos(theta) * x + math.sin(theta) * z
    y *= np.exp(1j * rng.uniform(0, 2 * math.pi)) / np.linalg.norm(y)
    return PureState(x), PureState(y)


def test_angle_pure_matches_a_50_digit_oracle():
    # arccos(|<x|y>|) misses the angle of these float inputs by up to ~3e-8;
    # the chord form stays within a few eps from 1e-11 to 1.55 rad
    rng = np.random.default_rng(151)
    for _ in range(400):
        d = int(rng.integers(2, 7))
        x, y = _pure_pair(rng, d, 10.0 ** rng.uniform(-11, math.log10(1.55)))
        assert abs(angle_pure(x, y) - oracles.line_angle_mp(x.amp, y.amp)) <= 1e-15
        assert abs(angle_pure(x, y) - angle(x.density(), y.density())) <= 1e-15


def test_angle_pure_reads_zero_where_angle_on_the_densities_does():
    # u = 1 - cos(theta) <= COPY_TOL = 1e-24 for theta <= 1e-12
    rng = np.random.default_rng(157)
    for theta in (0.0, 1e-14, 1e-13, 1e-12):
        for d in (2, 4, 6):
            x, y = _pure_pair(rng, d, theta)
            assert angle_pure(x, y) == angle(x.density(), y.density()) == 0.0
            assert angle_pure(x, x) == 0.0


def test_fidelity_difference_bound():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        chi, omega, rho = [DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
                           for _ in range(3)]
        lhs = abs(fidelity(chi, rho) - fidelity(omega, rho))
        assert lhs <= math.sin(angle(chi, omega)) + 1e-9


def test_purify_marginal_and_failures():
    rng = np.random.default_rng(43)
    for d, env in ((2, 2), (3, 3), (3, 5), (4, 4)):
        rho = DensityMatrix(oracles.random_density(rng, d, d))
        y = purify(rho, env)
        assert y.dim == d * env
        marg = linalg.partial_trace(y.density().matrix, [d, env], {0})
        assert np.linalg.norm(marg - rho.matrix) < 1e-10
    with pytest.raises(EnvTooSmall):
        purify(_mixed(3), 2)  # rank 3 needs env >= 3
    with pytest.raises(EnvTooSmall):
        purify(_zero(), 0)


def test_purify_maximally_mixed_is_maximally_entangled():
    y = purify(_mixed(2), 2)
    coeff = y.amp.reshape(2, 2)
    s = np.linalg.svd(coeff, compute_uv=False)
    assert np.linalg.norm(s - np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-12


def test_overlap_never_exceeds_sqrt_fidelity():
    rng = np.random.default_rng(47)
    rho1 = DensityMatrix(oracles.random_density(rng, 3, 3))
    rho2 = DensityMatrix(oracles.random_density(rng, 3, 2))
    cap = math.sqrt(fidelity(rho1, rho2))
    for _ in range(200):
        v = oracles.haar_unitary(rng, 3)
        assert overlap_under(v, rho1, rho2) <= cap + 1e-9


def test_max_and_zero_overlap_unitaries():
    rng = np.random.default_rng(53)
    for d in (2, 3, 4):
        rho1 = DensityMatrix(oracles.random_density(rng, d, d))
        rho2 = DensityMatrix(oracles.random_density(rng, d, int(rng.integers(1, d + 1))))
        cap = math.sqrt(fidelity(rho1, rho2))
        top = max_overlap_unitary(rho1, rho2)
        assert abs(top.achieved_overlap - cap) < 1e-9
        assert abs(overlap_under(top.v, rho1, rho2) - top.achieved_overlap) < 1e-12
        bottom = zero_overlap_unitary(rho1, rho2)
        assert bottom.achieved_overlap <= 1e-12


def test_zero_overlap_needs_dim_two():
    one = DensityMatrix(np.array([[1.0]], dtype=complex))
    with pytest.raises(DimTooSmall):
        zero_overlap_unitary(one, one)
    with pytest.raises(DimTooSmall):
        target_overlap_unitary(one, one, 1.0)


def test_target_overlap_hits_interior_values():
    rng = np.random.default_rng(59)
    rho1 = DensityMatrix(oracles.random_density(rng, 2, 2))
    rho2 = DensityMatrix(oracles.random_density(rng, 2, 2))
    cap = math.sqrt(fidelity(rho1, rho2))
    for frac in (0.0, 0.2, 0.5, 0.9, 1.0):
        phi = frac * cap
        res = target_overlap_unitary(rho1, rho2, phi)
        assert abs(res.achieved_overlap - phi) <= 1e-10
        assert abs(overlap_under(res.v, rho1, rho2) - res.achieved_overlap) < 1e-12


def test_target_overlap_range_errors():
    rho1, rho2 = _zero(), _plus()
    cap = math.sqrt(fidelity(rho1, rho2))
    with pytest.raises(TargetOutOfRange):
        target_overlap_unitary(rho1, rho2, cap + 1e-6)
    with pytest.raises(TargetOutOfRange):
        target_overlap_unitary(rho1, rho2, -0.1)
    # just over the cap but within tolerance: clamps instead of failing
    res = target_overlap_unitary(rho1, rho2, cap + 1e-10)
    assert abs(res.achieved_overlap - cap) < 1e-9


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_is_a_bad_argument_not_an_unreachable_overlap(phi):
    from clonebound.cloning import perfect_cloning_setup

    rho1, rho2 = _zero(), _plus()
    for call in (target_overlap_unitary, purifications_with_overlap, perfect_cloning_setup):
        with pytest.raises(OutOfRange, match="must be finite"):
            call(rho1, rho2, phi)
    with pytest.raises(TargetOutOfRange):  # finite and above sqrt(F): unreachable
        target_overlap_unitary(rho1, rho2, 1.0)


def test_densities_validate_a_stack_as_the_constructor_does():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        stack = np.stack([oracles.random_density(rng, d, r) for r in (1, d, d - 1)])
        got = states._densities(stack)
        for m, rho in zip(stack, got):
            ref = DensityMatrix(m)
            assert np.array_equal(rho.matrix, ref.matrix)
            assert rho.to_dict() == ref.to_dict()
            assert not rho.matrix.flags.writeable
            w, u = rho._eigen()
            assert np.array_equal(w, ref._eigen()[0]) and np.array_equal(u, ref._eigen()[1])
        stack[0, 0, 0] = 7.0  # the states hold their own copy
        assert got[0].matrix[0, 0] != 7.0
    good = np.stack([oracles.random_density(rng, 2, 2) for _ in range(2)])
    nan_part, skew, negative, heavy = (good.copy() for _ in range(4))
    nan_part[1, 0, 1] = complex(0.1, math.nan)
    skew[1, 0, 1] += 0.3
    negative[1] = np.diag([-0.5, 1.5])
    heavy[1, 1, 1] += 0.5
    for bad, error in ((nan_part, NonFinite), (skew, NotHermitian), (negative, NotPSD),
                       (heavy, NotDensity)):
        with pytest.raises(error):
            states._densities(bad)
        with pytest.raises(error):
            DensityMatrix(bad[1])


def _rooted_pair(rng, d, r1, r2):
    rho1 = DensityMatrix(oracles.random_density(rng, d, r1))
    rho2 = DensityMatrix(oracles.random_density(rng, d, r2))
    a, b = linalg.sqrt_psd(rho1.matrix), linalg.sqrt_psd(rho2.matrix)
    cap = min(float(np.sum(np.linalg.svd(a @ b, compute_uv=False))), 1.0)
    return rho1, rho2, a, b, cap


def test_target_overlap_walk_matches_the_schur_walk():
    # the walk bisects on [0, 1], the bracket g(0) = 0 < phi < sqrt(F) = g(1)
    # gives it, and takes the same steps as the walk that builds a Schur power
    # at every point on that bracket, so the path parameter is the same bits.
    # V agrees with the Schur walk at d = 2 and odd d. At even d >= 4 the
    # Schur form may put the step's eigenvalue -1 at -pi, so there the check
    # is on the branch: V0^dagger V(t) has eigenphases t theta_k, with
    # theta_k = 2 pi k / d, k = 1 - d/2 .. d/2, so -1 sits at +pi
    rng = np.random.default_rng(67)
    cases = 0
    for d in range(2, 7):
        k = np.arange(d) - (d - 1) // 2
        for r1 in range(1, d + 1):
            for r2 in range(1, d + 1):
                rho1, rho2, a, b, cap = _rooted_pair(rng, d, r1, r2)
                for phi in (rng.uniform(0.0, cap), rng.uniform(0.0, cap),
                            rng.uniform(0.0, 1e-9), cap + rng.uniform(-1e-9, 1e-9)):
                    res = target_overlap_unitary(rho1, rho2, phi)
                    v, g, t = oracles.schur_walk_target_overlap(a, b, phi, samples=2)
                    assert res.path_parameter == t
                    assert abs(res.achieved_overlap - g) <= 1e-13
                    assert np.abs(res.v.conj().T @ res.v - np.eye(d)).max() <= 1e-13
                    if d == 2 or d % 2 or t in (0.0, 1.0):
                        assert np.abs(res.v - v).max() <= 1e-13
                    else:
                        phases = oracles.walk_step_phases(a, b, res.v)
                        assert np.abs(phases - t * 2.0 * np.pi * k / d).max() <= 1e-12
                    cases += 1
    assert cases >= 300


@pytest.mark.parametrize("d", [64, 256])
def test_target_overlap_walk_meets_phi_at_large_dimension(d):
    # the bracket is [0, 1] at every d: no grid guards the search, and the
    # walk still lands within TOL_ROOT of phi where |c_d| is flattest in t
    rng = np.random.default_rng(d)
    rho1 = random_density(d, d, seed=d)
    rho2 = random_density(d, d // 2, seed=d + 1)
    cap = math.sqrt(fidelity(rho1, rho2))
    for phi in (1e-3 * cap, 0.5 * cap, rng.uniform(0.0, cap), cap * (1.0 - 1e-6)):
        res = target_overlap_unitary(rho1, rho2, phi)
        assert 0.0 < res.path_parameter < 1.0
        assert abs(res.achieved_overlap - phi) <= linalg.TOL_ROOT
        assert abs(overlap_under(res.v, rho1, rho2) - phi) <= linalg.TOL_ROOT


def _old_walk_unitary(p, q, t):
    """The walk's V(t) as it was built, with its frame formed on every call."""
    d = p.shape[0]
    theta = states._root_phases(d)
    f = np.exp(1j * np.multiply.outer(np.arange(d), theta)) / np.sqrt(d)
    lam_t = np.diagonal(linalg.unitary_power(np.diag(np.exp(1j * theta)), t))
    return ((np.roll(q, -1, axis=1) @ f) * lam_t) @ linalg._dagger(p @ f)


def test_the_walks_cached_frame_and_column_shift_change_no_bit():
    rng = np.random.default_rng(103)
    for d in range(1, 9):
        q = oracles.haar_unitary(rng, d)
        assert states._shifted(q).tobytes() == np.roll(q, -1, axis=1).tobytes()
        roots, f = states._dft_frame(d)
        assert states._dft_frame(d)[1] is f
        theta = states._root_phases(d)
        assert np.array_equal(roots, np.diag(np.exp(1j * theta)))
        assert np.array_equal(f, np.exp(1j * np.multiply.outer(np.arange(d), theta))
                              / np.sqrt(d))
        for a in (roots, f):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
    cases = 0
    for d in range(2, 7):
        for r1 in range(1, d + 1):
            rho1, rho2, _, _, cap = _rooted_pair(rng, d, r1, d)
            for phi in (rng.uniform(0.0, cap), rng.uniform(0.0, cap)):
                res = target_overlap_unitary(rho1, rho2, phi)
                assert 0.0 < res.path_parameter < 1.0
                _, _, p, q = states._overlap_frame(rho1, rho2)
                old = _old_walk_unitary(p, q, res.path_parameter)
                assert res.v.tobytes() == old.tobytes()
                cases += 1
    assert cases == 40


def test_path_overlap_closed_form_matches_schur_power():
    rng = np.random.default_rng(71)
    for d in range(2, 7):
        _, _, a, b, _ = _rooted_pair(rng, d, d, int(rng.integers(1, d + 1)))
        sum_s = float(np.sum(np.linalg.svd(a @ b, compute_uv=False)))
        ts = np.linspace(0.0, 1.0, 17)
        for t, ref in zip(ts, sum_s * oracles.dirichlet_profile(ts, d)):
            g = oracles.schur_path_overlap(a, b, t)
            assert abs(ref - g) <= 1e-14
            if t < 1.0:  # the two-sine form is 0/0 at t = 1, which the walk never takes
                assert abs(sum_s * states._path_magnitude(float(t), d) - g) <= 1e-14


def test_path_profile_monotone_with_dirichlet_form():
    t = np.linspace(0.0, 1.0, 20001)
    for d in range(2, 65):
        ref = oracles.dirichlet_profile(t, d)
        assert ref[-1] == 1.0 and ref[0] < 1e-15
        # the walk's two-sine form on [0, 1), non-decreasing in t
        mag = np.array([states._path_magnitude(x, d) for x in t[:-1].tolist()])
        assert np.all(np.diff(mag) >= 0.0) and mag[0] < 1e-15
        assert np.max(np.abs(mag - ref[:-1])) < 1e-14


def test_purifications_with_overlap():
    rng = np.random.default_rng(61)
    for d in (2, 3):
        rho1 = DensityMatrix(oracles.random_density(rng, d, d))
        rho2 = DensityMatrix(oracles.random_density(rng, d, d))
        cap = math.sqrt(fidelity(rho1, rho2))
        for frac in (0.0, 0.3, 0.7, 1.0):
            phi = frac * cap
            y1, y2 = purifications_with_overlap(rho1, rho2, phi)
            assert y1.dim == d * d and y2.dim == d * d
            assert abs(abs(np.vdot(y1.amp, y2.amp)) - phi) <= 1e-9
            for y, rho in ((y1, rho1), (y2, rho2)):
                marg = linalg.partial_trace(y.density().matrix, [d, d], {0})
                assert np.linalg.norm(marg - rho.matrix) <= 1e-9


def test_random_density_properties():
    rho = random_density(4, 2, seed=11)
    w = np.linalg.eigvalsh(rho.matrix)
    assert abs(np.real(np.trace(rho.matrix)) - 1.0) < 1e-12
    assert w[0] > -1e-12
    assert np.sum(w > 1e-10) == 2  # requested rank
    again = random_density(4, 2, seed=11)
    assert np.array_equal(rho.matrix, again.matrix)
    assert not np.array_equal(rho.matrix, random_density(4, 2, seed=12).matrix)
    with pytest.raises(BadRank):
        random_density(2, 3, seed=0)
    with pytest.raises(BadRank):
        random_density(2, 0, seed=0)
    with pytest.raises(BadRank):
        random_density(0, 1, seed=0)


def _eig_factor(m: np.ndarray) -> np.ndarray:
    """The PSD factor K, K K^dagger = m, of each matrix of a (..., d, d) stack."""
    return linalg._eig_factor(*np.linalg.eigh(m))


def _check_stack_kernels(seed: int, d: int, n: int) -> None:
    """Stack factor, Bures kernel, stack fidelity and stack angle against the
    per-call factor, fidelity and angle.

    Pairs mix random ranks (rank-deficient included) with identical pairs.
    """
    rng = np.random.default_rng(seed)

    def draw():
        return oracles.random_density(rng, d, int(rng.integers(1, d + 1)))

    a = np.stack([draw() for _ in range(n)])
    b = np.stack([a[k].copy() if k % 3 == 0 else draw() for k in range(n)])
    factors = _eig_factor(a)
    us = states._bures(factors, _eig_factor(b))
    fids = states._fidelity(us)
    for k in range(n):
        one_factor = _eig_factor(a[k:k + 1])[0]
        one_fid = states._fidelity(states._bures(one_factor, _eig_factor(b[k])))
        rho1, rho2 = DensityMatrix(a[k]), DensityMatrix(b[k])
        assert np.array_equal(one_factor[:, one_factor.any(axis=0)], rho1._psd_factor())
        assert one_fid == fidelity(rho1, rho2)
        assert np.max(np.abs(factors[k] - one_factor)) <= 1e-14
        assert abs(fids[k] - one_fid) <= 1e-14
        assert abs(states._angle(us[k]) - angle(rho1, rho2)) <= 1e-12
        if k % 3 == 0:
            assert fids[k] == 1.0


def test_stack_kernels_agree_with_per_call_fixed_seeds():
    for seed in range(40):
        _check_stack_kernels(seed, 2 + seed % 5, 1 + seed % 9)


def test_stack_kernels_agree_with_per_call_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 12))
    def check(seed, d, n):
        _check_stack_kernels(seed, d, n)

    check()


def _masked_factors(rng, d: int, ranks) -> np.ndarray:
    """A stack of d x d Ginibre factors of unit Frobenius norm, column r and
    beyond zero for each rank r."""
    shape = (len(ranks), d, d)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g *= np.arange(d) < np.asarray(ranks)[:, None, None]
    return g / np.sqrt((np.abs(g) ** 2).sum(axis=(-2, -1)))[:, None, None]


def _gram(k: np.ndarray) -> np.ndarray:
    return k @ k.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bures_does_not_depend_on_the_factor(d):
    rng = np.random.default_rng([17, d])
    # every pair of ranks 1..d, three times over
    r1, r2 = (np.tile(r.ravel(), 3) + 1 for r in np.indices((d, d)))
    k1, k2 = _masked_factors(rng, d, r1), _masked_factors(rng, d, r2)
    # and orthogonal rank-1 pairs, which read u = 1
    basis = oracles.haar_unitary(rng, d)
    x = np.zeros((d - 1, d, d), dtype=complex)
    y = np.zeros((d - 1, d, d), dtype=complex)
    x[:, :, 0] = basis[:, 0]
    y[:, :, 0] = basis[:, 1:].T
    k1, k2 = np.concatenate([k1, x]), np.concatenate([k2, y])
    u = states._bures(k1, k2)
    u_eig = states._bures(_eig_factor(_gram(k1)), _eig_factor(_gram(k2)))
    assert np.max(np.abs(u - u_eig)) <= 1e-14
    assert np.all(np.abs(u[-(d - 1):] - 1.0) <= 1e-14)
    # an identical pair reads exactly 0, under the same factor or another
    assert np.all(states._bures(k1, k1) == 0.0)
    rotated = k1 @ oracles.haar_unitary(rng, d)
    assert np.all(states._bures(k1, rotated) == 0.0)


def test_stack_density_checks_name_the_same_errors():
    good = np.stack([np.eye(2, dtype=complex) / 2] * 3)
    states._require_density(good)
    for bad, err in ((np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian),
                     (np.diag([1.5, -0.5]), NotPSD),
                     (np.eye(2), NotDensity)):
        stack = good.copy()
        stack[1] = bad
        with pytest.raises(err):
            states._require_density(stack)
    vecs = np.stack([np.array([1.0, 0.0]), np.array([0.6, 0.8])]).astype(complex)
    states._require_unit(vecs)
    vecs[1] *= 1.1
    with pytest.raises(NotDensity):
        states._require_unit(vecs)
