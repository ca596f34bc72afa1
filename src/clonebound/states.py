"""Density operators, fidelity/angle geometry, and purification machinery.

The overlap tooling revolves around one identity: if |Y1>, |Y2> in H(x)H are
purifications of rho1, rho2, their inner product can always be written as
Tr(sqrt(rho1) sqrt(rho2) V) with V unitary, and every V arises this way. The
maximum over V equals sqrt(F); a zero is always reachable for d >= 2; and a
continuous path between those two unitaries sweeps every value in between.
Along the path V0 (V0^dagger Vmax)^t used here the overlap has a closed form,
sqrt(F) times a scalar function of t and d alone that rises strictly from 0
at t = 0 to 1 at t = 1. So [0, 1] brackets the one t of a target overlap,
a scalar bisection finds it, and the unitary is built once, at the root.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import COPY_TOL, PHI_ABOVE, PHI_BELOW, RANK_CUTOFF, TOL_ROOT, TOL_UNIT
from .errors import (
    BadRank,
    DimMismatch,
    DimTooSmall,
    EnvTooSmall,
    NotDensity,
    OutOfRange,
    TargetOutOfRange,
)
from .serialize import (
    entries_to_matrix,
    entries_to_vector,
    matrix_to_entries,
    vector_to_entries,
)


def _require_density(m: np.ndarray):
    """The density-matrix invariants on each matrix of a (..., d, d) stack:
    Hermitian within TOL_HERM, lowest eigenvalue >= -TOL_PSD, trace 1 within
    TOL_UNIT. Returns the eigendecomposition (w, u) the PSD check read."""
    linalg.require_hermitian(m)
    w, u = np.linalg.eigh(m)
    linalg._require_psd(w)
    _require_unit_trace(m)
    return w, u


def _require_unit_trace(m: np.ndarray) -> None:
    """Trace 1 within TOL_UNIT for each matrix of a (..., d, d) stack."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if off.max() > TOL_UNIT:
        raise NotDensity(f"trace {complex(tr.flat[off.argmax()])} not 1 within {TOL_UNIT}")


def _require_unit(amp: np.ndarray) -> None:
    """Unit norm within TOL_UNIT for each vector of a (..., d) stack."""
    n = np.linalg.norm(amp, axis=-1)
    off = np.abs(n - 1.0)
    if off.max() > TOL_UNIT:
        raise NotDensity(f"norm {float(n.flat[off.argmax()])} not 1 within {TOL_UNIT}")


class DensityMatrix:
    """A validated density matrix: Hermitian, PSD, unit trace.

    The state is fixed after construction: ``matrix`` is a read-only array
    and cannot be reassigned. The state keeps the one eigendecomposition its
    validation ran, or the factor K, K K^dagger = matrix, it was built from;
    its roots, factors and purifications are all derived from that. A state
    built from a factor forms its matrix only when ``matrix``, ``_eigen`` or
    ``to_dict`` first reads it, and keeps it from then on; ``dim`` and the
    overlaps read the factor. Its PSD root is formed on first use and kept,
    read-only, so every overlap computation on the state shares one root.
    """

    __slots__ = ("_matrix", "_eig", "_factor", "_root", "_form")

    def __init__(self, matrix):
        a = linalg._fixed_matrix(matrix)
        self._hold(a, _require_density(a))

    @classmethod
    def _from_factor(cls, factor: np.ndarray, form) -> "DensityMatrix":
        """The state K K^dagger of its factor K = ``factor``, whose matrix
        ``form()`` builds, Hermitian, by the caller's rule on first read. A
        Gram product is PSD and its trace is ||K||_F^2, so of the density
        invariants only that norm is checked, on the factor."""
        trace = float(np.vdot(factor, factor).real)
        if abs(trace - 1.0) > TOL_UNIT:
            raise NotDensity(f"trace {trace} not 1 within {TOL_UNIT}")
        rho = cls.__new__(cls)
        rho._hold(None, None, factor, form)
        return rho

    def _hold(self, matrix, eig, factor=None, form=None) -> None:
        if matrix is not None:
            matrix.flags.writeable = False
        self._matrix, self._eig, self._factor, self._root = matrix, eig, factor, None
        self._form = form

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = self._form()
            m.flags.writeable = False
            self._matrix, self._form = m, None
        return self._matrix

    @property
    def dim(self) -> int:
        return (self._matrix if self._factor is None else self._factor).shape[0]

    def _eigen(self):
        """(w, u) with ascending w and matrix = u diag(w) u^dagger: the
        decomposition validation ran or, for a state built from a factor, one
        eigh of the matrix on first use, kept from then on."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.matrix)
        return self._eig

    def _root_factor(self) -> np.ndarray:
        """A factor K with K K^dagger = matrix: the one the state was built
        from, else linalg._eig_factor of its decomposition."""
        if self._factor is None:
            return linalg._eig_factor(*self._eig)
        return self._factor

    def _psd_factor(self) -> np.ndarray:
        """_root_factor without its zero columns."""
        k = self._root_factor()
        return k[:, k.any(axis=0)]

    def _sqrt(self) -> np.ndarray:
        """The PSD root of the matrix, from its decomposition: formed on first
        use and kept from then on, as a read-only array."""
        if self._root is None:
            self._root = linalg._eig_sqrt(*self._eigen())
            self._root.flags.writeable = False
        return self._root

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"

    def to_dict(self) -> dict:
        return {"dim": self.dim, "entries": matrix_to_entries(self.matrix)}

    @classmethod
    def from_dict(cls, doc: dict) -> "DensityMatrix":
        return cls(entries_to_matrix(doc["entries"], doc["dim"]))


def _densities(m: np.ndarray) -> list[DensityMatrix]:
    """Each matrix of a (k, d, d) stack as a DensityMatrix, validated as one
    stack by the constructor's checks: finite, within the cap, and the
    density invariants, with one stacked eigh for PSD. The stack is copied,
    and each state holds its read-only slice and its slice of that eigh."""
    a = np.array(m, dtype=complex)
    linalg._check_cap(a.shape[-1], "dimension")
    linalg._require_finite(a, "matrix")
    w, u = _require_density(a)
    a.flags.writeable = False
    states = []
    for i in range(a.shape[0]):
        rho = DensityMatrix.__new__(DensityMatrix)
        rho._hold(a[i], (w[i], u[i]))
        states.append(rho)
    return states


def _blank_ancilla(dim: int) -> DensityMatrix:
    """The pure blank register |0><0| on C^dim, with its factor e_0; its
    matrix is formed when read."""
    def form():
        blank = np.zeros((dim, dim), dtype=complex)
        blank[0, 0] = 1.0
        return blank

    factor = np.zeros((dim, 1), dtype=complex)
    factor[0, 0] = 1.0
    return DensityMatrix._from_factor(factor, form)


class PureState:
    """A unit-norm state vector; ``amp`` is a read-only copy, by
    linalg._unshared's rule."""

    __slots__ = ("_amp",)

    def __init__(self, amp):
        a = linalg._unshared(np.asarray(amp, dtype=complex), amp).reshape(-1)
        if a.size == 0:
            raise DimMismatch("state vector must be nonempty")
        linalg._check_cap(a.size, "state vector length")
        linalg._require_finite(a, "state vector")
        _require_unit(a)
        a.flags.writeable = False
        self._amp = a

    @property
    def amp(self) -> np.ndarray:
        return self._amp

    @property
    def dim(self) -> int:
        return self._amp.size

    def density(self) -> DensityMatrix:
        """|y><y| as a DensityMatrix with its factor y, its matrix formed
        when read.

        Of the density invariants only the trace |y|^2 = 1 within TOL_UNIT is
        checked: the state has passed the finiteness and dimension checks,
        and a rank-one outer product is PSD. The outer product is Hermitian
        only to rounding, so its strict upper triangle is replaced by the
        mirror of the lower one and its diagonal by its real part; eigh reads
        nothing else, so the matrix decomposes exactly as the outer product.
        """
        amp = self.amp

        def form():
            m = np.tril(np.outer(amp, amp.conj()))
            m += linalg._dagger(np.tril(m, -1))
            np.fill_diagonal(m, m.diagonal().real)
            return m

        return DensityMatrix._from_factor(amp[:, None], form)

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"

    def to_dict(self) -> dict:
        return {"dim": self.dim, "amp": vector_to_entries(self.amp)}

    @classmethod
    def from_dict(cls, doc: dict) -> "PureState":
        return cls(entries_to_vector(doc["amp"], doc["dim"]))


@dataclass
class OverlapUnitaryResult:
    """A unitary realizing a purification overlap, with the path parameter."""

    v: np.ndarray
    achieved_overlap: float
    path_parameter: float


def _check_same_dim(chi: DensityMatrix, omega: DensityMatrix) -> int:
    if chi.dim != omega.dim:
        raise DimMismatch(f"dims differ: {chi.dim} vs {omega.dim}")
    return chi.dim


def _bures(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u = 1 - sqrt(F(A A^dagger, B B^dagger)) per pair of two factor stacks
    (..., n, ka) and (..., n, kb), unvalidated: A A^dagger and B B^dagger of
    unit trace.

    u = 1/2 ||A - B W||_F^2 with W the polar factor of B^dagger A, taken with
    the wider factor as A, so ||B^dagger A||_1 = sqrt(F) (Uhlmann). The form
    is a sum of squares, so u keeps its relative precision as F -> 1, where
    1 - F from F loses half the digits of sqrt(1 - F).
    """
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    p, _, qh = np.linalg.svd(linalg._dagger(b) @ a, full_matrices=False)
    return _chord(a, b, p @ qh)


def _bures_pure(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """_bures of two (..., d) unit-vector stacks as factors, whose polar
    factor is the phase of <y|x>: u = 1 - |<x|y>| = 1/2 ||x - e^(i phi) y||^2.
    An error in phi moves u only to second order."""
    x, y = x[..., None], y[..., None]
    return _chord(x, y, np.exp(1j * np.angle(linalg._dagger(y) @ x)))


def _chord(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u = 1/2 ||A - B W||_F^2 per pair, clamped to 1, and u <= COPY_TOL
    read as 0: the one rule by which two states count as equal."""
    diff = a - b @ w
    u = 0.5 * np.einsum("...ij,...ij->...", diff.conj(), diff).real
    return np.minimum(u, 1.0) * (u > COPY_TOL)


def _sine(u):
    """sin(delta) for cos(delta) = 1 - u."""
    return np.sqrt(u * (2.0 - u))


def _angle(u):
    """delta = arccos(1 - u) as 2 arcsin(sqrt(u / 2)), which has no cancellation."""
    return 2.0 * np.arcsin(np.sqrt(u / 2.0))


def _fidelity(u):
    """F = (1 - u)^2 for u = 1 - sqrt(F)."""
    return (1.0 - u) ** 2


def fidelity(chi: DensityMatrix, omega: DensityMatrix) -> float:
    """Fidelity between two density matrices, in [0, 1].

    Equal inputs (u <= COPY_TOL, see _chord) return exactly 1.0, so the
    derived angle is exactly zero.
    """
    _check_same_dim(chi, omega)
    return float(_fidelity(_bures(chi._root_factor(), omega._root_factor())))


def angle(chi: DensityMatrix, omega: DensityMatrix) -> float:
    """Angle arccos(sqrt(F)) in [0, pi/2]."""
    _check_same_dim(chi, omega)
    return float(_angle(_bures(chi._root_factor(), omega._root_factor())))


def angle_pure(x: PureState, y: PureState) -> float:
    """Angle arccos(|<x|y>|) between unit vectors, from the chord
    u = 1/2 ||x - e^(i phi) y||^2 after aligning the phase (see _bures_pure):
    full precision as x meets y, and 0 exactly where ``angle`` reads 0."""
    if x.dim != y.dim:
        raise DimMismatch(f"dims differ: {x.dim} vs {y.dim}")
    return float(_angle(_bures_pure(x.amp, y.amp)))


def purify(rho: DensityMatrix, env_dim: int) -> PureState:
    """Canonical purification on system (x) environment of dimension env_dim.

    Eigenvalues are taken in descending order and paired with the matching
    computational-basis environment vectors, so the construction is
    deterministic. Requires env_dim >= rank(rho).
    """
    e = linalg._integral(env_dim, "env_dim")
    if e < 1:
        raise EnvTooSmall(f"env_dim {e} must be >= 1")
    linalg._check_cap(rho.dim * e, "purification dimension")
    w, u = rho._eigen()
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    u = u[:, order]
    rank = int(np.count_nonzero(w > RANK_CUTOFF))
    if e < rank:
        raise EnvTooSmall(f"env_dim {e} below state rank {rank}")
    k = min(e, rho.dim)
    # amp[a*e + j] = sqrt(w_j) u[a, j]
    coeff = np.zeros((rho.dim, e), dtype=complex)
    coeff[:, :k] = u[:, :k] * np.sqrt(w[:k])
    amp = coeff.reshape(-1)
    return PureState(amp / np.linalg.norm(amp))


def overlap_under(v, rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """|Tr(sqrt(rho1) sqrt(rho2) v)| for a unitary v."""
    d = _check_same_dim(rho1, rho2)
    a = linalg.as_matrix(v)
    if a.shape[0] != d:
        raise DimMismatch(f"unitary dim {a.shape[0]} != state dim {d}")
    linalg.require_unitary(a)
    return float(abs(np.trace(rho1._sqrt() @ rho2._sqrt() @ a)))


def _overlap_frame(rho1: DensityMatrix, rho2: DensityMatrix):
    """M = sqrt(rho1) sqrt(rho2), from the roots the states keep, with its
    singular values s and the unitaries P, Q of its SVD M = P diag(s) Q^dagger."""
    m = rho1._sqrt() @ rho2._sqrt()
    p, s, qh = np.linalg.svd(m)
    return m, s, p, qh.conj().T


def _max_unitary(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q P^dagger, the unitary of maximal overlap Tr(M V)."""
    return q @ p.conj().T


def _shifted(q: np.ndarray) -> np.ndarray:
    """Q C, with C the cyclic shift e_j -> e_{(j+1) mod d}, a permutation with
    zero diagonal for d >= 2: column j of Q C is column j + 1 (mod d) of Q,
    so no product is formed, only a copy of Q's columns in that order."""
    return np.concatenate((q[:, 1:], q[:, :1]), axis=1)


def _zero_unitary(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q C P^dagger, with C the cyclic shift: a unitary of zero overlap."""
    return _shifted(q) @ p.conj().T


def _result(m: np.ndarray, v: np.ndarray, t: float) -> OverlapUnitaryResult:
    """v with its overlap |Tr(M v)| and path parameter t."""
    return OverlapUnitaryResult(v, float(abs(np.trace(m @ v))), t)


def max_overlap_unitary(rho1: DensityMatrix, rho2: DensityMatrix) -> OverlapUnitaryResult:
    """The unitary attaining the maximal overlap sqrt(F(rho1, rho2)).

    With sqrt(rho1) sqrt(rho2) = P Sigma Q^dagger the maximizer is Q P^dagger,
    which turns the trace into the sum of singular values.
    """
    _check_same_dim(rho1, rho2)
    m, _, p, q = _overlap_frame(rho1, rho2)
    return _result(m, _max_unitary(p, q), 1.0)


def zero_overlap_unitary(rho1: DensityMatrix, rho2: DensityMatrix) -> OverlapUnitaryResult:
    """A unitary giving overlap zero (orthogonal purifications), d >= 2.

    Q C P^dagger with C the cyclic shift lands the singular values on the
    zero diagonal of C, so the trace vanishes identically.
    """
    d = _check_same_dim(rho1, rho2)
    if d < 2:
        raise DimTooSmall("no zero-overlap unitary in dimension 1")
    m, _, p, q = _overlap_frame(rho1, rho2)
    return _result(m, _zero_unitary(p, q), 0.0)


def _root_phases(d: int) -> np.ndarray:
    """Phases of the d-th roots of unity on the branch (-pi, pi]."""
    return 2.0 * np.pi * (np.arange(d) - (d - 1) // 2) / d


@functools.lru_cache(maxsize=8)
def _dft_frame(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag(lam), F) of the walk at dimension d, both read-only and built
    once per d (the last few d are kept): lam_k = exp(i theta_k), theta the
    phases of _root_phases, and the DFT matrix F[j, k] = exp(i j theta_k) /
    sqrt(d)."""
    theta = _root_phases(d)
    frame = (np.diag(np.exp(1j * theta)),
             np.exp(1j * np.multiply.outer(np.arange(d), theta)) / np.sqrt(d))
    for a in frame:
        a.flags.writeable = False
    return frame


def _walk_unitary(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """The walk's V(t) = (Q C F) diag(lam^t) (P F)^dagger, in the DFT
    eigenbasis of its step (see target_overlap_unitary), with diag(lam) and
    F from _dft_frame. lam^t is the diagonal case of linalg.unitary_power."""
    roots, f = _dft_frame(p.shape[0])
    lam_t = np.diagonal(linalg.unitary_power(roots, t))
    return ((_shifted(q) @ f) * lam_t) @ linalg._dagger(p @ f)


def _path_magnitude(t: float, d: int) -> float:
    """|c_d(t)| at one t in [0, 1) in closed form, |sin(pi s) / (d sin(pi s / d))|
    with s = 1 - t (see target_overlap_unitary)."""
    x = math.pi * (1.0 - t)
    return abs(math.sin(x) / (d * math.sin(x / d)))


def target_overlap_unitary(rho1: DensityMatrix, rho2: DensityMatrix,
                           phi: float) -> OverlapUnitaryResult:
    """A unitary whose overlap equals ``phi`` within TOL_ROOT.

    A non-finite phi is a bad argument (OutOfRange); a finite one outside
    [0, sqrt(F)] cannot be reached (TargetOutOfRange).

    Walks the path V(t) = V0 * (V0^dagger Vmax)^t from the zero-overlap
    unitary (t=0) to the maximal one (t=1). The overlap g(t) along it is
    bisected on [0, 1] and V(t) is built once, at the root.

    V(t) is built in the eigenbasis of the step, with no Schur form. With
    sqrt(rho1) sqrt(rho2) = P Sigma Q^dagger, V0 = Q C P^dagger (C the
    cyclic shift) and Vmax = Q P^dagger, the step V0^dagger Vmax is
    P C^dagger P^dagger. The unitary DFT matrix F diagonalizes C^dagger =
    F diag(lam) F^dagger, with lam the d-th roots of unity, so
    V(t) = (Q C F) diag(lam^t) (P F)^dagger. The phases of lam^t lie on
    (-pi, pi] with -1 at +pi, so at even d the unitary does not depend on
    how an eigensolver rounds.

    The overlap along the path is known in closed form, so the bisection
    builds no matrix; each step takes the magnitude below from two sines.
    Tr(sqrt(rho1) sqrt(rho2) V(t)) = Tr(Sigma C (C^dagger)^t). The matrix
    C (C^dagger)^t is circulant, so its diagonal is constant and
    g(t) = sqrt(F) |c_d(t)|, sqrt(F) = Tr Sigma, with
    c_d(t) = (1/d) sum_k exp(i (t-1) theta_k) and theta_k the phases of the
    d-th roots of unity on (-pi, pi]. With s = 1 - t and odd d, c_d is
    real, c_d = sin(pi s) / (d sin(pi s / d)); for even d it is that value
    times a phase. The log-derivative of that value in s is
    (h(pi s) - h(pi s / d)) / s with h(x) = x cot(x), which decreases on
    (0, pi), so |c_d| falls strictly in s on (0, 1) for every d and g rises
    strictly from g(0) = 0 to g(1) = sqrt(F). A target strictly between
    those ends is therefore met at exactly one t, and [0, 1] brackets it:
    the bisection keeps g(lo) < target <= g(hi) from lo = 0, hi = 1.

    The roots come from the states, which keep them (see DensityMatrix), so
    purifications_with_overlap reuses the pair formed here.
    """
    d = _check_same_dim(rho1, rho2)
    if d < 2:
        raise DimTooSmall("dimension 1 admits only overlap 1")
    target = float(phi)
    if not math.isfinite(target):
        raise OutOfRange(f"phi={target} must be finite")
    m, s, p, q = _overlap_frame(rho1, rho2)
    sum_s = float(np.sum(s))
    sqrt_f = min(sum_s, 1.0)
    if not -PHI_BELOW <= target <= sqrt_f + PHI_ABOVE:
        raise TargetOutOfRange(f"phi={target} outside [0, sqrt(F)={sqrt_f}]")
    target = min(max(target, 0.0), sqrt_f)

    if target <= TOL_ROOT:
        return _result(m, _zero_unitary(p, q), 0.0)
    if target >= sqrt_f - TOL_ROOT:
        return _result(m, _max_unitary(p, q), 1.0)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = sum_s * _path_magnitude(mid, d)
        if abs(g_mid - target) <= TOL_ROOT:
            break
        if g_mid < target:
            lo = mid
        else:
            hi = mid
    return _result(m, _walk_unitary(p, q, mid), mid)


def purifications_with_overlap(rho1: DensityMatrix, rho2: DensityMatrix,
                               phi: float) -> tuple[PureState, PureState]:
    """Purifications of rho1 and rho2 on H(x)H whose overlap equals phi.

    Both marginals over the second factor recover the inputs; phi can be any
    value in [0, sqrt(F(rho1, rho2))]. The roots are the ones
    target_overlap_unitary formed, kept on the states.
    """
    v = target_overlap_unitary(rho1, rho2, phi).v
    a, b = rho1._sqrt(), rho2._sqrt()
    # amp[x*d + i] = A[x, i] purifies A A^dagger with overlap Tr(A^dagger B)
    y1 = a.reshape(-1)
    y2 = (b @ v).reshape(-1)
    return (PureState(y1 / np.linalg.norm(y1)),
            PureState(y2 / np.linalg.norm(y2)))


def _ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar(rng: np.random.Generator, shape) -> np.ndarray:
    """Haar-random unitaries of shape (..., d, d): the QR of a Ginibre stack,
    with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(_ginibre(rng, shape))
    rd = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (rd / np.abs(rd))[..., None, :]


def _density_from_factor(g: np.ndarray) -> np.ndarray:
    """G G^dagger normalized to unit trace, per matrix of a (..., d, k) stack."""
    m = g @ linalg._dagger(g)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return (m + linalg._dagger(m)) / 2.0


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Random density matrix of the given rank, deterministic per seed.

    Uses G G^dagger with G a d x rank complex Gaussian factor, normalized to
    unit trace; the column count controls the rank.
    """
    d, rank = linalg._integral(d, "d"), linalg._integral(rank, "rank")
    if d < 1:
        raise BadRank(f"dimension {d} must be >= 1")
    if not 1 <= rank <= d:
        raise BadRank(f"rank {rank} outside [1, {d}]")
    linalg._check_cap(d, "dimension")
    rng = np.random.default_rng(seed)
    return DensityMatrix(_density_from_factor(_ginibre(rng, (d, rank))))
