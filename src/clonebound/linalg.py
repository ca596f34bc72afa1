"""Dense complex linear-algebra primitives used by every other module.

Everything here is a pure function on numpy arrays. This module also owns
the package's input rules, which every public entry goes through: counts
and dimensions are read by ``_integral``, every dense size by the
dimension cap check ``_check_cap`` before it is allocated, and every
tolerance is defined once, in the table below.

Only numpy is imported at load time. scipy is loaded by ``unitary_power``
alone, on its first call with a non-diagonal unitary. The package calls it
only with diagonal ones (``target_overlap_unitary``'s walk), so ``purify``,
``target_overlap_unitary``, ``perfect_cloning_setup``, ``bound``, ``sweep``,
``verify`` and ``optimize`` never load it.
"""

from __future__ import annotations

import string

import numpy as np

from .errors import (
    DimMismatch,
    DimTooLarge,
    NonFinite,
    NotHermitian,
    NotUnitary,
    NotPSD,
    OutOfRange,
)

# Every tolerance the package applies, each defined once.
TOL_HERM = 1e-10  # Frobenius norm of m - m^dagger a Hermitian matrix may have
TOL_PSD = 1e-10  # how far below 0 a PSD matrix's lowest eigenvalue may be
TOL_RECON = 1e-9  # relative Frobenius deviation of u^dagger u from I for a unitary
TOL_UNIT = 1e-10  # how far a trace or a norm may stray from 1
TOL_SUM = 1e-9  # how far POVM elements may sum from I, or probabilities from 1
TOL_PROB = 1e-12  # the largest imaginary part or negative value a probability clamps
TOL_PROJ = 1e-9  # Frobenius deviation of a projector from Hermitian and idempotent
ROOT_CUTOFF = 1e-14  # eigenvalues below this share of the largest are zeroed, not rooted
RANK_CUTOFF = 1e-12  # eigenvalues above this count toward purify's rank
TOL_ROOT = 1e-10  # how far the overlap walk's overlap may miss its target
PHI_BELOW = 1e-12  # how far below 0 a target overlap may be, read as 0
PHI_ABOVE = 1e-9  # how far above sqrt(F) a target overlap may be, read as sqrt(F)
ANGLE_SLACK = 1e-12  # how far above pi/2 an angle absolute_error takes may be
# u = 1 - sqrt(F) at or below this reads 0. Exact copies at total dimension
# <= 64 (perfect cloners on random states, identical density pairs) read
# u <= 1.5e-25, and a state off by sin(delta) = sqrt(2 u) = 1.4e-12, 1e-4 of
# SOUNDNESS_TOL, reads u = 1e-24. Copies of states with eigenvalues near
# 1e-8 read more, up to ~1e-15: the polar factor is undetermined there.
COPY_TOL = 1e-24
DEGENERATE_TOL = 1e-12  # root fidelity within this of 1 makes two inputs coincide
TOL_DENOM = 1e-9  # how far the relative error's denominator may miss sqrt(1 - f^(2L))
SOUNDNESS_TOL = 1e-8  # how far a relative error may dip below the bound before it raises
CHAIN_SLACK = 1e-9  # how far an inequality's lhs may exceed its rhs and still hold
# The search's floor on a candidate's relative error (cloning._Channel.floor)
# keeps these margins, in units of the double spacing at 1. The first two are
# per unit of o + ka + kb, for an o x ka output factor A and an o x kb ideal
# factor B, both of unit Frobenius norm; the floor never exceeds the exact
# path's float.
_EPS = float(np.finfo(float).eps)
# Weyl: forming M = B^dagger A (length o), its smaller Gram (length max(ka, kb))
# and eigvalsh's backward error (dimension min(ka, kb)) move an eigenvalue by
# at most (3 o + 1.5 max + 8 min + 9) eps ||A||^2 ||B||^2 in complex arithmetic
GRAM_TOL = 16 * _EPS
# the exact path's u = 1/2 ||A - B W||^2 reads below 1 - ||B^dagger A||_1 only
# by W's departure from a co-isometry and the rounding of A - B W and its sum
# of squares, each a few eps per unit length; this also covers COPY_TOL
FLOOR_SLACK = 64 * _EPS
# fl(sqrt(u (2 - u))) is within eps of its value and a two-term sum within
# eps more, so the floor's sum scaled by 1 - this stays <= the exact path's
SINE_ROUND = 16 * _EPS

MAX_DIM = 4096  # the largest dense dimension, checked by _check_cap

_LETTERS = string.ascii_lowercase + string.ascii_uppercase


def _integral(value, name: str) -> int:
    """A count or dimension as an int: an int, a numpy integer or an integral
    float reads as its value, and anything else, a fractional value or a bool
    included, is refused rather than truncated."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise OutOfRange(f"{name} must be an integer, got {value!r}")


def _check_cap(size: int, what: str) -> None:
    """Refuse a dense dimension over MAX_DIM, before it is allocated."""
    if size > MAX_DIM:
        raise DimTooLarge(f"{what} {size} exceeds the cap {MAX_DIM}")


def as_matrix(m, *, square: bool = True) -> np.ndarray:
    """Coerce to a finite complex 2-D array within the dimension cap."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimMismatch("matrix must be nonempty")
    _check_cap(max(a.shape), "dimension")
    _require_finite(a, "matrix")
    if square and a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise NonFinite if a complex array has a NaN or Inf part: a complex
    entry is finite only when both of its parts are."""
    if not np.isfinite(a).all():
        raise NonFinite(f"{what} contains NaN or Inf entries")


def _unshared(a: np.ndarray, m) -> np.ndarray:
    """a, read from the caller's m, sharing no memory with m: the caller's
    array, or a view of it, is copied; a fresh conversion is kept."""
    return a.copy() if a is m or a.base is not None else a


def _fixed_matrix(m) -> np.ndarray:
    """as_matrix of m as a read-only array that shares no memory with the
    caller (see _unshared)."""
    a = _unshared(as_matrix(m), m)
    a.flags.writeable = False
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., n, m) stack."""
    return m.conj().swapaxes(-1, -2)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, m) stack."""
    return np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1)))


def require_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian unless every matrix of a (..., d, d) stack is
    Hermitian within TOL_HERM in Frobenius norm."""
    dev = _frobenius(m - _dagger(m)).max()
    if dev > TOL_HERM:
        raise NotHermitian(f"Hermitian deviation {dev:.3e} exceeds {TOL_HERM:.1e}")


def require_unitary(u: np.ndarray) -> None:
    d = u.shape[0]
    # relative Frobenius deviation; identity has norm sqrt(d)
    dev = np.linalg.norm(u.conj().T @ u - np.eye(d)) / np.sqrt(d)
    if dev > TOL_RECON:
        raise NotUnitary(f"unitarity deviation {dev:.3e} exceeds {TOL_RECON:.1e}")


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with columns matching).
    """
    a = as_matrix(m)
    require_hermitian(a)
    w, u = np.linalg.eigh(a)
    return w, u


def sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-TOL_PSD, 0) clamp to 0.

    Eigenvalues below ROOT_CUTOFF of the largest are zeroed outright, not rooted:
    a rank-deficient input carries eigensolver noise ~1e-16 in its null
    space, and sqrt would amplify that to ~1e-8 in the result. The root is
    symmetrized, so it is exactly Hermitian.
    """
    w, u = hermitian_eig(m)
    _require_psd(w)
    return _eig_sqrt(w, u)


def _require_psd(w: np.ndarray) -> None:
    """Raise NotPSD if the lowest of a (..., d) stack of ascending
    eigenvalues is below -TOL_PSD."""
    low = w[..., 0].min()
    if low < -TOL_PSD:
        raise NotPSD(f"eigenvalue {low:.3e} below -{TOL_PSD:.1e}")


def _eig_sqrt(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The PSD root u diag(sqrt(w)) u^dagger of an eigendecomposition with
    ascending eigenvalues, symmetrized so that it is exactly Hermitian."""
    r = (u * _root_weights(w)) @ _dagger(u)
    return (r + _dagger(r)) / 2.0


def _root_weights(w: np.ndarray) -> np.ndarray:
    """sqrt of ascending eigenvalues over a (..., d) stack, with the one
    null-space cutoff behind every PSD root and factor: negative eigenvalues
    clip to 0, and those below ROOT_CUTOFF of their own matrix's largest are
    zeroed as noise (see sqrt_psd)."""
    w = np.clip(w, 0.0, None)
    w[w < ROOT_CUTOFF * w[..., -1:]] = 0.0
    return np.sqrt(w)


def _eig_factor(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """K = u diag(sqrt(w)) from a (..., d) stack of ascending eigenvalues and
    its eigenvectors: every K is d x d, and the columns the root cutoff drops
    are zero."""
    return u * _root_weights(w)[..., None, :]


def kron(a, b) -> np.ndarray:
    """Kronecker product with the dimension cap enforced on the result."""
    x = as_matrix(a, square=False)
    y = as_matrix(b, square=False)
    _check_cap(max(x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]), "kron result")
    return _kron(x, y)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D arrays, unvalidated: the elementwise
    products np.kron forms, by one broadcast multiply, without its per-call
    shape handling."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a
    set of subsystem indices to retain. The result is ordered by ascending
    kept index, as a prod(kept) x prod(kept) matrix (1 x 1 for a full trace).
    """
    a = as_matrix(m)
    sub = [_integral(x, "dims") for x in dims]
    if not sub or any(x <= 0 for x in sub):
        raise DimMismatch("dims must be positive integers")
    total = int(np.prod(sub))
    if a.shape != (total, total):
        raise DimMismatch(f"matrix dim {a.shape[0]} != product of dims {total}")
    k = len(sub)
    if 2 * k > len(_LETTERS):
        raise DimTooLarge(f"too many subsystems ({k})")
    kept = sorted(set(_integral(i, "keep") for i in keep))
    if kept and (kept[0] < 0 or kept[-1] >= k):
        raise DimMismatch(f"keep indices {kept} outside [0, {k})")
    row = list(_LETTERS[:k])
    col = [_LETTERS[k + i] if i in kept else row[i] for i in range(k)]
    out = "".join(row[i] for i in kept) + "".join(col[i] for i in kept)
    spec = "".join(row) + "".join(col) + "->" + out
    reduced = np.einsum(spec, a.reshape(sub + sub))
    d_keep = int(np.prod([sub[i] for i in kept])) if kept else 1
    return reduced.reshape(d_keep, d_keep)


def unitary_power(u, t: float) -> np.ndarray:
    """Fractional power of a unitary along its eigenphases.

    Phases are taken on the branch (-pi, pi], so u**t is the deterministic
    path with u**0 = identity and u**1 = u. A diagonal unitary is its own
    Schur form: its phases are read off the diagonal, and scipy is not
    loaded. Any other unitary goes through the complex Schur form, which
    stays an orthonormal eigenbasis even for degenerate phases.
    """
    a = as_matrix(u)
    require_unitary(a)
    tt = float(t)
    if not 0.0 <= tt <= 1.0:
        raise OutOfRange(f"power t={tt} outside [0, 1]")
    lam = np.diagonal(a)
    if np.array_equal(a, np.diag(lam)):
        return np.diag(_phase_power(lam, tt))
    import scipy.linalg  # the one scipy user; kept off the package's import path

    tri, w = scipy.linalg.schur(a, output="complex")
    return (w * _phase_power(np.diagonal(tri), tt)) @ w.conj().T


def _phase_power(lam: np.ndarray, t: float) -> np.ndarray:
    """lam**t for unit-modulus lam, with phases on the branch (-pi, pi]: a
    phase of exactly -pi (np.angle of -1 - 0j, say) moves to +pi."""
    theta = np.angle(lam)
    theta = np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)
    return np.exp(1j * t * theta)
