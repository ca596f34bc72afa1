"""Dense complex linear-algebra primitives used by every other module.

Everything here is a pure function on numpy arrays. Matrices are dense,
double precision, and capped at dimension 4096; tolerances are module
constants that every operation accepts as keyword overrides.
"""

from __future__ import annotations

import string

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimMismatch,
    DimTooLarge,
    NonFinite,
    NotHermitian,
    NotUnitary,
    NotPSD,
    OutOfRange,
)

TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_RECON = 1e-9
MAX_DIM = 4096

_LETTERS = string.ascii_lowercase + string.ascii_uppercase


def as_matrix(m, *, square: bool = True) -> np.ndarray:
    """Coerce to a finite complex 2-D array within the dimension cap."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimMismatch("matrix must be nonempty")
    if max(a.shape) > MAX_DIM:
        raise DimTooLarge(f"dimension {max(a.shape)} exceeds the cap {MAX_DIM}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFinite("matrix contains NaN or Inf entries")
    if square and a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., n, m) stack."""
    return m.conj().swapaxes(-1, -2)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, m) stack."""
    return np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1)))


def require_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> None:
    """Raise NotHermitian unless every matrix of a (..., d, d) stack is
    Hermitian within ``tol`` in Frobenius norm."""
    dev = _frobenius(m - _dagger(m)).max()
    if dev > tol:
        raise NotHermitian(f"Hermitian deviation {dev:.3e} exceeds {tol:.1e}")


def require_unitary(u: np.ndarray, tol: float = TOL_RECON) -> None:
    d = u.shape[0]
    # relative Frobenius deviation; identity has norm sqrt(d)
    dev = np.linalg.norm(u.conj().T @ u - np.eye(d)) / np.sqrt(d)
    if dev > tol:
        raise NotUnitary(f"unitarity deviation {dev:.3e} exceeds {tol:.1e}")


def hermitian_eig(m, *, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with columns matching).
    """
    a = as_matrix(m)
    require_hermitian(a, tol_herm)
    w, u = np.linalg.eigh(a)
    return w, u


def sqrt_psd(m, *, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-tol_psd, 0) clamp to 0.

    Eigenvalues below 1e-14 of the largest are zeroed outright, not rooted:
    a rank-deficient input carries eigensolver noise ~1e-16 in its null
    space, and sqrt would amplify that to ~1e-8 in the result.
    """
    a = as_matrix(m)
    require_hermitian(a, tol_herm)
    root, w = _psd_root(a)
    if w[0] < -tol_psd:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol_psd:.1e}")
    return root


def _psd_root(m: np.ndarray):
    """(PSD root, ascending eigenvalues) of each matrix of a (..., d, d) stack.

    Unvalidated: the kernel behind sqrt_psd and the stack fidelity. The root
    is symmetrized, so it is exactly Hermitian.
    """
    w, u = np.linalg.eigh(m)
    r = _sqrt_from_eig(w, u)
    return (r + _dagger(r)) / 2.0, w


def _root_weights(w: np.ndarray) -> np.ndarray:
    """sqrt of ascending eigenvalues over a (..., d) stack, with the one
    null-space cutoff behind every PSD root and factor: negative eigenvalues
    clip to 0, and those below 1e-14 of their own matrix's largest are
    zeroed as noise (see sqrt_psd)."""
    w = np.clip(w, 0.0, None)
    w[w < 1e-14 * w[..., -1:]] = 0.0
    return np.sqrt(w)


def _sqrt_from_eig(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u diag(sqrt(w)) u^dagger over a (..., d) / (..., d, d) stack, unvalidated."""
    return (u * _root_weights(w)[..., None, :]) @ _dagger(u)


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """K with K K^dagger = m for a PSD matrix m, unvalidated: the columns of
    u diag(sqrt(w)) whose weight survives the root cutoff, so K is d x rank."""
    w, u = np.linalg.eigh(m)
    s = _root_weights(w)
    keep = s > 0.0
    return u[:, keep] * s[keep]


def kron(a, b) -> np.ndarray:
    """Kronecker product with the dimension cap enforced on the result."""
    x = as_matrix(a, square=False)
    y = as_matrix(b, square=False)
    if max(x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]) > MAX_DIM:
        raise DimTooLarge(
            f"kron result {x.shape[0] * y.shape[0]} exceeds the cap {MAX_DIM}"
        )
    return np.kron(x, y)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a
    set of subsystem indices to retain. The result is ordered by ascending
    kept index, as a prod(kept) x prod(kept) matrix (1 x 1 for a full trace).
    """
    a = as_matrix(m)
    sub = [int(x) for x in dims]
    if not sub or any(x <= 0 for x in sub):
        raise DimMismatch("dims must be positive integers")
    total = int(np.prod(sub))
    if a.shape != (total, total):
        raise DimMismatch(f"matrix dim {a.shape[0]} != product of dims {total}")
    k = len(sub)
    if 2 * k > len(_LETTERS):
        raise DimTooLarge(f"too many subsystems ({k})")
    kept = sorted(set(int(i) for i in keep))
    if kept and (kept[0] < 0 or kept[-1] >= k):
        raise DimMismatch(f"keep indices {kept} outside [0, {k})")
    row = list(_LETTERS[:k])
    col = [_LETTERS[k + i] if i in kept else row[i] for i in range(k)]
    out = "".join(row[i] for i in kept) + "".join(col[i] for i in kept)
    spec = "".join(row) + "".join(col) + "->" + out
    reduced = np.einsum(spec, a.reshape(sub + sub))
    d_keep = int(np.prod([sub[i] for i in kept])) if kept else 1
    return reduced.reshape(d_keep, d_keep)


def unitary_exp(h, *, tol_herm: float = TOL_HERM) -> np.ndarray:
    """exp(i*h) for Hermitian h, via the eigendecomposition."""
    w, u = hermitian_eig(h, tol_herm=tol_herm)
    return (u * np.exp(1j * w)) @ u.conj().T


def unitary_power(u, t: float, *, tol: float = TOL_RECON) -> np.ndarray:
    """Fractional power of a unitary along its eigenphases.

    Phases are taken on the branch (-pi, pi], so u**t is the deterministic
    path with u**0 = identity and u**1 = u. The complex Schur form is used
    because it stays an orthonormal eigenbasis even for degenerate phases.
    """
    a = as_matrix(u)
    require_unitary(a, tol)
    tt = float(t)
    if not 0.0 <= tt <= 1.0:
        raise OutOfRange(f"power t={tt} outside [0, 1]")
    tri, w = sla.schur(a, output="complex")
    theta = np.angle(np.diagonal(tri))
    theta = np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)
    return (w * np.exp(1j * tt * theta)) @ w.conj().T
