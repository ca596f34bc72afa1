"""Generalized measurements, Born-rule probabilities, and dilation.

A POVM over m outcomes on C^d can always be realized as an orthogonal
measurement on C^d (x) C^m with a fixed pure ancilla: stack the sqrt(E_a)
blocks into an isometry, complete it to a unitary U, and conjugate the
ancilla-basis projectors back through U. Only a pure ancilla |0><0| is
produced here; a mixed one is never needed for that realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import TOL_PROB, TOL_PROJ, TOL_SUM
from .errors import (
    DimMismatch,
    InvalidPOVM,
    NotProjector,
    OutOfRange,
)
from .serialize import entries_to_matrix, matrix_to_entries
from .states import DensityMatrix, PureState, _blank_ancilla, _ginibre


def _require_povm(elems: np.ndarray) -> None:
    """The POVM invariants on a (..., m, d, d) stack of element lists: those
    of _require_resolution, and each element's lowest eigenvalue >= -TOL_PSD."""
    _require_resolution(elems)
    low = np.linalg.eigvalsh(elems)[..., 0]
    bad = low < -linalg.TOL_PSD
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InvalidPOVM(f"element {k % bad.shape[-1]} eigenvalue {low.flat[k]:.3e} "
                          f"below -{linalg.TOL_PSD:.1e}")


def _require_resolution(elems: np.ndarray) -> None:
    """The POVM invariants but positivity on a (..., m, d, d) stack of element
    lists: each element Hermitian within TOL_HERM, and the elements of each
    list summing to the identity within TOL_SUM. Gram products are PSD by
    construction and need no more."""
    dev = linalg._frobenius(elems - linalg._dagger(elems))
    bad = dev > linalg.TOL_HERM
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InvalidPOVM(f"element {k % bad.shape[-1]} not Hermitian (dev {dev.flat[k]:.3e})")
    res = float(np.max(linalg._frobenius(elems.sum(axis=-3) - np.eye(elems.shape[-1]))))
    if res > TOL_SUM:
        raise InvalidPOVM(f"elements sum to identity only within {res:.3e}")


def _require_projector(p: np.ndarray) -> None:
    """Each matrix of a (..., d, d) stack Hermitian and idempotent within TOL_PROJ."""
    bad = ((linalg._frobenius(p - linalg._dagger(p)) > TOL_PROJ)
           | (linalg._frobenius(p @ p - p) > TOL_PROJ))
    if np.any(bad):
        raise NotProjector(f"matrix {int(np.argmax(bad))} is not an orthogonal "
                           f"projector within {TOL_PROJ:.0e}")


def _element_list(elements, error, owner: str, what: str) -> list[np.ndarray]:
    """Each element by linalg._fixed_matrix, all on one C^d; an empty list
    or a mismatch raises ``error``, naming the ``owner`` and ``what``."""
    elems = [linalg._fixed_matrix(e) for e in elements]
    if not elems:
        raise error(f"{owner} needs at least one {what}")
    d = elems[0].shape[0]
    for i, e in enumerate(elems):
        if e.shape[0] != d:
            raise error(f"{what} {i} dim {e.shape[0]} != {d}")
    return elems


class POVM:
    """PSD elements on C^d summing to the identity, held read-only: a tuple
    of read-only arrays."""

    __slots__ = ("_elements",)

    def __init__(self, elements):
        elems = _element_list(elements, InvalidPOVM, "POVM", "element")
        _require_povm(np.stack(elems))
        self._elements = tuple(elems)

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        return self._elements

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, outcomes={self.outcomes})"

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "elements": [matrix_to_entries(e) for e in self.elements]}

    @classmethod
    def from_dict(cls, doc: dict) -> "POVM":
        return cls([entries_to_matrix(e, doc["dim"]) for e in doc["elements"]])


class ProjectiveMeasurement(POVM):
    """Mutually orthogonal projectors summing to the identity: a POVM whose
    elements are its projectors."""

    __slots__ = ()

    def __init__(self, projectors):
        projs = _element_list(projectors, NotProjector, "measurement", "projector")
        _require_projector(np.stack(projs))
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.linalg.norm(projs[i] @ projs[j]) > TOL_PROJ:
                    raise NotProjector(f"projectors {i},{j} not orthogonal")
        if np.linalg.norm(sum(projs) - np.eye(len(projs[0]))) > TOL_PROJ:
            raise NotProjector("projectors do not sum to identity")
        self._elements = tuple(projs)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return self._elements


@dataclass
class DilationResult:
    """Projective realization of a POVM on system (x) ancilla."""

    measurement: ProjectiveMeasurement
    ancilla: DensityMatrix


def probabilities(measurement: POVM, rho: DensityMatrix) -> list[float]:
    """Born-rule outcome probabilities Tr(E_a rho) of a POVM, a
    ProjectiveMeasurement included.

    Tiny negative values (>= -TOL_PROB) clamp to zero; anything worse, an
    imaginary residue above TOL_PROB, or a total off 1 by more than TOL_SUM
    raises instead of being silently repaired.
    """
    if measurement.dim != rho.dim:
        raise DimMismatch(f"measurement dim {measurement.dim} != state dim {rho.dim}")
    return _probabilities(np.stack(measurement.elements), rho.matrix).tolist()


def _probabilities(elems: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """probabilities() over a (..., m, d, d) element stack and a (..., d, d)
    state stack, with the same checks; returns the (..., m) probabilities.

    The Born rule is one contraction, Tr(E_a rho) = sum_ij E_a[i, j]
    rho[j, i], so no product E_a rho is formed."""
    p = np.einsum("...aij,...ji->...a", elems, rho)
    bad = np.abs(p.imag) > TOL_PROB
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InvalidPOVM(f"outcome {k % bad.shape[-1]} probability has imag part "
                          f"{p.imag.flat[k]:.3e}")
    bad = p.real < -TOL_PROB
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InvalidPOVM(f"outcome {k % bad.shape[-1]} probability {p.real.flat[k]:.3e} "
                          f"below -{TOL_PROB}")
    probs = np.maximum(p.real, 0.0)
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0)
    if np.max(off) > TOL_SUM:
        raise InvalidPOVM(f"probabilities sum to {total.flat[np.argmax(off)]}, "
                          "off by more than "
                          + np.format_float_scientific(TOL_SUM, trim="-", exp_digits=1))
    return probs


def naimark_dilate(povm: POVM) -> DilationResult:
    """Realize a POVM as a projective measurement on system (x) ancilla.

    The isometry W|psi> = sum_a (sqrt(E_a)|psi>) (x) |a> is polished to exact
    column orthonormality and completed to a unitary U by the orthonormal
    complement from one complete QR of W, placed in the columns W leaves
    free, in order; the projectors are U^dagger (1 (x) |a><a|) U, each formed
    as the Gram product of U's rows for outcome a, and the ancilla is |0><0|
    on C^m.
    """
    d = povm.dim
    m = povm.outcomes
    dm = d * m
    linalg._check_cap(dm, "dilation dim")
    w = np.zeros((dm, d), dtype=complex)
    rows = np.arange(d) * m
    for a, e in enumerate(povm.elements):
        w[rows + a, :] = linalg.sqrt_psd(e)
    # Loewdin polish: W (W^dagger W)^(-1/2) is the closest exactly-isometric frame
    s = w.conj().T @ w
    sw, su = np.linalg.eigh(s)
    if sw[0] <= 0.0:
        raise InvalidPOVM("isometry columns are degenerate")
    w = w @ ((su / np.sqrt(sw)) @ su.conj().T)

    u = np.zeros((dm, dm), dtype=complex)
    u[:, rows] = w
    u[:, np.arange(dm) % m != 0] = np.linalg.qr(w, mode="complete")[0][:, d:]
    linalg.require_unitary(u)

    projs = []
    for a in range(m):
        # 1 (x) |a><a| keeps the rows rows + a of U and zeroes the rest
        block = u[rows + a]
        pi = block.conj().T @ block
        projs.append((pi + pi.conj().T) / 2.0)
    return DilationResult(ProjectiveMeasurement(projs), _blank_ancilla(m))


def dilated_probabilities(dilation: DilationResult, rho: DensityMatrix) -> list[float]:
    """Outcome probabilities of rho through a dilation (system first)."""
    joint = DensityMatrix(linalg.kron(rho.matrix, dilation.ancilla.matrix))
    return probabilities(dilation.measurement, joint)


def projector_gap(x: PureState, y: PureState, pi) -> float:
    """|<x|Pi|x> - <y|Pi|y>| for an orthogonal projector Pi."""
    p = linalg.as_matrix(pi)
    _require_projector(p)
    if x.dim != y.dim or x.dim != p.shape[0]:
        raise DimMismatch("state and projector dimensions differ")
    return float(_projector_gap_stack(x.amp, y.amp, p))


def _projector_gap_stack(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """projector_gap over (..., d) vector stacks and a (..., d, d) projector
    stack, unvalidated."""
    def expect(v):
        return np.einsum("...i,...ij,...j->...", v.conj(), p, v).real
    return np.abs(expect(x) - expect(y))


def _normalized_povm(factors: np.ndarray) -> np.ndarray:
    """POVM elements from factors G_a, as a (..., m, d, k) stack: with W the
    d x (m k) side-by-side factor [G_1 ... G_m], S = W W^dagger the sum of
    the parts G_a G_a^dagger and H = S^(-1/2) W, element a is the Gram
    product H_a H_a^dagger, symmetrized. One eigh per list and one product
    per element; a zero factor gives an exactly zero element."""
    *lead, m, d, k = factors.shape
    w = np.moveaxis(factors, -3, -2).reshape(*lead, d, m * k)
    tw, tu = np.linalg.eigh(w @ linalg._dagger(w))
    h = ((tu / np.sqrt(tw)[..., None, :]) @ linalg._dagger(tu)) @ w
    h = np.moveaxis(h.reshape(*lead, d, m, k), -2, -3)
    e = h @ linalg._dagger(h)
    return (e + linalg._dagger(e)) / 2.0


def random_povm(d: int, outcomes: int, seed: int) -> POVM:
    """Random POVM: d x d Ginibre factors G_a made into elements by _normalized_povm."""
    d, outcomes = linalg._integral(d, "d"), linalg._integral(outcomes, "outcomes")
    if d < 1:
        raise OutOfRange(f"dimension {d} must be >= 1")
    if outcomes < 1:
        raise OutOfRange(f"outcomes {outcomes} must be >= 1")
    linalg._check_cap(d, "dimension")
    rng = np.random.default_rng(seed)
    g = np.stack([_ginibre(rng, (d, d)) for _ in range(outcomes)])
    return POVM(list(_normalized_povm(g)))
