"""Ancilla-assisted cloning channels, their errors, and the lower bound.

A cloning setup takes N copies of an input state together with an ancilla
(M = L - N extra registers plus an environment of dimension e), applies a
joint unitary V, and traces out the environment; the result is compared to
the ideal L-fold tensor power. The relative error of any such channel on a
pair of inputs is bounded below by a closed-form function of f (root
fidelity of the inputs) and phi (root fidelity of the ancilla pair), and
that bound is enforced at runtime as a soundness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import linalg
from .errors import (
    DegeneratePair,
    DimMismatch,
    DimTooLarge,
    IndistinguishablePair,
    OutOfRange,
    SoundnessViolation,
)
from .serialize import entries_to_matrix, matrix_to_entries
from .states import (
    DensityMatrix,
    _same_state,
    angle,
    fidelity,
    purifications_with_overlap,
)

DEGENERATE_TOL = 1e-12
SOUNDNESS_TOL = 1e-8
CHAIN_SLACK = 1e-9


def tensor_power(rho: DensityMatrix, k: int) -> DensityMatrix:
    """k-fold tensor power of a density matrix."""
    if int(k) < 1:
        raise OutOfRange(f"tensor power {k} must be >= 1")
    m = reduce(linalg.kron, [rho.matrix] * int(k))
    return DensityMatrix(m)


@dataclass(frozen=True)
class BoundInput:
    """Scalar parameters of the lower-bound formula."""

    f: float
    phi: float
    n_in: int
    n_out: int

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise OutOfRange(f"f={self.f} outside [0, 1]")
        if not 0.0 <= self.phi <= 1.0:
            raise OutOfRange(f"phi={self.phi} outside [0, 1]")
        if self.n_in < 1 or self.n_out <= self.n_in:
            raise OutOfRange(
                f"need n_out > n_in >= 1, got n_in={self.n_in}, n_out={self.n_out}"
            )


class CloningSetup:
    """A concrete N -> L cloning channel evaluated on a pair of inputs.

    Holds the input pair on C^d, the ancilla pair on C^(d^M * e) with
    M = n_out - n_in, and the joint unitary on C^(d^L * e).
    """

    __slots__ = ("rho1", "rho2", "upsilon1", "upsilon2", "v",
                 "n_in", "n_out", "env_dim")

    def __init__(self, rho1: DensityMatrix, rho2: DensityMatrix,
                 upsilon1: DensityMatrix, upsilon2: DensityMatrix,
                 v, n_in: int, n_out: int, env_dim: int):
        n_in = int(n_in)
        n_out = int(n_out)
        env_dim = int(env_dim)
        if n_in < 1 or n_out <= n_in:
            raise OutOfRange(f"need n_out > n_in >= 1, got {n_in} -> {n_out}")
        if env_dim < 1:
            raise OutOfRange(f"env_dim {env_dim} must be >= 1")
        d = rho1.dim
        if rho2.dim != d:
            raise DimMismatch(f"input dims differ: {d} vs {rho2.dim}")
        m_extra = n_out - n_in
        anc_dim = d ** m_extra * env_dim
        if upsilon1.dim != anc_dim or upsilon2.dim != anc_dim:
            raise DimMismatch(
                f"ancilla dim must be d^M*e = {anc_dim}, got "
                f"{upsilon1.dim} and {upsilon2.dim}"
            )
        total = d ** n_out * env_dim
        if total > linalg.MAX_DIM:
            raise DimTooLarge(f"total dim d^L*e = {total} exceeds {linalg.MAX_DIM}")
        vm = linalg.as_matrix(v)
        if vm.shape[0] != total:
            raise DimMismatch(f"unitary dim {vm.shape[0]} != d^L*e = {total}")
        linalg.require_unitary(vm)
        self.rho1, self.rho2 = rho1, rho2
        self.upsilon1, self.upsilon2 = upsilon1, upsilon2
        self.v = vm
        self.n_in, self.n_out, self.env_dim = n_in, n_out, env_dim

    @property
    def d(self) -> int:
        return self.rho1.dim

    @property
    def m_extra(self) -> int:
        return self.n_out - self.n_in

    @property
    def total_dim(self) -> int:
        return self.d ** self.n_out * self.env_dim

    def __repr__(self) -> str:
        return (f"CloningSetup(d={self.d}, n_in={self.n_in}, "
                f"n_out={self.n_out}, env_dim={self.env_dim})")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "env_dim": self.env_dim,
            "rho1": self.rho1.to_dict(),
            "rho2": self.rho2.to_dict(),
            "upsilon1": self.upsilon1.to_dict(),
            "upsilon2": self.upsilon2.to_dict(),
            "v": {"dim": self.total_dim, "entries": matrix_to_entries(self.v)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CloningSetup":
        return cls(
            DensityMatrix.from_dict(doc["rho1"]),
            DensityMatrix.from_dict(doc["rho2"]),
            DensityMatrix.from_dict(doc["upsilon1"]),
            DensityMatrix.from_dict(doc["upsilon2"]),
            entries_to_matrix(doc["v"]["entries"], doc["v"]["dim"]),
            doc["n_in"], doc["n_out"], doc["env_dim"],
        )


@dataclass
class CloneOutcome:
    """Evaluated channel outputs and their error figures."""

    out1: DensityMatrix
    out2: DensityMatrix
    delta1: float
    delta2: float
    absolute_error: float
    relative_error: float

    def to_dict(self) -> dict:
        return {
            "out1": self.out1.to_dict(),
            "out2": self.out2.to_dict(),
            "delta1": self.delta1,
            "delta2": self.delta2,
            "absolute_error": self.absolute_error,
            "relative_error": self.relative_error,
        }


def absolute_error(delta1: float, delta2: float) -> float:
    """sin(delta1) + sin(delta2) for angles in [0, pi/2]."""
    d1, d2 = float(delta1), float(delta2)
    half_pi = math.pi / 2.0
    for d in (d1, d2):
        if not 0.0 <= d <= half_pi + 1e-12:
            raise OutOfRange(f"delta {d} outside [0, pi/2]")
    return math.sin(d1) + math.sin(d2)


def _ideal_outputs(rho1: DensityMatrix, rho2: DensityMatrix, n_out: int):
    """f, the ideal L-fold outputs and the angle between them, cross-checked.

    The angle is computed from the actual tensor-power states, and its sine
    (the relative error's denominator) must agree with sqrt(1 - f^(2L))
    (root-fidelity multiplicativity) within 1e-9; disagreement means the
    inputs or the arithmetic are broken.
    """
    f = math.sqrt(fidelity(rho1, rho2))
    if f >= 1.0 - DEGENERATE_TOL:
        raise IndistinguishablePair(
            f"inputs have root fidelity {f}; relative error is 0/0"
        )
    ideals = (tensor_power(rho1, n_out), tensor_power(rho2, n_out))
    delta = angle(*ideals)
    sine = math.sin(delta)
    cross = math.sqrt(max(0.0, 1.0 - f ** (2 * n_out)))
    if abs(sine - cross) > 1e-9:
        raise SoundnessViolation(
            f"denominator {sine} disagrees with sqrt(1-f^(2L)) = {cross}"
        )
    return f, ideals, delta


def relative_error(delta1: float, delta2: float, rho1: DensityMatrix,
                   rho2: DensityMatrix, n_out: int = 2) -> float:
    """(sin d1 + sin d2) / sin(angle between the ideal L-fold outputs)."""
    numer = absolute_error(delta1, delta2)
    _, _, delta = _ideal_outputs(rho1, rho2, n_out)
    return numer / math.sin(delta)


def _root(m: np.ndarray) -> np.ndarray:
    """PSD root of a matrix that is Hermitian up to rounding, unvalidated."""
    return linalg._sqrt_from_eig(*np.linalg.eigh((m + m.conj().T) / 2.0))


class _Channel:
    """A setup's cloning problem, ready to be evaluated under any joint unitary V.

    Built once per problem, it holds what does not depend on V: the joint
    inputs rho^(x)N (x) upsilon, the ideal L-fold outputs and their roots,
    f, phi, the bound and the angle between the ideal outputs, whose sine
    is the relative error's denominator. ``evaluate`` is the one
    unvalidated evaluation path: the search calls it directly, and
    apply_cloning wraps its outputs as validated states.
    """

    def __init__(self, setup: CloningSetup):
        s = setup
        self.f, self.ideals, self.ideal_angle = _ideal_outputs(s.rho1, s.rho2, s.n_out)
        self.denominator = math.sin(self.ideal_angle)
        self.phi = math.sqrt(fidelity(s.upsilon1, s.upsilon2))
        self.bound = lower_bound(self.f, self.phi, s.n_in, s.n_out)
        self.inputs = [linalg.kron(tensor_power(rho, s.n_in).matrix, ups.matrix)
                       for rho, ups in ((s.rho1, s.upsilon1), (s.rho2, s.upsilon2))]
        self.ideal_roots = [_root(ideal.matrix) for ideal in self.ideals]
        self.out_dim, self.env_dim = s.d ** s.n_out, s.env_dim

    def _outputs(self, v: np.ndarray) -> list[np.ndarray]:
        """Tr_env(V (rho^(x)N (x) upsilon) V^dagger) for both inputs."""
        o, e = self.out_dim, self.env_dim
        vh = v.conj().T
        return [(v @ inp @ vh).reshape(o, e, o, e).trace(axis1=1, axis2=3)
                for inp in self.inputs]

    @staticmethod
    def _fidelity(out: np.ndarray, ideal: DensityMatrix, ideal_root: np.ndarray) -> float:
        s = np.linalg.svd(_root(out) @ ideal_root, compute_uv=False)
        fid = min(max(float(np.sum(s)) ** 2, 0.0), 1.0)
        # an exact copy reads F = 1, as in states.fidelity; within 1e-12 in
        # Frobenius norm, F >= 1 - 7e-11, so only F above 1 - 1e-9 is tested
        if fid > 1.0 - 1e-9 and _same_state(out, ideal.matrix):
            return 1.0
        return fid

    def evaluate(self, v: np.ndarray):
        """(outputs, fidelities to the ideals, absolute and relative error).

        The outputs are not symmetrized. Raises SoundnessViolation if the
        relative error lands below the bound minus SOUNDNESS_TOL, which no
        correct evaluation can do.
        """
        outs = self._outputs(v)
        fids = [self._fidelity(out, ideal, root)
                for out, ideal, root in zip(outs, self.ideals, self.ideal_roots)]
        # sin(arccos(sqrt(F))) per branch
        abs_err = math.sqrt(1.0 - fids[0]) + math.sqrt(1.0 - fids[1])
        rel_err = abs_err / self.denominator
        if rel_err < self.bound - SOUNDNESS_TOL:
            raise SoundnessViolation(
                f"relative error {rel_err} below bound {self.bound} - {SOUNDNESS_TOL}"
            )
        return outs, fids, abs_err, rel_err

    def __call__(self, v: np.ndarray) -> float:
        return self.evaluate(v)[3]

    def outcome(self, v: np.ndarray) -> CloneOutcome:
        outs, fids, abs_err, rel_err = self.evaluate(v)
        out1, out2 = (DensityMatrix((m + m.conj().T) / 2.0) for m in outs)
        delta1, delta2 = (float(np.arccos(np.sqrt(fid))) for fid in fids)
        return CloneOutcome(out1, out2, delta1, delta2, abs_err, rel_err)


def apply_cloning(setup: CloningSetup) -> CloneOutcome:
    """Evaluate the channel: conjugate by V, trace out the environment.

    Raises SoundnessViolation if the relative error lands below the lower
    bound minus 1e-8, which no correct evaluation can do.
    """
    return _Channel(setup).outcome(setup.v)


def lower_bound(f: float, phi: float, n_in: int = 1, n_out: int = 2) -> float:
    """Closed-form floor on the relative error of any N -> L cloner.

    Zero for phi <= f^M (M = L - N); otherwise
    f^N * phi - f^L * sqrt(1 - f^(2N) phi^2) / sqrt(1 - f^(2L)).
    The branch split alone keeps the value nonnegative; no clamp is applied.
    """
    b = BoundInput(float(f), float(phi), int(n_in), int(n_out))
    if b.f >= 1.0 - DEGENERATE_TOL:
        raise DegeneratePair("bound undefined at f = 1 (coinciding inputs)")
    m_extra = b.n_out - b.n_in
    if b.phi <= b.f ** m_extra:
        return 0.0
    return (b.f ** b.n_in * b.phi
            - b.f ** b.n_out * math.sqrt(1.0 - b.f ** (2 * b.n_in) * b.phi ** 2)
            / math.sqrt(1.0 - b.f ** (2 * b.n_out)))


@dataclass
class ChainCheck:
    """One inequality of the derivation, evaluated on concrete numbers."""

    name: str
    lhs: float
    rhs: float
    margin: float  # lhs - rhs; holds means margin <= slack
    holds: bool


@dataclass
class ProofChainReport:
    """Every inequality in the derivation chain, evaluated on one setup."""

    checks: list[ChainCheck] = field(default_factory=list)
    slack: float = CHAIN_SLACK

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "slack": self.slack,
            "all_hold": self.all_hold,
            "checks": [vars(c) for c in self.checks],
        }


def proof_chain_check(setup: CloningSetup) -> ProofChainReport:
    """Evaluate each inequality of the bound's derivation on a setup.

    The chain: the ideal-output angle is at most delta1 + delta2 + the
    actual-output angle (triangle steps); the actual outputs keep overlap at
    least f^N * phi; hence their angle's sine stays below
    sqrt(1 - f^(2N) phi^2); sines are subadditive on [0, pi/2]; and the
    relative error therefore sits above the closed-form bound.
    """
    channel = _Channel(setup)
    outcome = channel.outcome(setup.v)
    delta_out = angle(outcome.out1, outcome.out2)
    fn_phi = channel.f ** setup.n_in * channel.phi

    report = ProofChainReport()

    def add(name: str, lhs: float, rhs: float) -> None:
        margin = lhs - rhs
        report.checks.append(ChainCheck(name, lhs, rhs, margin,
                                        margin <= report.slack))

    add("angle_triangle_chain", channel.ideal_angle,
        outcome.delta1 + outcome.delta2 + delta_out)
    add("output_overlap_floor", fn_phi, math.cos(delta_out))
    add("output_sine_ceiling", math.sin(delta_out),
        math.sqrt(max(0.0, 1.0 - min(1.0, fn_phi ** 2))))
    add("sine_subadditivity", math.sin(outcome.delta1 + outcome.delta2),
        math.sin(outcome.delta1) + math.sin(outcome.delta2))
    add("relative_error_floor", channel.bound, outcome.relative_error)
    return report


def perfect_cloning_setup(rho1: DensityMatrix, rho2: DensityMatrix,
                          phi: float, n_in: int = 1, n_out: int = 2) -> CloningSetup:
    """Identity-unitary setup whose ancillas already carry perfect clones.

    The ancillas are purifications of the (L-N)-fold tensor powers with the
    requested mutual overlap phi (any value in [0, f^M] is reachable), so the
    identity channel outputs the ideal states exactly and the relative error
    vanishes. The environment dimension equals d^M.
    """
    n_in = int(n_in)
    n_out = int(n_out)
    if n_in < 1 or n_out <= n_in:
        raise OutOfRange(f"need n_out > n_in >= 1, got {n_in} -> {n_out}")
    m_extra = n_out - n_in
    blank1 = tensor_power(rho1, m_extra)
    blank2 = tensor_power(rho2, m_extra)
    y1, y2 = purifications_with_overlap(blank1, blank2, phi)
    env_dim = rho1.dim ** m_extra
    total = rho1.dim ** n_out * env_dim
    return CloningSetup(rho1, rho2, y1.density(), y2.density(),
                        np.eye(total, dtype=complex), n_in, n_out, env_dim)
