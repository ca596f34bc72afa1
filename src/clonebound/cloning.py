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
from .linalg import _dagger
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


def _kron_power(k: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix, unvalidated."""
    return reduce(np.kron, [k] * n)


def _bures(a: np.ndarray, b: np.ndarray) -> float:
    """u = 1 - sqrt(F(A A^dagger, B B^dagger)) = 1/2 ||A - B W||_F^2, unvalidated:
    A A^dagger and B B^dagger of unit trace, and A at least as wide as B.

    W is the polar factor of B^dagger A, so ||B^dagger A||_1 = sqrt(F)
    (Uhlmann), and the Bures form is a sum of squares: u keeps its relative
    precision as F -> 1, where 1 - F from F loses half the digits of
    sqrt(1 - F).
    """
    p, _, qh = np.linalg.svd(_dagger(b) @ a, full_matrices=False)
    diff = a - b @ (p @ qh)
    return min(0.5 * float(np.vdot(diff, diff).real), 1.0)


def _sine(u: float) -> float:
    """sin(delta) for cos(delta) = 1 - u."""
    return math.sqrt(u * (2.0 - u))


def _angle(u: float) -> float:
    """delta = arccos(1 - u) as 2 arcsin(sqrt(u / 2)), which has no cancellation."""
    return 2.0 * math.asin(math.sqrt(u / 2.0))


def _ideal_factors(rho1: DensityMatrix, rho2: DensityMatrix, n_out: int):
    """f, the factors K_i of rho_i, the ideal L-fold factors B_i = K_i^(x)L
    and u = 1 - cos(angle between the ideal outputs), cross-checked.

    The sine of that angle (the relative error's denominator) must agree
    with sqrt(1 - f^(2L)) (root-fidelity multiplicativity) within 1e-9;
    disagreement means the inputs or the arithmetic are broken.
    """
    f = math.sqrt(fidelity(rho1, rho2))
    if f >= 1.0 - DEGENERATE_TOL:
        raise IndistinguishablePair(
            f"inputs have root fidelity {f}; relative error is 0/0"
        )
    factors = [linalg._psd_factor(rho.matrix) for rho in (rho1, rho2)]
    ideals = [_kron_power(k, n_out) for k in factors]
    u = _bures(*sorted(ideals, key=lambda b: -b.shape[1]))  # the wider first
    sine = _sine(u)
    cross = math.sqrt(max(0.0, 1.0 - f ** (2 * n_out)))
    if abs(sine - cross) > 1e-9:
        raise SoundnessViolation(
            f"denominator {sine} disagrees with sqrt(1-f^(2L)) = {cross}"
        )
    return f, factors, ideals, u


def relative_error(delta1: float, delta2: float, rho1: DensityMatrix,
                   rho2: DensityMatrix, n_out: int = 2) -> float:
    """(sin d1 + sin d2) / sin(angle between the ideal L-fold outputs)."""
    numer = absolute_error(delta1, delta2)
    return numer / _sine(_ideal_factors(rho1, rho2, n_out)[3])


class _Channel:
    """A setup's cloning problem in factor form, ready to be evaluated under
    any joint unitary V.

    Built once per problem from the small eigh of rho_1, rho_2, upsilon_1 and
    upsilon_2, it holds what does not depend on V: the input factors
    K_i = K_rho_i^(x)N (x) Y_i, with K_i K_i^dagger = rho_i^(x)N (x) upsilon_i,
    side by side so that one product V [K_1 K_2] serves both inputs; the
    ideal factors B_i; f, phi, the bound and the angle between the ideal
    outputs, whose sine is the relative error's denominator. No n x n matrix
    is formed. ``evaluate`` is the one unvalidated evaluation path: the
    search calls it directly, and apply_cloning wraps its outputs as
    validated states.
    """

    def __init__(self, setup: CloningSetup):
        s = setup
        self.f, factors, self.ideal_factors, u = _ideal_factors(s.rho1, s.rho2, s.n_out)
        self.ideal_angle, self.denominator = _angle(u), _sine(u)
        self.phi = math.sqrt(fidelity(s.upsilon1, s.upsilon2))
        self.bound = lower_bound(self.f, self.phi, s.n_in, s.n_out)
        self.out_dim = s.d ** s.n_out
        inputs = []
        for k, ideal, ups in zip(factors, self.ideal_factors, (s.upsilon1, s.upsilon2)):
            inp = np.kron(_kron_power(k, s.n_in), linalg._psd_factor(ups.matrix))
            # zero columns up to e * cols >= rank(B_i): the output factor must
            # be at least as wide as the ideal one for _bures
            cols = -(-ideal.shape[1] // s.env_dim)
            inputs.append(np.pad(inp, ((0, 0), (0, max(0, cols - inp.shape[1])))))
        self.split = inputs[0].shape[1]
        self.inputs = np.hstack(inputs)

    def _factors(self, v: np.ndarray) -> list[np.ndarray]:
        """Output factors A_i = (V K_i).reshape(o, e * cols_i) of both inputs:
        A_i A_i^dagger = Tr_env(V (rho_i^(x)N (x) upsilon_i) V^dagger)."""
        vk = v @ self.inputs
        o = self.out_dim
        return [vk[:, :self.split].reshape(o, -1), vk[:, self.split:].reshape(o, -1)]

    @staticmethod
    def _distance(a: np.ndarray, b: np.ndarray) -> float:
        """u = 1 - sqrt(F) of an output to its ideal; an exact copy reads 0.

        The copy rule is states.fidelity's: within 1e-12 in Frobenius norm,
        u <= trace distance <= 3.2e-11 at o <= 4096, so only u <= 1e-9 is
        tested.
        """
        u = _bures(a, b)
        if u <= 1e-9 and _same_state(a @ _dagger(a), b @ _dagger(b)):
            return 0.0
        return u

    def evaluate(self, v: np.ndarray):
        """(output factors, u_i = 1 - sqrt(F_i), absolute and relative error).

        Raises SoundnessViolation if the relative error lands below the bound
        minus SOUNDNESS_TOL, which no correct evaluation can do.
        """
        factors = self._factors(v)
        us = [self._distance(a, b) for a, b in zip(factors, self.ideal_factors)]
        abs_err = _sine(us[0]) + _sine(us[1])
        rel_err = abs_err / self.denominator
        if rel_err < self.bound - SOUNDNESS_TOL:
            raise SoundnessViolation(
                f"relative error {rel_err} below bound {self.bound} - {SOUNDNESS_TOL}"
            )
        return factors, us, abs_err, rel_err

    def __call__(self, v: np.ndarray) -> float:
        return self.evaluate(v)[3]

    def outcome(self, v: np.ndarray) -> CloneOutcome:
        factors, us, abs_err, rel_err = self.evaluate(v)
        outs = [a @ _dagger(a) for a in factors]
        out1, out2 = (DensityMatrix((m + _dagger(m)) / 2.0) for m in outs)
        return CloneOutcome(out1, out2, _angle(us[0]), _angle(us[1]), abs_err, rel_err)


def apply_cloning(setup: CloningSetup) -> CloneOutcome:
    """Evaluate the channel: conjugate by V, trace out the environment.

    The outputs are A_i A_i^dagger from the channel's output factors, and
    delta_i = arccos(sqrt F_i) comes from the Bures form (see _Channel).

    Raises SoundnessViolation if the relative error lands below the lower
    bound minus 1e-8, which no correct evaluation can do.
    """
    return _Channel(setup).outcome(setup.v)


def lower_bound(f: float, phi: float, n_in: int = 1, n_out: int = 2) -> float:
    """Closed-form floor on the relative error of any N -> L cloner.

    Zero for phi <= f^M (M = L - N) and for f = 0; otherwise
    f^N * phi - f^L * sqrt(1 - f^(2N) phi^2) / sqrt(1 - f^(2L)).
    The branch split alone keeps the value nonnegative; no clamp is applied.
    """
    b = BoundInput(float(f), float(phi), int(n_in), int(n_out))
    if b.f >= 1.0 - DEGENERATE_TOL:
        raise DegeneratePair("bound undefined at f = 1 (coinciding inputs)")
    m_extra = b.n_out - b.n_in
    if b.f == 0.0 or b.phi <= b.f ** m_extra:
        return 0.0
    # each 1 - f^k as -expm1(k log f): no cancellation as f -> 1
    log_f = math.log(b.f)
    return (b.f ** b.n_in * b.phi
            - b.f ** b.n_out
            * math.sqrt(-math.expm1(2.0 * (b.n_in * log_f + math.log(b.phi))))
            / math.sqrt(-math.expm1(2.0 * b.n_out * log_f)))


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
