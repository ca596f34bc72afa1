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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from . import linalg
from .linalg import (ANGLE_SLACK, CHAIN_SLACK, DEGENERATE_TOL, FLOOR_SLACK, GRAM_TOL,
                     SINE_ROUND, SOUNDNESS_TOL, TOL_DENOM, _dagger, _integral)
from .errors import (
    DegeneratePair,
    DimMismatch,
    IndistinguishablePair,
    OutOfRange,
    SoundnessViolation,
)
from .serialize import entries_to_matrix, matrix_to_entries
from .states import (
    DensityMatrix,
    _angle,
    _bures,
    _check_same_dim,
    _sine,
    fidelity,  # noqa: F401  (cloning.fidelity stays importable)
    purifications_with_overlap,
)


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
        n_in, n_out = _copy_count_rule(self.n_in, self.n_out)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)


# the names the copy-count and problem rules give n_in, n_out and env_dim in
# their refusals; a caller that took them under other names passes those
_DIM_NAMES = ("n_in", "n_out", "env_dim")


def _copy_count_rule(n_in, n_out, names=_DIM_NAMES) -> tuple[int, int]:
    """(n_in, n_out) as ints by the one copy-count rule: both integral, and
    n_out > n_in >= 1. A refusal names the argument by ``names``."""
    n_in, n_out = _integral(n_in, names[0]), _integral(n_out, names[1])
    if n_in < 1:
        raise OutOfRange(f"{names[0]} must be >= 1, got {n_in}")
    if n_out <= n_in:
        raise OutOfRange(f"{names[1]} must exceed {names[0]} = {n_in}, got {n_out}")
    return n_in, n_out


# d^L <= MAX_DIM with d >= 2 needs L <= log2(MAX_DIM), so d^min(L, this + 1)
# passes the cap exactly when d^L does, and stays small for any L
_MAX_OUTPUTS = linalg.MAX_DIM.bit_length() - 1


def tensor_power(rho: DensityMatrix, k: int) -> DensityMatrix:
    """k-fold tensor power of a density matrix; the first power is rho itself.

    A power whose dimension d^k exceeds linalg.MAX_DIM is refused before any
    Kronecker product is formed. The power carries the power of rho's
    factor, on which its trace is checked, and forms its matrix, the power
    of rho's, only when it is read (see DensityMatrix).
    """
    k = _integral(k, "tensor power")
    if k < 1:
        raise OutOfRange(f"tensor power {k} must be >= 1")
    if k == 1:
        return rho
    linalg._check_cap(rho.dim ** min(k, _MAX_OUTPUTS + 1),
                      f"tensor power {rho.dim}^{k}: dimension at least")
    return DensityMatrix._from_factor(_kron_power(rho._psd_factor(), k),
                                      lambda: _kron_power(rho.matrix, k))


def _copy_counts(rho1: DensityMatrix, rho2: DensityMatrix, n_in: int, n_out: int,
                 names=_DIM_NAMES):
    """(d, n_in, n_out) by the part of _problem_dims's rule that needs no
    ancilla: the copy-count rule, both inputs on C^d, and d^L within the cap,
    checked without forming d^L for a large L."""
    n_in, n_out = _copy_count_rule(n_in, n_out, names)
    d = _check_same_dim(rho1, rho2)
    linalg._check_cap(d ** min(n_out, _MAX_OUTPUTS + 1),
                      f"{n_out} outputs on C^{d}: dimension at least")
    return d, n_in, n_out


def _problem_dims(rho1: DensityMatrix, rho2: DensityMatrix, anc_dims: tuple,
                  n_in: int, n_out: int, env_dim: int | None = None, names=_DIM_NAMES):
    """(n_in, n_out, env_dim, d^L * e) of an N -> L cloning problem, by the one
    rule: n_out > n_in >= 1, both inputs on C^d, both ancillas (of dimensions
    ``anc_dims``) on C^(d^M * e) with M = n_out - n_in, and
    d^L * e <= linalg.MAX_DIM. A None env_dim is read off the first ancilla,
    whose dimension d^M must then divide. A refusal names n_in, n_out and
    env_dim by ``names``."""
    d, n_in, n_out = _copy_counts(rho1, rho2, n_in, n_out, names)
    extra_dim = d ** (n_out - n_in)
    if env_dim is None:
        if anc_dims[0] % extra_dim:
            raise OutOfRange(f"ancilla dim {anc_dims[0]} not divisible by "
                             f"d^M = {extra_dim}")
        env_dim = anc_dims[0] // extra_dim
    env_dim = _integral(env_dim, names[2])
    if env_dim < 1:
        raise OutOfRange(f"{names[2]} must be >= 1, got {env_dim}")
    anc_dim = extra_dim * env_dim
    if tuple(anc_dims) != (anc_dim, anc_dim):
        raise DimMismatch(f"ancilla dim must be d^M*e = {anc_dim}, got "
                          f"{anc_dims[0]} and {anc_dims[1]}")
    total = d ** n_out * env_dim
    linalg._check_cap(total, "total dim d^L*e =")
    return n_in, n_out, env_dim, total


_STATE_KEYS = ("rho1", "rho2", "upsilon1", "upsilon2")


class CloningSetup:
    """A concrete N -> L cloning channel evaluated on a pair of inputs.

    Holds the input pair on C^d, the ancilla pair on C^(d^M * e) with
    M = n_out - n_in, and the joint unitary on C^(d^L * e). The fields are
    validated together at construction and stay fixed afterwards: assigning
    one raises AttributeError, and ``v`` is a read-only array apart from the
    caller's. The channel (see _Channel) is built once, on first use, and
    evaluated once under V, on first use: apply_cloning and
    proof_chain_check share that evaluation, and each call compares its
    relative error with the bound again (see _evaluation).
    """

    __slots__ = ("rho1", "rho2", "upsilon1", "upsilon2", "v",
                 "n_in", "n_out", "env_dim", "_chan", "_eval")

    def __init__(self, rho1: DensityMatrix, rho2: DensityMatrix,
                 upsilon1: DensityMatrix, upsilon2: DensityMatrix,
                 v, n_in: int, n_out: int, env_dim: int):
        n_in, n_out, env_dim, total = _problem_dims(
            rho1, rho2, (upsilon1.dim, upsilon2.dim), n_in, n_out, env_dim)
        vm = linalg._fixed_matrix(v)
        if vm.shape[0] != total:
            raise DimMismatch(f"unitary dim {vm.shape[0]} != d^L*e = {total}")
        linalg.require_unitary(vm)
        self._hold(rho1, rho2, upsilon1, upsilon2, vm, n_in, n_out, env_dim)

    def _hold(self, *fields) -> None:
        """Set the fields, in __slots__ order, as the caller has checked them;
        V is kept read-only."""
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)
        self.v.flags.writeable = False

    def __setattr__(self, name: str, value) -> None:
        # the channel is built and evaluated from the fields on first use, so
        # none may change
        if hasattr(self, name):
            raise AttributeError(f"CloningSetup.{name} is fixed at construction")
        object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.rho1.dim

    @property
    def total_dim(self) -> int:
        return self.v.shape[0]

    def _channel(self) -> "_Channel":
        try:
            return self._chan
        except AttributeError:
            self._chan = _Channel(self.rho1, self.rho2, self.upsilon1,
                                  self.upsilon2, self.n_in, self.n_out)
            return self._chan

    def _evaluation(self):
        """(A, u, absolute error, relative error): the channel's output
        factors A under V, as one read-only (2, o, e * k) stack, and
        _Channel.evaluate's figures for them. Formed on first use and kept;
        every call, the first included, checks the kept relative error
        against the bound (see _Channel.check)."""
        try:
            evaluation = self._eval
        except AttributeError:
            channel = self._channel()
            factors = channel._factors(self.v)
            factors.flags.writeable = False
            self._eval = (factors, *channel.evaluate(factors))
            return self._eval
        self._chan.check(evaluation[3])
        return evaluation

    def __repr__(self) -> str:
        return (f"CloningSetup(d={self.d}, n_in={self.n_in}, "
                f"n_out={self.n_out}, env_dim={self.env_dim})")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "env_dim": self.env_dim,
            **{key: getattr(self, key).to_dict() for key in _STATE_KEYS},
            "v": {"dim": self.total_dim, "entries": matrix_to_entries(self.v)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CloningSetup":
        return cls(
            *(DensityMatrix.from_dict(doc[key]) for key in _STATE_KEYS),
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
        return {**vars(self), "out1": self.out1.to_dict(), "out2": self.out2.to_dict()}


def absolute_error(delta1: float, delta2: float) -> float:
    """sin(delta1) + sin(delta2) for angles in [0, pi/2]."""
    d1, d2 = float(delta1), float(delta2)
    half_pi = math.pi / 2.0
    for d in (d1, d2):
        if not 0.0 <= d <= half_pi + ANGLE_SLACK:
            raise OutOfRange(f"delta {d} outside [0, pi/2]")
    return math.sin(d1) + math.sin(d2)


def _kron_power(k: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix, unvalidated; a 1 x 1 matrix is
    raised to the power n entrywise, with no product loop."""
    if k.size == 1:
        return k ** n
    return reduce(linalg._kron, itertools.repeat(k, n))


def _ideal_factors(rho1: DensityMatrix, rho2: DensityMatrix, n_out: int):
    """f, the factors K_i of rho_i, the ideal L-fold factors B_i = K_i^(x)L
    and u = 1 - cos(angle between the ideal outputs), cross-checked.

    The sine of that angle (the relative error's denominator) must agree
    with sqrt(1 - f^(2L)) (root-fidelity multiplicativity) within TOL_DENOM;
    disagreement means the inputs or the arithmetic are broken.
    """
    factors = [rho1._psd_factor(), rho2._psd_factor()]
    f = 1.0 - float(_bures(*factors))
    if f >= 1.0 - DEGENERATE_TOL:
        raise IndistinguishablePair(
            f"inputs have root fidelity {f}; relative error is 0/0"
        )
    ideals = [_kron_power(k, n_out) for k in factors]
    u = float(_bures(*ideals))
    sine = float(_sine(u))
    cross = math.sqrt(max(0.0, 1.0 - f ** (2 * n_out)))
    if abs(sine - cross) > TOL_DENOM:
        raise SoundnessViolation(
            f"denominator {sine} disagrees with sqrt(1-f^(2L)) = {cross}"
        )
    return f, factors, ideals, u


def relative_error(delta1: float, delta2: float, rho1: DensityMatrix,
                   rho2: DensityMatrix, n_out: int = 2) -> float:
    """(sin d1 + sin d2) / sin(angle between the ideal L-fold outputs)."""
    numer = absolute_error(delta1, delta2)
    return numer / float(_sine(_ideal_factors(rho1, rho2, n_out)[3]))


def _side_by_side(factors: list[np.ndarray]) -> np.ndarray:
    """Two factors as one (2, n, k) stack, the narrower one padded with zero
    columns, which leave K K^dagger unchanged."""
    stack = np.zeros((2, factors[0].shape[0], max(f.shape[1] for f in factors)),
                     dtype=complex)
    for s, f in zip(stack, factors):
        s[:, :f.shape[1]] = f
    return stack


class _Channel:
    """A cloning problem in factor form, ready to be evaluated under any
    joint unitary V.

    Built once per problem from the states and N -> L alone (no unitary;
    the caller has validated the dimensions with _problem_dims), from the
    factors the four states keep (see DensityMatrix). It holds what does
    not depend on V: the input factors
    K_i = K_rho_i^(x)N (x) Y_i, with K_i K_i^dagger = rho_i^(x)N (x) upsilon_i,
    and the ideal factors B_i, each pair as one stack, so that one product
    V K and one states._bures call serve both inputs; f, phi, the bound and
    the angle between the ideal outputs, whose sine is the relative error's
    denominator, all from states._bures on the small factors. No n x n
    matrix is formed. ``evaluate`` is the one unvalidated evaluation path,
    on the output factors V K that ``_factors`` forms under V: the search
    calls it on every candidate, and a CloningSetup once, for apply_cloning
    and proof_chain_check to share; ``check`` is its soundness guard.
    ``floor`` bounds its value from below at a fraction of its cost, for the
    search to reject a move with; its V-free parts are formed on its first
    call, so a channel that is only evaluated never forms them.
    """

    def __init__(self, rho1: DensityMatrix, rho2: DensityMatrix,
                 upsilon1: DensityMatrix, upsilon2: DensityMatrix,
                 n_in: int, n_out: int):
        self.f, factors, ideals, u = _ideal_factors(rho1, rho2, n_out)
        self.ideal_angle, self.denominator = float(_angle(u)), float(_sine(u))
        ancillas = [upsilon1._psd_factor(), upsilon2._psd_factor()]
        self.phi = 1.0 - float(_bures(*ancillas))
        self.bound = lower_bound(self.f, self.phi, n_in, n_out)
        self.ideal_factors = _side_by_side(ideals)
        self.inputs = _side_by_side([linalg._kron(_kron_power(k, n_in), y)
                                     for k, y in zip(factors, ancillas)])

    @cached_property
    def _ideal_dagger(self) -> np.ndarray:
        """B_i^dagger, a V-free part of the floor, formed on its first call."""
        return np.ascontiguousarray(_dagger(self.ideal_factors))

    @cached_property
    def _ideal_norms(self) -> list[float]:
        """||B_i||_F^2, a V-free part of the floor, formed on its first call."""
        return [float(np.vdot(b, b).real) for b in self.ideal_factors]

    def _factors(self, v: np.ndarray) -> np.ndarray:
        """Output factors A_i = (V K_i).reshape(o, e * k) of both inputs, as
        one (2, o, e * k) stack: A_i A_i^dagger =
        Tr_env(V (rho_i^(x)N (x) upsilon_i) V^dagger)."""
        return (v @ self.inputs).reshape(2, self.ideal_factors.shape[1], -1)

    def evaluate(self, factors: np.ndarray):
        """(u_i = 1 - sqrt(F_i), absolute and relative error) of the output
        factors ``_factors`` forms under V.

        Raises SoundnessViolation as ``check`` does.
        """
        us = _bures(factors, self.ideal_factors)
        abs_err = float(_sine(us).sum())
        rel_err = abs_err / self.denominator
        self.check(rel_err)
        return us, abs_err, rel_err

    def check(self, rel_err: float) -> None:
        """Raise SoundnessViolation if a relative error lands below the bound
        minus SOUNDNESS_TOL, which no correct evaluation can do."""
        if rel_err < self.bound - SOUNDNESS_TOL:
            raise SoundnessViolation(
                f"relative error {rel_err} below bound {self.bound} - {SOUNDNESS_TOL}"
            )

    def floor(self, factors: np.ndarray) -> float:
        """A float at or below the relative error ``evaluate(factors)``
        returns, unvalidated, from one stacked eigvalsh and no SVD.

        With M_i = B_i^dagger A_i, u_i = 1/2 (||A_i||^2 + ||B_i||^2) - ||M_i||_1,
        and ||M_i||_1 sums the roots of the eigenvalues of M_i's smaller Gram.
        Each computed eigenvalue lam is within eta = GRAM_TOL (o + ka + kb)
        ||A_i||^2 ||B_i||^2 of the Gram's (Weyl), so sqrt(max(lam, 0) + eta)
        is at least its singular value. FLOOR_SLACK (o + ka + kb) below that u
        covers the exact path's rounding of u, and 1 - SINE_ROUND the rounding
        of its sines. An eigensolver failure, on NaN factors say, reads NaN.
        """
        o, ka = factors.shape[1:]
        dims = o + ka + self.ideal_factors.shape[2]
        m = self._ideal_dagger @ factors
        gram = m @ _dagger(m) if m.shape[1] <= ka else _dagger(m) @ m
        try:
            lams = np.linalg.eigvalsh(gram).tolist()
        except np.linalg.LinAlgError:
            return math.nan
        flat = factors.reshape(2, -1).view(float)
        total = 0.0
        for na, nb, lam in zip(np.einsum("ij,ij->i", flat, flat).tolist(),
                               self._ideal_norms, lams):
            eta = GRAM_TOL * dims * na * nb
            u = (0.5 * (na + nb) - FLOOR_SLACK * dims
                 - sum([math.sqrt(max(x, 0.0) + eta) for x in lam]))
            u = min(max(u, 0.0), 1.0)  # a NaN u stays NaN
            total += math.sqrt(u * (2.0 - u))
        return total * (1.0 - SINE_ROUND) / self.denominator


def _symmetric_gram(a: np.ndarray) -> np.ndarray:
    """A A^dagger as (M + M^dagger) / 2, M = A A^dagger: Hermitian to the bit."""
    m = a @ _dagger(a)
    return (m + _dagger(m)) / 2.0


def apply_cloning(setup: CloningSetup) -> CloneOutcome:
    """Evaluate the channel: conjugate by V, trace out the environment.

    The outputs carry the channel's output factors A_i, on which their trace
    is checked; their matrices, the Gram products A_i A_i^dagger, are formed
    when read (see DensityMatrix). delta_i = arccos(sqrt F_i) comes from the
    Bures form (see _Channel). The setup's one evaluation serves every call.

    Raises SoundnessViolation if the relative error lands below the lower
    bound minus 1e-8, which no correct evaluation can do.
    """
    factors, us, abs_err, rel_err = setup._evaluation()
    out1, out2 = (DensityMatrix._from_factor(a, partial(_symmetric_gram, a))
                  for a in factors)
    delta1, delta2 = _angle(us).tolist()
    return CloneOutcome(out1, out2, delta1, delta2, abs_err, rel_err)


def lower_bound(f: float, phi: float, n_in: int = 1, n_out: int = 2) -> float:
    """Closed-form floor on the relative error of any N -> L cloner.

    Zero for phi <= f^M (M = L - N) and for f = 0; otherwise
    f^N * phi - f^L * sqrt(1 - f^(2N) phi^2) / sqrt(1 - f^(2L)).
    The branch split alone keeps the value nonnegative; no clamp is applied.
    """
    b = BoundInput(float(f), float(phi), n_in, n_out)
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
    relative error therefore sits above the closed-form bound. It reads the
    setup's one evaluation, which apply_cloning shares, and raises
    SoundnessViolation as apply_cloning does.
    """
    factors, us, _, rel_err = setup._evaluation()
    channel = setup._channel()
    delta1, delta2 = _angle(us).tolist()
    # R^dagger from a QR of A^dagger is a factor of the same output at most
    # o columns wide; the e * k wide A would cost an (e * k)^2 SVD
    outs = _dagger(np.linalg.qr(_dagger(factors), mode="r"))
    delta_out = float(_angle(_bures(*outs)))
    fn_phi = channel.f ** setup.n_in * channel.phi

    report = ProofChainReport()

    def add(name: str, lhs: float, rhs: float) -> None:
        margin = lhs - rhs
        report.checks.append(ChainCheck(name, lhs, rhs, margin,
                                        margin <= report.slack))

    add("angle_triangle_chain", channel.ideal_angle,
        delta1 + delta2 + delta_out)
    add("output_overlap_floor", fn_phi, math.cos(delta_out))
    add("output_sine_ceiling", math.sin(delta_out),
        math.sqrt(max(0.0, 1.0 - min(1.0, fn_phi ** 2))))
    add("sine_subadditivity", math.sin(delta1 + delta2),
        math.sin(delta1) + math.sin(delta2))
    add("relative_error_floor", channel.bound, rel_err)
    return report


def perfect_cloning_setup(rho1: DensityMatrix, rho2: DensityMatrix,
                          phi: float, n_in: int = 1, n_out: int = 2) -> CloningSetup:
    """Identity-unitary setup whose ancillas already carry perfect clones.

    The ancillas are purifications of the (L-N)-fold tensor powers with the
    requested mutual overlap phi (any value in [0, f^M] is reachable), so the
    identity channel outputs the ideal states exactly and the relative error
    vanishes. The environment dimension equals d^M.
    """
    d, n_in, n_out = _copy_counts(rho1, rho2, n_in, n_out)
    m_extra = n_out - n_in
    anc_dim = d ** (2 * m_extra)
    n_in, n_out, env_dim, total = _problem_dims(rho1, rho2, (anc_dim, anc_dim),
                                                n_in, n_out)
    ups1, ups2 = (y.density() for y in purifications_with_overlap(
        tensor_power(rho1, m_extra), tensor_power(rho2, m_extra), phi))
    # _problem_dims has checked the fields, and the identity needs no check
    setup = CloningSetup.__new__(CloningSetup)
    setup._hold(rho1, rho2, ups1, ups2, np.eye(total, dtype=complex),
                n_in, n_out, env_dim)
    return setup
