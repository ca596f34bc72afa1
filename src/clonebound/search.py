"""Unitary search for low-error cloners, randomized inequality checks, sweeps.

The optimizer is deliberately gradient-free: a walk on the unitary group
by Givens rotations (coordinate descent on U(n)). A move applies
exp(i t E_k) to the current unitary V, with E_k one of the n^2 Hermitian
coordinate generators, so it changes one row (a phase) or two rows (a real
or imaginary 2 x 2 rotation) of V; the walk keeps a move only when it
lowers the relative error. The step schedule is fixed, not configured:
the angle starts at 0.5 rad, shrinks by 0.9 after a run of failed moves,
and a restart stops once it falls below 1e-9. No candidate costs an n x n
product or an eigendecomposition with eigenvectors. A move on two rows of
V K, the current output factors, that are both zero (as most are at the
identity start with a blank ancilla) keeps them zero, so V K and the value
stay exactly unchanged: it is scored at the current value and rejected,
with no copy of V and no channel evaluation. Any other move forms its output
factors V K once and takes the channel's floor on them, a lower bound on
its relative error from the eigenvalues of one small Gram per input. A
floor at or above the current value means the move cannot lower it, so it
is rejected without the exact evaluation (an SVD per input); the rest are
evaluated exactly. Every exact evaluation is compared against the
closed-form lower bound; dipping below it raises instead of reporting,
because the bound is a theorem. A move rejected on its floor needs no
check: its value is at or above the current one, which was checked.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cloning import _Channel, _copy_count_rule, _problem_dims, lower_bound
from .errors import BudgetZero, OutOfRange
from .linalg import CHAIN_SLACK, _dagger, _frobenius, _integral
from .measure import (
    POVM,
    _normalized_povm,
    _probabilities,
    _projector_gap_stack,
    _require_projector,
    _require_resolution,
)
from .serialize import _pairs_json, matrix_to_entries
from .states import (
    DensityMatrix,
    PureState,
    _angle,
    _blank_ancilla,
    _bures,
    _bures_pure,
    _densities,
    _density_from_factor,
    _fidelity,
    _ginibre,
    _haar,
    _require_unit,
    fidelity,  # noqa: F401  (search.fidelity stays importable)
)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_table(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of cells; a float
    cell is written with 17 significant digits and any other cell with str."""
    lines = [header] + [",".join(_fmt17(x) if isinstance(x, float) else str(x)
                                 for x in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and seeding for the unitary search.

    Each of ``restarts`` restarts takes at most ``iterations`` moves and
    draws its start and moves from ``seed``; the walk's step schedule is
    fixed, not configured. Each field is read as an int by the count rule.
    """

    restarts: int = 4
    iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _integral(getattr(self, f.name), f.name))
        if self.restarts < 1 or self.iterations < 1:
            raise BudgetZero(
                f"restarts={self.restarts}, iterations={self.iterations} "
                "must both be >= 1"
            )
        if self.seed < 0:
            raise OutOfRange(f"seed {self.seed} must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SearchResult:
    """Best unitary found, its relative error, and the bound it must respect.

    ``evaluations`` counts scored points, the entries of ``restart_traces``:
    one per start and one per move. A move on two zero rows of V K is
    scored at the current value without a channel evaluation, and a move
    whose floor is at or above the current value by the floor alone. Every
    value the result reports comes from an exact evaluation.
    """

    best_v: np.ndarray
    best_r: float
    bound: float
    gap: float
    f: float
    phi: float
    n_in: int
    n_out: int
    env_dim: int
    evaluations: int
    restart_traces: list[list[float]]
    config: OptimizerConfig

    def _head(self) -> dict:
        """Every key of the report but ``best_v``, which comes last."""
        head = {k: v for k, v in vars(self).items() if k != "best_v"}
        return {**head, "config": self.config.to_dict()}

    def to_dict(self) -> dict:
        return {**self._head(), "best_v": {"dim": self.best_v.shape[0],
                                           "entries": matrix_to_entries(self.best_v)}}

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, byte for byte, with the entries of
        ``best_v`` written as text and not as n^2 nested lists."""
        return (json.dumps(self._head())[:-1]
                + f', "best_v": {{"dim": {self.best_v.shape[0]}, "entries": '
                + _pairs_json(self.best_v) + "}}")


def _move_rows(k: int, n: int) -> tuple[int, int]:
    """The rows of V that move k rotates: (k, k) for the phase k < n, else
    the pair (a, b) of its real or imaginary rotation, the j-th of the
    m = n(n-1)/2 pairs a < b in row-major order (np.triu_indices(n, 1)'s),
    j = (k - n) mod m. Counted from the last pair, r = m - 1 - j lies in the
    t-th row from the end, t the largest with t(t+1)/2 <= r."""
    if k < n:
        return k, k
    m = n * (n - 1) // 2
    r = m - 1 - (k - n) % m
    t = (math.isqrt(8 * r + 1) - 1) // 2
    return n - 2 - t, n - 1 - (r - t * (t + 1) // 2)


def _live_rows(factors: np.ndarray, n: int) -> list[bool]:
    """live[j]: row j of V K is nonzero for either input, read off the
    output factors _Channel._factors forms on the n joint rows."""
    return factors.reshape(2, n, -1).any(axis=(0, 2)).tolist()


def _rotate(v: np.ndarray, k: int, angle: float) -> np.ndarray:
    """exp(i angle E_k) v for the k-th of the n^2 Hermitian coordinate
    generators of n x n matrices, as a new array.

    k < n: E_k = |k><k|, a phase on row k. The next n(n-1)/2 generators are
    |a><b| + |b><a| and the last n(n-1)/2 are i|a><b| - i|b><a|, for the
    pairs (a, b) in order, each a 2 x 2 rotation of rows a and b.
    """
    out = v.copy()
    n = v.shape[0]
    a, b = _move_rows(k, n)
    if a == b:
        out[a] *= np.exp(1j * angle)
        return out
    c, s = np.cos(angle), np.sin(angle)
    if k - n >= n * (n - 1) // 2:  # imaginary rotation
        out[a], out[b] = c * v[a] - s * v[b], s * v[a] + c * v[b]
    else:
        out[a], out[b] = c * v[a] + 1j * s * v[b], 1j * s * v[a] + c * v[b]
    return out


# The walk's step schedule: each restart starts at _START_STEP radians, the
# angle shrinks by _STEP_DECAY after a run of fail_limit = max(8, n^2 / 8)
# failed moves, and the restart stops once it falls below _STOP_STEP.
_START_STEP = 0.5
_STEP_DECAY = 0.9
_STOP_STEP = 1e-9


def minimize_relative_error(rho1: DensityMatrix, rho2: DensityMatrix,
                            upsilon1: DensityMatrix, upsilon2: DensityMatrix,
                            dims: tuple = (1, 2, None),
                            cfg: OptimizerConfig | None = None) -> SearchResult:
    """Search the joint unitary group for the lowest relative error.

    ``dims`` is (n_in, n_out, env_dim), checked once by CloningSetup's rule;
    a None env_dim is read off the ancilla. The channel is built from the
    states alone, so no unitary is checked before the walk. Restart 0 starts
    at the identity and restart r > 0 at a Haar unitary; restart r draws its
    start and its moves from (seed, r), so runs are reproducible and
    restarts could run in any order. The winner is the strictly smallest
    best value with ties going to the earlier restart, and its ``best_v`` is
    the very array that was evaluated.
    """
    cfg = cfg or OptimizerConfig()
    n_in, n_out, env_dim, total = _problem_dims(
        rho1, rho2, (upsilon1.dim, upsilon2.dim), *dims)
    objective = _Channel(rho1, rho2, upsilon1, upsilon2, n_in, n_out)
    n_params = total * total

    best_r = best_v = None
    traces: list[list[float]] = []
    fail_limit = max(8, n_params // 8)

    for ridx in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, ridx])
        v = np.eye(total, dtype=complex) if ridx == 0 else _haar(rng, (total, total))
        factors = objective._factors(v)
        cur = objective.evaluate(factors)[2]
        trace = [cur]
        live = _live_rows(factors, total)
        step = _START_STEP
        fails = 0
        for _ in range(cfg.iterations):
            if step < _STOP_STEP:
                break
            k = int(rng.integers(n_params))
            sign = -1.0 if rng.random() < 0.5 else 1.0
            a, b = _move_rows(k, total)
            r = cur  # on two zero rows of V K, a rotation keeps V K unchanged
            if live[a] or live[b]:
                cand = _rotate(v, k, sign * step)
                factors = objective._factors(cand)
                # a floor at or above cur puts the exact value there too, so
                # the move is rejected unevaluated; a NaN floor falls through
                if not objective.floor(factors) >= cur:
                    r = objective.evaluate(factors)[2]
            if r < cur:
                v, cur = cand, r
                live = _live_rows(factors, total)
                fails = 0
            else:
                fails += 1
                if fails >= fail_limit:
                    step *= _STEP_DECAY
                    fails = 0
            trace.append(cur)
        traces.append(trace)
        if best_r is None or cur < best_r:
            best_r, best_v = cur, v

    return SearchResult(
        best_v=best_v,
        best_r=best_r,
        bound=objective.bound,
        gap=best_r - objective.bound,
        f=objective.f,
        phi=objective.phi,
        n_in=n_in,
        n_out=n_out,
        env_dim=env_dim,
        evaluations=sum(len(t) for t in traces),
        restart_traces=traces,
        config=cfg,
    )


def restricted_cloner_search(rho1: DensityMatrix, rho2: DensityMatrix,
                             cfg: OptimizerConfig | None = None) -> SearchResult:
    """Search restricted to two-register unitaries with a pure blank ancilla.

    The channel acts on the input register and one blank register prepared
    in |0><0|, with no environment at all; the reported gap is measured
    against the phi = 1 bound f - f^2/sqrt(1+f^2).
    """
    d = rho1.dim
    if d > 4:
        raise OutOfRange(f"restricted search supports d <= 4, got {d}")
    ups = _blank_ancilla(d)
    return minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, 1), cfg=cfg)


@dataclass
class InequalityCheck:
    """Randomized-trial record for one inequality family."""

    name: str
    trials: int
    violations: int
    max_margin: float  # largest lhs - rhs seen (NaN if any); a violation is not <= slack
    # the worst trial's inputs as serialized objects, or a callable that
    # validates and serializes them on first use of worst_case
    _worst_case: dict | Callable[[], dict] = field(repr=False)

    @property
    def worst_case(self) -> dict:
        if callable(self._worst_case):
            self._worst_case = self._worst_case()
        return self._worst_case

    def to_dict(self) -> dict:
        head = {k: v for k, v in vars(self).items() if k != "_worst_case"}
        return {**head, "worst_case": self.worst_case}


@dataclass
class VerificationReport:
    """Outcome of the randomized inequality suite at one dimension."""

    d: int
    trials: int
    seed: int
    slack: float
    checks: list[InequalityCheck] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.checks)

    @property
    def max_slack_violation(self) -> float:
        return float(np.max([c.max_margin for c in self.checks]))  # NaN propagates

    def to_dict(self) -> dict:
        head = {k: v for k, v in vars(self).items() if k != "checks"}
        return {**head, "violations": self.violations,
                "max_slack_violation": self.max_slack_violation,
                "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, doc: dict) -> "VerificationReport":
        report = cls(d=doc["d"], trials=doc["trials"], seed=doc["seed"],
                     slack=doc["slack"])
        for c in doc["checks"]:
            report.checks.append(InequalityCheck(
                c["name"], c["trials"], c["violations"], c["max_margin"],
                c["worst_case"]))
        return report

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_csv(self) -> str:
        return _csv_table("d,seed,slack,inequality,trials,violations,max_margin",
                          [(self.d, self.seed, self.slack, c.name, c.trials,
                            c.violations, c.max_margin) for c in self.checks])


CHUNK = 1024  # trials drawn and checked per vectorised pass; bounds memory


def _density_factors(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Factors K of n random density matrices K K^dagger, each of a rank
    uniform in 1..d: a full Ginibre factor with the columns beyond the rank
    masked out, scaled to unit Frobenius norm. K K^dagger is PSD of exact
    rank and unit trace by construction, so no stack is validated or
    factored again; _bures takes K as it is."""
    ranks = rng.integers(1, d + 1, size=n)
    g = _ginibre(rng, (n, d, d)) * (np.arange(d) < ranks[:, None])[:, None, :]
    return g / _frobenius(g)[:, None, None]


def _unit_vectors(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    v = _ginibre(rng, (n, d))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    _require_unit(v)
    return v


def _density_docs(i: int, **factors) -> dict:
    """The density of trial i of each factor stack, serialized: the k
    densities are formed as one (k, d, d) stack and validated together by
    _densities, each by the checks DensityMatrix runs."""
    stack = _density_from_factor(np.stack([k[i] for k in factors.values()]))
    return {name: rho.to_dict() for name, rho in zip(factors, _densities(stack))}


def _triple(rng, d, n):
    """Three density factor stacks (chi, omega, rho) and u = 1 - sqrt(F) of
    the pairs (chi, omega), (chi, rho) and (omega, rho), as one (3, n) array
    from one _bures call on the stacked pairs."""
    chi, omega, rho = (_density_factors(rng, d, n) for _ in range(3))
    return (chi, omega, rho), _bures(np.stack((chi, chi, omega)), np.stack((omega, rho, rho)))


_MAX_OUTCOMES = 5


def _triple_checks(rng, d, n):
    """The three checks on one draw of n state triples: the angle triangle
    and fidelity difference margins from the one stacked _bures call of
    _triple, and the probability deviation of a random POVM, drawn after
    the triple, on its (chi, omega) against the same u(chi, omega)."""
    (chi, omega, rho), (u_co, u_cr, u_or) = _triple(rng, d, n)
    a_co = _angle(u_co)
    sin_co = np.sin(a_co)
    # 2-5 outcomes per trial, padded to 5 with zero elements: a zero element
    # has p = q = 0 and leaves the largest deviation unchanged. Each element
    # is a Gram product, so PSD by construction; only Hermiticity and the
    # sum to the identity are checked.
    outcomes = rng.integers(2, _MAX_OUTCOMES + 1, size=n)
    g = _ginibre(rng, (n, _MAX_OUTCOMES, d, d))
    g *= (np.arange(_MAX_OUTCOMES) < outcomes[:, None])[..., None, None]
    elems = _normalized_povm(g)
    _require_resolution(elems)
    p, q = _probabilities(elems, _density_from_factor(np.stack((chi, omega))))
    triple = functools.partial(_density_docs, chi=chi, omega=omega, rho=rho)
    return ((a_co - (_angle(u_cr) + _angle(u_or)), triple),
            (np.abs(_fidelity(u_cr) - _fidelity(u_or)) - sin_co, triple),
            (np.max(np.abs(p - q), axis=-1) - sin_co,
             lambda i: {"povm": POVM(elems[i, :outcomes[i]]).to_dict(),
                        **_density_docs(i, chi=chi, omega=omega)}))


def _projector_gap(rng, d, n):
    x, y = _unit_vectors(rng, d, n), _unit_vectors(rng, d, n)
    basis = _haar(rng, (n, d, d))
    ranks = rng.integers(1, d + 1, size=n)
    proj = (basis * (np.arange(d) < ranks[:, None])[:, None, :]) @ _dagger(basis)
    proj = (proj + _dagger(proj)) / 2.0  # exactly Hermitian, like every density
    _require_projector(proj)
    margins = _projector_gap_stack(x, y, proj) - np.sin(_angle(_bures_pure(x, y)))
    return ((margins, lambda i: {"x": PureState(x[i]).to_dict(),
                                 "y": PureState(y[i]).to_dict(),
                                 "projector": {"dim": d,
                                               "entries": matrix_to_entries(proj[i])}}),)


# (check names, family): family(rng, d, n) draws n trials and returns, per
# check, their margins and describe(i), which validates trial i's inputs as
# objects and serializes them. The angle triangle, fidelity difference and
# probability deviation checks all read u(chi, omega) of a state triple, so
# they share one family: all three check the same triples, drawn and
# decomposed once.
_FAMILIES = (
    (("angle_triangle", "fidelity_difference", "probability_deviation"), _triple_checks),
    (("projector_gap",), _projector_gap),
)


def verify_inequalities(d: int, trials: int, seed: int) -> VerificationReport:
    """Randomized check of the four core inequalities at dimension d.

    Checks: the angle triangle inequality on state triples; the fidelity
    difference bound |F(chi,rho) - F(omega,rho)| <= sin(angle); the
    probability deviation bound over random 2-5 outcome POVMs; and the
    projector gap bound for pure states. Each check tests ``trials``
    independent trials, drawn and checked as (batch, d, d) stacks, CHUNK at a
    time. The first three checks read the same state triples: a triple's
    three fidelities come from one stacked _bures call and give all three
    margins, the probability deviation on the triple's (chi, omega) pair.
    POVM elements are Gram products H_a H_a^dagger, one eigh per chunk. The
    Born rule is one contraction over both states of a trial. Margins are
    lhs - rhs; any margin not at or below the slack, NaN included, counts as
    a violation. Only the worst trial (the first maximum, or the first NaN)
    of each check is validated as objects and serialized into the report, on
    the first use of its check's worst_case, so a report written as CSV
    serializes none. Its densities are validated as one stack, each by the
    checks DensityMatrix runs.
    """
    d = _integral(d, "d")
    trials = _integral(trials, "trials")
    seed = _integral(seed, "seed")
    if not 2 <= d <= 6:
        raise OutOfRange(f"d={d} outside [2, 6]")
    if trials < 1:
        raise OutOfRange(f"trials={trials} must be >= 1")
    if seed < 0:
        raise OutOfRange(f"seed {seed} must be >= 0")
    rng = np.random.default_rng([seed, d])
    report = VerificationReport(d=d, trials=trials, seed=seed, slack=CHAIN_SLACK)
    for names, family in _FAMILIES:
        violations = [0] * len(names)
        worst = [None] * len(names)  # per check: (margin, describe of its chunk, index)
        for start in range(0, trials, CHUNK):
            checks = family(rng, d, min(CHUNK, trials - start))
            for c, (margins, describe) in enumerate(checks):
                violations[c] += int(np.count_nonzero(~(margins <= CHAIN_SLACK)))
                i = int(np.argmax(margins))
                # np.argmax's rule across chunks: a later chunk wins only with
                # a larger margin, or with a NaN over a number
                if worst[c] is None or np.argmax([worst[c][0], margins[i]]) == 1:
                    worst[c] = (margins[i], describe, i)
        for name, count, (margin, describe, i) in zip(names, violations, worst):
            report.checks.append(InequalityCheck(name, trials, count, float(margin),
                                                 functools.partial(describe, i)))
    return report


@dataclass
class SweepRow:
    """One bound evaluation along an f grid."""

    f: float
    phi: float
    n_in: int
    n_out: int
    bound: float


def sweep_bound(f_grid, phi: float, n_in: int = 1, n_out: int = 2) -> list[SweepRow]:
    """Evaluate the lower bound along a grid of f values at fixed phi."""
    n_in, n_out = _copy_count_rule(n_in, n_out)
    phi = float(phi)
    if not 0.0 <= phi <= 1.0:
        raise OutOfRange(f"phi={phi} outside [0, 1]")
    rows = []
    for f in f_grid:
        f = float(f)
        if not 0.0 <= f < 1.0:
            raise OutOfRange(f"grid value f={f} outside [0, 1)")
        rows.append(SweepRow(f, phi, n_in, n_out,
                             lower_bound(f, phi, n_in, n_out)))
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """CSV with a header row and 17-significant-digit doubles."""
    return _csv_table("f,phi,n_in,n_out,bound", [vars(r).values() for r in rows])


def sweep_to_json(rows: list[SweepRow]) -> str:
    return json.dumps([vars(r) for r in rows])
