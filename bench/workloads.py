"""The benchmark's four workloads: seeded inputs, ops and output checks.

Inputs are generated here with numpy alone and written to files; clonebound
receives only those files (in ``achieve``, also the same matrices as
arrays). Every op gets a fresh input, so the latencies follow the input
distribution and not a few repeated inputs. Each case splits into ``run``,
the timed call into clonebound, and ``inspect``, which checks the output
and counts the work it did.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Budgets make every op take 80-100 ms: at 25-50 ms the host's stalls of a
# few milliseconds set the tail latency.
VERIFY_TRIALS = 40  # per family: one verify call is 4 * 40 inequality trials
SMALL_BUDGET = {"restarts": 2, "iterations": 200}
WIDE_BUDGET = {"restarts": 1, "iterations": 60}
LOW_RANK = 4  # joint input rank at or below which a low-rank kernel applies
SLOTS = 64  # input and output files are reused modulo this many ops
TOL = 1e-9
SOUNDNESS_TOL = 1e-8


@dataclass
class Outcome:
    """What one op produced, as judged by its checks."""

    work: int
    errors: list[str]
    digest: bytes
    info: dict = field(default_factory=dict)


@dataclass
class Case:
    """One generated input; ``run`` is the timed part of the op."""

    kind: str
    low_rank: bool | None
    run: Callable[[], object]
    inspect: Callable[[object], Outcome]  # takes what ``run`` returned


# ---------------------------------------------------------------- inputs

def random_density(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / math.sqrt(2.0)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def root_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(_sqrt_psd(a) @ _sqrt_psd(b), compute_uv=False)))


def blank(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[0, 0] = 1.0
    return m


def matrix_doc(m: np.ndarray) -> dict:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return {"dim": m.shape[0], "entries": [[float(z.real), float(z.imag)] for z in flat]}


def joint_rank(rho: np.ndarray, ups: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(rho) * np.linalg.matrix_rank(ups))


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- checks

def count_matrices(doc) -> int:
    """Serialized matrices and vectors inside a JSON document."""
    if isinstance(doc, dict):
        own = ("entries" in doc) + ("amp" in doc) + len(doc.get("elements", ()))
        return own + sum(count_matrices(v) for k, v in doc.items()
                         if k not in ("entries", "amp", "elements"))
    if isinstance(doc, list):
        return sum(count_matrices(v) for v in doc)
    return 0


def check_verify(code: int, text: str, fmt: str, trials: int) -> list[str]:
    """Exit 0, zero violations, and every family ran the requested trials."""
    errors = [] if code == 0 else [f"exit code {code}"]
    if fmt == "json":
        doc = json.loads(text)
        rows = [(c["name"], c["trials"], c["violations"]) for c in doc["checks"]]
        if doc["violations"] != 0 or doc["trials"] != trials:
            errors.append(f"report: violations={doc['violations']} trials={doc['trials']}")
    else:
        lines = text.strip().splitlines()
        if lines[0] != "d,seed,slack,inequality,trials,violations,max_margin":
            errors.append("unexpected csv header")
        rows = [(r[3], int(r[4]), int(r[5])) for r in (ln.split(",") for ln in lines[1:])]
    if len(rows) != 4:
        errors.append(f"{len(rows)} inequality families, expected 4")
    for name, t, v in rows:
        if v != 0 or t != trials:
            errors.append(f"{name}: violations={v} trials={t}")
    return errors


def check_optimize(code: int, doc: dict | None) -> list[str]:
    """Exit 0, best_r not below the bound, gap consistent, traces monotone."""
    if code != 0 or doc is None:
        return [f"exit code {code}"]
    errors = []
    if not doc["best_r"] >= doc["bound"] - SOUNDNESS_TOL:
        errors.append(f"best_r {doc['best_r']} below bound {doc['bound']}")
    if doc["gap"] != doc["best_r"] - doc["bound"]:
        errors.append(f"gap {doc['gap']} != best_r - bound")
    for i, trace in enumerate(doc["restart_traces"]):
        if any(b > a for a, b in zip(trace, trace[1:])):
            errors.append(f"restart {i} trace increases")
    if doc["evaluations"] != sum(len(t) for t in doc["restart_traces"]):
        errors.append("evaluations do not match the restart traces")
    return errors


def check_achieve(code: int, pair: dict | None, phi: float,
                  relative_error: float, chain_holds: bool) -> list[str]:
    """Purified overlap and marginals exact, perfect cloning, chain holds."""
    if code != 0 or pair is None:
        return [f"purify exit code {code}"]
    errors = []
    if abs(pair["achieved_overlap"] - phi) > TOL:
        errors.append(f"overlap {pair['achieved_overlap']} != phi {phi}")
    if max(pair["marginal_residuals"]) > TOL:
        errors.append(f"marginal residuals {pair['marginal_residuals']}")
    if not relative_error <= TOL:
        errors.append(f"relative error {relative_error} of the perfect cloner")
    if not chain_holds:
        errors.append("proof chain has a failing step")
    return errors


# ---------------------------------------------------------------- workloads

def _cli_call(argv: list[str]):
    """The in-process CLI call; it returns the exit code."""
    from clonebound import cli

    return lambda: cli.main(argv)


def _read(out: Path) -> str | None:
    return out.read_text(encoding="utf-8") if out.exists() else None


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else repr(p).encode())
    return h.digest()


def verify_case(rng: np.random.Generator, work_dir: Path, i: int) -> Case:
    """`clonebound verify` at d = 2, 3, 4, alternating json and csv."""
    d, fmt = (2, 3, 4)[i % 3], ("json", "csv")[(i // 3) % 2]
    out = work_dir / f"out-{i % SLOTS}.{fmt}"
    argv = ["verify", "--dim", str(d), "--trials", str(VERIFY_TRIALS),
            "--seed", str(int(rng.integers(2 ** 31))), "--format", fmt, "--out", str(out)]

    def inspect(code):
        text = _read(out)
        if text is None:
            return Outcome(0, [f"exit code {code}, no report"], b"")
        written = count_matrices(json.loads(text)) if fmt == "json" else 0
        return Outcome(4 * VERIFY_TRIALS, check_verify(code, text, fmt, VERIFY_TRIALS),
                       _digest(text), {"bytes_out": len(text), "matrices_written": written})
    return Case(f"d{d}-{fmt}", None, _cli_call(argv), inspect)


def _optimize_case(i: int, kind: str, config: dict, low_rank: bool, work_dir: Path) -> Case:
    path = _write_json(work_dir / f"config-{i % SLOTS}.json", config)
    out = work_dir / f"out-{i % SLOTS}.json"
    argv = ["optimize", "--config", path, "--out", str(out)]

    def inspect(code):
        text = _read(out)
        doc = json.loads(text) if code == 0 and text is not None else None
        errors = check_optimize(code, doc)
        if doc is None:
            return Outcome(0, errors, b"")
        traces = doc["restart_traces"]
        info = {
            "bytes_out": len(text),
            "matrices_written": count_matrices(doc),
            "gap": doc["gap"],
            "accepted": sum(b < a for t in traces for a, b in zip(t, t[1:])),
            "moves": sum(len(t) - 1 for t in traces),
        }
        return Outcome(doc["evaluations"], errors, _digest(text), info)
    return Case(kind, low_rank, _cli_call(argv), inspect)


def _search_config(rho1, rho2, budget: dict, seed: int, **extra) -> dict:
    return {"rho1": matrix_doc(rho1), "rho2": matrix_doc(rho2), "n": 1, "l": 2,
            **extra, **budget, "seed": seed}


def optimize_small_case(rng: np.random.Generator, work_dir: Path, i: int) -> Case:
    """Total dimension 4 ({I/2, pure}, restricted) and 16 (d=2, e=4).

    The dimension-16 problems alternate a blank ancilla with a full-rank
    mixed ancilla pair whose root fidelity phi exceeds f, so the bound is
    non-zero and the joint input has full rank 16.
    """
    seed = int(rng.integers(2 ** 31))
    kind = ("restricted4", "blank16", "mixed16")[i % 3]
    if kind == "restricted4":
        rho1, rho2 = np.eye(2, dtype=complex) / 2.0, random_density(rng, 2, 1)
        cfg = _search_config(rho1, rho2, SMALL_BUDGET, seed, restricted=True)
        rank = joint_rank(rho1, blank(2))
    elif kind == "blank16":
        rho1 = random_density(rng, 2, int(rng.integers(1, 3)))
        rho2 = random_density(rng, 2, 2)
        cfg = _search_config(rho1, rho2, SMALL_BUDGET, seed, env=4)
        rank = max(joint_rank(rho1, blank(8)), joint_rank(rho2, blank(8)))
    else:
        rho1, rho2 = random_density(rng, 2, 2), random_density(rng, 2, 2)
        f = root_fidelity(rho1, rho2)
        ups1, noise = random_density(rng, 8, 8), random_density(rng, 8, 8)
        t = 0.5
        ups2 = (1 - t) * ups1 + t * noise
        while root_fidelity(ups1, ups2) <= (1.0 + f) / 2.0:  # phi > f
            t /= 2.0
            ups2 = (1 - t) * ups1 + t * noise
        cfg = _search_config(rho1, rho2, SMALL_BUDGET, seed, env=4,
                             upsilon1=matrix_doc(ups1), upsilon2=matrix_doc(ups2))
        rank = joint_rank(rho1, ups1)
    return _optimize_case(i, kind, cfg, rank <= LOW_RANK, work_dir)


def optimize_wide_case(rng: np.random.Generator, work_dir: Path, i: int) -> Case:
    """Total dimension 64: d=2 with e=16, and d=4 with e=4; blank ancilla."""
    seed = int(rng.integers(2 ** 31))
    d, env = ((2, 16), (4, 4))[i % 2]
    rho1 = random_density(rng, d, int(rng.integers(1, d + 1)))
    rho2 = random_density(rng, d, d)
    cfg = _search_config(rho1, rho2, WIDE_BUDGET, seed, env=env)
    rank = max(joint_rank(r, blank(d * env)) for r in (rho1, rho2))
    return _optimize_case(i, f"d{d}e{env}", cfg, rank <= LOW_RANK, work_dir)


def achieve_case(rng: np.random.Generator, work_dir: Path, i: int) -> Case:
    """The README tour's construction path on one random pair at each of d = 2, 3, 4.

    Per pair: `clonebound purify` at phi in [0, f], then
    perfect_cloning_setup, apply_cloning and proof_chain_check in-process.
    One pair takes 20-35 ms, so an op takes three.
    """
    import clonebound as cb

    pairs = []
    for d in (2, 3, 4):
        rho1 = random_density(rng, d, int(rng.integers(d - 1, d + 1)))
        rho2 = random_density(rng, d, d)
        phi = float(rng.uniform(0.0, root_fidelity(rho1, rho2)))
        slot = f"{i % SLOTS}-d{d}"
        states = _write_json(work_dir / f"states-{slot}.json",
                             {"rho1": matrix_doc(rho1), "rho2": matrix_doc(rho2)})
        out = work_dir / f"out-{slot}.json"
        argv = ["purify", "--states", states, "--phi", repr(phi), "--out", str(out)]
        pairs.append((rho1, rho2, phi, _cli_call(argv), out))

    def run():
        results = []
        for rho1, rho2, phi, purify, _ in pairs:
            code = purify()
            setup = cb.perfect_cloning_setup(cb.DensityMatrix(rho1), cb.DensityMatrix(rho2), phi)
            results.append((code, cb.apply_cloning(setup), cb.proof_chain_check(setup)))
        return results

    def inspect(results):
        errors, parts, info = [], [], {"bytes_out": 0, "matrices_written": 0}
        for (_, _, phi, _, out), (code, outcome, chain) in zip(pairs, results):
            text = _read(out)
            pair = json.loads(text) if code == 0 and text is not None else None
            errors += check_achieve(code, pair, phi, outcome.relative_error, chain.all_hold)
            parts += [text or "", outcome.relative_error, outcome.delta1, outcome.delta2,
                      [c.margin for c in chain.checks]]
            info["bytes_out"] += len(text or "")
            info["matrices_written"] += count_matrices(pair)
        return Outcome(len(pairs), errors, _digest(*parts), info)
    # perfect_cloning_setup's joint input is rho (x) a pure ancilla
    low_rank = all(np.linalg.matrix_rank(p[0]) <= LOW_RANK for p in pairs)
    return Case("d2-d3-d4", low_rank, run, inspect)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    block: int  # ops per block: one full cycle of the workload's input kinds
    make: Callable[[np.random.Generator, Path, int], Case]


WORKLOADS = {w.name: w for w in (
    Workload("verify", "inequality trial", 12, verify_case),
    Workload("optimize_small", "objective evaluation", 12, optimize_small_case),
    Workload("optimize_wide", "objective evaluation", 16, optimize_wide_case),
    Workload("achieve", "input pair through the pipeline", 12, achieve_case),
)}


def make_case(workload: Workload, seed: int, work_dir: Path, i: int) -> Case:
    """Case ``i`` of the workload's input sequence for ``seed``.

    Every case draws from its own generator, so case i is the same whether
    or not the cases before it were made.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([int(seed), sorted(WORKLOADS).index(workload.name), i])
    return workload.make(rng, work_dir, i)
