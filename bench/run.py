"""clonebound benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each op starts after the previous one ends, on a fresh input made from the
seed. ``--trace 0`` measures the end-to-end metrics with the package
untouched; ``--trace 1`` first repeats the untraced loop as a reference,
then wraps every public function of the layer modules and runs the first
block of inputs again, traced, to give the per-layer metrics. Every op's
output is checked. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. Full results, with the environment block,
and the spans go to .bench_out/<workload>/. See METRICS.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"  # one BLAS thread: at dimension 64 two threads ran slower and wider
SETUP_PROBES = 7
# Median time of the calibration kernel on the reference host: 2-vCPU Xeon
# at 2.1 GHz, numpy 2.4.6, OpenBLAS 0.3.31 on one thread.
CAL_REFERENCE_S = 1.4e-3

END_TO_END_UNITS = {"work_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "cpu_us_per_work": "us", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer functions reported as calls, self_s and us_per_call.
PER_CALL = (
    "linalg.sqrt_psd", "linalg.kron", "linalg.partial_trace", "linalg.hermitian_eig",
    "linalg.unitary_power",
    "states.fidelity", "states.angle", "states.DensityMatrix", "states.angle_pure",
    "states.target_overlap_unitary", "states.purifications_with_overlap",
    "measure.POVM", "measure.probabilities", "measure.projector_gap",
    "cloning.apply_cloning", "cloning.proof_chain_check", "cloning.perfect_cloning_setup",
    "cloning.CloningSetup", "cloning.tensor_power", "cloning.lower_bound",
    "serialize.matrix_to_entries", "serialize.vector_to_entries",
    "serialize.entries_to_matrix",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time import plus one op in a fresh interpreter, print seconds
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_package():
    """Import clonebound from this checkout's src/ and nowhere else."""
    if not (SRC / "clonebound" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no clonebound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clonebound

    if Path(clonebound.__file__).resolve().parent != SRC / "clonebound":
        raise SystemExit(f"benchmark: imported clonebound from {clonebound.__file__}")
    return clonebound


# ---------------------------------------------------------------- loop

def make_calibration():
    """A fixed kernel of the benchmark's own, to be timed after every op.

    The host is shared, and its speed drifts by up to 2x over tens of
    seconds, for every kind of code alike. Times are reported in reference
    seconds: each block's seconds times CAL_REFERENCE_S over the block's
    median calibration time. The kernel mixes the work the ops do:
    interpreter loops, small LAPACK calls and one medium eigh.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small, medium = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for n in (8, 48))
    small, medium = small + small.conj().T, medium + medium.conj().T

    def calibrate() -> float:
        t0 = time.perf_counter()
        for _ in range(12):
            w, u = np.linalg.eigh(small)
            x = (u * np.sqrt(np.abs(w))) @ u.conj().T
            [[float(z.real), float(z.imag)] for z in x.ravel()]
        np.linalg.eigh(medium)
        return time.perf_counter() - t0
    return calibrate


class Record(NamedTuple):
    seconds: float
    cpu: float
    cal: float  # calibration kernel time right after the op
    outcome: object  # workloads.Outcome, or None when the op raised
    low_rank: bool | None


class Loop:
    """Runs ops in a closed loop and keeps the output digest of each input."""

    def __init__(self, make, block: int):
        self.make = make  # i -> workloads.Case
        self.block = block
        self.calibrate = make_calibration()
        self.digests: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, i: int, tracer=None) -> Record:
        """Make input ``i`` (untimed), run and time its op, then check it."""
        case = self.make(i)
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw = case.run()
            t1, c1 = time.perf_counter(), time.process_time()
            outcome = case.inspect(raw)
        except Exception:  # an op that raises is a failed op, the run goes on
            t1, c1 = time.perf_counter(), time.process_time()
            print(f"op {i} ({case.kind}) raised:\n{traceback.format_exc()}", file=sys.stderr)
            self.failed += 1
            return Record(t1 - t0, c1 - c0, self.calibrate(), None, case.low_rank)
        if self.digests.setdefault(i, outcome.digest) != outcome.digest:
            outcome.errors.append("output differs from an earlier run of the same input")
        if outcome.errors:
            print(f"op {i} ({case.kind}) failed: {outcome.errors}", file=sys.stderr)
            self.failed += 1
        return Record(t1 - t0, c1 - c0, self.calibrate(), outcome, case.low_rank)

    def timed(self, seconds: float) -> list[list[Record]]:
        """Whole blocks of fresh inputs until ``seconds`` of op time."""
        blocks, busy = [], 0.0
        while busy < seconds or not blocks:
            first = len(blocks) * self.block
            blocks.append([self.op(i) for i in range(first, first + self.block)])
            busy += sum(r.seconds for r in blocks[-1])
        return blocks


def _work(records) -> int:
    return sum(r.outcome.work for r in records if r.outcome is not None)


def _best_gap(records) -> float | None:
    """Median of best_r - bound over the search ops among ``records``."""
    gaps = [r.outcome.info["gap"] for r in records
            if r.outcome is not None and "gap" in r.outcome.info]
    return statistics.median(gaps) if gaps else None


def _speed(block) -> float:
    """Reference seconds per measured second during this block."""
    return CAL_REFERENCE_S / statistics.median(r.cal for r in block)


def _rate(block) -> float:
    """Work per reference second of op time."""
    return _work(block) / (sum(r.seconds for r in block) * _speed(block))


def end_to_end(blocks, setup_s: float) -> tuple[dict, dict]:
    """Rates are medians over blocks, which share one mix of input kinds."""
    lat = sorted(r.seconds * _speed(b) for b in blocks for r in b)
    n = len(lat)
    metrics = {
        "work_per_s": statistics.median(_rate(b) for b in blocks),
        "op_p50_ms": statistics.median(lat) * 1e3,
        # highest percentile with at least ten ops above it
        "op_tail_ms": lat[max(n - 11, 0)] * 1e3,
        "cpu_us_per_work": statistics.median(
            sum(r.cpu for r in b) * _speed(b) / _work(b) * 1e6 for b in blocks),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = sorted(r.seconds for b in blocks for r in b)
    low_rank = [r.low_rank for b in blocks for r in b if r.low_rank is not None]
    extra = {
        "ops": n, "blocks": len(blocks), "work": sum(_work(b) for b in blocks),
        "op_tail_percentile": 100.0 * max(n - 10, 1) / n,
        "low_rank_share": sum(low_rank) / len(low_rank) if low_rank else None,
        "best_gap": _best_gap(blocks[0]),  # the first block's inputs, as traced
        "host_speed": statistics.median(_speed(b) for b in blocks),
        "measured_work_per_s": statistics.median(
            _work(b) / sum(r.seconds for r in b) for b in blocks),
        "measured_op_p50_ms": statistics.median(raw) * 1e3,
        "measured_op_tail_ms": raw[max(n - 11, 0)] * 1e3,
    }
    return metrics, extra


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(measured, reference) seconds of import plus one op, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        seconds, cal = map(float, proc.stdout.split())
        times.append((seconds, seconds * CAL_REFERENCE_S / cal))
    return times


def probe(workload_name: str, seed: int) -> None:
    """Print the seconds to import clonebound and run op 0, and the calibration time."""
    t0 = time.perf_counter()
    _load_package()
    t_import = time.perf_counter() - t0
    import workloads

    case = workloads.make_case(workloads.WORKLOADS[workload_name], seed,
                               OUT / workload_name / "probe", 0)
    t1 = time.perf_counter()
    outcome = case.inspect(case.run())
    t_op = time.perf_counter() - t1
    if outcome.errors:
        raise SystemExit(f"setup probe op failed: {outcome.errors}")
    calibrate = make_calibration()
    print(repr(t_import + t_op), repr(statistics.median(calibrate() for _ in range(9))))


# ---------------------------------------------------------------- traced pass

def per_layer(tracer, records, reference_rate: float) -> dict:
    stats = tracing.self_times(tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end)
    work = _work(records)
    outcomes = [r.outcome for r in records if r.outcome is not None]

    def info(key):
        return [o.info[key] for o in outcomes if key in o.info]

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in PER_CALL:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.us_per_call"] = per(self_s(name), calls(name), 1e6)
    m["linalg.as_matrix.calls_per_work"] = per(calls("linalg.as_matrix"), work)
    vi, mre = "search.verify_inequalities", "search.minimize_relative_error"
    m[f"{vi}.calls"] = calls(vi)
    m[f"{vi}.self_s"] = self_s(vi)
    # a workload's work unit is the trial on verify, the evaluation on optimize_*
    m[f"{vi}.us_per_trial"] = per(self_s(vi), work if calls(vi) else 0, 1e6)
    m[f"{mre}.calls"] = calls(mre)
    m[f"{mre}.self_s"] = self_s(mre)
    m[f"{mre}.us_per_eval"] = per(self_s(mre), work if calls(mre) else 0, 1e6)
    m["search.accept_ratio"] = per(sum(info("accepted")), sum(info("moves")))
    m["search.best_gap"] = _best_gap(records) or 0.0
    serialized = calls("serialize.matrix_to_entries") + calls("serialize.vector_to_entries")
    m["serialize.useful_ratio"] = per(sum(info("matrices_written")), serialized)
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.bytes_out"] = per(sum(info("bytes_out")), len(outcomes))
    m["trace.overhead_frac"] = 1.0 - _rate(records) / reference_rate
    return m


# ---------------------------------------------------------------- environment

def _blas_threads() -> list[int]:
    """Thread count of each loaded OpenBLAS, asked from the library itself."""
    import ctypes

    counts = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return counts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- main

def run(args) -> dict:
    cb = _load_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    pristine = tracing.snapshot()
    setup = [] if args.trace else setup_seconds(workload.name, args.seed)
    loop = Loop(functools.partial(workloads.make_case, workload, args.seed, out_dir / "ops"),
                workload.block)
    loop.op(0)  # warm-up; its digest is checked against the timed repeat
    blocks = loop.timed(args.seconds)
    tracing.assert_unpatched(pristine)
    metrics, extra = end_to_end(blocks, statistics.median(t[1] for t in setup) if setup else 0.0)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:  # the first block again: exact counts, and outputs must not change
            traced = [loop.op(i, tracer) for i in range(workload.block)]
        finally:
            tracer.restore()
        tracing.assert_unpatched(pristine)
        tracer.save(out_dir / "spans.npz")
        # overhead against the untraced run of the same inputs
        metrics = per_layer(tracer, traced, _rate(blocks[0]))
        extra["traced_ops"] = len(traced)
        extra["spans"] = len(tracer)
    extra.update({
        "workload": workload.name, "work_unit": workload.work_unit,
        "setup_probes_s": setup, "clonebound": cb.__version__,
    })
    if setup:
        extra["measured_setup_s"] = statistics.median(t[0] for t in setup)
    return {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": metrics, "extra": extra, "env": environment(args.seed)}


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("us_per_call", "us_per_trial", "us_per_eval")):
        return "us"
    if name.endswith("calls") or name.endswith("calls_per_work"):
        return "count"
    return {"cli.bytes_out": "bytes", "search.best_gap": "relerr"}.get(name, "ratio")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    if args.setup_probe:
        probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    extra = result["extra"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work unit: {extra['work_unit']}  low-rank share: {extra['low_rank_share']}")
    print(f"ops {result['attempted']}  failed {result['failed']}  failed_frac "
          f"{result['failed'] / result['attempted']:.6g}  "
          f"tail = p{extra['op_tail_percentile']:.2f} of {extra['ops']} timed ops")
    if extra.get("best_gap") is not None:
        print(f"best_gap {extra['best_gap']!r} (median best_r - bound over the first block)")
    print(f"host speed {extra['host_speed']:.4g} reference s per measured s; "
          "times below are in reference seconds")
    for name, value in result["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {unit_of(name)}")
    measured = {k: v for k, v in extra.items() if k.startswith("measured_")}
    print("as measured " + json.dumps(measured))
    print("env " + json.dumps(result["env"]))
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
