"""Tests of the benchmark itself: span arithmetic, patching, output checks.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_nested_tree():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]; e [12, 13] is a root
    names = ["a", "b", "c", "d"]
    name = [0, 1, 2, 3, 1]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 4.0, 5.0, 12.0]
    end = [10.0, 3.0, 8.0, 6.0, 13.0]
    got = tracing.self_times(names, name, parent, start, end)
    assert got == {"a": (1, 4.0), "b": (2, 3.0), "c": (1, 3.0), "d": (1, 1.0)}


def test_tracer_records_parents_and_op_ids():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    tracer.op_id = 7
    assert outer(1) == 3
    assert list(tracer.name) == [1, 0, 0]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.op) == [7, 7, 7]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_install_wraps_every_binding_and_restore_undoes_it():
    import clonebound
    from clonebound import cli, cloning, search, states

    pristine = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (states.fidelity, search.fidelity, cloning.fidelity, clonebound.fidelity,
                   cli._HANDLERS["verify"], states.DensityMatrix.__init__):
            assert getattr(fn, "_bench_traced", False)
        assert search.fidelity is cloning.fidelity is states.fidelity
        with pytest.raises(RuntimeError):
            tracing.assert_unpatched(pristine)
    finally:
        tracer.restore()
    tracing.assert_unpatched(pristine)
    assert not getattr(states.fidelity, "_bench_traced", False)


def _loop(workload, tmp_path, block, seed=5):
    make = functools.partial(workloads.make_case, workloads.WORKLOADS[workload], seed, tmp_path)
    return run.Loop(make, block)


def test_untraced_loop_leaves_package_unpatched(tmp_path):
    pristine = tracing.snapshot()
    loop = _loop("verify", tmp_path, block=2)
    loop.op(0)
    blocks = loop.timed(0.0)
    assert [len(b) for b in blocks] == [2]
    assert (loop.attempted, loop.failed) == (3, 0)
    tracing.assert_unpatched(pristine)


def test_traced_pass_spans_every_layer_it_reaches(tmp_path):
    loop = _loop("achieve", tmp_path, block=1)
    loop.op(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = [loop.op(0, tracer)]
    finally:
        tracer.restore()
    assert (loop.attempted, loop.failed) == (2, 0)
    stats = tracing.self_times(tracer.names, tracer.name, tracer.parent,
                               tracer.start, tracer.end)
    for name in ("cli.main", "states.target_overlap_unitary", "linalg.unitary_power",
                 "cloning.apply_cloning", "cloning.proof_chain_check"):
        assert stats[name][0] >= 1
    layer = run.per_layer(tracer, records, reference_rate=1.0)
    assert layer["cloning.perfect_cloning_setup.calls"] == 3  # one pair at each d
    assert layer["cloning.proof_chain_check.calls"] == 3


def _one(workload, tmp_path, i=0, seed=3):
    case = workloads.make_case(workloads.WORKLOADS[workload], seed, tmp_path, i)
    return case, case.run()


@pytest.mark.parametrize("fmt_index", [0, 3])  # case 0 writes json, case 3 csv
def test_verify_check_rejects_a_violation(tmp_path, fmt_index):
    case, code = _one("verify", tmp_path, fmt_index)
    assert case.inspect(code).errors == []
    text = next(tmp_path.glob(f"out-{fmt_index}.*")).read_text()
    if text.startswith("{"):
        doc = json.loads(text)
        doc["checks"][1]["violations"] = 1
        doc["violations"] = 1
        bad, fmt = json.dumps(doc), "json"
    else:
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[5] = "1"
        lines[2] = ",".join(cells)
        bad, fmt = "\n".join(lines), "csv"
    assert workloads.check_verify(0, bad, fmt, workloads.VERIFY_TRIALS)
    assert workloads.check_verify(0, text, fmt, workloads.VERIFY_TRIALS + 1)
    assert workloads.check_verify(1, text, fmt, workloads.VERIFY_TRIALS)


def test_optimize_check_rejects_result_below_bound(tmp_path):
    case, code = _one("optimize_small", tmp_path)
    doc = json.loads((tmp_path / "out-0.json").read_text())
    assert workloads.check_optimize(code, doc) == []
    below = dict(doc, best_r=doc["bound"] - 1e-6)
    below["gap"] = below["best_r"] - below["bound"]
    assert workloads.check_optimize(0, below)
    assert workloads.check_optimize(0, dict(doc, gap=doc["gap"] + 1e-12))
    rising = dict(doc, restart_traces=[t[::-1] for t in doc["restart_traces"]])
    assert workloads.check_optimize(0, rising)
    assert workloads.check_optimize(1, None)


def test_achieve_check_rejects_a_failing_chain_step(tmp_path):
    case, results = _one("achieve", tmp_path)
    assert case.inspect(results).errors == []
    code, outcome, chain = results[0]
    pair = json.loads((tmp_path / "out-0-d2.json").read_text())
    chain.checks[2].holds = False
    assert workloads.check_achieve(code, pair, pair["phi"], outcome.relative_error,
                                   chain.all_hold)
    assert workloads.check_achieve(code, pair, pair["phi"] + 1e-6, 0.0, True)
    assert workloads.check_achieve(code, pair, pair["phi"], 1e-6, True)


def test_loop_counts_failed_and_nondeterministic_ops():
    results = iter([b"a", b"b"])

    def inspect(_):
        return workloads.Outcome(1, [], next(results))

    flaky = workloads.Case("flaky", None, lambda: None, inspect)
    broken = workloads.Case("broken", None, lambda: None,
                            lambda _: workloads.Outcome(1, ["bad output"], b""))
    loop = run.Loop([flaky, broken].__getitem__, block=2)
    loop.op(0)
    loop.op(0)  # digest differs from the first run of the same input
    loop.op(1)
    assert (loop.attempted, loop.failed) == (3, 2)
