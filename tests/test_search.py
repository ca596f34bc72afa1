import dataclasses
import gc
import json
import math
import sys

import numpy as np
import pytest

from clonebound.cloning import SOUNDNESS_TOL, CloningSetup, apply_cloning
from clonebound.errors import BudgetZero, NonFinite, NotHermitian, OutOfRange
from clonebound.measure import POVM, probabilities, projector_gap
from clonebound.search import (
    OptimizerConfig,
    VerificationReport,
    minimize_relative_error,
    restricted_cloner_search,
    sweep_bound,
    sweep_to_csv,
    sweep_to_json,
    verify_inequalities,
)
from clonebound.serialize import entries_to_matrix
from clonebound.states import (
    DensityMatrix,
    PureState,
    angle,
    angle_pure,
    fidelity,
    purifications_with_overlap,
)

import oracles
from clonebound import cloning, linalg, measure, search, serialize, states
from clonebound.cli import main
from clonebound.states import _bures


def _pure(theta: float) -> DensityMatrix:
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return PureState(v).density()


def _random_pair(seed: int):
    rng = np.random.default_rng(seed)
    return (DensityMatrix(oracles.random_density(rng, 2, 2)),
            DensityMatrix(oracles.random_density(rng, 2, 2)))


def test_optimizer_config_validation():
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == [
        "restarts", "iterations", "seed"]
    OptimizerConfig()
    with pytest.raises(BudgetZero):
        OptimizerConfig(restarts=0)
    with pytest.raises(BudgetZero):
        OptimizerConfig(iterations=0)
    with pytest.raises(OutOfRange):
        OptimizerConfig(seed=-1)


def test_a_search_reports_the_counts_that_ran():
    cfg = OptimizerConfig(restarts=2.0, iterations=np.int64(3), seed=np.float64(1))
    res = restricted_cloner_search(*_random_pair(5), cfg)
    assert res.config == OptimizerConfig(2, 3, 1)
    assert all(type(getattr(res.config, f)) is int for f in ("restarts", "iterations", "seed"))
    assert [len(t) for t in res.restart_traces] == [4, 4]
    assert '"config": {"restarts": 2, "iterations": 3, "seed": 1}' in res.to_json()
    assert res.to_json() == restricted_cloner_search(*_random_pair(5),
                                                     OptimizerConfig(2, 3, 1)).to_json()


def test_purifying_ancilla_identity_start_stays_optimal():
    rho1, rho2 = _random_pair(101)
    f = math.sqrt(fidelity(rho1, rho2))
    y1, y2 = purifications_with_overlap(rho1, rho2, f)
    cfg = OptimizerConfig(restarts=1, iterations=30, seed=0)
    res = minimize_relative_error(rho1, rho2, y1.density(), y2.density(),
                                  dims=(1, 2, None), cfg=cfg)
    assert res.best_r <= 1e-6
    assert abs(res.phi - f) < 1e-9


def test_search_is_deterministic():
    rho1, rho2 = _random_pair(103)
    ups = _pure(0.0)
    cfg = OptimizerConfig(restarts=2, iterations=60, seed=11)
    a = minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, 1), cfg=cfg)
    b = minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, 1), cfg=cfg)
    assert a.best_r == b.best_r
    assert np.array_equal(a.best_v, b.best_v)
    assert a.restart_traces == b.restart_traces
    assert a.evaluations == b.evaluations


def test_traces_nonincreasing_and_soundness():
    rho1, rho2 = _random_pair(107)
    ups = _pure(0.0)
    cfg = OptimizerConfig(restarts=3, iterations=120, seed=5)
    res = minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, 1), cfg=cfg)
    for trace in res.restart_traces:
        assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert res.best_r >= res.bound - 1e-8
    assert res.gap == res.best_r - res.bound
    assert min(t[-1] for t in res.restart_traces) == res.best_r


def test_search_value_is_apply_cloning_value():
    # the search and apply_cloning share one evaluator, so they agree exactly
    rho1, rho2 = _random_pair(127)
    cfg = OptimizerConfig(restarts=2, iterations=80, seed=3)
    blank8 = DensityMatrix(np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
    runs = [(restricted_cloner_search(rho1, rho2, cfg), _pure(0.0), 1),
            (minimize_relative_error(rho1, rho2, blank8, blank8, dims=(1, 2, 4),
                                     cfg=cfg), blank8, 4)]
    for res, ups, env in runs:
        setup = CloningSetup(rho1, rho2, ups, ups, res.best_v, 1, 2, env)
        assert apply_cloning(setup).relative_error == res.best_r


def test_search_reads_zero_on_an_exact_copy():
    rho1, rho2 = _random_pair(101)
    y1, y2 = purifications_with_overlap(rho1, rho2, 0.3)
    cfg = OptimizerConfig(restarts=1, iterations=1, seed=0)
    res = minimize_relative_error(rho1, rho2, y1.density(), y2.density(),
                                  dims=(1, 2, None), cfg=cfg)
    assert res.restart_traces[0][0] == 0.0  # the identity start outputs the ideal


def test_env_dim_inferred_from_ancilla():
    rho1, rho2 = _random_pair(109)
    rng = np.random.default_rng(7)
    ups = DensityMatrix(oracles.random_density(rng, 6, 2))  # d^M * e = 2 * 3
    cfg = OptimizerConfig(restarts=1, iterations=5, seed=0)
    res = minimize_relative_error(rho1, rho2, ups, ups, dims=(1, 2, None), cfg=cfg)
    assert res.env_dim == 3
    bad = DensityMatrix(oracles.random_density(rng, 5, 1))  # 5 not divisible by 2
    with pytest.raises(OutOfRange):
        minimize_relative_error(rho1, rho2, bad, bad, dims=(1, 2, None), cfg=cfg)


def _generator(n: int, k: int) -> np.ndarray:
    """E_k, the k-th Hermitian coordinate generator: |k><k| for k < n, then
    |a><b| + |b><a| and then i|a><b| - i|b><a| over the pairs a < b."""
    a, b = np.triu_indices(n, 1)
    m = len(a)
    e = np.zeros((n, n), dtype=complex)
    if k < n:
        e[k, k] = 1.0
    elif k < n + m:
        e[a[k - n], b[k - n]] = e[b[k - n], a[k - n]] = 1.0
    else:
        e[a[k - n - m], b[k - n - m]], e[b[k - n - m], a[k - n - m]] = 1j, -1j
    return e


@pytest.mark.parametrize("n, ks", [(4, range(16)), (16, range(0, 256, 7))])
def test_a_move_is_the_exponential_of_its_generator(n, ks):
    v = oracles.haar_unitary(np.random.default_rng(n), n)
    before = v.copy()
    for k in ks:
        for angle in (0.5, -0.05, 2.9):
            want = oracles.expm_scipy(angle * _generator(n, k)) @ v
            got = search._rotate(v, k, angle)
            assert np.max(np.abs(got - want)) <= 1e-14, (n, k, angle)
    assert np.array_equal(v, before)  # a move returns a new array


def test_the_closed_form_row_pair_is_the_triu_table_order():
    for n in range(2, 81):
        a, b = np.triu_indices(n, 1)
        want = [(k, k) for k in range(n)] + list(zip(a.tolist(), b.tolist())) * 2
        assert [search._move_rows(k, n) for k in range(n * n)] == want, n
    # at the 4096 cap, without the table: the pair's row-major index j(a, b)
    # = a n - a(a+1)/2 + b - a - 1 maps back to the move's
    n = 4096
    m = n * (n - 1) // 2
    ks = np.random.default_rng(4096).integers(n, n * n, size=2000).tolist()
    for k in ks + [n, n + m - 1, n + m, n * n - 1]:
        a, b = search._move_rows(k, n)
        assert 0 <= a < b < n, k
        assert a * n - a * (a + 1) // 2 + b - a - 1 == (k - n) % m, k


def test_a_candidate_costs_no_eigendecomposition(monkeypatch):
    # eigh runs only while the states are validated, however long the walk
    # (a candidate's floor takes eigenvalues alone, by eigvalsh); the states
    # keep their decomposition, so each search gets fresh ones
    calls = []
    eigh = np.linalg.eigh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    counts = []
    for iterations in (10, 300):
        calls.clear()
        rho1, rho2 = _random_pair(131)
        blank8 = DensityMatrix(np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
        cfg = OptimizerConfig(restarts=2, iterations=iterations, seed=1)
        res = minimize_relative_error(rho1, rho2, blank8, blank8, dims=(1, 2, 4), cfg=cfg)
        assert res.evaluations == 2 * (iterations + 1)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_best_v_stays_unitary_over_a_long_walk():
    rho1, rho2 = _random_pair(137)
    blank8 = DensityMatrix(np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
    cfg = OptimizerConfig(restarts=3, iterations=1500, seed=2)
    res = minimize_relative_error(rho1, rho2, blank8, blank8, dims=(1, 2, 4), cfg=cfg)
    assert res.best_v.shape == (16, 16)
    assert np.max(np.abs(res.best_v.conj().T @ res.best_v - np.eye(16))) <= 1e-12


def _blank(dim: int) -> DensityMatrix:
    return DensityMatrix(np.diag(np.eye(dim)[0]).astype(complex))


def _count_evaluations(monkeypatch) -> dict:
    """Record every channel floor and exact evaluation; each list grows by
    one per call."""
    calls = {"floor": [], "evaluate": []}
    for name, kept in calls.items():
        def counting(self, factors, _method=getattr(cloning._Channel, name), _kept=kept):
            _kept.append(factors.shape)
            return _method(self, factors)

        monkeypatch.setattr(cloning._Channel, name, counting)
    return calls


def _blank_search(d: int, env: int, n_out: int = 2):
    rng = np.random.default_rng(10 * d + env)
    rho1 = DensityMatrix(oracles.random_density(rng, d, 1))
    rho2 = DensityMatrix(oracles.random_density(rng, d, d))
    ups = _blank(d ** (n_out - 1) * env)
    return lambda cfg: minimize_relative_error(rho1, rho2, ups, ups,
                                               dims=(1, n_out, env), cfg=cfg)


def _mixed_search(cfg):
    rho1, rho2 = _random_pair(139)
    rng = np.random.default_rng(139)
    ups1, ups2 = (DensityMatrix(oracles.random_density(rng, 8, 8)) for _ in range(2))
    return minimize_relative_error(rho1, rho2, ups1, ups2, dims=(1, 2, 4), cfg=cfg)


# (search, whether a move on rows that carry no input can be drawn)
_SKIP_PROBLEMS = {
    "blank-d2e16": (_blank_search(2, 16), True),
    "blank-d4e4": (_blank_search(4, 4), True),
    "restricted-pure": (lambda cfg: restricted_cloner_search(_pure(0.0), _pure(0.7), cfg),
                        True),
    "blank-1to3": (_blank_search(2, 2, n_out=3), True),
    "mixed": (_mixed_search, False),
}


@pytest.mark.parametrize("name", sorted(_SKIP_PROBLEMS))
def test_skipping_dead_moves_changes_no_output(monkeypatch, name):
    # with every row of V K declared live no move is skipped, so the search
    # must write the same bytes either way; each move is then scored by the
    # channel's floor, and each start by its exact evaluation
    search_of, skips = _SKIP_PROBLEMS[name]
    cfg = OptimizerConfig(restarts=2, iterations=150, seed=4)
    calls = _count_evaluations(monkeypatch)
    skipping = search_of(cfg)
    skipping_calls = len(calls["floor"])
    monkeypatch.setattr(search, "_live_rows", lambda factors, n: [True] * n)
    for kept in calls.values():
        kept.clear()
    full = search_of(cfg)
    assert skipping.to_json() == full.to_json()
    assert len(calls["floor"]) == full.evaluations - cfg.restarts
    assert cfg.restarts <= len(calls["evaluate"]) < full.evaluations
    assert (skipping_calls < len(calls["floor"])) == skips


def test_dead_moves_cost_no_channel_evaluation(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    cfg = OptimizerConfig(restarts=1, iterations=60, seed=0)
    res = _blank_search(2, 16)(cfg)  # n = 64, two rows carry input
    assert res.evaluations == 61
    assert len(calls["floor"]) + len(calls["evaluate"]) <= 0.25 * res.evaluations
    for kept in calls.values():
        kept.clear()
    res = _mixed_search(cfg)  # a full-rank ancilla: every row carries input
    assert len(calls["floor"]) + 1 == res.evaluations == 61


def _floor_at(monkeypatch, value: float) -> None:
    monkeypatch.setattr(cloning._Channel, "floor", lambda self, factors: value)


_SCREEN_CASES = {
    **{name: (search_of, OptimizerConfig(restarts=2, iterations=150, seed=4))
       for name, (search_of, _) in _SKIP_PROBLEMS.items()},
    "mixed-4-restarts": (_mixed_search, OptimizerConfig(restarts=4, iterations=300, seed=8)),
}


@pytest.mark.parametrize("name", sorted(_SCREEN_CASES))
def test_the_floor_screen_changes_no_output(monkeypatch, name):
    # a floor of -inf sends every live move to the exact kernel, so a
    # screen that rejects only what that kernel would reject writes the
    # same bytes
    search_of, cfg = _SCREEN_CASES[name]
    calls = _count_evaluations(monkeypatch)
    screened = search_of(cfg)
    exact_calls = len(calls["evaluate"])
    # the starts take the exact kernel, and the screen rejects some moves
    assert exact_calls - cfg.restarts < len(calls["floor"])
    _floor_at(monkeypatch, -math.inf)
    for kept in calls.values():
        kept.clear()
    unscreened = search_of(cfg)
    assert screened.to_json() == unscreened.to_json()
    assert len(calls["evaluate"]) > exact_calls


def test_a_nan_floor_sends_the_move_to_the_exact_kernel(monkeypatch):
    cfg = OptimizerConfig(restarts=2, iterations=100, seed=5)
    screened = _mixed_search(cfg)
    calls = _count_evaluations(monkeypatch)
    _floor_at(monkeypatch, math.nan)
    unscreened = _mixed_search(cfg)
    # every row carries input, so every move reaches the exact kernel
    assert len(calls["evaluate"]) == unscreened.evaluations == 202
    assert screened.to_json() == unscreened.to_json()


def test_an_eigensolver_failure_reads_a_nan_floor(monkeypatch):
    # a floor whose eigvalsh raises reads NaN, which sends every live move
    # to the exact kernel: the same bytes as a run with no screen at all
    cfg = OptimizerConfig(restarts=2, iterations=100, seed=5)
    rho1, rho2 = _random_pair(139)
    channel = cloning._Channel(rho1, rho2, _blank(2), _blank(2), 1, 2)
    factors = channel._factors(np.eye(4, dtype=complex))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert math.isnan(channel.floor(factors))
    failing = _mixed_search(cfg)
    _floor_at(monkeypatch, -math.inf)
    assert failing.to_json() == _mixed_search(cfg).to_json()


def test_the_walk_stops_once_its_step_falls_below_the_stop_step():
    # {I/2, pure} on the restricted problem settles long before 4000 moves:
    # the step decays below 1e-9 and the restart ends, each after a final
    # run of fail_limit = 8 rejected moves
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    cfg = OptimizerConfig(restarts=2, iterations=4000, seed=0)
    res = restricted_cloner_search(mixed, _pure(0.0), cfg)
    for trace in res.restart_traces:
        assert len(trace) < cfg.iterations + 1
        assert len(set(trace[-9:])) == 1
    assert res.evaluations == sum(len(t) for t in res.restart_traces)


def test_a_move_on_dead_rows_leaves_the_channel_unchanged():
    rng = np.random.default_rng(149)
    rho1, rho2 = (DensityMatrix(oracles.random_density(rng, 2, 2)) for _ in range(2))
    ups = _blank(8)
    n = 16
    v = np.eye(n, dtype=complex)
    channel = cloning._Channel(rho1, rho2, ups, ups, 1, 2)
    factors = channel._factors(v)
    cur = channel.evaluate(factors)[2]
    # at the identity the live rows of V K are the rows the inputs occupy
    joint = np.kron(rho1.matrix, ups.matrix) + np.kron(rho2.matrix, ups.matrix)
    live = np.flatnonzero(search._live_rows(factors, n))
    assert np.array_equal(live, np.flatnonzero(np.diag(joint)))
    dead = [k for k in range(n * n) if not np.any(_generator(n, k)[:, live])]
    assert len(dead) == n - 2 + (n - 2) * (n - 3)  # phases and both rotations
    for k in dead:
        for angle in (0.5, -0.05, 2.9):
            cand = channel._factors(search._rotate(v, k, angle))
            assert np.array_equal(cand, factors), (k, angle)
            assert channel.evaluate(cand)[2] == cur, (k, angle)


@pytest.mark.parametrize("name", sorted(_SKIP_PROBLEMS))
def test_the_search_builds_no_setup_and_checks_no_unitary(monkeypatch, name):
    # the channel comes from the states alone: no identity CloningSetup, and
    # no O(n^3) unitarity check before the walk
    def refuse(*args, **kwargs):
        raise AssertionError("the search built a CloningSetup or checked a unitary")

    monkeypatch.setattr(cloning.CloningSetup, "__init__", refuse)
    monkeypatch.setattr(linalg, "require_unitary", refuse)
    res = _SKIP_PROBLEMS[name][0](OptimizerConfig(restarts=2, iterations=20, seed=0))
    assert res.evaluations == 42


def test_search_result_serializes():
    rho1, rho2 = _random_pair(113)
    cfg = OptimizerConfig(restarts=1, iterations=10, seed=0)
    res = restricted_cloner_search(rho1, rho2, cfg)
    doc = json.loads(res.to_json())
    assert doc["best_r"] == res.best_r
    assert doc["best_v"]["dim"] == 4
    assert len(doc["restart_traces"]) == 1


@pytest.mark.parametrize("name", sorted(_SKIP_PROBLEMS))
def test_to_json_is_json_dumps_of_to_dict(name):
    res = _SKIP_PROBLEMS[name][0](OptimizerConfig(restarts=2, iterations=150, seed=4))
    doc = res.to_dict()
    assert isinstance(doc["best_v"]["entries"], list)
    assert list(doc)[-1] == "best_v"
    assert res.to_json() == json.dumps(doc)


def test_cli_optimize_writes_json_dumps_of_to_dict(tmp_path, capsys):
    rho1, rho2 = _random_pair(151)
    cfg = OptimizerConfig(restarts=2, iterations=40, seed=6)
    path = tmp_path / "opt.json"
    path.write_text(json.dumps({"rho1": rho1.to_dict(), "rho2": rho2.to_dict(),
                                "env": 4, **cfg.to_dict()}))
    assert main(["optimize", "--config", str(path)]) == 0
    res = minimize_relative_error(rho1, rho2, _blank(8), _blank(8), dims=(1, 2, 4),
                                  cfg=cfg)
    assert capsys.readouterr().out == json.dumps(res.to_dict()) + "\n"


def test_writing_a_wide_result_triggers_no_garbage_collection():
    res = _blank_search(2, 16)(OptimizerConfig(restarts=1, iterations=60, seed=0))
    assert res.best_v.shape == (64, 64)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        text = res.to_json()
    finally:
        gc.callbacks.remove(count)
    assert collections == []
    assert json.loads(text)["best_v"]["dim"] == 64


def test_restricted_search_converges_on_pure_pair():
    cfg = OptimizerConfig(restarts=3, iterations=1500, seed=0)
    res = restricted_cloner_search(_pure(0.0), _pure(np.pi / 6), cfg)
    # the bound is attainable for pure pairs; a desk-scale budget gets close
    assert res.gap < 1e-3
    assert res.best_r >= res.bound - 1e-8


# restricted pure-pair problems whose best unitaries copy input 1 almost
# exactly (F_1 -> 1); an evaluator taking sin(delta) = sqrt(1 - F) from the
# output matrix's root read them up to 2e-7 below the bound and raised
_NEAR_COPY_PROBLEMS = ((0.2, 0), (0.05, 0), (0.05, 1), (0.05, 2))


@pytest.fixture(scope="module")
def near_copy_searches():
    return {(theta, seed): restricted_cloner_search(
                _pure(0.0), _pure(theta),
                OptimizerConfig(restarts=3, iterations=1500, seed=seed))
            for theta, seed in _NEAR_COPY_PROBLEMS}


def test_pure_pair_searches_at_the_bound_raise_no_false_alarm(near_copy_searches):
    for res in near_copy_searches.values():  # building them raised nothing
        assert res.gap >= -SOUNDNESS_TOL
        assert res.gap < 1e-3


def test_pure_pair_sines_match_a_40_digit_oracle(near_copy_searches):
    pytest.importorskip("mpmath")
    blank = _pure(0.0)
    for (theta, _), res in near_copy_searches.items():
        setup = CloningSetup(_pure(0.0), _pure(theta), blank, blank, res.best_v, 1, 2, 1)
        out = apply_cloning(setup)
        psi2 = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        want = oracles.pure_clone_sines_mp(np.array([1.0, 0.0]), psi2, res.best_v)
        got = [math.sin(out.delta1), math.sin(out.delta2)]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15, (theta, got, want)


def test_restricted_search_dimension_cap():
    rng = np.random.default_rng(9)
    big = DensityMatrix(oracles.random_density(rng, 5, 5))
    with pytest.raises(OutOfRange):
        restricted_cloner_search(big, big, OptimizerConfig(restarts=1, iterations=1))


def test_verify_inequalities_rejects_bad_arguments():
    with pytest.raises(OutOfRange):
        verify_inequalities(1, 10, 0)
    with pytest.raises(OutOfRange):
        verify_inequalities(7, 10, 0)
    with pytest.raises(OutOfRange):
        verify_inequalities(2, 0, 0)
    with pytest.raises(OutOfRange):
        verify_inequalities(2, 10, -1)


def test_verify_inequalities_small_run_clean():
    report = verify_inequalities(2, 200, seed=1)
    assert report.violations == 0
    assert report.max_slack_violation <= 1e-9
    assert len(report.checks) == 4
    names = {c.name for c in report.checks}
    assert names == {"angle_triangle", "fidelity_difference",
                     "probability_deviation", "projector_gap"}
    for c in report.checks:
        assert c.trials == 200
        assert c.worst_case  # serialized inputs present


def test_verify_report_worst_cases_deserialize():
    report = verify_inequalities(3, 50, seed=2)
    tri = next(c for c in report.checks if c.name == "angle_triangle")
    chi = DensityMatrix.from_dict(tri.worst_case["chi"])
    assert chi.dim == 3
    proj = next(c for c in report.checks if c.name == "projector_gap")
    x = PureState.from_dict(proj.worst_case["x"])
    assert x.dim == 3


def test_verify_report_round_trips_and_csv():
    report = verify_inequalities(2, 30, seed=3)
    doc = json.loads(report.to_json())
    again = VerificationReport.from_dict(doc)
    assert again.to_json() == report.to_json()
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "d,seed,slack,inequality,trials,violations,max_margin"
    assert len(lines) == 5
    assert csv.endswith("\n")


def test_verify_inequalities_deterministic():
    a = verify_inequalities(2, 40, seed=9)
    b = verify_inequalities(2, 40, seed=9)
    assert a.to_json() == b.to_json()


def test_verify_counts_a_nan_margin_as_a_violation(monkeypatch, capsys):
    # NaN > SLACK is False, so a comparison the other way round would let
    # broken arithmetic read as "0 violations"
    def nan_at_trial_3(a, b):
        u = _bures(a, b)
        u[..., 3] = np.nan  # trial axis last: a state triple's pairs are stacked first
        return u

    monkeypatch.setattr(search, "_bures", nan_at_trial_3)
    report = verify_inequalities(2, 20, seed=1)
    check = next(c for c in report.checks if c.name == "fidelity_difference")
    assert check.violations >= 1
    assert math.isnan(check.max_margin)
    assert math.isnan(report.max_slack_violation)
    assert report.violations >= 1
    assert main(["verify", "--dim", "2", "--trials", "20"]) == 1
    assert "NaN" in capsys.readouterr().out


def _count_serialization(monkeypatch) -> list:
    """Record every matrix_to_entries / vector_to_entries call, wherever bound."""
    calls = []

    def counting(fn):
        def wrapped(a):
            calls.append(fn.__name__)
            return fn(a)
        return wrapped

    for name in ("matrix_to_entries", "vector_to_entries"):
        wrapped = counting(getattr(serialize, name))
        for mod in (serialize, states, measure, search):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    return calls


def test_verify_serializes_only_the_worst_trials(monkeypatch):
    calls = _count_serialization(monkeypatch)
    report = verify_inequalities(2, 200, seed=1)
    povm = report.checks[2].worst_case["povm"]
    # each check serializes its own worst case, on first use
    assert len(calls) == len(povm["elements"]) + 2
    for check in report.checks:
        check.worst_case
    # 3 + 3 states, the worst POVM's elements and 2 states, 2 vectors + 1 projector
    assert len(calls) == 11 + len(povm["elements"]) <= 16


def test_verify_csv_serializes_no_worst_case(monkeypatch, tmp_path, capsys):
    calls = _count_serialization(monkeypatch)
    for d in (2, 3, 4):
        assert main(["verify", "--dim", str(d), "--trials", "40", "--seed", "21",
                     "--format", "csv", "--out", str(tmp_path / "v.csv")]) == 0
    assert calls == []
    assert main(["verify", "--trials", "40", "--out", str(tmp_path / "v.json")]) == 0
    assert len(calls) >= 11
    capsys.readouterr()


def test_verify_chunk_boundary_is_counted_and_deterministic():
    a = verify_inequalities(3, search.CHUNK + 1, seed=4)
    assert [c.trials for c in a.checks] == [search.CHUNK + 1] * 4
    assert a.violations == 0
    assert a.to_json() == verify_inequalities(3, search.CHUNK + 1, seed=4).to_json()


def _worst_case_margins(doc: dict) -> dict:
    """lhs - rhs of each family's serialized worst case, recomputed through
    the public, validated API (the eigh route to every fidelity)."""
    def rho(case, name):
        return DensityMatrix.from_dict(case[name])

    cases = {c["name"]: c["worst_case"] for c in doc["checks"]}
    tri, fid = cases["angle_triangle"], cases["fidelity_difference"]
    dev, gap = cases["probability_deviation"], cases["projector_gap"]
    chi, omega, r = (rho(tri, k) for k in ("chi", "omega", "rho"))
    out = {"angle_triangle": angle(chi, omega) - (angle(chi, r) + angle(omega, r))}
    chi, omega, r = (rho(fid, k) for k in ("chi", "omega", "rho"))
    out["fidelity_difference"] = (abs(fidelity(chi, r) - fidelity(omega, r))
                                  - math.sin(angle(chi, omega)))
    povm = POVM.from_dict(dev["povm"])
    chi, omega = rho(dev, "chi"), rho(dev, "omega")
    out["probability_deviation"] = (
        max(abs(p - q) for p, q in zip(probabilities(povm, chi), probabilities(povm, omega)))
        - math.sin(angle(chi, omega)))
    x, y = PureState.from_dict(gap["x"]), PureState.from_dict(gap["y"])
    pi = entries_to_matrix(gap["projector"]["entries"], gap["projector"]["dim"])
    out["projector_gap"] = projector_gap(x, y, pi) - math.sin(angle_pure(x, y))
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_each_worst_case_reproduces_its_margin_through_the_public_api(d):
    for seed in (0, 1, 2):
        doc = json.loads(verify_inequalities(d, 200, seed).to_json())
        again = _worst_case_margins(doc)
        for c in doc["checks"]:
            assert abs(again[c["name"]] - c["max_margin"]) <= 1e-12, (seed, c["name"])


@pytest.mark.parametrize("d, trials, seed", [
    (2, 5, 99999999999999999999), *((d, 50, s) for d in range(2, 7) for s in (0, 1))])
def test_every_worst_case_projector_is_exactly_hermitian(d, trials, seed):
    report = verify_inequalities(d, trials, seed)
    doc = next(c for c in report.checks if c.name == "projector_gap").worst_case
    pi = entries_to_matrix(doc["projector"]["entries"], d)
    assert np.array_equal(pi, pi.conj().T)
    assert np.all(pi.diagonal().imag == 0.0)


def test_verify_takes_no_eigvalsh_and_one_eigh_per_povm_chunk(monkeypatch, tmp_path):
    # sampled states enter the kernel as their Ginibre factors, so the only
    # decomposition left is _normalized_povm's eigh of each chunk's POVM sums;
    # a JSON report adds one stacked eigh per family of worst-case densities
    # and the worst POVM's eigvalsh
    calls = {"eigvalsh": 0, "eigh": 0, "_eig_factor": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (linalg, "_eig_factor")):
        original = getattr(owner, name)
        wrapped = counting(name, original)
        for mod in (owner, *(m for k, m in sys.modules.items() if k.startswith("clonebound"))):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    monkeypatch.setattr(search, "CHUNK", 16)
    for d in (2, 3, 4):
        assert main(["verify", "--dim", str(d), "--trials", "40", "--seed", "21",
                     "--format", "csv", "--out", str(tmp_path / "v.csv")]) == 0
    assert calls == {"eigvalsh": 0, "eigh": 3 * 3, "_eig_factor": 0}  # 3 chunks per d
    for key in calls:
        calls[key] = 0
    for d in (2, 3, 4):
        assert main(["verify", "--dim", str(d), "--trials", "16", "--seed", "21",
                     "--out", str(tmp_path / "v.json")]) == 0
    # per report: 1 POVM chunk plus the triangle, fidelity-difference and
    # probability-deviation worst cases, each validated as one stack
    assert calls == {"eigvalsh": 3, "eigh": 3 * 4, "_eig_factor": 0}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_triple_equals_three_bures_calls(d):
    rng = np.random.default_rng(90 + d)
    chi, omega, rho = (search._density_factors(rng, d, 64) for _ in range(3))
    rank_one = search._density_factors(rng, d, 64)
    rank_one[:, :, 1:] = 0.0
    rank_one /= linalg._frobenius(rank_one)[:, None, None]
    chi[:16], rho[16:32] = rank_one[:16], rank_one[16:32]  # rank-1 factors on each side
    stacked = _bures(np.stack((chi, chi, omega)), np.stack((omega, rho, rho)))
    for got, (a, b) in zip(stacked, ((chi, omega), (chi, rho), (omega, rho))):
        assert np.array_equal(got, _bures(a, b))
    factors, us = search._triple(np.random.default_rng(7), d, 16)
    again = np.random.default_rng(7)
    chi, omega, rho = (search._density_factors(again, d, 16) for _ in range(3))
    assert all(np.array_equal(a, b) for a, b in zip(factors, (chi, omega, rho)))
    assert np.array_equal(us, np.stack((_bures(chi, omega), _bures(chi, rho),
                                        _bures(omega, rho))))


@pytest.mark.parametrize("corrupt, error", [
    (lambda m: m.__setitem__((0, 0, 1), np.nan), NonFinite),
    (lambda m: m.__setitem__((1, 0, 1), m[1, 0, 1] + 1e-6), NotHermitian),
], ids=["nan", "not_hermitian"])
def test_worst_case_density_corruption_raises_its_typed_error(monkeypatch, corrupt, error):
    report = verify_inequalities(3, 20, seed=4)
    real = search._density_from_factor

    def corrupted(g):
        m = real(g)
        corrupt(m)
        return m

    monkeypatch.setattr(search, "_density_from_factor", corrupted)
    for check in report.checks[:3]:  # the families whose worst case holds densities
        with pytest.raises(error):
            check.worst_case


@pytest.mark.parametrize("margins", [
    [0.1, 0.5, 0.2, 0.5, 0.3, 0.1, 0.4, 0.5, 0.0, -1.0],  # first maximum wins a tie
    [0.1, 0.5, 0.2, 0.3, np.nan, 0.1, np.nan, 0.9, 0.0, 2e-9],  # first NaN wins
])
def test_verify_worst_case_across_chunks_is_the_global_argmax(monkeypatch, margins):
    # a family of two checks, each with its own margins: the second check's
    # are the first's reversed, so each check keeps its own worst trial
    margins = np.array(margins)
    per_check = (margins, margins[::-1].copy())
    pos = [0]

    def family(rng, d, n):
        start = pos[0]
        pos[0] += n
        return tuple((m[start:start + n], lambda i, c=c: {"check": c, "trial": start + i})
                     for c, m in enumerate(per_check))

    monkeypatch.setattr(search, "CHUNK", 3)
    monkeypatch.setattr(search, "_FAMILIES", ((("fake", "fake_reversed"), family),))
    checks = verify_inequalities(2, len(margins), seed=0).checks
    assert [c.name for c in checks] == ["fake", "fake_reversed"]
    for c, (check, m) in enumerate(zip(checks, per_check)):
        worst = int(np.argmax(m))
        assert check.worst_case == {"check": c, "trial": worst}
        assert check.max_margin == m[worst] or math.isnan(check.max_margin)
        assert check.violations == np.count_nonzero(~(m <= cloning.CHAIN_SLACK))


def test_the_three_triple_checks_share_one_draw_and_one_bures_call(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return _bures(a, b)

    monkeypatch.setattr(search, "_bures", counting)
    monkeypatch.setattr(search, "CHUNK", 16)
    report = verify_inequalities(3, 40, seed=5)
    # 3 chunks: one stacked call of the 3 pairs of each triple chunk, which
    # also gives the probability deviation its u(chi, omega)
    assert calls == [(3, 16, 3, 3), (3, 16, 3, 3), (3, 8, 3, 3)]
    assert [c.trials for c in report.checks] == [40] * 4
    tri, fid, dev = verify_inequalities(3, 1, seed=5).checks[:3]
    assert tri.worst_case == fid.worst_case
    assert list(tri.worst_case) == ["chi", "omega", "rho"]
    assert list(dev.worst_case) == ["povm", "chi", "omega"]
    assert dev.worst_case["chi"] == tri.worst_case["chi"]
    assert dev.worst_case["omega"] == tri.worst_case["omega"]


def test_sweep_bound_rows():
    rows = sweep_bound([0.0, 0.3, 0.6], 1.0)
    assert [r.f for r in rows] == [0.0, 0.3, 0.6]
    assert rows[0].bound == 0.0
    assert rows[1].bound > 0.0
    rows_thresh = sweep_bound([0.5], 0.5)  # phi = f^M exactly
    assert rows_thresh[0].bound == 0.0


def test_sweep_bound_monotone_in_phi():
    f = 0.7
    bounds = [sweep_bound([f], p)[0].bound for p in np.linspace(f, 1.0, 50)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_sweep_bound_validation():
    with pytest.raises(OutOfRange):
        sweep_bound([1.0], 1.0)  # f must stay below 1
    with pytest.raises(OutOfRange):
        sweep_bound([0.5], 1.5)


def test_sweep_serialization_round_trips():
    rows = sweep_bound([0.1, 0.2, 0.3], 0.9)
    csv = sweep_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "f,phi,n_in,n_out,bound"
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert float(parts[0]) == row.f  # 17 significant digits round-trip
        assert float(parts[4]) == row.bound
    doc = json.loads(sweep_to_json(rows))
    assert doc[1]["bound"] == rows[1].bound
