import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import clonebound
from clonebound import cli, linalg
from clonebound.cli import build_parser, main
from clonebound.cloning import SOUNDNESS_TOL, lower_bound
from clonebound.search import OptimizerConfig
from clonebound.states import DensityMatrix, PureState, fidelity, random_density

import oracles


def _states_file(tmp_path, seed1=31, seed2=32, name="states.json"):
    r1 = random_density(2, 2, seed=seed1)
    r2 = random_density(2, 2, seed=seed2)
    path = tmp_path / name
    path.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict()}))
    return path, r1, r2


def test_bound_prints_17_digit_value(capsys):
    assert main(["bound", "--f", "0.6", "--phi", "1", "--n", "1", "--l", "2"]) == 0
    out = capsys.readouterr().out
    assert out == format(lower_bound(0.6, 1.0, 1, 2), ".17g") + "\n"
    assert abs(float(out) - 0.29130254674348405) < 1e-12


def test_bound_zero_below_threshold(capsys):
    assert main(["bound", "--f", "0.6", "--phi", "0.6"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_bound_exit_codes(capsys):
    assert main(["bound", "--f", "1", "--phi", "1"]) == 1  # degenerate pair
    assert main(["bound", "--f", "1.2", "--phi", "1"]) == 2  # out of range
    assert main(["bound", "--f", "0.5"]) == 2  # missing required flag
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--dim", "2", "--trials", "40", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == 0
    assert doc["d"] == 2 and doc["seed"] == 7
    assert len(doc["checks"]) == 4
    assert capsys.readouterr().out == ""  # report went to the file


def test_verify_stdout_and_csv(capsys):
    assert main(["verify", "--dim", "2", "--trials", "25", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "d,seed,slack,inequality,trials,violations,max_margin"
    assert len(lines) == 5


def test_verify_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["verify", "--dim", "3", "--trials", "30", "--seed", "5", "--out", str(a)])
    main(["verify", "--dim", "3", "--trials", "30", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_rejects_bad_dim(capsys):
    assert main(["verify", "--dim", "1", "--trials", "5"]) == 2
    capsys.readouterr()


def test_purify_writes_verified_pair(tmp_path, capsys):
    states, r1, r2 = _states_file(tmp_path)
    out = tmp_path / "pur.json"
    assert main(["purify", "--states", str(states), "--phi", "0.4",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["achieved_overlap"] - 0.4) <= 1e-9
    assert max(doc["marginal_residuals"]) <= 1e-9
    y1 = np.array([complex(re, im) for re, im in doc["y1"]["amp"]])
    y2 = np.array([complex(re, im) for re, im in doc["y2"]["amp"]])
    assert abs(abs(np.vdot(y1, y2)) - 0.4) <= 1e-9
    capsys.readouterr()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_purify_marginals_agree_with_the_partial_trace(tmp_path, capsys, d):
    rng = np.random.default_rng(70 + d)
    r1 = DensityMatrix(oracles.random_density(rng, d, d - 1))
    r2 = DensityMatrix(oracles.random_density(rng, d, d))
    states = tmp_path / "states.json"
    states.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict()}))
    out = tmp_path / "pur.json"
    phi = 0.7 * math.sqrt(fidelity(r1, r2))
    assert main(["purify", "--states", str(states), "--phi", repr(phi),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key, rho, residual in zip(("y1", "y2"), (r1, r2), doc["marginal_residuals"]):
        y = PureState.from_dict(doc[key])
        marg = linalg.partial_trace(y.density().matrix, [d, y.dim // d], {0})
        a = y.amp.reshape(d, -1)
        assert np.abs(a @ a.conj().T - marg).max() <= 1e-15
        assert abs(residual - np.linalg.norm(marg - rho.matrix)) <= 1e-15


def test_purify_unreachable_overlap_exits_1(tmp_path, capsys):
    states, _, _ = _states_file(tmp_path)
    assert main(["purify", "--states", str(states), "--phi", "0.9999"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf", "1e400"])
def test_purify_non_finite_phi_exits_2(tmp_path, capsys, phi):
    states, _, _ = _states_file(tmp_path)
    capsys.readouterr()
    for spelled in ([f"--phi={phi}"], ["--phi", phi]):
        assert main(["purify", "--states", str(states), *spelled]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phi=") and "must be finite" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e400"])
@pytest.mark.parametrize("argv, name", [
    (["bound", "--f", "0.5", "--phi"], "phi"),
    (["bound", "--phi", "0.5", "--f"], "f"),
    (["sweep", "--phi"], "phi"),
    (["sweep", "--f-min"], "f_min"),
    (["sweep", "--f-max"], "f_max"),
])
def test_a_negative_non_finite_float_flag_reaches_its_check_in_both_spellings(
        capsys, argv, name, value):
    # argparse reads "-inf" as an option, not as the value of the flag before it
    errs = []
    for spelled in ([*argv[:-1], f"{argv[-1]}={value}"], [*argv, value]):
        assert main(spelled) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: {name}=") and errs[0].count("\n") == 1


def test_purify_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["purify", "--states", str(bad), "--phi", "0.5"]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"rho1": random_density(2, 1, seed=1).to_dict()}))
    assert main(["purify", "--states", str(missing), "--phi", "0.5"]) == 2
    assert main(["purify", "--states", str(tmp_path / "nope.json"),
                 "--phi", "0.5"]) == 2
    capsys.readouterr()


def test_optimize_restricted_run(tmp_path, capsys):
    states, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 50,
                               "restarts": 2}))
    out = tmp_path / "res.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["best_r"] >= doc["bound"] - 1e-8
    assert doc["config"]["iterations"] == 50
    assert doc["config"]["seed"] == 0  # documented default
    capsys.readouterr()


def test_optimize_pure_pair_at_the_bound_exits_0(tmp_path, capsys):
    # the best unitary copies input 1 almost exactly; read through
    # sqrt(1 - F) of the output matrix it sat 7.7e-8 below the bound (exit 1)
    pair = {name: PureState(np.array([np.cos(t), np.sin(t)], dtype=complex))
            .density().to_dict() for name, t in (("rho1", 0.0), ("rho2", 0.2))}
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({**pair, "restricted": True}))
    assert main(["optimize", "--config", str(cfg), "--restarts", "3",
                 "--iterations", "1500"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 0
    assert doc["gap"] >= -SOUNDNESS_TOL


def test_optimize_flags_override_config(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 40,
                               "restarts": 1, "seed": 3}))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["optimize", "--config", str(cfg), "--out", str(out1)])
    main(["optimize", "--config", str(cfg), "--seed", "3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()  # same effective seed
    doc = json.loads(out1.read_text())
    assert doc["config"]["seed"] == 3


def test_main_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call; no call's flags may reach the next
    assert build_parser() is build_parser()
    assert main(["bound", "--f", "0.6", "--phi", "1", "--bogus"]) == 2
    assert main(["bound", "--f", "0.6", "--phi", "1"]) == 0
    assert float(capsys.readouterr().out) == lower_bound(0.6, 1.0, 1, 2)
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 20,
                               "restarts": 1, "seed": 3}))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["optimize", "--config", str(cfg), "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["optimize", "--config", str(cfg), "--out", str(out2)]) == 0
    assert json.loads(out1.read_text())["config"]["seed"] == 5
    assert json.loads(out2.read_text())["config"]["seed"] == 3
    capsys.readouterr()


def test_optimize_config_defaults_are_the_dataclass_defaults(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == OptimizerConfig().to_dict()


@pytest.mark.parametrize("entries", [
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0, 0.0]],  # a pair of length 3
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],  # three pairs for a 2x2 matrix
    [["0.5", 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],  # a string value
], ids=["pair-length", "pair-count", "string-value"])
def test_purify_malformed_entries_exit_2(tmp_path, capsys, entries):
    r2 = random_density(2, 2, seed=32)
    path = tmp_path / "states.json"
    path.write_text(json.dumps({"rho1": {"dim": 2, "entries": entries},
                                "rho2": r2.to_dict()}))
    assert main(["purify", "--states", str(path), "--phi", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_optimize_csv_summary(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 30,
                               "restarts": 1}))
    assert main(["optimize", "--config", str(cfg), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("best_r,bound,gap")
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) >= float(lines[1].split(",")[1]) - 1e-8


def test_optimize_full_search_with_defaults(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path, seed1=41, seed2=42)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 20, "restarts": 1, "env": 2}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["env_dim"] == 2
    assert doc["n_in"] == 1 and doc["n_out"] == 2
    assert doc["phi"] == 1.0  # default blank ancilla pair is identical


def test_optimize_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["optimize", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [
    ("restarts", 1.9), ("iterations", 3.7), ("seed", True), ("restarts", False),
    ("n", 1.5), ("l", True), ("env", 2.5), ("seed", float("nan")),
    ("iterations", float("inf")),
])
def test_optimize_refuses_a_fractional_or_bool_integer_key(tmp_path, capsys, key, value):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 10, "restarts": 1, "env": 2, key: value}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err


def test_optimize_integral_floats_still_read_as_ints(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    base = {"rho1": r1.to_dict(), "rho2": r2.to_dict(), "env": 2}
    cfg.write_text(json.dumps({**base, "iterations": 10, "restarts": 1, "seed": 2}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    as_ints = capsys.readouterr().out
    cfg.write_text(json.dumps({**base, "iterations": 10.0, "restarts": 1.0, "seed": 2.0,
                               "n": 1.0, "l": 2.0, "env": 2.0}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == as_ints
    assert json.loads(as_ints)["config"]["iterations"] == 10


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", ["initial_step", "step_decay", "convergence_tol"])
def test_optimize_refuses_a_bool_number_key(tmp_path, capsys, key, value):
    # these were optimize's number keys; retired, they are refused whatever
    # their value
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 5, "restarts": 1,
                               key: value}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err


@pytest.mark.parametrize("key, value", [("initial_step", 0.5), ("step_decay", 0.9),
                                        ("convergence_tol", 1e-9)])
def test_optimize_refuses_a_retired_schedule_key(tmp_path, capsys, key, value):
    # even the value the fixed schedule uses: the key itself is refused
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 5, "restarts": 1,
                               key: value}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err and "retired" in captured.err


@pytest.mark.parametrize("flag", ["--initial-step", "--step-decay", "--convergence-tol"])
def test_optimize_has_no_step_flags(tmp_path, capsys, flag):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 5, "restarts": 1}))
    assert main(["optimize", "--config", str(cfg), flag, "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert main(["optimize", "--help"]) == 0
    assert flag not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["no", 0.0, 1, None])
def test_optimize_refuses_a_non_bool_restricted(tmp_path, capsys, value):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 5, "restarts": 1, "env": 2,
                               "restricted": value}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"restricted"' in captured.err


# a restricted search has no environment, so its case sends no "env" (see
# test_optimize_restricted_refuses_what_it_would_ignore)
@pytest.mark.parametrize("extra, env_dim", [({"env": 2}, 2),
                                            ({"env": 2, "restricted": False}, 2),
                                            ({"restricted": True}, 1)])
def test_optimize_restricted_true_or_false(tmp_path, capsys, extra, env_dim):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 5, "restarts": 1, **extra}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["env_dim"] == env_dim


@pytest.mark.parametrize("key", ["restart", "iteration", "env_dim", "upsilon", "seeds"])
def test_optimize_refuses_an_unknown_key(tmp_path, capsys, key):
    # a misspelt key is refused, not ignored: {"restart": 10} must not run the
    # default 4 restarts
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 5, key: 10}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err and "unknown" in captured.err


@pytest.mark.parametrize("key", ["point", "f", "n_out", "format"])
def test_sweep_refuses_an_unknown_key(tmp_path, capsys, key):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"points": 3, key: 2}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err and "unknown" in captured.err


@pytest.mark.parametrize("extra, key", [
    ({"env": 4}, "env"), ({"env": 2}, "env"), ({"n": 2}, "n"), ({"l": 3}, "l"),
    ({"n": 2, "l": 3}, "n"), ({"env": 1.5}, "env"), ({"l": "2"}, "l"),
    ({"upsilon1": None}, "upsilon1"), ({"upsilon2": None}, "upsilon2"),
])
def test_optimize_restricted_refuses_what_it_would_ignore(tmp_path, capsys, extra, key):
    # the restricted search is 1 -> 2 with a blank ancilla and no environment,
    # so a key that says otherwise is refused rather than ignored
    _, r1, r2 = _states_file(tmp_path)
    ups = DensityMatrix(np.eye(4, dtype=complex) / 4.0).to_dict()
    extra = {k: ups if k.startswith("upsilon") else v for k, v in extra.items()}
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "restricted": True, "iterations": 5, "restarts": 1,
                               **extra}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err


def test_optimize_restricted_accepts_the_counts_it_fixes(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    base = {"rho1": r1.to_dict(), "rho2": r2.to_dict(), "restricted": True,
            "iterations": 5, "restarts": 1}
    cfg.write_text(json.dumps(base))
    assert main(["optimize", "--config", str(cfg)]) == 0
    plain = capsys.readouterr().out
    for fixed in ({"n": 1, "l": 2}, {"n": 1.0, "l": 2.0, "env": 1}):
        cfg.write_text(json.dumps({**base, **fixed}))
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == plain


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("key", ["f_min", "f_max", "phi"])
def test_sweep_refuses_a_bool_number_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"f_min": 0.1, "f_max": 0.5, "points": 3, key: value}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err


def test_sweep_integer_number_keys_read_as_floats(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"f_min": 0.0, "f_max": 0.5, "points": 3, "phi": 1.0}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    as_floats = capsys.readouterr().out
    cfg.write_text(json.dumps({"f_min": 0, "f_max": 0.5, "points": 3, "phi": 1}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == as_floats


@pytest.mark.parametrize("key, value", [("points", 2.5), ("points", True), ("n", 1.5),
                                        ("l", False)])
def test_sweep_refuses_a_fractional_or_bool_integer_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"points": 3, key: value}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err
    cfg.write_text(json.dumps({"points": 3.0, "n": 1.0, "l": 2.0}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4


_NOT_NUMBERS = ["1", "2.0", None, [1]]


# initial_step, step_decay and convergence_tol are retired: refused whatever
# their value
@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("key", ["restarts", "iterations", "initial_step", "step_decay",
                                 "seed", "convergence_tol", "n", "l", "env"])
def test_optimize_refuses_a_value_that_is_not_a_json_number(tmp_path, capsys, key, value):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 5, "restarts": 1, "env": 2, key: value}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err


@pytest.mark.parametrize("value", _NOT_NUMBERS)
@pytest.mark.parametrize("key", ["f_min", "f_max", "points", "phi", "n", "l"])
def test_sweep_refuses_a_value_that_is_not_a_json_number(tmp_path, capsys, key, value):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"f_min": 0.1, "f_max": 0.5, "points": 3, key: value}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'"{key}"' in captured.err


def _ancilla_config(tmp_path, ancilla_dim: int, **extra):
    _, r1, r2 = _states_file(tmp_path)
    ups = DensityMatrix(np.eye(ancilla_dim, dtype=complex) / ancilla_dim)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "upsilon1": ups.to_dict(), "upsilon2": ups.to_dict(),
                               "iterations": 5, "restarts": 1, **extra}))
    return cfg


@pytest.mark.parametrize("ancilla_dim, extra", [(4, {}), (4, {"env": 2}), (8, {}),
                                                (2, {"l": 2})])
def test_optimize_reads_env_off_an_explicit_ancilla(tmp_path, capsys, ancilla_dim, extra):
    # d = 2 and M = 1, so the ancilla on C^(2 e) fixes e; no env key is needed
    cfg = _ancilla_config(tmp_path, ancilla_dim, **extra)
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["env_dim"] == ancilla_dim // 2


@pytest.mark.parametrize("ancilla_dim, extra", [(4, {"env": 4}), (4, {"env": 1}),
                                                (5, {}), (4, {"env": None})])
def test_optimize_refuses_an_env_the_ancilla_does_not_fit(tmp_path, capsys,
                                                          ancilla_dim, extra):
    cfg = _ancilla_config(tmp_path, ancilla_dim, **extra)
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("extra, key", [
    ({"env": 0}, '"env"'), ({"env": -3}, '"env"'), ({"n": 0}, '"n"'),
    ({"n": 2, "l": 1}, '"l"'), ({"n": 2, "l": 2}, '"l"'),
    ({"env": 1025}, "exceeds"),  # d^L e = 4100, over the cap
])
def test_optimize_refuses_a_bad_dimension_before_building_the_blank(
        tmp_path, capsys, monkeypatch, extra, key):
    def no_blank(dim):
        raise AssertionError(f"blank ancilla of dim {dim} built")

    monkeypatch.setattr(cli, "_blank_ancilla", no_blank)
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 5, "restarts": 1, **extra}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("extra, message", [
    ({"n": 0}, 'config key "n" must be >= 1, got 0'),
    ({"n": 2, "l": 2}, 'config key "l" must exceed config key "n" = 2, got 2'),
    ({"env": 0}, 'config key "env" must be >= 1, got 0'),
])
def test_optimize_problem_rule_names_the_config_key(tmp_path, capsys, monkeypatch,
                                                    explicit, extra, message):
    # the one problem rule, cloning._problem_dims, refuses with the config's
    # key names on both ancilla paths, before any search starts
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "minimize_relative_error", no_search)
    if explicit:
        cfg = _ancilla_config(tmp_path, 4, **extra)
    else:
        _, r1, r2 = _states_file(tmp_path)
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(), **extra}))
    assert main(["optimize", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_optimize_refuses_an_output_count_over_the_cap_at_once(tmp_path, capsys):
    # 3^(10^7) is never formed: 10^7 outputs exceed log2(4096) at any d >= 2
    r1, r2 = (random_density(3, 3, seed=s) for s in (31, 32))
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "l": 10 ** 7, "iterations": 5, "restarts": 1}))
    start = time.perf_counter()
    assert main(["optimize", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(linalg.MAX_DIM) in captured.err


def test_optimize_blank_ancilla_env_still_defaults_to_d_squared(tmp_path, capsys):
    _, r1, r2 = _states_file(tmp_path)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"rho1": r1.to_dict(), "rho2": r2.to_dict(),
                               "iterations": 5, "restarts": 1}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["env_dim"] == 4


def test_sweep_default_csv(capsys):
    assert main(["sweep", "--f-min", "0.1", "--f-max", "0.9", "--points", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "f,phi,n_in,n_out,bound"
    assert len(lines) == 10
    bounds = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(b >= 0 for b in bounds)


def test_sweep_json_and_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"f_min": 0.2, "f_max": 0.4, "points": 3,
                               "phi": 0.9}))
    assert main(["sweep", "--config", str(cfg), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["f"] for r in doc] == [0.2, 0.30000000000000004, 0.4]
    assert all(r["phi"] == 0.9 for r in doc)


def test_sweep_bad_points_exits_2(capsys):
    assert main(["sweep", "--points", "0"]) == 2
    assert main(["sweep", "--f-max", "1.0"]) == 2  # grid must stay below 1
    capsys.readouterr()


def test_sweep_refuses_points_over_the_cap_before_the_grid(tmp_path, capsys, monkeypatch):
    # 10^14 points would ask numpy for an 800 TB grid; the cap refuses the
    # flag and the config key alike, naming the key, before linspace runs
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"points": cli.MAX_POINTS + 1}))
    for argv in (["sweep", "--points", "100000000000000"],
                 ["sweep", "--points", str(cli.MAX_POINTS + 1)],
                 ["sweep", "--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: points=") and captured.err.count("\n") == 1
        assert str(cli.MAX_POINTS) in captured.err
    # the cap itself is a valid grid: it reaches linspace
    with pytest.raises(AssertionError, match="allocated"):
        main(["sweep", "--points", str(cli.MAX_POINTS)])


def test_console_script_installed():
    # the child imports the same clonebound as this process
    src = str(Path(clonebound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "clonebound.cli", "bound",
                           "--f", "0.5", "--phi", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert abs(float(proc.stdout) - lower_bound(0.5, 1.0, 1, 2)) < 1e-15
    assert proc.stderr == ""


_NO_SCIPY_CHILD = """
import json, sys
from pathlib import Path

import numpy as np

import clonebound
from clonebound import cli, linalg
from clonebound.states import fidelity, random_density

work = Path(sys.argv[1])
cfg = work / "opt.json"
cfg.write_text(json.dumps({
    "rho1": random_density(2, 2, seed=1).to_dict(),
    "rho2": random_density(2, 2, seed=2).to_dict(),
    "restricted": True, "restarts": 1, "iterations": 5}))
out = str(work / "out")
for argv in (["bound", "--f", "0.5", "--phi", "1"],
             ["sweep", "--points", "3", "--out", out],
             ["verify", "--trials", "5", "--out", out],
             ["optimize", "--config", str(cfg), "--out", out]):
    assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "scipy loaded by bound, sweep, verify or optimize"
for d in (2, 3, 4):
    rho1, rho2 = random_density(d, d - 1, seed=d), random_density(d, d, seed=10 + d)
    phi = 0.5 * fidelity(rho1, rho2) ** 0.5
    pair = work / f"pair{d}.json"
    pair.write_text(json.dumps({"rho1": rho1.to_dict(), "rho2": rho2.to_dict()}))
    argv = ["purify", "--states", str(pair), "--phi", repr(phi), "--out", out]
    assert cli.main(argv) == 0, argv
    setup = clonebound.perfect_cloning_setup(rho1, rho2, phi)
    assert clonebound.apply_cloning(setup).relative_error == 0.0
    assert clonebound.proof_chain_check(setup).all_hold
half = linalg.unitary_power(np.diag([1.0, -1.0]), 0.5)
assert np.abs(half - np.diag([1.0, 1j])).max() < 1e-15, half
assert "scipy" not in sys.modules, "scipy loaded on the overlap walk"
root_x = linalg.unitary_power(np.array([[0, 1], [1, 0]]), 0.5)
expected = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
assert np.abs(root_x - expected).max() < 1e-15, root_x
assert "scipy.linalg" in sys.modules
print("ok")
"""


def test_scipy_is_loaded_only_by_unitary_power(tmp_path):
    # a fresh interpreter: this process has scipy loaded through the oracles
    src = str(Path(clonebound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
