"""Command line front end: verify | bound | purify | optimize | sweep.

Exit codes: 0 success, 1 domain failure (degenerate pair, unreachable
overlap, inequality violations, soundness breach), 2 bad flags or config.
Machine output goes to stdout (or --out), diagnostics to stderr. Every
random draw flows from --seed, which defaults to 0, never the clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .cloning import _copy_counts, _problem_dims, lower_bound
from .errors import (
    DegeneratePair,
    IndistinguishablePair,
    OutOfRange,
    SoundnessViolation,
    TargetOutOfRange,
)
from .linalg import _integral
from .search import (
    OptimizerConfig,
    _csv_table,
    _fmt17,
    minimize_relative_error,
    restricted_cloner_search,
    sweep_bound,
    sweep_to_csv,
    sweep_to_json,
    verify_inequalities,
)
from .states import DensityMatrix, _blank_ancilla, purifications_with_overlap

_DOMAIN_ERRORS = (TargetOutOfRange, DegeneratePair, IndistinguishablePair,
                  SoundnessViolation)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    parse_args keeps no state in it; callers must not add arguments to it.
    """
    p = argparse.ArgumentParser(
        prog="clonebound",
        description="Cloning error bounds: verification, evaluation, search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="randomized inequality checks")
    v.add_argument("--dim", type=int, default=2, help="Hilbert space dimension")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="report file (default stdout)")
    v.add_argument("--format", choices=("json", "csv"), default="json")

    b = sub.add_parser("bound", help="evaluate the relative-error lower bound")
    b.add_argument("--f", type=float, required=True,
                   help="sqrt fidelity of the input pair, in [0, 1)")
    b.add_argument("--phi", type=float, required=True,
                   help="sqrt fidelity of the ancilla pair, in [0, 1]")
    b.add_argument("--n", type=int, default=1, help="input copies")
    b.add_argument("--l", type=int, default=2, help="output copies")

    pu = sub.add_parser("purify",
                        help="build purification pairs with a given overlap")
    pu.add_argument("--states", required=True,
                    help='JSON file with "rho1" and "rho2" matrices')
    pu.add_argument("--phi", type=float, required=True,
                    help="target overlap, in [0, sqrt(F)]")
    pu.add_argument("--out", default=None)

    o = sub.add_parser("optimize", help="search unitaries for low relative error")
    o.add_argument("--config", required=True,
                   help="JSON problem + optimizer settings; flags override")
    o.add_argument("--restarts", type=int, default=None)
    o.add_argument("--iterations", type=int, default=None)
    o.add_argument("--seed", type=int, default=None)
    o.add_argument("--out", default=None)
    o.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub.add_parser("sweep", help="tabulate the bound along an f grid")
    s.add_argument("--config", default=None)
    s.add_argument("--f-min", dest="f_min", type=float, default=None)
    s.add_argument("--f-max", dest="f_max", type=float, default=None)
    s.add_argument("--points", type=int, default=None)
    s.add_argument("--phi", type=float, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--l", type=int, default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("json", "csv"), default="csv")
    return p


# argparse reads a token that starts with "-" and is not a plain negative
# decimal (-inf, -nan, -1e400) as an option, so "--phi -inf" would never reach
# phi's own check; joined as "--phi=-inf", the token is the flag's value
_FLOAT_FLAGS = frozenset({"--f", "--phi", "--f-min", "--f-max"})


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list[str]) -> list[str]:
    """``argv`` with each float flag joined to a following value such as -inf."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _FLOAT_FLAGS and token.startswith("-") and _is_float(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _write(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise OutOfRange(f"{path}: expected a JSON object at top level")
    return doc


def _pick(flag_value, doc: dict, key: str, default):
    """Flag if given, else config file value, else the documented default."""
    if flag_value is not None:
        return flag_value
    return doc.get(key, default)


def _typed(value, key: str, kind: type):
    """A config value as ``kind`` (int or float). An int key is read by the
    package's count rule, linalg._integral; a float key refuses anything but a
    JSON number (a string, null, a list or a bool)."""
    if kind is int:
        return _integral(value, f'config key "{key}"')
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutOfRange(f'config key "{key}" must be a number, got {value!r}')
    return float(value)


def _refuse_unknown_keys(doc: dict, known) -> None:
    """Refuse a config key outside ``known`` rather than silently ignore it."""
    for key in doc:
        if key not in known:
            raise OutOfRange(f'config key "{key}" is unknown; the keys are '
                             + ", ".join(known))


def _state_from(doc: dict, key: str) -> DensityMatrix:
    if key not in doc:
        raise OutOfRange(f'config is missing the "{key}" state')
    return DensityMatrix.from_dict(doc[key])


def cmd_verify(args) -> int:
    report = verify_inequalities(args.dim, args.trials, args.seed)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _write(text, args.out)
    return 0 if report.violations == 0 else 1


def cmd_bound(args) -> int:
    value = lower_bound(args.f, args.phi, args.n, args.l)
    sys.stdout.write(_fmt17(value) + "\n")
    return 0


def cmd_purify(args) -> int:
    doc = _load_json(args.states)
    rho1 = _state_from(doc, "rho1")
    rho2 = _state_from(doc, "rho2")
    y1, y2 = purifications_with_overlap(rho1, rho2, args.phi)
    residuals = []
    for y, rho in ((y1, rho1), (y2, rho2)):
        # amp[x * e + i] = A[x, i], so the marginal on the system is A A^dagger
        a = y.amp.reshape(rho.dim, -1)
        residuals.append(float(np.linalg.norm(a @ a.conj().T - rho.matrix)))
    out_doc = {
        "phi": float(args.phi),
        "achieved_overlap": float(abs(np.vdot(y1.amp, y2.amp))),
        "marginal_residuals": residuals,
        "y1": y1.to_dict(),
        "y2": y2.to_dict(),
    }
    _write(json.dumps(out_doc), args.out)
    return 0


_OPTIMIZE_KEYS = ("rho1", "rho2", "n", "l", "env", "upsilon1", "upsilon2", "restricted",
                  *(f.name for f in dataclasses.fields(OptimizerConfig)))
_OPTIMIZE_CSV = "best_r,bound,gap,f,phi,n_in,n_out,env_dim,evaluations"
# n_in, n_out and env_dim as the problem rule names them in a refusal
_CONFIG_NAMES = ('config key "n"', 'config key "l"', 'config key "env"')


def cmd_optimize(args) -> int:
    doc = _load_json(args.config)
    # the step schedule is fixed: a config that still sets one of its retired
    # keys is refused rather than silently run with another walk than it asked for
    for key in ("initial_step", "step_decay", "convergence_tol"):
        if key in doc:
            raise OutOfRange(f'config key "{key}" is retired: the search\'s step '
                             "schedule is fixed")
    _refuse_unknown_keys(doc, _OPTIMIZE_KEYS)
    rho1 = _state_from(doc, "rho1")
    rho2 = _state_from(doc, "rho2")
    cfg = OptimizerConfig(**{
        f.name: _typed(_pick(getattr(args, f.name), doc, f.name, f.default), f.name,
                       type(f.default))
        for f in dataclasses.fields(OptimizerConfig)
    })
    restricted = doc.get("restricted", False)
    if not isinstance(restricted, bool):
        raise OutOfRange(f'config key "restricted" must be true or false, '
                         f'got {restricted!r}')
    if restricted:
        # a key the restricted search would ignore is refused, unless it says
        # what that search fixes: n = 1, l = 2, env = 1 and a blank ancilla
        for key, fixed in (("upsilon1", None), ("upsilon2", None), ("n", 1), ("l", 2),
                           ("env", 1)):
            if key in doc and (fixed is None or _typed(doc[key], key, int) != fixed):
                raise OutOfRange(f'config key "{key}" does not fit a restricted search, '
                                 "which is 1 -> 2 with a blank ancilla and no environment")
        result = restricted_cloner_search(rho1, rho2, cfg)
    else:
        d = rho1.dim
        n_in, n_out = doc.get("n", 1), doc.get("l", 2)
        explicit = "upsilon1" in doc or "upsilon2" in doc
        env_dim = None
        if "env" in doc or not explicit:
            env_dim = _typed(doc.get("env", d * d), "env", int)
        if explicit:
            ups1, ups2 = _state_from(doc, "upsilon1"), _state_from(doc, "upsilon2")
            anc_dims = (ups1.dim, ups2.dim)
        else:
            # the copy counts and d^L within the cap, before d^M is formed
            _, n_in, n_out = _copy_counts(rho1, rho2, n_in, n_out, _CONFIG_NAMES)
            anc_dims = (d ** (n_out - n_in) * env_dim,) * 2
        # the problem rule, naming the config keys, before a blank is built
        dims = _problem_dims(rho1, rho2, anc_dims, n_in, n_out, env_dim, _CONFIG_NAMES)[:3]
        if not explicit:
            ups1 = ups2 = _blank_ancilla(anc_dims[0])
        result = minimize_relative_error(rho1, rho2, ups1, ups2, dims=dims, cfg=cfg)
    if args.format == "csv":
        row = [getattr(result, key) for key in _OPTIMIZE_CSV.split(",")]
        _write(_csv_table(_OPTIMIZE_CSV, [row]), args.out)
    else:
        _write(result.to_json(), args.out)
    return 0


# a sweep config's keys, each with its default, whose type is the key's type
_SWEEP_DEFAULTS = {"f_min": 0.0, "f_max": 0.99, "points": 100, "phi": 1.0, "n": 1, "l": 2}
# the most grid points a sweep takes: 10^6 rows already take seconds and
# hundreds of MB, so a larger grid is refused before it is allocated
MAX_POINTS = 10 ** 6


def cmd_sweep(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    _refuse_unknown_keys(doc, _SWEEP_DEFAULTS)
    v = {key: _typed(_pick(getattr(args, key), doc, key, default), key, type(default))
         for key, default in _SWEEP_DEFAULTS.items()}
    for key in ("f_min", "f_max"):  # a non-finite end would fill the grid with nan
        if not math.isfinite(v[key]):
            raise OutOfRange(f"{key}={v[key]} must be finite")
    if not 1 <= v["points"] <= MAX_POINTS:
        raise OutOfRange(f"points={v['points']} outside [1, {MAX_POINTS}]")
    grid = np.linspace(v["f_min"], v["f_max"], v["points"])
    rows = sweep_bound(grid, v["phi"], v["n"], v["l"])
    text = sweep_to_json(rows) if args.format == "json" else sweep_to_csv(rows)
    _write(text, args.out)
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "bound": cmd_bound,
    "purify": cmd_purify,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse already wrote the usage diagnostic
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:  # a CloneboundError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
