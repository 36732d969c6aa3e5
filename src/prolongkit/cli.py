"""Command-line front end.

Reports go to stdout as JSON with sorted keys and no volatile fields, so a
given invocation is byte-stable; a one-line human summary (with timing)
goes to stderr.  Exit codes: 0 success, 1 a mathematical check failed,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import checks as checksuite
from . import matrices as mat
from .diffmod import dsum, dual, iterate_F, prolong, prolong_lemma, tensor
from .exprparse import ExprError, ModuleDoc, ModuleDocError, render_matrix
from .solspace import (UnrepresentableSolutionError,
                       build_fundamental_prolongation, load_solution,
                       unweighted_prolongation, verify_fundamental,
                       xt_example)

DEFAULT_SEED = 271828


class InputError(Exception):
    """Anything wrong with what the user handed us; exits with code 2."""


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e


def _load_doc(path: str) -> ModuleDoc:
    try:
        return ModuleDoc.parse(_read_file(path))
    except ModuleDocError as e:
        raise InputError(f"{path}: {e}") from e


def _load_module(path: str):
    try:
        return _load_doc(path).to_module()
    except ModuleDocError as e:
        raise InputError(f"{path}: {e}") from e


def _emit(report: dict, summary: str, code: int) -> int:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(summary + "\n")
    return code


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROLONGKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"PROLONGKIT_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


# commands -----------------------------------------------------------------

def cmd_prolong(args) -> int:
    start = time.perf_counter()
    doc = _load_doc(args.file)
    M = doc.to_module()
    if args.kind == "binomial":
        out = prolong(M, args.i)
    elif args.kind == "lemma":
        out = prolong_lemma(M, args.i)
    else:
        out = iterate_F(M, args.i)
    report = {
        "command": "prolong",
        "inputs": {"file": args.file, "i": args.i, "kind": args.kind,
                   "name": doc.name},
        "outcome": "result",
        "result": {"n": out.n, "matrix": render_matrix(out.A)},
    }
    elapsed = time.perf_counter() - start
    return _emit(report, f"prolong: {M.n}x{M.n} -> {out.n}x{out.n} "
                         f"({args.kind}, i={args.i}) in {elapsed:.3f}s", 0)


def cmd_verify(args) -> int:
    start = time.perf_counter()
    doc = _load_doc(args.file)
    M = doc.to_module()
    if args.example:
        if args.example != "xt":
            raise InputError(f"unknown example {args.example!r}")
        Y = xt_example()[1]
    else:
        try:
            Y = load_solution(_read_file(args.solution))
        except ModuleDocError as e:
            raise InputError(f"{args.solution}: {e}") from e
    if len(Y) != M.n:
        raise InputError(
            f"solution is {len(Y)}x{len(Y[0]) if Y else 0} but the module "
            f"needs {M.n}x{M.n}")
    prolonged = prolong(M, args.i)
    if args.strip_binomials:
        Yi = unweighted_prolongation(Y, args.i)
    else:
        Yi = build_fundamental_prolongation(Y, args.i)
    check = verify_fundamental(prolonged, Yi)
    n = M.n
    failures = []
    if check.first_mismatch is not None:
        r, c = check.first_mismatch
        failures.append(
            f"derivative identity fails first at entry ({r},{c}), "
            f"block ({r // n},{c // n})")
    if not check.det_ok:
        failures.append("determinant of the prolonged solution vanishes")
    report = {
        "command": "verify",
        "inputs": {"file": args.file, "i": args.i,
                   "example": args.example,
                   "solution": args.solution,
                   "strip_binomials": args.strip_binomials,
                   "name": doc.name},
        "outcome": "pass" if check.passed else "fail",
        "result": {
            "derivative_ok": check.derivative_ok,
            "det_ok": check.det_ok,
            "first_mismatch": list(check.first_mismatch)
            if check.first_mismatch else None,
            "first_mismatch_block": [check.first_mismatch[0] // n,
                                     check.first_mismatch[1] // n]
            if check.first_mismatch else None,
        },
        "failures": failures,
    }
    elapsed = time.perf_counter() - start
    word = "pass" if check.passed else "fail"
    return _emit(report, f"verify: {word} (i={args.i}, {prolonged.n}x"
                         f"{prolonged.n}) in {elapsed:.3f}s",
                 0 if check.passed else 1)


# suite -> (function, whether it takes a seed, option -> keyword argument)
_SUITES = {
    "conjugation": (checksuite.check_conjugation, True,
                    {"cases": "cases", "n": "max_n", "i": "max_i"}),
    "embedding": (checksuite.check_embedding, True,
                  {"cases": "cases", "n": "n"}),
    "exactness": (checksuite.check_exactness, True,
                  {"cases": "cases", "n": "max_n", "file": "module"}),
    "product-rule": (checksuite.check_product_rule, True,
                     {"cases": "cases", "n": "max_n"}),
    "dual-swap": (checksuite.check_dual_swap, True,
                  {"cases": "cases", "n": "max_n"}),
    "hopf": (checksuite.check_hopf, False,
             {"group": "group", "order": "order"}),
}

# every option of `check`; a suite rejects those its entry above does not
# list, and --seed when it is not seeded
_CHECK_OPTIONS = ("n", "i", "seed", "cases", "group", "order", "file")

# least accepted value of each integer option of `check`
_CHECK_MINIMA = {"cases": 1, "n": 1, "i": 0, "order": 1}


def cmd_check(args) -> int:
    start = time.perf_counter()
    name = args.name
    func, seeded, options = _SUITES[name]
    for option in _CHECK_OPTIONS:
        if (getattr(args, option) is not None and option not in options
                and not (option == "seed" and seeded)):
            raise InputError(f"check {name} does not take --{option}")
    for option, least in _CHECK_MINIMA.items():
        value = getattr(args, option)
        if value is not None and value < least:
            raise InputError(f"--{option} must be >= {least}, got {value}")
    if name == "hopf" and args.group is None:
        raise InputError("check hopf needs --group ga|gm")
    seed = (_resolve_seed(args),) if seeded else ()
    kwargs = {kw: getattr(args, option) for option, kw in options.items()
              if getattr(args, option) is not None}
    if "module" in kwargs:
        kwargs["module"] = _load_module(kwargs["module"])
    result = func(*seed, **kwargs)
    report = {
        "command": "check",
        "inputs": {"name": name, "seed": result.seed, "group": args.group,
                   "order": args.order, "n": args.n, "i": args.i,
                   "file": args.file},
        "outcome": "pass" if result.passed else "fail",
        "result": {"cases": result.cases, "details": result.details},
        "failures": result.failures,
    }
    elapsed = time.perf_counter() - start
    word = "pass" if result.passed else "fail"
    return _emit(report, f"check {name}: {word} ({result.cases} cases) "
                         f"in {elapsed:.3f}s", 0 if result.passed else 1)


def _binary_command(args, op, label: str) -> int:
    start = time.perf_counter()
    da = _load_doc(args.a)
    db = _load_doc(args.b) if args.b is not None else None
    if db is None:
        out = op(da.to_module())
        inputs = {"a": args.a, "a_name": da.name}
    else:
        out = op(da.to_module(), db.to_module())
        inputs = {"a": args.a, "a_name": da.name, "b": args.b, "b_name": db.name}
    report = {
        "command": label,
        "inputs": inputs,
        "outcome": "result",
        "result": {"n": out.n, "matrix": render_matrix(out.A)},
    }
    elapsed = time.perf_counter() - start
    return _emit(report, f"{label}: -> {out.n}x{out.n} in {elapsed:.3f}s", 0)


# argument plumbing --------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call: parse_args leaves it unchanged, and help text reads the terminal
    width only when it is formatted."""
    parser = argparse.ArgumentParser(
        prog="prolongkit",
        description="Exact prolongation calculus for parameterized linear "
                    "differential systems over Q(x,t).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prolong", help="prolong a module")
    p.add_argument("file")
    p.add_argument("-i", type=int, required=True, metavar="ORDER")
    p.add_argument("--kind", choices=("binomial", "lemma", "iterated"),
                   default="binomial")
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("verify", help="verify a fundamental solution "
                                      "through order i")
    p.add_argument("file")
    p.add_argument("-i", type=int, required=True, metavar="ORDER")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--example", choices=("xt",))
    g.add_argument("--solution", metavar="FILE")
    p.add_argument("--strip-binomials", action="store_true",
                   help="drop the binomial block weights (demonstrates the "
                        "failure from order 2 on)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="run a named check suite")
    p.add_argument("name", choices=tuple(_SUITES))
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cases", type=int)
    p.add_argument("--group", choices=("ga", "gm"))
    p.add_argument("--order", type=int)
    p.add_argument("--file", metavar="FILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tensor", help="tensor product of two modules")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=lambda a: _binary_command(a, tensor, "tensor"))

    p = sub.add_parser("dual", help="dual of a module")
    p.add_argument("a")
    p.set_defaults(b=None)
    p.set_defaults(func=lambda a: _binary_command(a, dual, "dual"))

    p = sub.add_parser("dsum", help="direct sum of two modules")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=lambda a: _binary_command(a, dsum, "dsum"))

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "i", None) is not None and args.command in (
                "prolong", "verify") and args.i < 0:
            raise InputError("order must be >= 0")
        return args.func(args)
    except (InputError, ModuleDocError, ExprError,
            UnrepresentableSolutionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
