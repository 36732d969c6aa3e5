"""Command-line front end.

Each command maps the parsed arguments to a report, a summary and an exit
code, and does no I/O of its own.  main is the one place that reads the
clock and writes output: the report to stdout as JSON with sorted keys and
no volatile fields, so a given invocation is byte-stable, and a one-line
summary with its timing to stderr.  Exit codes: 0 success, 1 a mathematical
check failed, 2 usage, input or output errors: an output error is a report,
summary, error line or help text that its stream cannot take, closed or
full.

Only `check` loads the check suites, and only `check hopf` the Hopf
algebras, so `prolong`, `verify`, `tensor`, `dual` and `dsum` import
neither.  Every command looks its function up by name when it runs, so a
rebinding of the module's globals (or of the suites in `checks`) sees
every call.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time

from .diffmod import dsum, dual, iterate_F, prolong, prolong_lemma, tensor
from .exprparse import ExprError, ModuleDocError, load_module, render_matrix
from .solspace import (UnrepresentableSolutionError,
                       build_fundamental_prolongation, load_solution,
                       unweighted_prolongation, verify_fundamental,
                       xt_example)

DEFAULT_SEED = 271828


class InputError(Exception):
    """Anything wrong with what the user handed us; exits with code 2."""


def _load(path: str, load=load_module):
    """What load makes of the document at path, a module by default; an
    unreadable file or an error in the document names the file."""
    try:
        with open(path, "rb") as fh:
            return load(fh.read())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e
    except ModuleDocError as e:
        raise InputError(f"{path}: {e}") from e


def _module_report(command: str, inputs: dict, out, summary: str):
    """The report of the module out; an integer in it past the interpreter's
    limit on int -> str conversion cannot be printed, an input error."""
    try:
        result = {"n": out.n, "matrix": render_matrix(out.A)}
    except ValueError as e:
        raise InputError("result has an integer too long to print (more "
                         f"than {sys.get_int_max_str_digits()} digits)") from e
    report = {"command": command, "inputs": inputs, "outcome": "result",
              "result": result}
    return report, f"{command}: {summary}", 0


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


# commands: each maps the parsed arguments to (report, summary, exit code)

def cmd_prolong(args):
    M = _load(args.file)
    op = {"binomial": prolong, "lemma": prolong_lemma,
          "iterated": iterate_F}[args.kind]
    out = op(M, args.i)
    inputs = {"file": args.file, "i": args.i, "kind": args.kind,
              "name": M.name}
    return _module_report("prolong", inputs, out,
                          f"{M.n}x{M.n} -> {out.n}x{out.n} "
                          f"({args.kind}, i={args.i})")


def cmd_verify(args):
    M = _load(args.file)
    if args.example:
        Y = xt_example()[1]
    else:
        Y = _load(args.solution, load_solution)
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
    mismatch = block = None
    failures = []
    if check.first_mismatch is not None:
        r, c = check.first_mismatch
        mismatch, block = [r, c], [r // M.n, c // M.n]
        failures.append(
            f"derivative identity fails first at entry ({r},{c}), "
            f"block ({block[0]},{block[1]})")
    if not check.det_ok:
        failures.append("determinant of the prolonged solution vanishes")
    word = "pass" if check.passed else "fail"
    report = {
        "command": "verify",
        "inputs": {"file": args.file, "i": args.i,
                   "example": args.example,
                   "solution": args.solution,
                   "strip_binomials": args.strip_binomials,
                   "name": M.name},
        "outcome": word,
        "result": {"derivative_ok": check.derivative_ok,
                   "det_ok": check.det_ok, "first_mismatch": mismatch,
                   "first_mismatch_block": block},
        "failures": failures,
    }
    return (report, f"verify: {word} (i={args.i}, {prolonged.n}x"
                    f"{prolonged.n})", 0 if check.passed else 1)


# suite -> (name of its function in checks, option -> keyword argument); a
# seeded suite lists seed
_SUITES = {
    "conjugation": ("check_conjugation",
                    {"cases": "cases", "n": "max_n", "i": "max_i",
                     "seed": "seed"}),
    "embedding": ("check_embedding",
                  {"cases": "cases", "n": "n", "seed": "seed"}),
    "exactness": ("check_exactness",
                  {"cases": "cases", "n": "max_n", "file": "module",
                   "seed": "seed"}),
    "product-rule": ("check_product_rule",
                     {"cases": "cases", "n": "max_n", "seed": "seed"}),
    "dual-swap": ("check_dual_swap",
                  {"cases": "cases", "n": "max_n", "seed": "seed"}),
    "hopf": ("check_hopf", {"group": "group", "order": "order"}),
}

# every option of `check`, with its add_argument keywords; a suite rejects
# those its entry above does not list
_CHECK_OPTIONS = {"n": {"type": int}, "i": {"type": int},
                  "seed": {"type": int}, "cases": {"type": int},
                  "group": {"choices": ("ga", "gm")}, "order": {"type": int},
                  "file": {"metavar": "FILE"}}

# least accepted value of each integer option of `check`
_CHECK_MINIMA = {"cases": 1, "n": 1, "i": 0, "order": 1}


def cmd_check(args):
    name = args.name
    func_name, options = _SUITES[name]
    for option in _CHECK_OPTIONS:
        if getattr(args, option) is not None and option not in options:
            raise InputError(f"check {name} does not take --{option}")
    # --file's module replaces the random ones and the options that shape them
    drawn = [o for o in ("n", "seed", "cases") if getattr(args, o) is not None]
    if args.file is not None and drawn:
        raise InputError(f"check {name} --file does not take --{drawn[0]}")
    for option, least in _CHECK_MINIMA.items():
        value = getattr(args, option)
        if value is not None and value < least:
            raise InputError(f"--{option} must be >= {least}, got {value}")
    if name == "hopf" and args.group is None:
        raise InputError("check hopf needs --group ga|gm")
    kwargs = {kw: getattr(args, option) for option, kw in options.items()
              if getattr(args, option) is not None}
    if "seed" in options:
        # a module from --file is the one case, so nothing is drawn
        kwargs["seed"] = None if args.file is not None else _resolve_seed(args)
    if "module" in kwargs:
        kwargs["module"] = _load(kwargs["module"])
    from . import checks
    result = getattr(checks, func_name)(**kwargs)
    word = "pass" if result.passed else "fail"
    report = {
        "command": "check",
        "inputs": {"name": name, "seed": result.seed, "group": args.group,
                   "order": args.order, "n": args.n, "i": args.i,
                   "file": args.file},
        "outcome": word,
        "result": {"cases": result.cases, "details": result.details},
        "failures": result.failures,
    }
    return (report, f"check {name}: {word} ({result.cases} cases)",
            0 if result.passed else 1)


def cmd_construct(args):
    """tensor, dual or dsum of the modules at args.a and args.b."""
    op = {"tensor": tensor, "dual": dual, "dsum": dsum}[args.command]
    modules = [_load(p) for p in (args.a, args.b) if p is not None]
    out = op(*modules)
    inputs = {"a": args.a, "a_name": modules[0].name}
    if args.b is not None:
        inputs.update(b=args.b, b_name=modules[1].name)
    return _module_report(args.command, inputs, out, f"-> {out.n}x{out.n}")


# argument plumbing --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subcommands' parsers, whose
    help text that stdout cannot take is an output error: one error line
    and exit 2, where argparse would drop the text and exit 0."""

    def print_help(self, file=None):
        error = _write(sys.stdout if file is None else file,
                       self.format_help())
        if error is not None:
            _write(sys.stderr, "error: cannot write the help: "
                               f"{error.strerror or error}\n")
            self.exit(2)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call: parse_args leaves it unchanged, and help text reads the terminal
    width only when it is formatted."""
    parser = _Parser(
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
    for option, keywords in _CHECK_OPTIONS.items():
        p.add_argument(f"--{option}", **keywords)
    p.set_defaults(func=cmd_check)

    for name, text, operands in (
            ("tensor", "tensor product of two modules", ("a", "b")),
            ("dual", "dual of a module", ("a",)),
            ("dsum", "direct sum of two modules", ("a", "b"))):
        p = sub.add_parser(name, help=text)
        for operand in operands:
            p.add_argument(operand)
        p.set_defaults(func=cmd_construct, b=None)

    return parser


def _write(stream, text: str):
    """Write text to stream and flush it: None, or the OSError that stream
    gave (a closed pipe, a full disk), after which its file descriptor
    points at os.devnull, so the flush at interpreter shutdown raises
    nothing more.  A stream closed when the interpreter started is None."""
    if stream is None:
        return OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(text)
        stream.flush()
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return e
    return None


def main(argv=None) -> int:
    """Run one command: its JSON report goes to stdout and its summary,
    timed, to stderr; an input or output error goes to stderr alone, exit 2.
    A summary that stderr cannot take also exits 2, after the report."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "i", None) is not None and args.command in (
                "prolong", "verify") and args.i < 0:
            raise InputError("order must be >= 0")
        start = time.perf_counter()
        report, summary, code = args.func(args)
    except (InputError, ModuleDocError, ExprError,
            UnrepresentableSolutionError) as e:
        _write(sys.stderr, f"error: {e}\n")
        return 2
    elapsed = time.perf_counter() - start
    error = _write(sys.stdout,
                   json.dumps(report, indent=2, sort_keys=True) + "\n")
    if error is not None:
        _write(sys.stderr, "error: cannot write the report: "
                           f"{error.strerror or error}\n")
        return 2
    return 2 if _write(sys.stderr, f"{summary} in {elapsed:.3f}s\n") else code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
