import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

from prolongkit import checks, cli
from prolongkit import matrices as mat
from prolongkit.cli import main
from prolongkit.diffmod import dsum
from prolongkit.exprparse import parse_expr, render_matrix
from prolongkit.solspace import xt_example

from dense_reference import add

XT_DOC = '{"name": "xt", "n": 1, "matrix": [["t/x"]]}'
CONST_DOC = '{"n": 2, "matrix": [["0", "1"], ["0", "0"]]}'
CONST_SOL = '{"n": 2, "matrix": [["x", "1"], ["1", "0"]]}'


@pytest.fixture
def xt_file(tmp_path):
    p = tmp_path / "xt.json"
    p.write_text(XT_DOC)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


def test_prolong_binomial(capsys, xt_file):
    code, report, err = run(capsys, "prolong", xt_file, "-i", "2")
    assert code == 0
    assert report["outcome"] == "result"
    assert report["result"]["matrix"] == [
        ["t/x", "0", "0"],
        ["1/x", "t/x", "0"],
        ["0", "2/x", "t/x"],
    ]
    assert "prolong" in err


def test_prolong_kinds_differ_at_block_1_0(capsys, xt_file):
    _, binom, _ = run(capsys, "prolong", xt_file, "-i", "2")
    _, lemma, _ = run(capsys, "prolong", xt_file, "-i", "2", "--kind", "lemma")
    assert binom["result"]["matrix"][1][0] == "1/x"
    assert lemma["result"]["matrix"][1][0] == "2/x"


def test_prolong_iterated(capsys, xt_file):
    code, report, _ = run(capsys, "prolong", xt_file, "-i", "2",
                          "--kind", "iterated")
    assert code == 0
    assert report["result"]["n"] == 4


def test_prolong_order_zero_echoes(capsys, xt_file):
    for kind in ("binomial", "lemma", "iterated"):
        code, report, _ = run(capsys, "prolong", xt_file, "-i", "0",
                              "--kind", kind)
        assert code == 0
        assert report["result"]["matrix"] == [["t/x"]]


def test_verify_example_passes(capsys, xt_file):
    code, report, _ = run(capsys, "verify", xt_file, "-i", "2",
                          "--example", "xt")
    assert code == 0
    assert report["outcome"] == "pass"
    assert report["result"]["first_mismatch"] is None


def test_verify_stripped_fails_with_witness(capsys, xt_file):
    code, report, _ = run(capsys, "verify", xt_file, "-i", "2",
                          "--example", "xt", "--strip-binomials")
    assert code == 1
    assert report["outcome"] == "fail"
    assert report["result"]["first_mismatch"] == [2, 1]
    assert report["result"]["first_mismatch_block"] == [2, 1]
    assert any("block (2,1)" in f for f in report["failures"])


def test_verify_solution_file(capsys, tmp_path):
    mod = tmp_path / "const.json"
    mod.write_text(CONST_DOC)
    sol = tmp_path / "sol.json"
    sol.write_text(CONST_SOL)
    code, report, _ = run(capsys, "verify", str(mod), "-i", "2",
                          "--solution", str(sol))
    assert code == 0
    assert report["outcome"] == "pass"


def _dense_pair(tmp_path, n):
    """A dense n x n module and its fundamental solution Y = theta * P, with
    P = L U for unitriangular polynomial L, U and A = P_x P^-1 + (t/x) I."""
    cycle = ("x", "t", "1", "x + t", "x*t")

    def pmat(entry):
        return [[parse_expr(entry(r, c)) for c in range(n)] for r in range(n)]

    L = pmat(lambda r, c: "1" if r == c else "0" if r < c
             else cycle[(r + c) % 5])
    U = pmat(lambda r, c: "1" if r == c else "0" if r > c
             else cycle[(r * c + 1) % 5])
    P = mat.mul(L, U)
    A = add(mat.mul(mat.deriv(P, "x"), mat.inverse(P)),
            mat.scale(mat.identity(n), parse_expr("t/x")))
    mod = tmp_path / "dense.json"
    mod.write_text(json.dumps({"n": n, "matrix": render_matrix(A)}))
    sol = tmp_path / "dense_sol.json"
    sol.write_text(json.dumps({"n": n, "matrix": [
        [f"theta*({e})" for e in row] for row in render_matrix(P)]}))
    assert all(not e.is_zero for row in P for e in row)
    return str(mod), str(sol)


def _timed_verify(capsys, mod, i, sol, *flags):
    start = time.perf_counter()
    code, report, _ = run(capsys, "verify", mod, "-i", str(i),
                          "--solution", sol, *flags)
    return code, report, time.perf_counter() - start


def test_verify_dense_order_3_within_budget(capsys, tmp_path):
    # Y_3 is 16x16 and splits into four 4x4 diagonal blocks Y
    mod, sol = _dense_pair(tmp_path, 4)
    code, report, elapsed = _timed_verify(capsys, mod, 3, sol)
    assert code == 0 and report["outcome"] == "pass"
    assert elapsed < 1.0, f"verify -i 3 took {elapsed:.3f}s, budget 1s"
    code, report, _ = run(capsys, "verify", mod, "-i", "3", "--solution", sol,
                          "--strip-binomials")
    assert code == 1 and report["outcome"] == "fail"
    assert report["result"]["first_mismatch_block"] == [2, 1]
    assert report["result"]["det_ok"] is True


def test_verify_dense_9x9_order_0_within_budget(capsys, tmp_path):
    mod, sol = _dense_pair(tmp_path, 9)
    code, report, elapsed = _timed_verify(capsys, mod, 0, sol)
    assert code == 0 and report["outcome"] == "pass"
    assert elapsed < 1.0, f"verify -i 0 took {elapsed:.3f}s, budget 1s"


def test_verify_singular_9x9_solution_fails_within_budget(capsys, tmp_path):
    # Y = theta * C(t) solves the 9-fold direct sum of xt, and the last row
    # of C is t times the first plus the second, so det(Y) = 0
    n = 9
    xt = M = xt_example()[0]
    for _ in range(n - 1):
        M = dsum(M, xt)
    C = [[f"t^{(r * c) % 3} + {r + c}" for c in range(n)] for r in range(n - 1)]
    C.append([f"t*({a}) + {b}" for a, b in zip(C[0], C[1])])
    mod = tmp_path / "sum.json"
    mod.write_text(json.dumps({"n": n, "matrix": render_matrix(M.A)}))
    sol = tmp_path / "singular_sol.json"
    sol.write_text(json.dumps({"n": n, "matrix": [
        [f"theta*({e})" for e in row] for row in C]}))
    code, report, elapsed = _timed_verify(capsys, str(mod), 0, str(sol))
    assert code == 1 and report["outcome"] == "fail"
    assert report["result"]["derivative_ok"] is True
    assert report["result"]["det_ok"] is False
    assert elapsed < 1.0, f"verify -i 0 took {elapsed:.3f}s, budget 1s"


def test_verify_unrepresentable_solution_is_input_error(capsys, tmp_path):
    mod = tmp_path / "m.json"
    mod.write_text(XT_DOC)
    sol = tmp_path / "bad.json"
    sol.write_text('{"n": 1, "matrix": [["1/theta"]]}')
    code = main(["verify", str(mod), "-i", "1", "--solution", str(sol)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "error" in out.err


def test_solution_of_the_wrong_size_is_input_error(capsys, tmp_path):
    mod = tmp_path / "m.json"
    mod.write_text(CONST_DOC)
    sol = tmp_path / "s.json"
    sol.write_text('{"n": 1, "matrix": [["x"]]}')
    code = main(["verify", str(mod), "-i", "1", "--solution", str(sol)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: solution is 1x1 but the module needs 2x2\n"


def test_missing_file_is_input_error(capsys):
    code = main(["prolong", "/nonexistent/m.json", "-i", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert "error" in out.err


def test_malformed_module_is_input_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "matrix": [["0"]]}')
    code = main(["prolong", str(p), "-i", "1"])
    assert code == 2
    capsys.readouterr()


def test_unknown_check_is_usage_error(capsys):
    code = main(["check", "nonsense"])
    assert code == 2
    capsys.readouterr()


def test_check_conjugation_small(capsys):
    code, report, _ = run(capsys, "check", "conjugation", "--n", "2",
                          "--i", "2", "--seed", "7", "--cases", "5")
    assert code == 0
    assert report["outcome"] == "pass"
    assert report["result"]["cases"] == 5
    assert report["inputs"]["seed"] == 7


def test_check_stdout_is_byte_stable(capsys):
    code1, _, _ = run(capsys, "check", "exactness", "--seed", "3",
                      "--cases", "4")
    out1 = main(["check", "exactness", "--seed", "3", "--cases", "4"])
    first = capsys.readouterr()
    main(["check", "exactness", "--seed", "3", "--cases", "4"])
    second = capsys.readouterr()
    assert first.out == second.out
    assert code1 == out1 == 0


def test_seed_env_var_used_as_default(capsys, monkeypatch):
    monkeypatch.setenv("PROLONGKIT_SEED", "99")
    _, with_env, _ = run(capsys, "check", "exactness", "--cases", "3")
    monkeypatch.delenv("PROLONGKIT_SEED")
    _, explicit, _ = run(capsys, "check", "exactness", "--seed", "99",
                         "--cases", "3")
    assert with_env == explicit


def test_bad_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PROLONGKIT_SEED", "not-a-number")
    code = main(["check", "exactness", "--cases", "2"])
    assert code == 2
    capsys.readouterr()


def test_check_exactness_from_file(capsys, xt_file):
    code, report, _ = run(capsys, "check", "exactness", "--file", xt_file)
    assert code == 0
    assert report["result"]["cases"] == 1
    # the file's module is the one case, so no seed or draw size is used
    assert report["inputs"]["seed"] is None
    assert report["result"]["details"] == {}


def test_check_from_a_file_reads_no_seed_env_var(capsys, monkeypatch,
                                                 xt_file):
    monkeypatch.setenv("PROLONGKIT_SEED", "abc")
    code, report, _ = run(capsys, "check", "exactness", "--file", xt_file)
    assert code == 0
    assert report["inputs"]["seed"] is None


def test_check_hopf(capsys):
    code, report, _ = run(capsys, "check", "hopf", "--group", "ga",
                          "--order", "3")
    assert code == 0
    assert report["result"]["details"]["printed_antipode_first_conflict"] == 1
    code2, report2, _ = run(capsys, "check", "hopf", "--group", "gm",
                            "--order", "4")
    assert code2 == 0
    assert report2["result"]["details"]["printed_antipode_first_conflict"] is None


def test_check_hopf_requires_group(capsys):
    code = main(["check", "hopf"])
    assert code == 2
    capsys.readouterr()


def test_tensor_command(capsys, tmp_path, xt_file):
    code, report, _ = run(capsys, "tensor", xt_file, xt_file)
    assert code == 0
    assert report["result"]["matrix"] == [["2*t/x"]]


def test_dual_command(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"n": 2, "matrix": [["0", "x"], ["t", "0"]]}')
    code, report, _ = run(capsys, "dual", str(p))
    assert code == 0
    assert report["result"]["matrix"] == [["0", "-t"], ["-x", "0"]]


def test_dsum_command(capsys, tmp_path, xt_file):
    code, report, _ = run(capsys, "dsum", xt_file, xt_file)
    assert code == 0
    assert report["result"]["matrix"] == [["t/x", "0"], ["0", "t/x"]]


@pytest.mark.parametrize("argv, code, label", [
    (["prolong", "XT", "-i", "2"], 0, "prolong"),
    (["verify", "XT", "-i", "2", "--example", "xt"], 0, "verify"),
    (["verify", "XT", "-i", "2", "--example", "xt", "--strip-binomials"], 1,
     "verify"),
    (["check", "hopf", "--group", "ga"], 0, "check hopf"),
    (["check", "conjugation", "--cases", "1"], 0, "check conjugation"),
    (["tensor", "XT", "XT"], 0, "tensor"),
    (["dual", "XT"], 0, "dual"),
    (["dsum", "XT", "XT"], 0, "dsum"),
])
def test_every_command_writes_one_report_and_one_timed_line(
        capsys, xt_file, argv, code, label):
    got = main([xt_file if a == "XT" else a for a in argv])
    out = capsys.readouterr()
    assert got == code
    assert json.loads(out.out)["command"] == argv[0]
    assert re.fullmatch(rf"{re.escape(label)}: .* in \d+\.\d{{3}}s\n",
                        out.err), out.err


@pytest.mark.parametrize("name, argv", [
    ("prolong", ["prolong", "XT", "-i", "2"]),
    ("prolong_lemma", ["prolong", "XT", "-i", "2", "--kind", "lemma"]),
    ("iterate_F", ["prolong", "XT", "-i", "2", "--kind", "iterated"]),
    ("tensor", ["tensor", "XT", "XT"]),
    ("dual", ["dual", "XT"]),
    ("dsum", ["dsum", "XT", "XT"]),
    ("verify_fundamental", ["verify", "XT", "-i", "2", "--example", "xt"]),
    ("check_exactness", ["check", "exactness", "--cases", "1"]),
])
def test_commands_look_their_functions_up_when_called(
        capsys, monkeypatch, xt_file, name, argv):
    # a tracer that rebinds the module's globals must see every call; `check`
    # finds its suite in checks by name
    owner = checks if name.startswith("check_") else cli
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    assert main([xt_file if a == "XT" else a for a in argv]) == 0
    capsys.readouterr()
    assert calls == [name]


def test_negative_order_rejected(capsys, xt_file):
    code = main(["prolong", xt_file, "-i", "-1"])
    assert code == 2
    capsys.readouterr()


def test_commands_repeat_in_one_process(capsys, tmp_path, xt_file):
    # the argument parser is built once and shared by every later call
    mod = tmp_path / "m.json"
    mod.write_text('{"n": 2, "matrix": [["0", "x"], ["t", "1/x"]]}')
    commands = [
        ["check", "nonsense"],
        ["prolong", xt_file, "-i", "2"],
        ["dual", str(mod)],
        ["verify", xt_file, "-i", "2", "--example", "xt"],
        ["check", "hopf", "--group", "ga"],
        ["tensor", xt_file, str(mod)],
    ]
    first = []
    for argv in commands:
        code = main(list(argv))
        first.append((code, capsys.readouterr().out))
    assert [code for code, _ in first] == [2, 0, 0, 0, 0, 0]
    assert first[0][1] == ""
    for argv, want in zip(commands + commands[1:2], first + first[1:2]):
        code = main(list(argv))
        assert (code, capsys.readouterr().out) == want, argv


@pytest.mark.parametrize("argv", [
    ["check", "conjugation", "--cases", "-3", "--n", "0"],
    ["check", "conjugation", "--i", "-1"],
    ["check", "exactness", "--n", "0"],
    ["check", "product-rule", "--n", "0"],
    ["check", "dual-swap", "--cases", "0"],
    ["check", "embedding", "--n", "0", "--cases", "2"],
    ["check", "hopf", "--group", "ga", "--order", "0"],
])
def test_check_options_out_of_range_are_usage_errors(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("argv, option", [
    (["check", "hopf", "--group", "ga", "--seed", "5", "--cases", "7"], "--seed"),
    (["check", "conjugation", "--cases", "2", "--file", "/nonexistent.json",
      "--group", "ga", "--order", "9"], "--group"),
    (["check", "embedding", "--i", "1"], "--i"),
    (["check", "dual-swap", "--file", "/nonexistent.json"], "--file"),
])
def test_check_options_the_suite_does_not_take_are_usage_errors(
        capsys, argv, option):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: check {argv[1]} does not take {option}\n"


@pytest.mark.parametrize("argv, option", [
    (["--cases", "5"], "--cases"),
    (["--n", "3"], "--n"),
    (["--seed", "4"], "--seed"),
    (["--cases", "5", "--n", "3", "--seed", "4"], "--n"),
])
def test_check_from_a_file_rejects_the_draw_options(capsys, xt_file, argv,
                                                    option):
    code = main(["check", "exactness", "--file", xt_file, *argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: check exactness --file does not take {option}\n"


@pytest.mark.parametrize("entry", [
    "(" * 5000 + "x" + ")" * 5000,
    "-" * 5000 + "x",
    "x^" + "(" * 5000 + "2" + ")" * 5000,
], ids=["parentheses", "unary-minus", "exponent"])
def test_deeply_nested_entry_is_input_error(capsys, tmp_path, entry):
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({"n": 1, "matrix": [[entry]]}))
    code = main(["prolong", str(p), "-i", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith(f"error: {p}: entry (0,0): ")
    assert "nests deeper" in out.err and out.err.count("\n") == 1


# the error line and exit code of each bad entry at (0,1); both loaders share
# one entry loop, and both lines name the file at fault
BAD_ENTRY_ERRORS = {
    ("x +* t", "module"):
        "error: {path}: entry (0,1): unexpected token '*' (byte 3)",
    ("x +* t", "solution"):
        "error: {path}: entry (0,1): unexpected token '*' (byte 3)",
    ("x + y", "module"):
        "error: {path}: entry (0,1): unknown variable 'y' (byte 4)",
    ("x + y", "solution"):
        "error: {path}: entry (0,1): unknown variable 'y' (byte 4)",
    ("x/(t - t)", "module"):
        "error: {path}: entry (0,1): division by a zero expression (byte 1)",
    ("x/(t - t)", "solution"):
        "error: {path}: entry (0,1): division by a zero expression (byte 1)",
    ("x/theta", "module"):
        "error: {path}: entry (0,1): unknown variable 'theta' (byte 2)",
    ("x/theta", "solution"):
        "error: {path}: entry (0,1): division by a theta/lam expression is "
        "outside the term algebra",
    # an entry with an evaluation error and a later syntax error reports
    # the syntax error
    ("x/(t - t) )", "module"):
        "error: {path}: entry (0,1): unexpected token ')' (byte 10)",
    ("x/(t - t) )", "solution"):
        "error: {path}: entry (0,1): unexpected token ')' (byte 10)",
    ("(x - x)^-1 + y", "module"):
        "error: {path}: entry (0,1): unknown variable 'y' (byte 13)",
    ("(x - x)^-1 + y", "solution"):
        "error: {path}: entry (0,1): unknown variable 'y' (byte 13)",
    ("1/theta +", "module"):
        "error: {path}: entry (0,1): unknown variable 'theta' (byte 2)",
    ("1/theta +", "solution"):
        "error: {path}: entry (0,1): unexpected end of input (byte 9)",
    ("x/(lam - lam) + x^t", "module"):
        "error: {path}: entry (0,1): unknown variable 'lam' (byte 3)",
    ("x/(lam - lam) + x^t", "solution"):
        "error: {path}: entry (0,1): exponent must be an integer literal "
        "(byte 18)",
    ("x^(2", "module"):
        "error: {path}: entry (0,1): expected ')' in exponent, got '' (byte 4)",
    ("x^(2", "solution"):
        "error: {path}: entry (0,1): expected ')' in exponent, got '' (byte 4)",
    ("x^2^64", "module"):
        "error: {path}: entry (0,1): exponent too large (byte 3)",
    ("x^2^64", "solution"):
        "error: {path}: entry (0,1): exponent too large (byte 3)",
}


@pytest.mark.parametrize("entry, doc", list(BAD_ENTRY_ERRORS),
                         ids=[f"{d}-{e}" for e, d in BAD_ENTRY_ERRORS])
def test_bad_document_entry_error_line(capsys, tmp_path, entry, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "matrix": [["t/x", entry], ["1", "0"]]}))
    if doc == "module":
        argv = ["prolong", str(bad), "-i", "1"]
    else:
        mod = tmp_path / "m.json"
        mod.write_text(CONST_DOC)
        argv = ["verify", str(mod), "-i", "1", "--solution", str(bad)]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == BAD_ENTRY_ERRORS[entry, doc].format(path=bad) + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", "{bad}", "-i", "1", "--example", "xt"],
    ["tensor", "{good}", "{bad}"],
    ["tensor", "{bad}", "{good}"],
    ["dsum", "{good}", "{bad}"],
    ["dual", "{bad}"],
    ["check", "exactness", "--file", "{bad}"],
], ids=["verify", "tensor-second", "tensor-first", "dsum", "dual", "check"])
def test_every_command_names_the_bad_module_file(capsys, tmp_path, argv):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": 1, "matrix": [["t/x"]]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "matrix": [["x +* t"]]}))
    code = main([a.format(good=good, bad=bad) for a in argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == (f"error: {bad}: entry (0,0): unexpected token '*' "
                       "(byte 3)\n")


def test_flat_sum_entry_evaluates(capsys, tmp_path):
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({"n": 1, "matrix": [["+".join(["x"] * 3000)]]}))
    code, report, _ = run(capsys, "prolong", str(p), "-i", "0")
    assert code == 0
    assert report["result"]["matrix"] == [["3000*x"]]


LONG_LITERAL = "7" * 5000


@pytest.mark.parametrize("entry, offset", [
    (LONG_LITERAL, 0), (f"x^{LONG_LITERAL}", 2), (f"1/(x - {LONG_LITERAL})", 7),
], ids=["atom", "exponent", "denominator"])
@pytest.mark.parametrize("doc", ["module", "solution"])
def test_too_long_integer_literal_is_input_error(capsys, tmp_path, entry,
                                                 offset, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "matrix": [[entry]]}))
    if doc == "module":
        argv = ["prolong", str(bad), "-i", "1"]
    else:
        mod = tmp_path / "m.json"
        mod.write_text('{"n": 1, "matrix": [["0"]]}')
        argv = ["verify", str(mod), "-i", "1", "--solution", str(bad)]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == (f"error: {bad}: entry (0,0): integer literal of more "
                       f"than 4300 digits (byte {offset})\n")


@pytest.mark.parametrize("argv", [
    ["prolong", "{big}", "-i", "1"],
    ["dual", "{big}"],
    ["tensor", "{big}", "{big}"],
    ["dsum", "{big}", "{big}"],
], ids=["prolong", "dual", "tensor", "dsum"])
def test_result_too_long_to_print_is_input_error(capsys, tmp_path, argv):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 1, "matrix": [["7^6000"]]}))
    code = main([a.format(big=big) for a in argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == ("error: result has an integer too long to print "
                       "(more than 4300 digits)\n")


def test_solution_with_a_huge_value_verifies(capsys, tmp_path):
    # the value is never printed, so its size is no error
    mod = tmp_path / "m.json"
    mod.write_text('{"n": 1, "matrix": [["0"]]}')
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"n": 1, "matrix": [["7^6000"]]}))
    code, report, _ = run(capsys, "verify", str(mod), "-i", "1",
                          "--solution", str(sol))
    assert code == 0
    assert report["outcome"] == "pass"


def _src_env():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "prolongkit", "check", "hopf", "--group", "gm"],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "pass"


def test_a_lower_interpreter_digit_limit_is_an_input_error(tmp_path):
    env = dict(_src_env(), PYTHONINTMAXSTRDIGITS="1000")
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"n": 1, "matrix": [["7" * 2000]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "prolongkit", "prolong", "-i", "1", str(doc)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {doc}: entry (0,0): integer literal of "
                           "more than 1000 digits (byte 0)\n")


def _prolong_into(stdout, xt_file, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "prolongkit", "prolong", "-i", "2", xt_file],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=_src_env(),
        timeout=60, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_disk_is_an_output_error(xt_file):
    with open("/dev/full", "w") as full:
        proc = _prolong_into(full, xt_file)
    assert proc.returncode == 2
    assert proc.stderr == ("error: cannot write the report: "
                           f"{os.strerror(errno.ENOSPC)}\n")


def test_a_closed_pipe_is_an_output_error(xt_file):
    # the read end is closed before the command starts, so its first write
    # finds no reader
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _prolong_into(write, xt_file)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == ("error: cannot write the report: "
                           f"{os.strerror(errno.EPIPE)}\n")


def test_a_closed_stdout_is_an_output_error(xt_file):
    # fd 1 closed before the interpreter starts, as by `>&-` in a shell
    proc = _prolong_into(None, xt_file, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == ("error: cannot write the report: "
                           f"{os.strerror(errno.EBADF)}\n")


_HELP_ARGVS = {"top": ["--help"], "prolong": ["prolong", "--help"]}


def _help_into(stdout, argv):
    return subprocess.run([sys.executable, "-m", "prolongkit", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=dict(_src_env(), COLUMNS="80"), timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", _HELP_ARGVS.values(), ids=_HELP_ARGVS)
def test_help_into_a_full_disk_is_an_output_error(argv):
    with open("/dev/full", "w") as full:
        proc = _help_into(full, argv)
    assert proc.returncode == 2
    assert proc.stderr == ("error: cannot write the help: "
                           f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv", _HELP_ARGVS.values(), ids=_HELP_ARGVS)
def test_help_to_a_working_stdout_exits_0(argv, monkeypatch):
    proc = _help_into(subprocess.PIPE, argv)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith(
        " ".join(["usage: prolongkit", *argv[:-1], "[-h]"]))
    if argv == ["--help"]:
        monkeypatch.setenv("COLUMNS", "80")
        assert proc.stdout == cli._parser().format_help()


# a summary or an error line that stderr cannot take is an output error too:
# exit 2, with the report, where there is one, still on stdout in full
_STDERR_CASES = {
    "prolong": (["prolong", "-i", "1", "{xt}"], "result"),
    "missing-file": (["prolong", "-i", "1", "{missing}"], None),
    "verify-stripped": (["verify", "-i", "3", "--example", "xt",
                         "--strip-binomials", "{xt}"], "fail"),
}


def _run_with_stderr(case, xt_file, tmp_path, **stderr):
    argv, outcome = _STDERR_CASES[case]
    argv = [a.format(xt=xt_file, missing=tmp_path / "missing.json")
            for a in argv]
    proc = subprocess.run([sys.executable, "-m", "prolongkit", *argv],
                          stdout=subprocess.PIPE, text=True, env=_src_env(),
                          timeout=60, **stderr)
    assert proc.returncode == 2
    if outcome is None:
        assert proc.stdout == ""
    else:
        assert json.loads(proc.stdout)["outcome"] == outcome


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("case", _STDERR_CASES)
def test_stderr_on_a_full_disk_is_an_output_error(case, xt_file, tmp_path):
    with open("/dev/full", "w") as full:
        _run_with_stderr(case, xt_file, tmp_path, stderr=full)


@pytest.mark.parametrize("case", _STDERR_CASES)
def test_stderr_into_a_closed_pipe_is_an_output_error(case, xt_file,
                                                      tmp_path):
    read, write = os.pipe()
    os.close(read)
    try:
        _run_with_stderr(case, xt_file, tmp_path, stderr=write)
    finally:
        os.close(write)


@pytest.mark.parametrize("case", _STDERR_CASES)
def test_a_closed_stderr_is_an_output_error(case, xt_file, tmp_path):
    # fd 2 closed before the interpreter starts, as by `2>&-` in a shell
    _run_with_stderr(case, xt_file, tmp_path, preexec_fn=lambda: os.close(2))


# json.loads raises a RecursionError for deep nesting and a plain ValueError
# for an integer past the interpreter's limit on str -> int conversion, not
# a JSONDecodeError.  The nesting is far past what the C decoder accepts on
# any supported Python, whose limits differ by version
DEEP_DOC = b"[" * 100_000 + b"]" * 100_000
LONG_INT_DOC = (b'{"n": ' + b"1" * (sys.get_int_max_str_digits() + 1)
                + b', "matrix": [["x"]]}')


@pytest.mark.parametrize("doc", ["module", "solution"])
@pytest.mark.parametrize("data, error", [
    (DEEP_DOC, "document is not valid JSON: "),
    (LONG_INT_DOC, "document is not valid JSON: "),
    (b'{"n": 1, "matrix": [["x\xff"]]}', "document is not valid UTF-8: "),
], ids=["deep", "long-int", "utf8"])
def test_hostile_json_is_an_input_error(capsys, tmp_path, data, error, doc):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    if doc == "module":
        argv = ["prolong", str(bad), "-i", "1"]
    else:
        mod = tmp_path / "m.json"
        mod.write_text(CONST_DOC)
        argv = ["verify", str(mod), "-i", "1", "--solution", str(bad)]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith(f"error: {bad}: {error}")
    assert out.err.count("\n") == 1

# exit-code contract: any argv over small documents exits 0, 1 or 2 and never
# with a traceback.  Integer options stay small to bound the work.
_ENTRIES = ("0", "1", "x", "t", "t/x", "1/x", "x^2-t", "1/(x-t)", "(x+t)^-2",
            "theta", "lam", "theta*x", "1/theta", "lam^-1")
_BAD_ENTRIES = ("x^", "(", "", "1/0", "x/(t-t)", "2^-1.5", "q", "x^99999999",
                "1/0 )")
_SHAPES = (b"", b"[]", b"not json", b"\xff", b'{"n": 0, "matrix": []}',
           b'{"n": 1, "matrix": [[1]]}', b'{"n": 2, "matrix": [["0"]]}',
           b'{"n": true, "matrix": [["0"]]}', b'{"n": 1, "matrix": [["x"]], '
           b'"name": 3}', DEEP_DOC, LONG_INT_DOC)
# one_of draws its branches about equally often, so a branch listed three
# times weights well-formed input three to one and most documents reach the
# mathematics
_entry = st.one_of(*[st.sampled_from(_ENTRIES)] * 3,
                   st.sampled_from(_BAD_ENTRIES))
_matrix_docs = st.integers(1, 2).flatmap(lambda n: st.lists(
    st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda m: json.dumps({"n": n, "matrix": m}).encode()))
_docs = st.one_of(*[_matrix_docs] * 3, st.sampled_from(_SHAPES))
_FILES = st.sampled_from(["A", "B", "MISSING"])
_SMALL = st.sampled_from(["1", "2", "0", "3", "-1", "x"])
_TOKENS = ("prolong", "verify", "check", "tensor", "dual", "dsum", "hopf",
           "exactness", "conjugation", "-i", "--i", "--n", "--kind", "lemma",
           "--example", "xt", "--solution", "--strip-binomials", "--group",
           "ga", "--order", "--cases", "--seed", "--file", "A", "B",
           "MISSING", "-1", "0", "2", "--help", "--")


def _option(flag, values):
    return values.map(lambda v: [flag, v])


def _tokens(*parts):
    """An argv strategy: the concatenation of parts, each drawing a list of
    tokens."""
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


_file = _FILES.map(lambda f: [f])
_check_options = st.lists(st.one_of(
    _option("--n", _SMALL), _option("--i", _SMALL), _option("--seed", _SMALL),
    _option("--group", st.sampled_from(["ga", "gm", "gx"])),
    _option("--order", _SMALL), _option("--file", _FILES)),
    max_size=3).map(lambda opts: [tok for o in opts for tok in o])
_argvs = st.one_of(
    _tokens(st.just(["prolong"]), _file, _option("-i", _SMALL),
            st.sampled_from([[], ["--kind", "lemma"], ["--kind", "iterated"],
                             ["--kind", "nope"]])),
    _tokens(st.just(["verify"]), _file, _option("-i", _SMALL),
            st.one_of(_option("--example", st.sampled_from(["xt", "yt"])),
                      _option("--solution", _FILES)),
            st.sampled_from([[], ["--strip-binomials"]])),
    # --cases always comes with a suite, so no example runs a default of
    # 50 or 100 cases
    _tokens(st.just(["check"]),
            st.sampled_from(["conjugation", "embedding", "exactness",
                             "product-rule", "dual-swap", "nope"]).map(
                                 lambda n: [n]),
            _option("--cases", _SMALL), _check_options),
    _tokens(st.just(["check", "hopf"]), _check_options),
    _tokens(st.sampled_from(["tensor", "dsum", "dual"]).map(lambda c: [c]),
            _file, st.lists(_FILES, max_size=2)),
    st.lists(st.sampled_from(_TOKENS) | st.text(max_size=4), max_size=6))


@hypothesis.given(_argvs, _docs, _docs)
@hypothesis.settings(deadline=None, max_examples=300)
def test_exit_code_contract(argv, doc_a, doc_b):
    with tempfile.TemporaryDirectory() as d:
        paths = {"MISSING": os.path.join(d, "missing.json")}
        for name, doc in (("A", doc_a), ("B", doc_b)):
            paths[name] = os.path.join(d, name + ".json")
            with open(paths[name], "wb") as fh:
                fh.write(doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(tok, tok) for tok in argv])
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
