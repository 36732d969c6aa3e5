import random

import hypothesis
import hypothesis.strategies as st
import pytest

from prolongkit.exprparse import (MAX_DEPTH, BinOp, EvalError, ExprError,
                                  IntLit, ModuleDoc, ModuleDocError, Neg,
                                  ParseError, Pow, Var, load_module, parse_ast,
                                  parse_expr, render)
from prolongkit.ratfield import MPoly, RatFunc
from prolongkit.sampling import random_ratfunc

X = RatFunc.var_x()
T = RatFunc.var_t()


def test_simple_expressions():
    assert parse_expr("x + t") == X + T
    assert parse_expr("t/x") == T / X
    assert parse_expr("x*t - 1") == X * T - 1
    assert parse_expr("  ( x + t ) * 2 ") == (X + T) * 2


def test_power_binds_tighter_than_unary_minus():
    assert parse_expr("-x^2") == -(X ** 2)
    assert parse_expr("(-x)^2") == X ** 2


def test_power_right_associative_tower():
    assert parse_expr("x^2^3") == X ** 8
    assert parse_expr("2^3^2") == RatFunc.from_int(512)


def test_negative_exponent_lowers_to_division():
    assert parse_expr("x^-1") == 1 / X
    assert parse_expr("(x + t)^-2") == 1 / ((X + T) ** 2)


def test_cancellation_happens_at_eval():
    assert parse_expr("(x^2 - t^2)/(x - t)") == X + T


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as e:
        parse_expr("2x")
    assert e.value.offset == 1


def test_unknown_variable():
    with pytest.raises(ParseError) as e:
        parse_expr("x + y")
    assert e.value.offset == 4


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expr("(x + t")
    with pytest.raises(ParseError):
        parse_expr("x + t)")


def test_non_integer_exponent():
    with pytest.raises(ParseError) as e:
        parse_expr("x^t")
    assert e.value.offset == 2


def test_division_by_zero_expression():
    with pytest.raises(EvalError) as e:
        parse_expr("1/(x - x)")
    assert e.value.offset == 1
    with pytest.raises(EvalError):
        parse_expr("(x+t)/0")


def test_empty_input():
    with pytest.raises(ParseError):
        parse_expr("")


def test_non_ascii_rejected_with_offset():
    # alphabetic unicode tokenizes as a name and is rejected as unknown;
    # symbols are rejected at the tokenizer, both with a byte offset
    with pytest.raises(ParseError) as e:
        parse_expr("x*é")
    assert e.value.offset == 2
    with pytest.raises(ParseError):
        parse_expr("x → t")


def test_exponent_tower_capped():
    with pytest.raises(ParseError):
        parse_expr("2^9^9^9")


def test_render_examples():
    assert render(parse_expr("t/x")) == "t/x"
    assert render(parse_expr("0")) == "0"
    assert render(parse_expr("2/x")) == "2/x"
    assert render(parse_expr("(x^2 - t^2)/(x - t)")) == "x + t"
    assert render(parse_expr("1/(x*t)")) == "1/(x*t)"
    assert render(parse_expr("1/(x + t)")) == "1/(x + t)"


def test_render_roundtrip_seeded():
    rng = random.Random(3)
    for _ in range(200):
        f = random_ratfunc(rng)
        assert parse_expr(render(f)) == f


@hypothesis.given(st.text(max_size=20))
@hypothesis.settings(deadline=None)
def test_parser_total(text):
    # never crashes with anything but the documented error types
    try:
        parse_expr(text)
    except (ParseError, EvalError):
        pass


# the evaluator against a RatFunc-only reference ----------------------------

def reference_eval(node) -> RatFunc:
    """Every AST node evaluated straight to a canonical RatFunc."""
    if isinstance(node, IntLit):
        return RatFunc.from_int(node.value)
    if isinstance(node, Var):
        return RatFunc(MPoly.variable(node.name))
    if isinstance(node, Neg):
        return -reference_eval(node.operand)
    if isinstance(node, BinOp):
        a = reference_eval(node.left)
        b = reference_eval(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b.is_zero:
            raise EvalError("division by a zero expression", node.pos)
        return a / b
    if isinstance(node, Pow):
        base = reference_eval(node.base)
        if node.exponent < 0 and base.is_zero:
            raise EvalError("zero raised to a negative power", node.pos)
        return base ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _combine(parts):
    a, op, b, paren = parts
    text = f"{a} {op} {b}"
    return f"({text})" if paren else text


# leaves include zero-valued expressions so that divisions by zero and
# zero to a negative power come up often
_leaves = st.sampled_from(["x", "t", "0", "1", "2", "3", "x - x", "(t - t)",
                           "2*t"])
_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner, st.booleans())
          .map(_combine),
        st.tuples(inner, st.integers(-3, 3))
          .map(lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(inner, st.integers(-2, 2)).map(lambda p: f"{p[0]}^{p[1]}"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=10)


@hypothesis.given(_exprs)
@hypothesis.settings(deadline=None, max_examples=300)
def test_evaluator_matches_ratfunc_reference(text):
    try:
        want = reference_eval(parse_ast(text))
    except ExprError as e:
        with pytest.raises(ExprError) as got:
            parse_expr(text)
        assert type(got.value) is type(e)
        assert (got.value.message, got.value.offset) == (e.message, e.offset)
        return
    got = parse_expr(text)
    assert isinstance(got, RatFunc)
    assert got == want
    assert render(got) == render(want)


def test_nesting_limit():
    ok = {"(": "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
          "-": "-" * MAX_DEPTH + "x",
          "^": "x^" + "(" * (MAX_DEPTH - 1) + "2" + ")" * (MAX_DEPTH - 1)}
    assert parse_expr(ok["("]) == X
    assert parse_expr(ok["-"]) == X
    assert parse_expr(ok["^"]) == X ** 2
    for text in ("(" + ok["("] + ")", "-" + ok["-"], "(" + ok["^"] + ")",
                 "(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x",
                 "x^" + "2^" * 5000 + "1"):
        with pytest.raises(ParseError) as e:
            parse_expr(text)
        assert "nests deeper" in e.value.message


def test_long_flat_chains_evaluate():
    assert parse_expr("+".join(["x"] * 3000)) == 3000 * X
    assert parse_expr("-".join(["t"] * 3000)) == -2998 * T
    assert parse_expr("*".join(["x"] * 3000)) == X ** 3000
    assert parse_expr("/".join(["x"] * 300)) == X ** -298
    doc = '{"n": 1, "matrix": [["%s"]]}' % "+".join(["x*t"] * 3000)
    assert load_module(doc).A[0][0] == 3000 * X * T


# module documents ---------------------------------------------------------

def test_load_module_roundtrip():
    doc = b'{"name": "xt", "n": 1, "matrix": [["t/x"]]}'
    M = load_module(doc)
    assert M.n == 1
    assert M.A[0][0] == T / X
    assert ModuleDoc.parse(doc).name == "xt"


def test_load_module_bad_json():
    with pytest.raises(ModuleDocError):
        load_module(b"{not json")


def test_load_module_dimension_mismatch():
    with pytest.raises(ModuleDocError):
        load_module(b'{"n": 2, "matrix": [["0"]]}')
    with pytest.raises(ModuleDocError):
        load_module(b'{"n": 2, "matrix": [["0", "0"], ["0"]]}')


def test_load_module_bad_entry_reports_position():
    with pytest.raises(ModuleDocError) as e:
        load_module(b'{"n": 2, "matrix": [["0", "0"], ["0", "1 +"]]}')
    assert e.value.row == 1
    assert e.value.col == 1


def test_load_module_rejects_non_string_entries():
    with pytest.raises(ModuleDocError):
        load_module(b'{"n": 1, "matrix": [[7]]}')


def test_load_module_rejects_bad_n():
    with pytest.raises(ModuleDocError):
        load_module(b'{"n": 0, "matrix": []}')
    with pytest.raises(ModuleDocError):
        load_module(b'{"n": true, "matrix": [["0"]]}')
