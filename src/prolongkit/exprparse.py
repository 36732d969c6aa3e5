"""Parse and render rational-function expressions, and load module files.

Grammar (precedence climbing, low to high):

    expr    := mult (('+' | '-') mult)*
    mult    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' exponent]
    atom    := INT | NAME | '(' expr ')'
    exponent:= ['-'] INT ['^' exponent] | '(' exponent ')'

'^' binds tighter than unary minus, so -x^2 is -(x^2); exponent towers
associate to the right and must reduce to integers at parse time.  There is
no implicit multiplication.  Whitespace is insignificant; errors carry the
byte offset of the offending token.

Nesting is capped at MAX_DEPTH levels: each unary minus, parenthesis or
exponent puts its operand one level deeper, and input that goes deeper is a
ParseError.  Long flat sums and products are not nesting; the parser loops
over them and the evaluator folds them without recursion.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .diffmod import DiffModule
from .ratfield import MPoly, RatFunc


class ExprError(ValueError):
    """Parse or evaluation failure, with a byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.message = message
        self.offset = offset


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


# AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int


# tokenizer ----------------------------------------------------------------

# skipped whitespace, then one token: an ASCII integer or name, an operator,
# any other character (an error) or the end of the text.  Every character a
# token can hold is ASCII, so character offsets are byte offsets
_TOKEN = re.compile(r"[ \t\r\n]*(?:(?P<INT>[0-9]+)"
                    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<OP>[-+*/^()])|(?P<BAD>.)|\Z)", re.DOTALL)

# integer literals are unbounded; exponents are capped so a degenerate
# tower like 9^9^9 cannot blow up at parse time
MAX_EXPONENT = 10 ** 6

# the parser recurses through about five frames per level of parentheses,
# so this keeps every accepted expression well inside the interpreter's
# default recursion limit of 1000
MAX_DEPTH = 100


def _tokenize(text: str):
    """(kind, value, byte_offset) triples; kinds INT, NAME, OP, END."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            # trailing whitespace leaves one more empty match at the end
            tokens.append(("END", "", m.end()))
            break
        if kind == "BAD":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names
        # levels open around the current operand; the top level is 0
        self.depth = -1

    def descend(self, off: int):
        """Enter one level of nesting; unary() and exponent() call this on
        entry and decrement self.depth on return."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             off)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def eat_op(self, op: str) -> bool:
        kind, value, _ = self.peek()
        if kind == "OP" and value == op:
            self.pos += 1
            return True
        return False

    def parse(self):
        node = self.additive()
        kind, value, off = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {value!r}", off)
        return node

    def additive(self):
        node = self.multiplicative()
        while True:
            kind, value, off = self.peek()
            if kind == "OP" and value in "+-":
                self.pos += 1
                rhs = self.multiplicative()
                node = BinOp(value, node, rhs, off)
            else:
                return node

    def multiplicative(self):
        node = self.unary()
        while True:
            kind, value, off = self.peek()
            if kind == "OP" and value in "*/":
                self.pos += 1
                rhs = self.unary()
                node = BinOp(value, node, rhs, off)
            else:
                return node

    def unary(self):
        kind, value, off = self.peek()
        self.descend(off)
        if kind == "OP" and value == "-":
            self.pos += 1
            node = Neg(self.unary(), off)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        kind, value, off = self.peek()
        if kind == "OP" and value == "^":
            self.pos += 1
            e = self.exponent()
            return Pow(node, e, off)
        return node

    def exponent(self) -> int:
        kind, value, off = self.peek()
        self.descend(off)
        if kind == "OP" and value == "-":
            self.pos += 1
            e = -self.exponent()
        elif kind == "OP" and value == "(":
            self.pos += 1
            e = self.exponent()
            if not self.eat_op(")"):
                k, v, o = self.peek()
                raise ParseError(f"expected ')' in exponent, got {v!r}", o)
        elif kind == "INT":
            self.pos += 1
            base = int(value)
            k, v, o = self.peek()
            if k == "OP" and v == "^":
                self.pos += 1
                e = self.exponent()
                if e < 0:
                    raise ParseError("negative exponent inside an exponent tower", o)
                if abs(base) > MAX_EXPONENT or (abs(base) > 1 and e > 63):
                    raise ParseError("exponent too large", o)
                base = base ** e
            if abs(base) > MAX_EXPONENT:
                raise ParseError("exponent too large", off)
            e = base
        else:
            raise ParseError("exponent must be an integer literal", off)
        self.depth -= 1
        return e

    def atom(self):
        kind, value, off = self.take()
        if kind == "INT":
            return IntLit(int(value), off)
        if kind == "NAME":
            if value not in self.names:
                raise ParseError(f"unknown variable {value!r}", off)
            return Var(value, off)
        if kind == "OP" and value == "(":
            node = self.additive()
            if not self.eat_op(")"):
                k, v, o = self.peek()
                raise ParseError(f"expected ')', got {v!r}", o)
            return node
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", off)


def parse_ast(text: str, names: tuple[str, ...] = ("x", "t")):
    """Parse an expression to an AST without evaluating it."""
    return _Parser(text, names).parse()


def split_chain(node):
    """(first operand, operators) of a chain of binary operators.

    The parser builds a chain like a + b - c as a left-deep tree; folding
    the operators' right operands onto the first operand, innermost
    operator first, evaluates it without recursing along the chain, so an
    evaluator recurses only through the nesting capped at MAX_DEPTH."""
    ops = []
    while type(node) is BinOp:
        ops.append(node)
        node = node.left
    ops.reverse()
    return node, ops


def _poly_leaf(node) -> MPoly:
    if type(node) is IntLit:
        return MPoly.const(node.value)
    return MPoly.variable(node.name)


def evaluate(node, leaf=_poly_leaf):
    """Value of an AST whose integer literals and variables leaf maps to
    ring elements; '/' and negative powers go through the ring's own
    division.  With the default leaf the value is an integer MPoly until a
    '/' or a negative power needs the field, a RatFunc from there on; mixed
    operands meet in RatFunc's arithmetic, which converts the MPoly once."""
    node, ops = split_chain(node)
    if type(node) is IntLit or type(node) is Var:
        value = leaf(node)
    elif type(node) is Neg:
        value = -evaluate(node.operand, leaf)
    elif type(node) is Pow:
        value = evaluate(node.base, leaf)
        e = node.exponent
        if e < 0:
            if not value:
                raise EvalError("zero raised to a negative power", node.pos)
            if type(value) is MPoly:
                value = RatFunc(value)
        value = value ** e
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for op in ops:
        rhs = evaluate(op.right, leaf)
        if op.op == "+":
            value = value + rhs
        elif op.op == "-":
            value = value - rhs
        elif op.op == "*":
            value = value * rhs
        elif not rhs:
            raise EvalError("division by a zero expression", op.pos)
        elif type(value) is MPoly and type(rhs) is MPoly:
            value = RatFunc(value, rhs)
        else:
            value = value / rhs
    return value


def eval_ratfunc(node) -> RatFunc:
    """Evaluate an AST in x and t over the rational-function field."""
    value = evaluate(node)
    return RatFunc(value) if type(value) is MPoly else value


def parse_expr(text: str) -> RatFunc:
    """Parse an expression in x and t into a canonical RatFunc."""
    return eval_ratfunc(parse_ast(text))


# rendering ----------------------------------------------------------------

def _render_term(key, coeff, lead: bool) -> str:
    """One monomial; coeff is taken positive except for a leading minus."""
    dx, dt = key
    parts = []
    c = coeff
    neg = c < 0
    if neg:
        c = -c
    if c != 1 or (dx == 0 and dt == 0):
        parts.append(str(c))
    if dx:
        parts.append("x" if dx == 1 else f"x^{dx}")
    if dt:
        parts.append("t" if dt == 1 else f"t^{dt}")
    body = "*".join(parts)
    if lead:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


def render_poly(p: MPoly) -> str:
    if p.is_zero:
        return "0"
    keys = sorted(p.terms, reverse=True)
    out = [_render_term(k, p.terms[k], i == 0) for i, k in enumerate(keys)]
    return "".join(out)


def _monomial_factors(p: MPoly) -> int:
    key, c = p.leading()
    n = 0 if c == 1 else 1
    return n + (1 if key[0] else 0) + (1 if key[1] else 0)


def render(f: RatFunc) -> str:
    """Deterministic text form that parse_expr maps back to f."""
    num = render_poly(f.num)
    if f.den.terms == {(0, 0): 1}:
        return num
    den = render_poly(f.den)
    if len(f.num.terms) > 1:
        num = f"({num})"
    if len(f.den.terms) > 1 or _monomial_factors(f.den) > 1:
        den = f"({den})"
    return f"{num}/{den}"


def render_matrix(A) -> list[list[str]]:
    return [[render(e) for e in row] for row in A]


# module files -------------------------------------------------------------

class ModuleDocError(ValueError):
    """Malformed module document; row/col are set for entry-level failures."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


def validate_doc(data) -> tuple[int, list[list[str]], str | None]:
    """Check the JSON shape shared by module and solution documents and
    return (n, rows of entry strings, name); entries are not parsed."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModuleDocError(f"document is not valid UTF-8: {e}") from e
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ModuleDocError(f"document is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ModuleDocError("document must be a JSON object")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ModuleDocError('"n" must be a positive integer')
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ModuleDocError('"name" must be a string when present')
    matrix = data.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ModuleDocError(f'"matrix" must be a list of {n} rows')
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ModuleDocError(f"row {r} must be a list of {n} entries", row=r)
        for c, entry in enumerate(row):
            if not isinstance(entry, str):
                raise ModuleDocError(f"entry ({r},{c}) must be a string", row=r, col=c)
    return n, matrix, name


@dataclass(frozen=True)
class ModuleDoc:
    """Validated but unevaluated module document."""

    n: int
    entries: tuple[tuple[str, ...], ...]
    name: str | None = None

    @classmethod
    def parse(cls, data) -> ModuleDoc:
        n, matrix, name = validate_doc(data)
        return cls(n, tuple(tuple(row) for row in matrix), name)

    def to_module(self) -> DiffModule:
        rows = []
        for r, row in enumerate(self.entries):
            out = []
            for c, entry in enumerate(row):
                try:
                    out.append(parse_expr(entry))
                except ExprError as e:
                    raise ModuleDocError(
                        f"entry ({r},{c}): {e.message} (byte {e.offset})",
                        row=r, col=c) from e
            rows.append(out)
        return DiffModule(rows, name=self.name)


def load_module(data) -> DiffModule:
    """Parse a module document ({"n": int, "matrix": [[expr]]}) into a module."""
    return ModuleDoc.parse(data).to_module()
