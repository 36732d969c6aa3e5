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

The parser evaluates as it reduces, in one pass.  A syntax error anywhere
wins over an evaluation error (a division by zero, a zero to a negative
power, or a ValueError of the ring's own): the first evaluation failure is
held until the whole text has parsed, so "1/0 )" reports the ')'.

Nesting is capped at MAX_DEPTH levels: each unary minus, parenthesis or
exponent puts its operand one level deeper, and input that goes deeper is a
ParseError.  Long flat sums and products are not nesting; the parser folds
each operand into the running value inside one loop.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple

from . import matrices as mat
from .diffmod import DiffModule
from .ratfield import MPoly, RatFunc, render_terms


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


# tokenizer ----------------------------------------------------------------

# skipped whitespace, then one token: an ASCII integer or name, an operator,
# any other character (an error) or the end of the text.  Every character a
# token can hold is ASCII, so character offsets are byte offsets
_TOKEN = re.compile(r"[ \t\r\n]*(?:(?P<INT>[0-9]+)"
                    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<OP>[-+*/^()])|(?P<BAD>.)|\Z)", re.DOTALL)

# exponents are capped so a degenerate tower like 9^9^9 cannot blow up at
# parse time
MAX_EXPONENT = 10 ** 6

# an integer literal may have at most this many digits, the interpreter's
# default limit on int <-> str conversion, which bounds its quadratic cost
MAX_DIGITS = 4300

# the parser recurses through about five frames per level of parentheses,
# so this keeps every accepted expression well inside the interpreter's
# default recursion limit of 1000
MAX_DEPTH = 100


def _tokenize(text: str):
    """(kind, value, byte_offset) triples; kinds INT, NAME, OP, END."""
    tokens = []
    # or the interpreter's limit if lower (none before Python 3.10.7)
    limit = min(MAX_DIGITS,
                getattr(sys, "get_int_max_str_digits", int)() or MAX_DIGITS)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            # trailing whitespace leaves one more empty match at the end
            tokens.append(("END", "", m.end()))
            break
        if kind == "BAD":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        if kind == "INT" and len(m[kind]) > limit:
            raise ParseError(f"integer literal of more than {limit} "
                             "digits", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    """Recursive descent in which each rule returns the value of the text
    it consumed, built from the ring elements that leaf gives."""

    def __init__(self, text: str, leaf):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.leaf = leaf
        # levels open around the current operand; the top level is 0
        self.depth = -1
        # the first evaluation failure, raised once the whole text has parsed
        self.failure = None

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

    def apply(self, op: str, off: int, a, b):
        """a op b for op in '+-*/', or a^b for op '^' and an int b; an MPoly
        meets the field only at '/' or a negative power.  After the first
        failure, held in self.failure, every operation returns None."""
        if self.failure is not None:
            return None
        try:
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if not b:
                    raise EvalError("division by a zero expression", off)
                if type(a) is MPoly and type(b) is MPoly:
                    return RatFunc(a, b)
                return a / b
            if b < 0:
                if not a:
                    raise EvalError("zero raised to a negative power", off)
                if type(a) is MPoly:
                    a = RatFunc(a)
            return a ** b
        except ValueError as e:
            self.failure = e
            return None

    def parse(self):
        value = self.fold("+-")
        kind, token, off = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {token!r}", off)
        if self.failure is not None:
            raise self.failure
        return value

    def fold(self, ops: str):
        """Left fold of the operands joined by the operators in ops: a sum
        of products for "+-", a product of unary operands for "*/"."""
        sums = ops == "+-"
        value = self.fold("*/") if sums else self.unary()
        while True:
            kind, op, off = self.peek()
            if kind != "OP" or op not in ops:
                return value
            self.pos += 1
            value = self.apply(op, off, value,
                               self.fold("*/") if sums else self.unary())

    def unary(self):
        kind, token, off = self.peek()
        self.descend(off)
        if kind == "OP" and token == "-":
            self.pos += 1
            value = self.unary()
            if self.failure is None:
                value = -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        value = self.atom()
        kind, token, off = self.peek()
        if kind == "OP" and token == "^":
            self.pos += 1
            return self.apply("^", off, value, self.exponent())
        return value

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
        kind, token, off = self.take()
        if kind == "INT":
            return self.leaf(int(token))
        if kind == "NAME":
            try:
                return self.leaf(token)
            except KeyError:
                raise ParseError(f"unknown variable {token!r}", off) from None
        if kind == "OP" and token == "(":
            value = self.fold("+-")
            if not self.eat_op(")"):
                k, v, o = self.peek()
                raise ParseError(f"expected ')', got {v!r}", o)
            return value
        raise ParseError(f"unexpected token {token!r}" if token else "unexpected end of input", off)


def evaluate(text: str, leaf):
    """Value of the expression text, where leaf maps an integer literal (an
    int) or a name (a str) to a ring element and raises KeyError for a name
    it does not know, which becomes an "unknown variable" ParseError."""
    return _Parser(text, leaf).parse()


_POLY_NAMES = {"x": MPoly.variable("x"), "t": MPoly.variable("t")}


def _poly_leaf(token) -> MPoly:
    return MPoly.const(token) if type(token) is int else _POLY_NAMES[token]


def parse_expr(text: str) -> RatFunc:
    """Parse an expression in x and t into a canonical RatFunc; the value
    is an integer MPoly until a '/' or a negative power needs the field."""
    value = evaluate(text, _poly_leaf)
    return RatFunc(value) if type(value) is MPoly else value


# rendering ----------------------------------------------------------------

def render_poly(p: MPoly) -> str:
    terms = p.terms
    return render_terms([(terms[k], (("x", k[0]), ("t", k[1])))
                         for k in sorted(terms, reverse=True)])


def render(f: RatFunc) -> str:
    """Deterministic text form that parse_expr maps back to f."""
    num = render_poly(f.num)
    if f.den.terms == {(0, 0): 1}:
        return num
    den = render_poly(f.den)
    if len(f.num.terms) > 1:
        num = f"({num})"
    # a one-term denominator needs parentheses when it has two factors
    if len(f.den.terms) > 1 or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"


def render_matrix(A) -> list[list[str]]:
    """render of every entry, once per distinct entry object."""
    return mat._map_distinct(A, render)


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
        # besides a JSONDecodeError, json.loads raises a plain ValueError
        # for an integer past the interpreter's limit on str -> int
        # conversion and a RecursionError for arrays or objects nested too
        # deep
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as e:
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


def parse_entries(entries, parse, errors):
    """Map each entry string of a document's matrix through parse.

    An exception of the type or types errors, which parse raises for a bad
    entry, becomes a ModuleDocError that names the entry."""
    rows = []
    for r, row in enumerate(entries):
        out = []
        for c, entry in enumerate(row):
            try:
                out.append(parse(entry))
            except errors as e:
                raise ModuleDocError(f"entry ({r},{c}): {e}",
                                     row=r, col=c) from e
        rows.append(out)
    return rows


class ModuleDoc(namedtuple("ModuleDoc", "n entries name", defaults=(None,))):
    """Validated but unevaluated module document: n, the entry strings as a
    tuple of row tuples, and the name or None."""

    __slots__ = ()

    @classmethod
    def parse(cls, data) -> ModuleDoc:
        n, matrix, name = validate_doc(data)
        return cls(n, tuple(tuple(row) for row in matrix), name)

    def to_module(self) -> DiffModule:
        return DiffModule(parse_entries(self.entries, parse_expr, ExprError),
                          name=self.name)


def load_module(data) -> DiffModule:
    """Parse a module document ({"n": int, "matrix": [[expr]]}) into a module."""
    return ModuleDoc.parse(data).to_module()
