"""Parse and render rational-function expressions, and load module files.

Grammar (precedence climbing, low to high):

    sum     := product (('+' | '-') product)*
    product := operand (('*' | '/') operand)*
    operand := '-'* atom ['^' exponent]
    atom    := INT | NAME | '(' sum ')'
    exponent:= '-' exponent | '(' exponent ')' | INT ['^' exponent]

'^' binds tighter than unary minus, so -x^2 is -(x^2); exponent towers
associate to the right and must reduce to integers at parse time.  There is
no implicit multiplication.  Whitespace is insignificant; errors carry the
byte offset of the offending token.

Tokens are the strings of one regular-expression scan, made after two
searches for a character outside the grammar and an over-long integer
literal.  The parser holds them by index and evaluates as it reduces, in
one pass and one frame per operand; a token's offset is computed, by a
rescan, only for an error.  A syntax error anywhere wins over an
evaluation error (a division by zero, a zero to a negative power, or a
ValueError of the ring's own): the first evaluation failure is held until
the whole text has parsed, so "1/0 )" reports the ')'.

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

# skipped whitespace, then one token: an ASCII integer or name, or any other
# non-space character, which past _BAD is an operator
_TOKEN = re.compile(r"[ \t\r\n]*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|[^ \t\r\n])")
_BAD = re.compile(r"[^0-9A-Za-z_+\-*/^() \t\r\n]")

# exponents are capped so a degenerate tower like 9^9^9 cannot blow up at
# parse time
MAX_EXPONENT = 10 ** 6

# an integer literal may have at most this many digits, the interpreter's
# default limit on int <-> str conversion, which bounds its quadratic cost
MAX_DIGITS = 4300

# the parser recurses through three frames per level of parentheses, so
# this keeps every accepted expression well inside the interpreter's default
# recursion limit of 1000
MAX_DEPTH = 100


def _scan(text: str) -> list[str]:
    """The tokens of text as strings, then the end sentinel ""; the first
    character outside the grammar or integer literal of too many digits is
    a ParseError.  Every character before either is ASCII, so character
    offsets are byte offsets."""
    # or the interpreter's limit if lower (none before Python 3.10.7)
    limit = min(MAX_DIGITS,
                getattr(sys, "get_int_max_str_digits", int)() or MAX_DIGITS)
    bad = _BAD.search(text)
    long = len(text) > limit and re.search(
        r"(?<![0-9A-Za-z_])[0-9]{%d}" % (limit + 1), text)
    if long and not (bad and bad.start() < long.start()):
        raise ParseError(f"integer literal of more than {limit} digits",
                         long.start())
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _offset(text: str, k: int) -> int:
    """Byte offset of token k of _scan(text); only an error needs one."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return m.start(1)
    return len(text)


class _Parser:
    """Recursive descent in which each rule returns the value of the text
    it consumed, built from the ring elements that leaf gives.  Tokens are
    the strings of one scan, held by index; a token's offset is computed
    only for an error."""

    def __init__(self, text: str, leaf):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0
        self.leaf = leaf
        # the first evaluation failure, raised once the whole text has parsed
        self.failure = None

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, _offset(self.text, k))

    def apply(self, op: str, k: int, a, b):
        """a op b for op in '+-*/', or a^b for op '^' and an int b, where
        token k is the operator; an MPoly meets the field only at '/' or a
        negative power.  After the first failure, held in self.failure,
        every operation returns None."""
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
                    raise EvalError("division by a zero expression",
                                    _offset(self.text, k))
                if type(a) is MPoly and type(b) is MPoly:
                    return RatFunc(a, b)
                return a / b
            if b < 0:
                if not a:
                    raise EvalError("zero raised to a negative power",
                                    _offset(self.text, k))
                if type(a) is MPoly:
                    a = RatFunc(a)
            return a ** b
        except ValueError as e:
            self.failure = e
            return None

    def parse(self):
        value = self.sum(0)
        if self.tokens[self.pos]:
            raise self.error(f"unexpected token {self.tokens[self.pos]!r}",
                             self.pos)
        if self.failure is not None:
            raise self.failure
        return value

    def sum(self, level: int):
        """Left fold of the products joined by '+' and '-', where level is
        the nesting of each operand: the parentheses, unary minus signs and
        exponents around it."""
        value = self.product(level)
        tokens = self.tokens
        while True:
            k = self.pos
            op = tokens[k]
            if op != "+" and op != "-":
                return value
            self.pos = k + 1
            value = self.apply(op, k, value, self.product(level))

    def product(self, level: int):
        value = self.operand(level)
        tokens = self.tokens
        while True:
            k = self.pos
            op = tokens[k]
            if op != "*" and op != "/":
                return value
            self.pos = k + 1
            value = self.apply(op, k, value, self.operand(level))

    def operand(self, level: int):
        """Unary minus signs, each one level deeper, then an atom (an
        integer, a name or a parenthesised sum) with an optional '^'."""
        tokens = self.tokens
        k = start = self.pos
        while tokens[k] == "-":
            k += 1
        if level + k - start > MAX_DEPTH:
            raise self.error(f"expression nests deeper than {MAX_DEPTH} levels",
                             start + MAX_DEPTH + 1 - level)
        level += k - start
        token = tokens[k]
        self.pos = k + 1
        if token == "(":
            value = self.sum(level + 1)
            if tokens[self.pos] != ")":
                raise self.error(f"expected ')', got {tokens[self.pos]!r}",
                                 self.pos)
            self.pos += 1
        elif token.isdigit():
            value = self.leaf(int(token))
        elif token.isidentifier():
            try:
                value = self.leaf(token)
            except KeyError:
                raise self.error(f"unknown variable {token!r}", k) from None
        else:
            raise self.error(f"unexpected token {token!r}" if token
                             else "unexpected end of input", k)
        if tokens[self.pos] == "^":
            self.pos += 1
            value = self.apply("^", self.pos - 1, value,
                               self.exponent(level + 1))
        if k != start and self.failure is None:
            for _ in range(k - start):
                value = -value
        return value

    def exponent(self, level: int) -> int:
        tokens = self.tokens
        k = self.pos
        if level > MAX_DEPTH:
            raise self.error(f"expression nests deeper than {MAX_DEPTH} levels",
                             k)
        token = tokens[k]
        self.pos = k + 1
        if token == "-":
            return -self.exponent(level + 1)
        if token == "(":
            e = self.exponent(level + 1)
            if tokens[self.pos] != ")":
                raise self.error(
                    f"expected ')' in exponent, got {tokens[self.pos]!r}",
                    self.pos)
            self.pos += 1
            return e
        if not token.isdigit():
            raise self.error("exponent must be an integer literal", k)
        base = int(token)
        if tokens[self.pos] == "^":
            o = self.pos
            self.pos += 1
            e = self.exponent(level + 1)
            if e < 0:
                raise self.error("negative exponent inside an exponent tower", o)
            if abs(base) > MAX_EXPONENT or (abs(base) > 1 and e > 63):
                raise self.error("exponent too large", o)
            base = base ** e
        if abs(base) > MAX_EXPONENT:
            raise self.error("exponent too large", k)
        return base


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
