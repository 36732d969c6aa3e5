"""Symbolic fundamental solutions in the term algebra Q(x,t)[theta, lam].

theta stands for x^t and lam for log x, so the derivations act by

    d_x theta = (t/x) theta     d_t theta = lam theta
    d_x lam   = 1/x             d_t lam   = 0

and agree with the coefficient derivations on Q(x, t); the two actions
commute.  A SolExpr is a finite sum of c * theta^a * lam^b with RatFunc
coefficients, which is enough to express the fundamental solutions of the
running example and all of its prolongations, and to check d_x Y = A Y
exactly, entry by entry.
"""

from __future__ import annotations

import math

from . import exprparse
from . import matrices as mat
from .diffmod import DiffModule
from .exprparse import (EvalError, ExprError, ModuleDocError, split_chain,
                        validate_doc)
from .ratfield import MPoly, RatFunc


class SolExpr:
    """Sum of monomials theta^a lam^b with rational-function coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], RatFunc] | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                a, b = key
                if a < 0 or b < 0:
                    raise ValueError("negative power of theta or lam")
                if not c.is_zero:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> SolExpr:
        return cls()

    @classmethod
    def one(cls) -> SolExpr:
        return cls({(0, 0): RatFunc.one()})

    @classmethod
    def theta(cls) -> SolExpr:
        return cls({(1, 0): RatFunc.one()})

    @classmethod
    def lam(cls) -> SolExpr:
        return cls({(0, 1): RatFunc.one()})

    @classmethod
    def from_ratfunc(cls, f: RatFunc) -> SolExpr:
        return cls({(0, 0): f})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_only(self) -> RatFunc | None:
        """The underlying RatFunc when no theta/lam appears, else None."""
        if not self.terms:
            return RatFunc.zero()
        if set(self.terms) == {(0, 0)}:
            return self.terms[(0, 0)]
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, SolExpr):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        return f"SolExpr({render_sol(self)!r})"

    def __add__(self, other: SolExpr) -> SolExpr:
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key)
            v = c if v is None else v + c
            if v.is_zero:
                out.pop(key, None)
            else:
                out[key] = v
        return SolExpr(out)

    def __sub__(self, other: SolExpr) -> SolExpr:
        return self + (-other)

    def __neg__(self) -> SolExpr:
        return SolExpr({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: SolExpr) -> SolExpr:
        out: dict[tuple[int, int], RatFunc] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                v = c1 * c2
                w = out.get(key)
                w = v if w is None else w + v
                if w.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = w
        return SolExpr(out)

    def scale(self, f: RatFunc) -> SolExpr:
        if f.is_zero:
            return SolExpr()
        return SolExpr({k: c * f for k, c in self.terms.items()})

    def __pow__(self, e: int) -> SolExpr:
        if e < 0:
            raise ValueError("negative power outside the term algebra")
        result = SolExpr.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def deriv(self, var: str) -> SolExpr:
        out = SolExpr()
        for (a, b), c in self.terms.items():
            mono = SolExpr({(a, b): RatFunc.one()})
            acc = SolExpr({(a, b): c.deriv(var)})
            if var == "x":
                if a:
                    acc = acc + mono.scale(c * (a * _T_OVER_X))
                if b:
                    acc = acc + SolExpr({(a, b - 1): c * (b * _ONE_OVER_X)})
            else:
                if a:
                    acc = acc + SolExpr({(a, b + 1): c * a})
            out = out + acc
        return out


_X = RatFunc.var_x()
_T = RatFunc.var_t()
_T_OVER_X = _T / _X
_ONE_OVER_X = RatFunc.one() / _X


def render_sol(e: SolExpr) -> str:
    """Deterministic text form using the atoms theta and lam."""
    if e.is_zero:
        return "0"
    parts = []
    for key in sorted(e.terms, reverse=True):
        a, b = key
        c = e.terms[key]
        factors = []
        cs = exprparse.render(c)
        if not (c.is_one and (a or b)):
            if ("+" in cs[1:] or "-" in cs[1:]) and not (
                    cs.startswith("(") and cs.endswith(")")):
                cs = f"({cs})"
            factors.append(cs)
        if a:
            factors.append("theta" if a == 1 else f"theta^{a}")
        if b:
            factors.append("lam" if b == 1 else f"lam^{b}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# matrices of SolExpr ------------------------------------------------------

def sol_matrix_from_coeffs(A) -> list[list[SolExpr]]:
    return [[SolExpr.from_ratfunc(e) for e in row] for row in A]


def sol_mat_mul(A, Y):
    rows = len(A)
    inner = len(A[0])
    cols = len(Y[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = SolExpr.zero()
            for k in range(inner):
                acc = acc + A[i][k] * Y[k][j]
            row.append(acc)
        out.append(row)
    return out


def sol_mat_deriv(Y, var: str):
    return [[e.deriv(var) for e in row] for row in Y]


def sol_det(Y) -> SolExpr:
    """Cofactor expansion; fine at the sizes that appear here."""
    n = len(Y)
    if any(len(row) != n for row in Y):
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return Y[0][0]
    result = SolExpr.zero()
    for j in range(n):
        if Y[0][j].is_zero:
            continue
        minor = [[Y[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = Y[0][j] * sol_det(minor)
        result = result + term if j % 2 == 0 else result - term
    return result


# fundamental solution machinery -------------------------------------------

def build_fundamental_prolongation(Y, i: int):
    """Block lower-triangular prolongation of a fundamental solution.

    Block (r, c) is C(r, c) * d_t^(r-c) Y: the binomial weights are what
    makes the result satisfy the prolonged system (see verify_fundamental).
    """
    return _prolong_solution(Y, i, math.comb)


def unweighted_prolongation(Y, i: int):
    """Same block layout but with bare d_t^(r-c) Y blocks, no binomial
    weights.  Kept to demonstrate that the weights are required: from order
    2 on this matrix fails the transport check."""
    return _prolong_solution(Y, i, lambda r, c: 1)


def _prolong_solution(Y, i: int, weight):
    """Block (r, c) = weight(r, c) * d_t^(r-c) Y for r >= c, zero above."""
    if i < 0:
        raise ValueError("prolongation order must be >= 0")
    n = len(Y)
    Ys = [Y]
    for _ in range(i):
        Ys.append(sol_mat_deriv(Ys[-1], "t"))
    zero = [[SolExpr.zero()] * n for _ in range(n)]
    return mat.block_triangular(Ys, weight, zero, _sol_mat_scale)


def _sol_mat_scale(Y, f: RatFunc):
    return [[e.scale(f) for e in row] for row in Y]


class FundamentalCheck:
    """Outcome of verify_fundamental: the transport identity d_x Y = A Y
    checked entrywise, plus formal invertibility of Y."""

    __slots__ = ("derivative_ok", "first_mismatch", "det_ok")

    def __init__(self, derivative_ok, first_mismatch, det_ok):
        self.derivative_ok = derivative_ok
        self.first_mismatch = first_mismatch
        self.det_ok = det_ok

    @property
    def passed(self) -> bool:
        return self.derivative_ok and self.det_ok

    def __repr__(self) -> str:
        return (f"FundamentalCheck(derivative_ok={self.derivative_ok}, "
                f"first_mismatch={self.first_mismatch}, det_ok={self.det_ok})")


def verify_fundamental(M: DiffModule, Y) -> FundamentalCheck:
    """Check that Y is a fundamental solution matrix for M, exactly.

    first_mismatch is the row-major (row, col) of the first entry where
    d_x Y and A Y differ, or None when the identity holds.
    """
    if len(Y) != M.n or any(len(row) != M.n for row in Y):
        raise ValueError(f"solution matrix must be {M.n}x{M.n}")
    lhs = sol_mat_deriv(Y, "x")
    rhs = sol_mat_mul(sol_matrix_from_coeffs(M.A), Y)
    first = None
    for r in range(M.n):
        for c in range(M.n):
            if lhs[r][c] != rhs[r][c]:
                first = (r, c)
                break
        if first is not None:
            break
    det_ok = not sol_det(Y).is_zero
    return FundamentalCheck(first is None, first, det_ok)


def xt_example() -> tuple[DiffModule, list[list[SolExpr]]]:
    """The running 1-dimensional example: system matrix (t/x), solved by
    theta = x^t."""
    module = DiffModule([[_T_OVER_X]], name="xt")
    return module, [[SolExpr.theta()]]


# parsing solution documents -----------------------------------------------

class UnrepresentableSolutionError(ValueError):
    """The expression leaves Q(x,t)[theta, lam] (division or negative power
    involving theta/lam)."""


SOLUTION_NAMES = ("x", "t", "theta", "lam")


def eval_solution(node) -> SolExpr:
    """Evaluate a parsed expression over the term algebra."""
    node, ops = split_chain(node)
    value = _eval_operand(node)
    for op in ops:
        b = eval_solution(op.right)
        if op.op == "+":
            value = value + b
        elif op.op == "-":
            value = value - b
        elif op.op == "*":
            value = value * b
        else:
            f = b.coefficient_only()
            if f is None:
                raise UnrepresentableSolutionError(
                    "division by a theta/lam expression is outside the term algebra")
            if f.is_zero:
                raise EvalError("division by a zero expression", op.pos)
            value = value.scale(RatFunc.one() / f)
    return value


def _eval_operand(node) -> SolExpr:
    if isinstance(node, exprparse.IntLit):
        return SolExpr.from_ratfunc(RatFunc.from_int(node.value))
    if isinstance(node, exprparse.Var):
        if node.name == "theta":
            return SolExpr.theta()
        if node.name == "lam":
            return SolExpr.lam()
        return SolExpr.from_ratfunc(RatFunc(MPoly.variable(node.name)))
    if isinstance(node, exprparse.Neg):
        return -eval_solution(node.operand)
    if isinstance(node, exprparse.Pow):
        base = eval_solution(node.base)
        e = node.exponent
        if e >= 0:
            return base ** e
        f = base.coefficient_only()
        if f is None:
            raise UnrepresentableSolutionError(
                "negative power of a theta/lam expression is outside the term algebra")
        if f.is_zero:
            raise EvalError("zero raised to a negative power", node.pos)
        return SolExpr.from_ratfunc(f ** e)
    raise TypeError(f"not an expression node: {node!r}")


def parse_solution(text: str) -> SolExpr:
    return eval_solution(exprparse.parse_ast(text, SOLUTION_NAMES))


def load_solution(data) -> list[list[SolExpr]]:
    """Parse a solution document, same JSON shape as a module document but
    with entries over x, t, theta, lam."""
    n, matrix, _ = validate_doc(data)
    rows = []
    for r, row in enumerate(matrix):
        out = []
        for c, entry in enumerate(row):
            try:
                out.append(parse_solution(entry))
            except ExprError as e:
                raise ModuleDocError(
                    f"entry ({r},{c}): {e.message} (byte {e.offset})",
                    row=r, col=c) from e
            except UnrepresentableSolutionError as e:
                raise ModuleDocError(f"entry ({r},{c}): {e}", row=r, col=c) from e
        rows.append(out)
    return rows
