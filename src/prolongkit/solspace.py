"""Symbolic fundamental solutions in the term algebra Q(x,t)[theta, lam].

theta stands for x^t and lam for log x, so the derivations act by

    d_x theta = (t/x) theta     d_t theta = lam theta
    d_x lam   = 1/x             d_t lam   = 0

and agree with the coefficient derivations on Q(x, t); the two actions
commute.  A SolExpr is a finite sum of c * theta^a * lam^b with RatFunc
coefficients, which is enough to express the fundamental solutions of the
running example and all of its prolongations, and to check d_x Y = A Y
exactly, entry by entry.

SolExpr is a ratfield.Sparse over the monomials (a, b).  A RatFunc is a
scalar on either side of '*', so matrices.mul multiplies a RatFunc system
matrix by a SolExpr matrix, and matrices.deriv and matrices.prolongation
take SolExpr matrices as they are.  Solution documents go through
exprparse.evaluate, the one-pass parser and evaluator of module documents,
with SolExpr leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exprparse
from . import matrices as mat
from .diffmod import DiffModule
from .exprparse import ExprError, validate_doc
from .ratfield import RatFunc, Sparse


class UnrepresentableSolutionError(ValueError):
    """The expression leaves Q(x,t)[theta, lam] (division or negative power
    involving theta/lam)."""


class SolExpr(Sparse):
    """Sum of monomials theta^a lam^b with rational-function coefficients.

    Division, and a negative power, take only divisors free of theta and
    lam; any other leaves the algebra and raises
    UnrepresentableSolutionError.
    """

    __slots__ = ()

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

    def coefficient_only(self) -> RatFunc | None:
        """The underlying RatFunc when no theta/lam appears, else None."""
        if not self.terms:
            return RatFunc.zero()
        if set(self.terms) == {(0, 0)}:
            return self.terms[(0, 0)]
        return None

    def __repr__(self) -> str:
        return f"SolExpr({render_sol(self)!r})"

    def __mul__(self, other) -> SolExpr:
        if isinstance(other, RatFunc):
            return self.scale(other)
        return Sparse.__mul__(self, other)

    __rmul__ = __mul__

    def inv(self) -> SolExpr:
        f = self.coefficient_only()
        if f is None:
            raise UnrepresentableSolutionError(
                "negative power of a theta/lam expression is outside the term algebra")
        return SolExpr.from_ratfunc(RatFunc.one() / f)

    def __truediv__(self, other: SolExpr) -> SolExpr:
        f = other.coefficient_only()
        if f is None:
            raise UnrepresentableSolutionError(
                "division by a theta/lam expression is outside the term algebra")
        return self.scale(RatFunc.one() / f)

    def deriv(self, var: str) -> SolExpr:
        out = SolExpr()
        for (a, b), c in self.terms.items():
            acc = SolExpr({(a, b): c.deriv(var)})
            if var == "x":
                if a:
                    acc = acc + SolExpr({(a, b): c * (a * _T_OVER_X)})
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

def sol_det(Y) -> SolExpr:
    """Cofactor expansion along the first row, skipping its zeros: time
    factorial in n on a dense matrix (random dense entries, Python 3.11 on
    a 2-core Xeon: 0.27 s at n = 7, 1.9 s at n = 8)."""
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
    return mat.prolongation(Y, i, math.comb)


def unweighted_prolongation(Y, i: int):
    """Same block layout but with bare d_t^(r-c) Y blocks, no binomial
    weights.  Kept to demonstrate that the weights are required: from order
    2 on this matrix fails the transport check."""
    return mat.prolongation(Y, i, lambda r, c: 1)


@dataclass(frozen=True)
class FundamentalCheck:
    """Outcome of verify_fundamental: the transport identity d_x Y = A Y
    checked entrywise, plus formal invertibility of Y."""

    derivative_ok: bool
    first_mismatch: tuple[int, int] | None
    det_ok: bool

    @property
    def passed(self) -> bool:
        return self.derivative_ok and self.det_ok


def verify_fundamental(M: DiffModule, Y) -> FundamentalCheck:
    """Check that Y is a fundamental solution matrix for M, exactly.

    first_mismatch is the row-major (row, col) of the first entry where
    d_x Y and A Y differ, or None when the identity holds.
    """
    if len(Y) != M.n or any(len(row) != M.n for row in Y):
        raise ValueError(f"solution matrix must be {M.n}x{M.n}")
    lhs = mat.deriv(Y, "x")
    rhs = mat.mul(M.A, Y)
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

_SOLUTION_NAMES = {"x": SolExpr.from_ratfunc(RatFunc.var_x()),
                   "t": SolExpr.from_ratfunc(RatFunc.var_t()),
                   "theta": SolExpr.theta(), "lam": SolExpr.lam()}


def _solution_leaf(token) -> SolExpr:
    """An integer literal or a name in the term algebra; KeyError for a
    name outside _SOLUTION_NAMES."""
    if type(token) is int:
        return SolExpr.from_ratfunc(RatFunc.from_int(token))
    return _SOLUTION_NAMES[token]


def parse_solution(text: str) -> SolExpr:
    return exprparse.evaluate(text, _solution_leaf)


def load_solution(data) -> list[list[SolExpr]]:
    """Parse a solution document, same JSON shape as a module document but
    with entries over x, t, theta, lam."""
    _, matrix, _ = validate_doc(data)
    return exprparse.parse_entries(
        matrix, parse_solution, (ExprError, UnrepresentableSolutionError))
