"""Symbolic fundamental solutions in the term algebra Q(x,t)[theta, lam].

theta stands for x^t and lam for log x, so the derivations act by

    d_x theta = (t/x) theta     d_t theta = lam theta
    d_x lam   = 1/x             d_t lam   = 0

and agree with the coefficient derivations on Q(x, t); the two actions
commute.  A SolExpr is a finite sum of c * theta^a * lam^b with RatFunc
coefficients, which is enough to express the fundamental solutions of the
running example and all of its prolongations, and to check d_x Y = A Y
exactly, entry by entry up to the first mismatch: such a Y is a morphism
from the trivial module (matrix 0) to the one of matrix A, and
verify_fundamental checks it with matrices.first_mismatch, as
diffmod.is_morphism checks a morphism.

SolExpr is a ratfield.Sparse over the monomials (a, b).  A RatFunc is a
scalar on either side of '*', so matrices.first_mismatch and matrices.mul
take a RatFunc system matrix with a SolExpr matrix, and matrices.deriv and
matrices.prolongation take SolExpr matrices as they are.  Solution
documents go through exprparse.evaluate, the one-pass parser and evaluator
of module documents, with SolExpr leaves.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import exprparse
from . import matrices as mat
from .diffmod import _T_OVER_X, DiffModule, xt_module
from .exprparse import ExprError, validate_doc
from .ratfield import RatFunc, Sparse, render_terms


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


_ONE_OVER_X = RatFunc.one() / RatFunc.var_x()
_ZERO = RatFunc.zero()


def render_sol(e: SolExpr) -> str:
    """Deterministic text form using the atoms theta and lam, through
    ratfield.render_terms.  A term's sign is that of its coefficient's
    numerator lead, and the text of the coefficient's absolute value is its
    first factor, parenthesized when it is a sum or difference and left out
    when it is 1 and theta or lam follows."""
    terms = []
    for (a, b), c in sorted(e.terms.items(), reverse=True):
        sign = 1 if c.num.leading()[1] > 0 else -1
        cs = exprparse.render(c if sign > 0 else -c)
        if ("+" in cs[1:] or "-" in cs[1:]) and not (
                cs.startswith("(") and cs.endswith(")")):
            cs = f"({cs})"
        shown = 0 if cs == "1" and (a or b) else 1
        terms.append((sign, [(cs, shown), ("theta", a), ("lam", b)]))
    return render_terms(terms)


# matrices of SolExpr ------------------------------------------------------

def sol_nonsingular(Y) -> bool:
    """Whether the square SolExpr matrix Y is invertible over
    Q(x,t)[theta, lam], by matrices.rank at integer points.

    A cut is a k in 1..n-1 where rows :k x columns k: or rows k: x columns
    :k are all zero, read off each row's first and last nonzero column.  A
    cut factors det Y into those of its two diagonal blocks, and other cuts
    are cuts of the block they fall in, so det Y is the product over the
    blocks between consecutive cuts, each distinct one decided once (a
    prolonged solution's N + 1 diagonal blocks all equal Y).  A block
    without a cut has each row divided by its least powers of theta and
    lam, so its determinant has degree at most D_theta in theta (the sum of
    the rows' spreads of theta exponents) and D_lam in lam.  theta = a,
    lam = b is a ring map (theta, lam are algebraically independent over
    Q(x, t)): det != 0 iff full rank at some a <= D_theta+1, b <= D_lam+1.
    A dense 9 x 9 `verify -i 0` takes about 0.2 s (Python 3.11, 2-core Xeon).
    """
    n = len(Y)
    if any(len(row) != n for row in Y):
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return not Y[0][0].is_zero
    nz = [[j for j, e in enumerate(row) if e] for row in Y]
    if not all(nz):
        return False  # a zero row
    ends = [0] + [k for k in range(1, n) if max(r[-1] for r in nz[:k]) < k
                  or min(r[0] for r in nz[k:]) >= k] + [n]
    if len(ends) > 2:
        blocks = [[row[a:b] for row in Y[a:b]] for a, b in zip(ends, ends[1:])]
        return all(sol_nonsingular(B) for k, B in enumerate(blocks)
                   if B not in blocks[:k])
    rows, spread = [], [0, 0]
    for row in Y:
        keys = [key for e in row for key in e.terms]
        low = [min(key[v] for key in keys) for v in (0, 1)]
        for v in (0, 1):
            spread[v] += max(key[v] for key in keys) - low[v]
        rows.append([[(i - low[0], j - low[1], c)
                      for (i, j), c in e.terms.items()] for e in row])
    return any(mat.rank([[sum((c * (a ** i * b ** j) for i, j, c in e), _ZERO)
                          for e in row] for row in rows]) == n
               for a in range(1, spread[0] + 2) for b in range(1, spread[1] + 2))


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


class FundamentalCheck(namedtuple(
        "FundamentalCheck", "derivative_ok first_mismatch det_ok")):
    """Outcome of verify_fundamental: the transport identity d_x Y = A Y
    checked entrywise (derivative_ok, and first_mismatch, a (row, col) or
    None), plus formal invertibility of Y (det_ok)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.derivative_ok and self.det_ok


def verify_fundamental(M: DiffModule, Y) -> FundamentalCheck:
    """Check that Y is a fundamental solution matrix for M, exactly.

    first_mismatch is the row-major (row, col) of the first entry where
    d_x Y and A Y differ, or None when the identity holds; the check stops
    there, with no full product A Y formed.
    """
    if len(Y) != M.n or any(len(row) != M.n for row in Y):
        raise ValueError(f"solution matrix must be {M.n}x{M.n}")
    # Y is a morphism from the trivial module, whose matrix is zero
    first = mat.first_mismatch(Y, mat.deriv(Y, "x"), None, M.A)
    det_ok = sol_nonsingular(Y)
    return FundamentalCheck(first is None, first, det_ok)


def xt_example() -> tuple[DiffModule, list[list[SolExpr]]]:
    """The running 1-dimensional example: system matrix (t/x), solved by
    theta = x^t."""
    return xt_module(), [[SolExpr.theta()]]


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
