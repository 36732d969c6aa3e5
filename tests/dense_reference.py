"""Dense references for the tests: the polynomial product and the
Kronecker product and sum multiply every pair of terms or entries and add
them all up, zeros and units too, and the morphism condition is checked by
full matrix products."""

from prolongkit import matrices as mat
from prolongkit.ratfield import RatFunc


def identity(n):
    return [[RatFunc.from_int(int(i == j)) for j in range(n)]
            for i in range(n)]


def poly_product(p, q):
    """The terms of the MPoly product p q: every pair of terms multiplied,
    the products added up by monomial and the zero sums dropped."""
    acc = {}
    for (ax, at), a in p.terms.items():
        for (bx, bt), b in q.terms.items():
            key = (ax + bx, at + bt)
            acc[key] = acc.get(key, 0) + a * b
    return {k: c for k, c in acc.items() if c}


def add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def kron(A, B):
    """The Kronecker product A (x) B: entry (i rb + k, j cb + l) is
    A[i][j] * B[k][l]."""
    rb, cb = len(B), len(B[0])
    return [[A[r // rb][c // cb] * B[r % rb][c % cb]
             for c in range(len(A[0]) * cb)] for r in range(len(A) * rb)]


def kron_sum(A, B):
    """The Kronecker sum A (x) I + I (x) B of square A and B."""
    return add(kron(A, identity(len(B))), kron(identity(len(A)), B))


def first_mismatch(P, src, dst):
    """The first (row, col), row-major, where d_x P differs from B P - P A,
    by full products; None when P is a morphism src -> dst."""
    lhs = mat.deriv(P, "x")
    rhs = sub(mat.mul(dst.A, P), mat.mul(P, src.A))
    return next(((r, c) for r, (lrow, rrow) in enumerate(zip(lhs, rhs))
                 for c, (a, b) in enumerate(zip(lrow, rrow)) if a != b), None)
