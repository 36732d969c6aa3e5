"""Dense matrix helpers over RatFunc: plain lists of lists, pure functions.

Nothing here mutates its arguments.  rank, det and inverse share one
Gauss-Jordan elimination, which relies on exact field division so there is
no pivoting subtlety.
"""

from __future__ import annotations

import math

from .ratfield import RatFunc


def zeros(r: int, c: int):
    z = RatFunc.zero()
    return [[z for _ in range(c)] for _ in range(r)]


def identity(n: int):
    z = RatFunc.zero()
    o = RatFunc.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def shape(A) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def neg(A):
    return [[-a for a in row] for row in A]


def scale(A, s):
    return [[a * s for a in row] for row in A]


def mul(A, B):
    rows, inner = shape(A)
    inner2, cols = shape(B)
    if inner != inner2:
        raise ValueError(f"shape mismatch: {rows}x{inner} times {inner2}x{cols}")
    Bt = list(zip(*B))
    out = []
    for ra in A:
        row = []
        for cb in Bt:
            acc = RatFunc.zero()
            for a, b in zip(ra, cb):
                if a.is_zero or b.is_zero:
                    continue
                acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def transpose(A):
    return [list(row) for row in zip(*A)]


def deriv(A, var: str):
    return [[a.deriv(var) for a in row] for row in A]


def eq(A, B) -> bool:
    if shape(A) != shape(B):
        return False
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def is_zero(A) -> bool:
    return all(a.is_zero for row in A for a in row)


def is_constant(A) -> bool:
    return all(a.is_constant for row in A for a in row)


def kron(A, B):
    ra, ca = shape(A)
    rb, cb = shape(B)
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            a = A[i][j]
            if a.is_zero:
                continue
            for k in range(rb):
                for l in range(cb):
                    b = B[k][l]
                    if not b.is_zero:
                        out[i * rb + k][j * cb + l] = a * b
    return out


def block(rows):
    """Assemble a matrix from a grid of equally-shaped-per-row/col blocks."""
    out = []
    for brow in rows:
        height = len(brow[0])
        for i in range(height):
            line = []
            for blk in brow:
                line.extend(blk[i])
            out.append(line)
    return out


def block_triangular(blocks, weight, zero):
    """Block lower-triangular matrix whose block (r, c) is
    weight(r, c) * blocks[r - c] for r >= c.

    The blocks share one shape, and `zero` (a zero block of that shape)
    fills the strict upper triangle and every block of weight 0.  Each
    other weight is turned into a RatFunc once and multiplies every entry
    of its block, which may be a RatFunc or anything a RatFunc scales; a
    weight of 1 reuses the block as it is.
    """
    size = len(blocks)
    grid = []
    for r in range(size):
        brow = []
        for c in range(size):
            w = weight(r, c) if r >= c else 0
            if w == 0:
                brow.append(zero)
            elif w == 1:
                brow.append(blocks[r - c])
            else:
                brow.append(scale(blocks[r - c], RatFunc.from_int(w)))
        grid.append(brow)
    return block(grid)


def _reduce(M, cols: int) -> tuple[list[RatFunc], int]:
    """Gauss-Jordan elimination of M in place, pivoting on the first `cols`
    columns; row operations run over whole rows.

    Returns the pivots and the number of row swaps.  The number of pivots
    is the rank of the first `cols` columns, and their pivot rows come
    first, each with a leading 1.
    """
    rows = len(M)
    pivots = []
    swaps = 0
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if not M[i][c].is_zero), None)
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            swaps += 1
        pivots.append(M[r][c])
        inv = RatFunc.one() / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(rows):
            if i != r and not M[i][c].is_zero:
                f = M[i][c]
                M[i] = [v - f * w for v, w in zip(M[i], M[r])]
    return pivots, swaps


def rank(A) -> int:
    return len(_reduce([list(row) for row in A], shape(A)[1])[0])


def det(A) -> RatFunc:
    rows, cols = shape(A)
    if rows != cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, swaps = _reduce([list(row) for row in A], cols)
    if len(pivots) < cols:
        return RatFunc.zero()
    return math.prod(pivots, start=RatFunc.from_int((-1) ** swaps))


def inverse(A):
    rows, cols = shape(A)
    if rows != cols:
        raise ValueError("inverse of a non-square matrix")
    M = [list(row) + list(irow) for row, irow in zip(A, identity(rows))]
    if len(_reduce(M, cols)[0]) < cols:
        raise ValueError("matrix is singular")
    return [row[cols:] for row in M]
