"""Matrices over RatFunc as plain lists of lists, with pure functions.

The product skips zero entries, and leaves a factor 1 to the entries' own
product.  Nothing here mutates its arguments.  first_mismatch checks
d_x P = B P - P A, the identity of a morphism and of a fundamental
solution, entry by entry with no matrix product, and stops at the first
entry where it fails; it adds no zero term and multiplies by no weight 1.
rank, det and inverse share one Gauss-Jordan elimination over the pivot
row's nonzero entries, which relies on exact field division so there is no
pivoting subtlety; inverse(A, B) returns A^(-1) B from one elimination.
"""

from __future__ import annotations

import math

from .ratfield import RatFunc

_ZERO = RatFunc.zero()
_ONE = RatFunc.one()


def zeros(r: int, c: int):
    return [[_ZERO] * c for _ in range(r)]


def identity(n: int):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def shape(A) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def neg(A):
    return _map_distinct(A, lambda a: -a)


def scale(A, s):
    return [[a * s for a in row] for row in A]


def mul(A, B):
    """A times B over pairs of nonzero entries.  B's entries may be anything
    a RatFunc scales (SolExpr), so each stays the left operand; the
    product's zero is taken from B."""
    rows, inner = shape(A)
    inner2, cols = shape(B)
    if inner != inner2:
        raise ValueError(f"shape mismatch: {rows}x{inner} times {inner2}x{cols}")
    if not cols:
        return [[] for _ in A]
    z = B[0][0] * _ZERO
    brows = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for ra in A:
        acc = [z] * cols
        for a, brow in zip(ra, brows):
            if a:
                for j, b in brow:
                    acc[j] = acc[j] + b * a
        out.append(acc)
    return out


def first_mismatch(P, D, A, B):
    """The first (row, col), row-major, where D differs from B P - P A, or
    None when D = B P - P A; D = None stands for d_x P = 0, and A = None
    for a zero A, whose P A side is not summed.  Entry (r, c)
    compares B[r] P[:, c] with D[r][c] + P[r] A[:, c], each a sum over the
    nonzero terms only, started at its first one.  As in mul, P's entries
    may be anything a RatFunc scales (SolExpr), so each stays the left
    operand; an entry under P's weight _ONE is used as it is.  Two empty
    sums, or two sums that are one object, are equal with no comparison."""
    D = [[None] * len(row) for row in P] if D is None else _nonzero(D)
    acols = None if A is None else _nonzero(zip(*A))
    pcols = [[(k, p) for k, p in enumerate(col) if p] for col in zip(*P)]
    for r, (brow, prow, drow) in enumerate(zip(_nonzero(B), P, D)):
        if acols is not None:
            prow = [(k, p) for k, p in enumerate(prow) if p]
        for c, pcol in enumerate(pcols):
            bp = _dot(pcol, brow, None)
            pa = drow[c] if acols is None else _dot(prow, acols[c], drow[c])
            if bp is pa:
                continue
            if bp is None or pa is None:
                if bp or pa:  # the one nonempty sum is not zero
                    return r, c
            elif bp != pa:
                return r, c
    return None


def _nonzero(rows):
    """rows as lists with None for each zero entry."""
    return [[a if a else None for a in row] for row in rows]


def _dot(pairs, vec, acc):
    """acc plus the sum of p * vec[k] over (k, p) in pairs, None standing
    for a zero vec[k] and for an empty sum; a p that is _ONE gives vec[k]."""
    for k, p in pairs:
        a = vec[k]
        if a is not None:
            term = a if p is _ONE else p * a
            acc = term if acc is None else acc + term
    return acc


def transpose(A):
    return [list(row) for row in zip(*A)]


def deriv(A, var: str):
    return _map_distinct(A, lambda a: a.deriv(var))


def _map_distinct(A, f):
    """[[f(a) for a in row] for row in A], calling f once per distinct entry
    object: prolongation blocks of weight 1, and zero blocks, share theirs.
    Entries are immutable and A keeps each alive, so id() is a safe key."""
    done = {}
    out = []
    for row in A:
        line = []
        for a in row:
            key = id(a)
            if key not in done:
                done[key] = f(a)
            line.append(done[key])
        out.append(line)
    return out


def eq(A, B) -> bool:
    if shape(A) != shape(B):
        return False
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def is_zero(A) -> bool:
    return all(a.is_zero for row in A for a in row)


def is_constant(A) -> bool:
    return all(a.is_constant for row in A for a in row)


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


def prolongation(X, i: int, weight):
    """Block lower-triangular order-i prolongation of the matrix X: block
    (r, c) is weight(r, c) * d_t^(r-c) X for r >= c, and a zero block of
    X's shape fills the strict upper triangle and every block of weight 0.

    X's entries are RatFunc or anything a RatFunc scales.  Each other weight
    is turned into a RatFunc once; a weight of 1 reuses the block as it is.
    """
    tower = [X]
    for _ in range(i):
        tower.append(deriv(tower[-1], "t"))
    return _tower_prolongation(tower, i, weight)


def _tower_prolongation(derivs, i: int, weight):
    """prolongation(X, i, weight) from a tower [X, X_t, ...] of > i levels."""
    if i < 0:
        raise ValueError("prolongation order must be >= 0")
    X = derivs[0]
    z = X[0][0] * _ZERO
    zero = [[z] * len(X[0]) for _ in X]
    grid = []
    for r in range(i + 1):
        brow = []
        for c in range(i + 1):
            w = weight(r, c) if r >= c else 0
            if w == 0:
                brow.append(zero)
            elif w == 1:
                brow.append(derivs[r - c])
            else:
                brow.append(scale(derivs[r - c], RatFunc.from_int(w)))
        grid.append(brow)
    return block(grid)


def _reduce(M, cols: int) -> tuple[list[RatFunc], int]:
    """Gauss-Jordan elimination of M in place on its first `cols` columns,
    over the pivot row's nonzero entries; a pivot 1 takes no scaling pass.

    Returns the pivots and the number of row swaps.  The number of pivots
    is the rank of the first `cols` columns, and their pivot rows come
    first, each with a leading 1.
    """
    pivots = []
    swaps = 0
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            swaps += 1
        p = M[r][c]
        pivots.append(p)
        if not p.is_one:
            inv = _ONE / p
            M[r] = [w * inv if w else w for w in M[r]]
        nz = [(j, w) for j, w in enumerate(M[r]) if w]
        for i, row in enumerate(M):
            f = row[c]
            if f and i != r:
                for j, w in nz:
                    row[j] = row[j] - f * w
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


def inverse(A, B=None):
    """A^(-1) B (A^(-1) when B is None) by one elimination of [A | B]."""
    rows, cols = shape(A)
    if rows != cols:
        raise ValueError("inverse of a non-square matrix")
    B = identity(rows) if B is None else B
    if len(B) != rows:
        raise ValueError(f"shape mismatch: B has {len(B)} rows, not {rows}")
    M = [list(row) + list(brow) for row, brow in zip(A, B)]
    if len(_reduce(M, cols)[0]) < cols:
        raise ValueError("matrix is singular")
    return [row[cols:] for row in M]
