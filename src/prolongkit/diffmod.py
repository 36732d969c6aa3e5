"""Differential modules over Q(x, t) and their prolongation calculus.

A module of dimension n is encoded by its n x n system matrix A: writing the
action on basis vectors as d_x e_j = -sum_i A[i][j] e_i, the coordinate
vector a of a horizontal element satisfies d_x a = A a.  Under this sign
convention a matrix P is (the coordinate matrix of) a morphism from a module
with matrix A to one with matrix B exactly when

    d_x P = B P - P A,

which is what is_morphism checks.  Three prolongation shapes appear:

  prolong        block (r, c) = C(r, c) * d_t^(r-c) A          (binomial)
  prolong_lemma  block (r, c) = C(i-c, r-c) * d_t^(r-c) A      (one-step form,
                 basis ordered highest t-derivative first)
  iterate_F      k-fold iteration of B -> [[B, 0], [B_t, B]],  dimension 2^k n;
                 with blocks indexed by subsets r, c of the k steps, block
                 (r, c) = d_t^popcount(r xor c) A if c & ~r == 0, else 0

The two order-i shapes are conjugate by the constant upper-triangular matrix
of change_basis_matrix, and the order-2 one-step shape embeds into the
twice-iterated shape through the constant map of embedding_E.  These two,
inclusion_i, projection_phi and dual_swap_g are each a constant map
W (x) I_n of a small rational pattern W, whose entries are placed into a
zero matrix with no product taken.
Every prolongation, here and in solspace, is built from the one derivative
tower A, A_t, ..., d_t^i A, by the block builder behind
matrices.prolongation or, for the iterated shape, by iterate_F.

A module keeps its tower, extended on demand, from which prolong,
prolong_lemma and iterate_F build, and what prolong and dual return for it:
a repeat call of these two returns the same object, so no module's A may be
mutated.  Two threads calling at once may both compute a value; the results
are equal.
"""

from __future__ import annotations

import math

from . import matrices as mat
from .matrices import _ONE, _ZERO
from .ratfield import Fraction, RatFunc


class DiffModule:
    """Finite-dimensional differential module, presented by its matrix; it
    keeps what is derived from it (see above), so A must not be mutated."""

    __slots__ = ("n", "A", "name", "_kept")

    def __init__(self, A, name=None):
        n = len(A)
        if n == 0 or any(len(row) != n for row in A):
            raise ValueError("module matrix must be square and nonempty")
        self.n = n
        self.A = [list(row) for row in A]
        self.name = name
        self._kept = {}

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffModule):
            return self.n == other.n and mat.eq(self.A, other.A)
        return NotImplemented

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<DiffModule{tag} n={self.n}>"


def trivial_module() -> DiffModule:
    """The one-dimensional module with zero action."""
    return DiffModule([[RatFunc.zero()]])


# t/x, the entry of the running example, reduced once
_T_OVER_X = RatFunc.var_t() / RatFunc.var_x()


def xt_module() -> DiffModule:
    """The running 1-dimensional example, system matrix (t/x), solved by
    x^t; solspace.xt_example pairs it with that solution."""
    return DiffModule([[_T_OVER_X]], name="xt")


class ModuleMorphism:
    """A matrix P with d_x P = dst.A P - P src.A; checked at construction."""

    __slots__ = ("src", "dst", "P")

    def __init__(self, src: DiffModule, dst: DiffModule, P):
        if not is_morphism(P, src, dst):
            raise ValueError("matrix does not satisfy the morphism condition")
        self.src = src
        self.dst = dst
        self.P = [list(row) for row in P]

    def __repr__(self) -> str:
        return f"<ModuleMorphism {self.src.n} -> {self.dst.n}>"


def is_morphism(P, src: DiffModule, dst: DiffModule) -> bool:
    """Does P define a morphism src -> dst of differential modules?  d_x P =
    B P - P A is checked entry by entry, up to the first mismatch, with no
    matrix product (matrices.first_mismatch); a constant P takes no d_x
    and passes no D, since d_x P = 0."""
    rows, cols = mat.shape(P)
    if rows != dst.n or cols != src.n:
        raise ValueError(
            f"morphism matrix must be {dst.n}x{src.n}, got {rows}x{cols}")
    D = None if mat.is_constant(P) else mat.deriv(P, "x")
    return mat.first_mismatch(P, D, src.A, dst.A) is None


def _pattern(W, n: int):
    """The constant map W (x) I_n of the rational scalar pattern W: each
    nonzero weight w, as _ONE when w is 1, fills the n diagonal slots
    of its block of a zero matrix."""
    P = mat.zeros(len(W) * n, len(W[0]) * n)
    for i, row in enumerate(W):
        for j, w in enumerate(row):
            if w:
                e = _ONE if w == 1 else RatFunc.from_fraction(w)
                for d in range(n):
                    P[i * n + d][j * n + d] = e
    return P


def _keep(M: DiffModule, key, build):
    """M's value under key, kept from build() on first use unless it raises."""
    return M._kept[key] if key in M._kept else M._kept.setdefault(key, build())


def _tower(M: DiffModule, i: int):
    """[A, A_t, ..., d_t^i A], each level kept on M under its order."""
    tower = [M.A]
    for j in range(1, i + 1):
        tower.append(_keep(M, j, lambda: mat.deriv(tower[-1], "t")))
    return tower


# prolongation shapes ------------------------------------------------------

def prolong(M: DiffModule, i: int) -> DiffModule:
    """Order-i prolongation with binomial weights.

    Block (r, c) of the (i+1)n x (i+1)n result is C(r, c) * d_t^(r-c) A;
    i = 0 gives a copy of M's matrix.  The result is kept on M, so a repeat
    call returns the same object.
    """
    return _keep(M, ("prolong", i), lambda: DiffModule(
        mat._tower_prolongation(_tower(M, i), i, math.comb)))


def prolong_lemma(M: DiffModule, i: int) -> DiffModule:
    """Order-i prolongation in the one-step (highest derivative first) basis.

    Block (r, c) is C(i-c, r-c) * d_t^(r-c) A, so the first column carries
    C(i, 1) A_t, C(i, 2) A_tt, ...
    """
    return DiffModule(mat._tower_prolongation(
        _tower(M, i), i, lambda r, c: math.comb(i - c, r - c)))


def change_basis_matrix(n: int, i: int):
    """Constant invertible C with conjugate_constant(prolong_lemma(M, i), C)
    equal to prolong(M, i).

    Block (p, q) is binom(i - q + p, p) * I_n for p <= q, zero below the
    diagonal; the diagonal blocks binom(i, p) * I_n make det(C) nonzero.
    """
    if n < 1 or i < 0:
        raise ValueError("need n >= 1 and i >= 0")
    return _pattern([[math.comb(i - q + p, p) if p <= q else 0
                      for q in range(i + 1)] for p in range(i + 1)], n)


def conjugate_constant(M: DiffModule, C) -> DiffModule:
    """Rewrite M in the basis transformed by the constant matrix C.

    The system matrix becomes (C^T)^(-1) A C^T.  C must be constant (both
    derivatives zero entrywise) and invertible.  One product and one
    elimination, mat.inverse(C^T, A C^T), compute it with no inverse formed.
    """
    rows, cols = mat.shape(C)
    if rows != M.n or cols != M.n:
        raise ValueError(f"change of basis must be {M.n}x{M.n}")
    if not mat.is_constant(C):
        raise ValueError("change of basis matrix must be constant")
    Ct = mat.transpose(C)
    return DiffModule(mat.inverse(Ct, mat.mul(M.A, Ct)))  # raises if singular


def iterate_F(M: DiffModule, k: int) -> DiffModule:
    """k-fold prolong(., 1): B -> [[B, 0], [B_t, B]], dimension 2^k n.

    Index the 2^k blocks of a side by subsets of the k steps, bit s set
    where step s took the derivative slot.  Block (r, c) is
    d_t^popcount(r xor c) A when c is a subset of r (c & ~r == 0) and zero
    otherwise, so the result is built from A's t-derivative tower up to
    order k, each level shared by the blocks that use it.
    """
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    tower, zero, size = _tower(M, k), mat.zeros(M.n, M.n), 1 << k
    return DiffModule(mat.block([
        [tower[(r ^ c).bit_count()] if not c & ~r else zero
         for c in range(size)] for r in range(size)]))


def embedding_E(M: DiffModule) -> ModuleMorphism:
    """Constant embedding of the order-2 one-step prolongation into the
    twice-iterated first prolongation.

    Rows follow the iterated basis (dd, d1, 1d, 11 blocks), columns the
    one-step basis (second derivative first); the middle column splits
    evenly over the two mixed blocks, giving rank 3n.
    """
    half = Fraction(1, 2)
    P = _pattern([[1, 0, 0], [0, half, 0], [0, half, 0], [0, 0, 1]], M.n)
    return ModuleMorphism(prolong_lemma(M, 2), iterate_F(M, 2), P)


# binary constructions -----------------------------------------------------

def tensor(M: DiffModule, N: DiffModule) -> DiffModule:
    """Tensor product; matrix A (x) I + I (x) B on the row-major paired basis.

    Each nonzero entry of A and of B is placed into a zero matrix; only a
    diagonal entry of A and one of B that meet on a slot make a sum.
    """
    n, m = M.n, N.n
    T = mat.zeros(n * m, n * m)
    for p, row in enumerate(M.A):
        for p2, a in enumerate(row):
            if a:
                for q in range(m):
                    T[p * m + q][p2 * m + q] = a
    for q, row in enumerate(N.A):
        for q2, b in enumerate(row):
            if b:
                for p in range(n):
                    line, j = T[p * m + q], p * m + q2
                    line[j] = b if line[j] is _ZERO else line[j] + b
    return DiffModule(T)


def dsum(M: DiffModule, N: DiffModule) -> DiffModule:
    """Direct sum; block-diagonal matrix."""
    return DiffModule(mat.block([
        [M.A, mat.zeros(M.n, N.n)],
        [mat.zeros(N.n, M.n), N.A],
    ]))


def dual(M: DiffModule) -> DiffModule:
    """Dual module; matrix -A^T on the dual basis, kept on M."""
    return _keep(M, "dual", lambda: DiffModule(mat.neg(mat.transpose(M.A))))


def dual_morphism(phi: ModuleMorphism) -> ModuleMorphism:
    """Transpose of a morphism, running between the duals in reverse."""
    return ModuleMorphism(dual(phi.dst), dual(phi.src), mat.transpose(phi.P))


# structure maps of the first prolongation ---------------------------------

def inclusion_i(M: DiffModule) -> ModuleMorphism:
    """M -> prolong(M, 1), hitting the order-0 coordinates (the last block)."""
    return ModuleMorphism(M, prolong(M, 1), _pattern([[0], [1]], M.n))


def projection_phi(M: DiffModule) -> ModuleMorphism:
    """prolong(M, 1) -> M, reading off the order-1 coordinates (first block)."""
    return ModuleMorphism(prolong(M, 1), M, _pattern([[1, 0]], M.n))


def product_rule_map(M: DiffModule, N: DiffModule) -> ModuleMorphism:
    """prolong(M (x) N, 1) -> prolong(M, 1) (x) prolong(N, 1).

    Slot 0 of a first prolongation is its first block, the order-1
    coordinates that projection_phi reads, and slot 1 the order-0 block.
    Source slot r of the pair (p, q) goes to target slot (a, b) for
    (a, b, r) in (0, 1, 0), (1, 0, 0) and (1, 1, 1): the derivative lands
    once in each mixed slot (the product rule) and the order-0 slot in the
    order-0 slot of both factors.  The target basis is Kronecker-ordered,
    so its four slots are interleaved rather than contiguous; the constant
    matrix has rank 2 * dim(M) * dim(N).
    """
    n, m = M.n, N.n
    nm = n * m
    P = mat.zeros(4 * nm, 2 * nm)
    for a, b, r in ((0, 1, 0), (1, 0, 0), (1, 1, 1)):
        for p in range(n):
            for q in range(m):
                P[(a * n + p) * 2 * m + b * m + q][r * nm + p * m + q] = _ONE
    return ModuleMorphism(prolong(tensor(M, N), 1),
                          tensor(prolong(M, 1), prolong(N, 1)), P)


def dual_swap_g(M: DiffModule) -> ModuleMorphism:
    """prolong(dual(M), 1) -> dual(prolong(M, 1)), swapping the two blocks.

    An isomorphism (the matrix is a block permutation) that matches the
    projection of the dual with the dual of the inclusion and vice versa.
    """
    return ModuleMorphism(prolong(dual(M), 1), dual(prolong(M, 1)),
                          _pattern([[0, 1], [1, 0]], M.n))


def prolong_morphism(phi: ModuleMorphism, i: int) -> ModuleMorphism:
    """Functorial order-i prolongation of a morphism: block (r, c) is
    C(r, c) * d_t^(r-c) P, a morphism prolong(src, i) -> prolong(dst, i)."""
    P = mat.prolongation(phi.P, i, math.comb)
    return ModuleMorphism(prolong(phi.src, i), prolong(phi.dst, i), P)
