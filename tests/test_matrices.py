import itertools
import math
import random

import pytest

from prolongkit import matrices as mat
from prolongkit.diffmod import (DiffModule, ModuleMorphism, change_basis_matrix,
                                inclusion_i, projection_phi, prolong,
                                prolong_lemma, prolong_morphism)
from prolongkit.exprparse import parse_expr
from prolongkit.ratfield import RatFunc
from prolongkit.sampling import random_module
from prolongkit.solspace import (build_fundamental_prolongation,
                                 parse_solution, unweighted_prolongation)


def pmat(rows):
    return [[parse_expr(e) for e in row] for row in rows]


# elimination over non-constant entries -----------------------------------

# the third row is x * row 0 + t * row 1
RANK_2 = pmat([
    ["x", "t", "1/x"],
    ["1", "x + t", "t^2"],
    ["x^2 + t", "2*x*t + t^2", "1 + t^3"],
])


@pytest.mark.parametrize("rows, want", [
    (["x, t, 1", "x^2, x*t, x"], 1),
    (["x, t, 1", "1, x, t"], 2),
    (["x, 1", "t, x", "1, t"], 2),
    (["x, 1/t", "x^2, x/t", "t*x, 1"], 1),
    (["0, 0", "0, 0", "0, 0"], 0),
], ids=["2x3-rank1", "2x3-rank2", "3x2-rank2", "3x2-rank1", "3x2-zero"])
def test_rank_of_non_square(rows, want):
    A = pmat([r.split(", ") for r in rows])
    assert mat.rank(A) == want
    assert mat.rank(mat.transpose(A)) == want


def test_rank_two_of_three_by_three():
    assert mat.rank(RANK_2) == 2
    assert mat.rank(mat.transpose(RANK_2)) == 2


def test_det_of_singular_is_zero():
    assert mat.det(RANK_2).is_zero
    assert mat.det(pmat([["x", "t"], ["x^2*t", "x*t^2"]])).is_zero


def _leibniz_det(A):
    n = len(A)
    total = RatFunc.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        term = RatFunc.from_int(-1 if inversions % 2 else 1)
        for r in range(n):
            term = term * A[r][perm[r]]
        total = total + term
    return total


FULL_3 = pmat([
    ["0", "x", "1/t"],
    ["t", "x + 1", "0"],
    ["1/(x + t)", "t^2", "x*t"],
])


def test_det_matches_the_permutation_expansion():
    assert mat.det(FULL_3) == _leibniz_det(FULL_3)
    assert not mat.det(FULL_3).is_zero


def test_det_changes_sign_under_a_row_swap():
    swapped = [FULL_3[1], FULL_3[0], FULL_3[2]]
    assert mat.det(swapped) == -mat.det(FULL_3)


def test_det_of_triangular_is_product_of_diagonal():
    L = pmat([
        ["x + t", "0", "0"],
        ["1/x", "t/x", "0"],
        ["x^2", "t - 1", "1/(x - t)"],
    ])
    want = L[0][0] * L[1][1] * L[2][2]
    assert mat.det(L) == want
    assert mat.det(mat.transpose(L)) == want


def test_inverse_times_matrix_is_identity():
    Ainv = mat.inverse(FULL_3)
    assert mat.eq(mat.mul(Ainv, FULL_3), mat.identity(3))
    assert mat.eq(mat.mul(FULL_3, Ainv), mat.identity(3))


def test_elimination_leaves_its_argument_alone():
    before = [list(row) for row in FULL_3]
    mat.rank(FULL_3)
    mat.det(FULL_3)
    mat.inverse(FULL_3)
    assert FULL_3 == before


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        mat.inverse(RANK_2)


@pytest.mark.parametrize("fn", [mat.det, mat.inverse])
def test_non_square_det_and_inverse_raise(fn):
    with pytest.raises(ValueError, match="non-square"):
        fn(pmat([["x", "t", "1"], ["1", "x", "t"]]))


# block layout of the six prolongation builders ---------------------------

def _t_powers(X, i, deriv):
    out = [X]
    for _ in range(i):
        out.append(deriv(out[-1]))
    return out


def _rf_deriv(X):
    return mat.deriv(X, "t")


def _sol_deriv(X):
    return mat.deriv(X, "t")


def _rf_times(e, w):
    return e * RatFunc.from_int(w)


def _sol_times(e, w):
    return e.scale(RatFunc.from_int(w))


SOLUTIONS = {
    1: [["theta"]],
    2: [["theta", "lam*theta"], ["t*x", "theta^2 + lam"]],
}


def _gauge_morphism(M):
    """A morphism M -> N whose matrix depends on t to degree 3, so that
    every block of its order-3 prolongation is nonzero."""
    P = pmat([["t^3 + x"]] if M.n == 1
             else [["t^3 + x", "t*x"], ["0", "t^2 + 1"]])
    B = mat.mul(mat.add(mat.deriv(P, "x"), mat.mul(P, M.A)), mat.inverse(P))
    return ModuleMorphism(M, DiffModule(B), P)


def _layout(builder, n, i):
    """(matrix, block height, block width, the blocks d_t^k X by k, the
    weight of block (r, c), whether the blocks sit above the diagonal, and
    the entry scaling)."""
    M = random_module(random.Random(40 + n), n)
    binomial = math.comb
    if builder in ("prolong", "prolong_lemma"):
        build = prolong if builder == "prolong" else prolong_lemma
        weight = (binomial if builder == "prolong"
                  else lambda r, c: math.comb(i - c, r - c))
        return (build(M, i).A, n, n, _t_powers(M.A, i, _rf_deriv), weight,
                False, _rf_times)
    if builder == "change_basis_matrix":
        return (change_basis_matrix(n, i), n, n, [mat.identity(n)] * (i + 1),
                lambda p, q: math.comb(i - q + p, p), True, _rf_times)
    if builder.startswith("prolong_morphism"):
        phi = {"prolong_morphism": _gauge_morphism,
               "prolong_morphism-inclusion": inclusion_i,
               "prolong_morphism-projection": projection_phi}[builder](M)
        lifted = prolong_morphism(phi, i)
        assert lifted.src == prolong(phi.src, i)
        assert lifted.dst == prolong(phi.dst, i)
        return (lifted.P, phi.dst.n, phi.src.n, _t_powers(phi.P, i, _rf_deriv),
                binomial, False, _rf_times)
    Y = [[parse_solution(e) for e in row] for row in SOLUTIONS[n]]
    if builder == "build_fundamental_prolongation":
        got, weight = build_fundamental_prolongation(Y, i), binomial
    else:
        got, weight = unweighted_prolongation(Y, i), lambda r, c: 1
    return got, n, n, _t_powers(Y, i, _sol_deriv), weight, False, _sol_times


BUILDERS = ["prolong", "prolong_lemma", "change_basis_matrix",
            "prolong_morphism", "prolong_morphism-inclusion",
            "prolong_morphism-projection", "build_fundamental_prolongation",
            "unweighted_prolongation"]


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_blocks_match_their_formula(builder, n, i):
    got, h, w, powers, weight, upper, times = _layout(builder, n, i)
    assert len(got) == (i + 1) * h
    assert all(len(row) == (i + 1) * w for row in got)
    for r in range(i + 1):
        for c in range(i + 1):
            k = c - r if upper else r - c
            for a in range(h):
                for b in range(w):
                    e = got[r * h + a][c * w + b]
                    if k < 0:
                        assert e.is_zero, (r, c, a, b)
                    else:
                        want = times(powers[k][a][b], weight(r, c))
                        assert e == want, (r, c, a, b)


def test_gauge_morphism_has_nonzero_blocks_up_to_order_three():
    for n in (1, 2):
        phi = _gauge_morphism(random_module(random.Random(40 + n), n))
        powers = _t_powers(phi.P, 3, _rf_deriv)
        assert not any(mat.is_zero(X) for X in powers)


@pytest.mark.parametrize("build, arg", [
    (prolong_lemma, DiffModule([[RatFunc.var_t()]])),
    (build_fundamental_prolongation, [[parse_solution("theta")]]),
    (unweighted_prolongation, [[parse_solution("theta")]]),
], ids=["prolong_lemma", "build_fundamental_prolongation",
        "unweighted_prolongation"])
def test_builders_reject_negative_order(build, arg):
    with pytest.raises(ValueError, match="order"):
        build(arg, -1)


def test_block_triangular_fills_zero_weights_and_upper_triangle():
    X = pmat([["x", "t"]])
    Z = mat.zeros(1, 2)
    got = mat.block_triangular([X, X, X], lambda r, c: r - c, Z)
    assert got == pmat([
        ["0", "0", "0", "0", "0", "0"],
        ["x", "t", "0", "0", "0", "0"],
        ["2*x", "2*t", "x", "t", "0", "0"],
    ])
