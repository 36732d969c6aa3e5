import itertools
import math
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from prolongkit import diffmod, ratfield
from prolongkit import matrices as mat
from prolongkit.diffmod import (DiffModule, ModuleMorphism, change_basis_matrix,
                                conjugate_constant, dsum, dual_swap_g,
                                embedding_E, inclusion_i, is_morphism,
                                product_rule_map, projection_phi, prolong,
                                prolong_lemma, prolong_morphism)
from prolongkit.exprparse import parse_expr
from prolongkit.ratfield import RatFunc
from prolongkit.sampling import random_constant_invertible, random_module
from prolongkit.solspace import (SolExpr, build_fundamental_prolongation,
                                 parse_solution, unweighted_prolongation)

from dense_reference import first_mismatch as dense_first_mismatch
from dense_reference import add, kron, sub


def pmat(rows):
    return [[parse_expr(e) for e in row] for row in rows]


# the product over nonzero entries ----------------------------------------

def _mul_reference(A, B, zero):
    """The plain triple loop: every pair of entries, zeros and units too."""
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), zero)
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


# zeros and units repeated, so that most products meet them
_RF_ENTRIES = [parse_expr(e) for e in (
    "0", "0", "0", "1", "1", "-1", "3", "-2/3", "x", "t", "x^2 - t*x + 1",
    "1/x", "t/(x + 1)", "(x + t)/(x - t)", "1/2")]
_SOL_ENTRIES = [parse_solution(e) for e in (
    "0", "0", "1", "theta", "lam*theta", "x*theta + t", "1/x", "theta^2 - lam")]


def _matrices(entries, rows, cols):
    return st.lists(st.lists(st.sampled_from(entries), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


_shapes = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@hypothesis.given(_shapes.flatmap(lambda s: st.tuples(
    _matrices(_RF_ENTRIES, s[0], s[1]), _matrices(_RF_ENTRIES, s[1], s[2]))))
@hypothesis.settings(deadline=None, max_examples=150)
def test_mul_matches_the_triple_loop(AB):
    A, B = AB
    before = ([list(r) for r in A], [list(r) for r in B])
    got = mat.mul(A, B)
    assert mat.shape(got) == (len(A), len(B[0]))
    assert mat.eq(got, _mul_reference(A, B, RatFunc.zero()))
    assert (A, B) == before


@hypothesis.given(_shapes.flatmap(lambda s: st.tuples(
    _matrices(_RF_ENTRIES, s[0], s[1]), _matrices(_SOL_ENTRIES, s[1], s[2]))))
@hypothesis.settings(deadline=None, max_examples=100)
def test_mul_by_a_solution_matrix_matches_the_triple_loop(AY):
    A, Y = AY
    got = mat.mul(A, Y)
    assert all(type(e) is SolExpr for row in got for e in row)
    assert mat.eq(got, _mul_reference(A, Y, SolExpr.zero()))


@pytest.mark.parametrize("A, B, want", [
    ([], [], []),
    ([[], []], [], [[], []]),
    ([["x", "1", "0"], ["t", "0", "1"]], [[], [], []], [[], []]),
], ids=["0x0-0x0", "2x0-0x0", "2x3-3x0"])
def test_mul_with_an_empty_shape(A, B, want):
    assert mat.mul(pmat(A), B) == want


def test_mul_rejects_a_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch: 2x3 times 2x2"):
        mat.mul(pmat([["x", "1", "0"], ["t", "0", "1"]]),
                pmat([["1", "0"], ["0", "1"]]))


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


def test_matrices_of_different_shapes_are_not_equal():
    assert not mat.eq(pmat([["x", "t"]]), pmat([["x"], ["t"]]))


# the elimination against a dense reference -------------------------------

def _dense_gauss_jordan(A, cols):
    """The plain Gauss-Jordan elimination: whole rows, every entry divided
    and multiplied, zeros and units too.  Returns the rank of the first
    `cols` columns, the determinant of a square A and the reduced rows."""
    M = [list(row) for row in A]
    rank, det = 0, RatFunc.one()
    for c in range(cols):
        pivot = next((i for i in range(rank, len(M)) if not M[i][c].is_zero),
                     None)
        if pivot is None:
            det = RatFunc.zero()
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        if pivot != rank:
            det = -det
        p = M[rank][c]
        det = det * p
        M[rank] = [v / p for v in M[rank]]
        for i in range(len(M)):
            if i != rank:
                f = M[i][c]
                M[i] = [v - f * w for v, w in zip(M[i], M[rank])]
        rank += 1
    return rank, det, M


def _dense_inverse(A):
    n = len(A)
    aug = [list(row) + list(irow) for row, irow in zip(A, mat.identity(n))]
    rank, _, M = _dense_gauss_jordan(aug, n)
    return [row[n:] for row in M] if rank == n else None


def _assert_elimination_matches(A):
    before = [list(row) for row in A]
    rows, cols = mat.shape(A)
    rank, det, _ = _dense_gauss_jordan(A, cols)
    assert mat.rank(A) == rank
    if rows == cols:
        assert mat.det(A) == det
        want = _dense_inverse(A)
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                mat.inverse(A)
        else:
            assert mat.eq(mat.inverse(A), want)
    assert A == before


@hypothesis.given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda s: _matrices(_RF_ENTRIES, *s)))
@hypothesis.settings(deadline=None, max_examples=150)
def test_rank_matches_the_dense_elimination(A):
    _assert_elimination_matches(A)


@hypothesis.given(st.integers(1, 5).flatmap(
    lambda n: _matrices(_RF_ENTRIES, n, n)))
@hypothesis.settings(deadline=None, max_examples=100)
def test_det_and_inverse_match_the_dense_elimination(A):
    _assert_elimination_matches(A)


@hypothesis.given(st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_matrices(_RF_ENTRIES, s[0], s[0]),
                        _matrices(_RF_ENTRIES, s[0], s[1]))))
@hypothesis.settings(deadline=None, max_examples=100)
def test_inverse_times_b_matches_the_product(AB):
    A, B = AB
    before = ([list(r) for r in A], [list(r) for r in B])
    if _dense_inverse(A) is None:
        with pytest.raises(ValueError, match="singular"):
            mat.inverse(A, B)
    else:
        assert mat.eq(mat.inverse(A, B), mat.mul(mat.inverse(A), B))
    assert (A, B) == before


def test_inverse_times_b_of_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        mat.inverse(RANK_2, FULL_3)


@pytest.mark.parametrize("rows", [2, 4])
def test_inverse_times_b_rejects_a_row_count_mismatch(rows):
    with pytest.raises(ValueError, match="shape mismatch"):
        mat.inverse(FULL_3, mat.identity(rows))


def _structure_maps(n):
    M = random_module(random.Random(n), n, 2)
    N = random_module(random.Random(n + 10), 1, 2)
    return [inclusion_i(M).P, projection_phi(M).P,
            product_rule_map(M, N).P, dual_swap_g(M).P, embedding_E(M).P]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_maps_match_the_dense_elimination(n):
    for P in _structure_maps(n):
        _assert_elimination_matches(P)
        _assert_elimination_matches(mat.transpose(P))


@pytest.fixture
def products(monkeypatch):
    """The RatFunc products made from here on by two factors other than 1,
    as pairs of factors; a product by 1 returns at once, so it is no work."""
    calls = []
    mul = RatFunc.__mul__

    def counting(a, b):
        if a != 1 and b != 1:
            calls.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(RatFunc, "__mul__", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elimination_of_a_0_1_structure_map_makes_no_product(products, n):
    maps = _structure_maps(n)[:4]  # all but the embedding's 1/2 entries
    products.clear()
    ranks = [mat.rank(P) for P in maps]
    det = mat.det(maps[3])
    inverse = mat.inverse(maps[3])
    assert products == []
    assert ranks == [n, n, 2 * n, 2 * n]
    assert det == RatFunc.from_int((-1) ** n)
    assert mat.eq(inverse, maps[3])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elimination_of_a_0_1_structure_map_makes_no_gcd(monkeypatch, n):
    maps = _structure_maps(n)[:4]
    calls = []
    gcd = ratfield.gcd

    def counting(p, q):
        calls.append((p, q))
        return gcd(p, q)
    monkeypatch.setattr(ratfield, "gcd", counting)
    ranks = [mat.rank(P) for P in maps]
    det, inverse = mat.det(maps[3]), mat.inverse(maps[3])
    assert calls == []
    assert ranks == [n, n, 2 * n, 2 * n]
    assert det == RatFunc.from_int((-1) ** n)
    assert mat.eq(inverse, maps[3])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_by_the_identity_keep_the_entry_objects(n):
    # a 1 of A meets a 1 of the identity, and either factor is the other,
    # so only A's other nonzero entries are checked by identity
    rng = random.Random(n)
    A = [[rng.choice(_RF_ENTRIES) for _ in range(n)] for _ in range(n)]
    I = mat.identity(n)

    def same(g, a):
        return g is a if a != 1 else g == 1
    for got in (mat.mul(I, A), mat.mul(A, I)):
        assert mat.eq(got, A)
        assert all(same(g, a) for row, arow in zip(got, A)
                   for g, a in zip(row, arow) if a)
    K = kron(I, A)
    assert all(same(K[i * n + k][i * n + l], a) for i in range(n)
               for k, arow in enumerate(A) for l, a in enumerate(arow) if a)
    assert mat.eq(K, mat.block([[A if r == c else mat.zeros(n, n)
                                 for c in range(n)] for r in range(n)]))


@pytest.mark.parametrize("rows, rank, det", [
    (["1, 1", "2, 2"], 1, "0"),
    (["1, 1", "2, 3"], 2, "1"),
    (["1, 1, 0", "x, x + 1, 0", "0, 1, 1"], 3, "1"),
], ids=["rank-1", "unit-det", "x-factor"])
def test_units_of_the_pivot_row_take_no_product(products, rows, rank, det):
    # the pivot rows hold only zeros and units, so every product a row
    # operation could make is by a unit
    A, want = pmat([r.split(", ") for r in rows]), parse_expr(det)
    products.clear()
    got = mat.rank(A), mat.det(A)
    assert products == []
    assert got == (rank, want)


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
    B = mat.mul(add(mat.deriv(P, "x"), mat.mul(P, M.A)), mat.inverse(P))
    return ModuleMorphism(M, DiffModule(B), P)


def _changed(P, r, c, delta):
    """P with entry (r, c) plus delta."""
    Q = [list(row) for row in P]
    Q[r][c] = Q[r][c] + parse_expr(delta)
    return Q


def _condition_holds(P, src, dst):
    """d_x P = B P - P A, with d_x P computed even when P is constant."""
    return mat.eq(mat.deriv(P, "x"),
                  sub(mat.mul(dst.A, P), mat.mul(P, src.A)))


# at n = 1 every constant scalar is a morphism of M to itself
@pytest.mark.parametrize("n", [2, 3])
def test_is_morphism_on_a_constant_matrix_skips_d_x(monkeypatch, n):
    rng = random.Random(50 + n)
    M = random_module(rng, n)
    C = random_constant_invertible(rng, n)
    N = conjugate_constant(M, C)
    Q = mat.inverse(mat.transpose(C))
    bad = _changed(Q, n - 1, 0, "1")
    assert mat.is_constant(Q) and mat.is_constant(bad)
    assert _condition_holds(Q, M, N) and not _condition_holds(bad, M, N)

    def no_deriv(A, var):
        raise AssertionError("d_x of a constant matrix was computed")
    monkeypatch.setattr(mat, "deriv", no_deriv)
    assert is_morphism(Q, M, N)
    assert not is_morphism(bad, M, N)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("delta", ["1", "x", "t^2"])
def test_is_morphism_on_a_gauge_matrix_takes_d_x(monkeypatch, n, delta):
    phi = _gauge_morphism(random_module(random.Random(40 + n), n))
    bad = _changed(phi.P, 0, n - 1, delta)
    assert not mat.is_constant(phi.P)
    assert not _condition_holds(bad, phi.src, phi.dst)

    derived = []
    deriv = mat.deriv
    monkeypatch.setattr(mat, "deriv",
                        lambda A, var: derived.append(var) or deriv(A, var))
    assert is_morphism(phi.P, phi.src, phi.dst)
    assert not is_morphism(bad, phi.src, phi.dst)
    assert derived == ["x", "x"]


def _pattern_morphism(M):
    """W (x) I_n for a W with weights 0, 1 (the shared unit), 1/2, 2 and
    1/3: a constant morphism from three copies of M to two, as is W (x) I_n
    for every rational 2x3 W, since (W (x) I)(I (x) A) = W (x) A."""
    W = [[1, 0, Fraction(1, 2)], [2, Fraction(1, 3), 1]]
    return ModuleMorphism(dsum(dsum(M, M), M), dsum(M, M),
                          diffmod._pattern(W, M.n))


def _assert_scan_matches(P, src, dst, want):
    """first_mismatch on P agrees with want, the dense first mismatch, with
    D = d_x P and, for a constant P, with D = None and an explicit zero."""
    Ds = [mat.deriv(P, "x")]
    if mat.is_constant(P):
        Ds += [None, mat.zeros(*mat.shape(P))]
    for D in Ds:
        assert mat.first_mismatch(P, D, src.A, dst.A) == want


@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("n", [1, 2])
def test_is_morphism_agrees_with_the_products_at_every_entry(n, i):
    M = random_module(random.Random(40 + n), n)
    # the pattern's order-i prolongation is the unprolonged one at i = 0,
    # and its size grows as (i + 1)^2, so it runs at the orders up to n
    phis = [prolong_morphism(_gauge_morphism(M), i)]
    if i <= n:
        phis.append(prolong_morphism(_pattern_morphism(M), i))
    for phi in phis:
        src, dst = phi.src, phi.dst
        assert dense_first_mismatch(phi.P, src, dst) is None
        _assert_scan_matches(phi.P, src, dst, None)
        rows, cols = mat.shape(phi.P)
        for r in range(rows):
            for c in range(cols):
                bads = [_changed(phi.P, r, c, delta)
                        for delta in ("1", "x*t")]
                if mat.is_constant(phi.P):
                    bads.append(_changed(phi.P, r, c, "1/2"))
                    bads.append([list(row) for row in phi.P])
                    bads[-1][r][c] = mat._ONE
                for bad in bads:
                    want = dense_first_mismatch(bad, src, dst)
                    assert is_morphism(bad, src, dst) == _condition_holds(
                        bad, src, dst) == (want is None)
                    _assert_scan_matches(bad, src, dst, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_map_checks_take_no_sum_and_no_product(monkeypatch, n):
    # each entry of either side is one module entry under a weight _ONE, or
    # an empty sum; a nonempty side is the other side's very object
    M = random_module(random.Random(n), n, 2)
    phis = [inclusion_i(M), projection_phi(M)]
    calls = []
    for name in ("__mul__", "__add__"):
        def counting(a, b, _run=getattr(RatFunc, name), _name=name):
            calls.append(_name)
            return _run(a, b)
        monkeypatch.setattr(RatFunc, name, counting)
    assert all(is_morphism(phi.P, phi.src, phi.dst) for phi in phis)
    assert calls == []


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


T_MODULE = DiffModule([[RatFunc.var_t()]])


@pytest.mark.parametrize("build, arg", [
    (prolong, T_MODULE),
    (prolong_lemma, T_MODULE),
    (prolong_morphism, ModuleMorphism(T_MODULE, T_MODULE, mat.identity(1))),
    (build_fundamental_prolongation, [[parse_solution("theta")]]),
    (unweighted_prolongation, [[parse_solution("theta")]]),
], ids=["prolong", "prolong_lemma", "prolong_morphism",
        "build_fundamental_prolongation", "unweighted_prolongation"])
def test_builders_reject_negative_order(build, arg):
    with pytest.raises(ValueError, match="prolongation order must be >= 0"):
        build(arg, -1)


def test_prolongation_fills_zero_weights_and_upper_triangle():
    # X_t = (2*x*t, 1/x) and X_tt = (2*x, 0); weight r - c is 0 on the
    # diagonal, 1 below it and 2 at block (2, 0)
    X = pmat([["x*t^2", "t/x"]])
    got = mat.prolongation(X, 2, lambda r, c: r - c)
    assert got == pmat([
        ["0", "0", "0", "0", "0", "0"],
        ["2*x*t", "1/x", "0", "0", "0", "0"],
        ["4*x", "0", "2*x*t", "1/x", "0", "0"],
    ])
