import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from prolongkit import checks, diffmod
from prolongkit import matrices as mat
from prolongkit.checks import check_dual_swap, check_embedding
from prolongkit.diffmod import (DiffModule, ModuleMorphism, change_basis_matrix,
                                conjugate_constant, dsum, dual, dual_morphism,
                                dual_swap_g, embedding_E, inclusion_i,
                                is_morphism, iterate_F, product_rule_map,
                                projection_phi, prolong, prolong_lemma,
                                prolong_morphism, tensor, trivial_module)
from prolongkit.exprparse import parse_expr, render_matrix
from prolongkit.ratfield import RatFunc
from prolongkit.sampling import (random_constant_invertible, random_module,
                                 random_poly_ratfunc)
from prolongkit.solspace import xt_example

from dense_reference import first_mismatch as dense_first_mismatch
from dense_reference import add, identity, kron, kron_sum


def pmat(rows):
    return [[parse_expr(e) for e in row] for row in rows]


XT = xt_example()[0]


def test_prolong_order_zero_echoes():
    assert prolong(XT, 0) == XT
    assert prolong_lemma(XT, 0) == XT
    assert iterate_F(XT, 0) == XT


def test_prolong_binomial_frozen():
    assert render_matrix(prolong(XT, 1).A) == [["t/x", "0"], ["1/x", "t/x"]]
    assert render_matrix(prolong(XT, 2).A) == [
        ["t/x", "0", "0"],
        ["1/x", "t/x", "0"],
        ["0", "2/x", "t/x"],
    ]


def test_prolong_lemma_frozen():
    assert render_matrix(prolong_lemma(XT, 2).A) == [
        ["t/x", "0", "0"],
        ["2/x", "t/x", "0"],
        ["0", "1/x", "t/x"],
    ]


def test_lemma_vs_binomial_differ_at_block_1_0():
    A = prolong(XT, 2).A
    B = prolong_lemma(XT, 2).A
    assert B[1][0] == A[1][0] * 2
    assert A[0] == B[0] and A[2][2] == B[2][2]


def test_iterate_frozen():
    assert render_matrix(iterate_F(XT, 2).A) == [
        ["t/x", "0", "0", "0"],
        ["1/x", "t/x", "0", "0"],
        ["1/x", "0", "t/x", "0"],
        ["0", "1/x", "1/x", "t/x"],
    ]
    assert iterate_F(XT, 3).n == 8


def _iterate_by_blocks(M, k):
    """The k-fold step B -> [[B, 0], [B_t, B]] written out block by block."""
    B = M.A
    for _ in range(k):
        n = len(B)
        B = mat.block([[B, mat.zeros(n, n)], [mat.deriv(B, "t"), B]])
    return B


@pytest.mark.parametrize("k", range(5))
def test_iterate_matches_the_block_step(k):
    for rows in ([["t^2/x", "x*t"], ["1/(x + t)", "t^3"]],
                 [["t/x", "0", "x^2"], ["1/(x + t)", "t^4", "x*t"],
                  ["0", "t^2/(x - 1)", "1"]]):
        M = DiffModule(pmat(rows))
        got = iterate_F(M, k)
        assert got.n == 2 ** k * M.n
        assert mat.eq(got.A, _iterate_by_blocks(M, k))


@pytest.fixture
def deriv_calls(monkeypatch):
    """A list that grows by one for every RatFunc.deriv call."""
    calls = []
    deriv = RatFunc.deriv

    def counted(self, var):
        calls.append(var)
        return deriv(self, var)

    monkeypatch.setattr(RatFunc, "deriv", counted)
    return calls


@pytest.mark.parametrize("rows", [
    [["t^2/x", "x*t"], ["1/(x + t)", "t^5"]],
    [["t/x", "t^4", "x^2*t^3"], ["1/(x + t)", "t^5", "x*t^4"],
     ["t^6", "t^2/(x - 1)", "x + t^5"]],
], ids=["2x2", "3x3"])
@pytest.mark.parametrize("k", range(4))
def test_iterate_differentiates_each_tower_entry_once(k, rows, deriv_calls):
    # the block step differentiates n^2 (4^k - 1) / 3 entries; the tower
    # has k levels of n^2 distinct entries to differentiate
    M = DiffModule(pmat(rows))
    iterate_F(M, k)
    assert len(deriv_calls) == k * M.n ** 2


@pytest.mark.parametrize("i", range(4))
def test_deriv_of_a_prolongation_visits_each_entry_object_once(i, deriv_calls):
    P = prolong(DiffModule(pmat([["t^2/x", "x*t"], ["1/(x + t)", "t^3"]])),
                i).A
    distinct = {id(a): a for row in P for a in row}
    deriv_calls.clear()
    D = mat.deriv(P, "x")
    assert len(deriv_calls) == len(distinct)
    if i:
        # weight-1 blocks and the zero block share their entries
        assert len(distinct) < len(P) ** 2
    assert D == [[a.deriv("x") for a in row] for row in P]


def test_constant_module_prolongs_diagonally():
    M = DiffModule(pmat([["0", "1"], ["0", "0"]]))
    P = prolong(M, 2)
    for r in range(3):
        for c in range(3):
            blk = [row[2 * c:2 * c + 2] for row in P.A[2 * r:2 * r + 2]]
            if r == c:
                assert mat.eq(blk, M.A)
            else:
                assert mat.is_zero(blk)


def test_change_basis_frozen():
    C = change_basis_matrix(1, 2)
    assert render_matrix(C) == [["1", "1", "1"], ["0", "2", "1"], ["0", "0", "1"]]
    assert change_basis_matrix(1, 1) == pmat([["1", "1"], ["0", "1"]])


def test_change_basis_invertible_small():
    for n in (1, 2, 3):
        for i in range(5):
            C = change_basis_matrix(n, i)
            assert not mat.det(C).is_zero


def test_conjugation_recovers_binomial_form():
    for i in range(4):
        got = conjugate_constant(prolong_lemma(XT, i), change_basis_matrix(1, i))
        assert got == prolong(XT, i)


def test_conjugation_by_scalar_is_identity():
    M = random_module(random.Random(1), 2)
    C = mat.scale(mat.identity(2), RatFunc.from_int(2))
    assert conjugate_constant(M, C) == M


def test_conjugate_rejects_singular_and_nonconstant():
    M = random_module(random.Random(2), 2)
    with pytest.raises(ValueError):
        conjugate_constant(M, mat.zeros(2, 2))
    bad = mat.identity(2)
    bad[0][1] = RatFunc.var_x()
    with pytest.raises(ValueError):
        conjugate_constant(M, bad)


def test_conjugation_random_seeded():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        i = rng.randint(0, 3)
        M = random_module(rng, n)
        C = change_basis_matrix(n, i)
        assert conjugate_constant(prolong_lemma(M, i), C) == prolong(M, i)


# morphisms ----------------------------------------------------------------

def test_is_morphism_identity_and_shape():
    M = random_module(random.Random(3), 2)
    assert is_morphism(mat.identity(2), M, M)
    with pytest.raises(ValueError):
        is_morphism(mat.identity(3), M, M)


def test_morphism_constructor_rejects_junk():
    rng = random.Random(4)
    M = random_module(rng, 2)
    N = random_module(rng, 2)
    P = mat.identity(2)
    if not is_morphism(P, M, N):
        with pytest.raises(ValueError):
            ModuleMorphism(M, N, P)


def test_constant_conjugation_gives_morphism():
    # q = (C^T)^(-1) intertwines M with its conjugate
    rng = random.Random(6)
    M = random_module(rng, 3)
    C = random_constant_invertible(rng, 3)
    N = conjugate_constant(M, C)
    Q = mat.inverse(mat.transpose(C))
    assert is_morphism(Q, M, N)


# weights 0, 1 (the shared unit), 1/2, 2 and 1/3
_WEIGHTS = [[1, 0, Fraction(1, 2)], [2, Fraction(1, 3), 1]]


def _constant_morphisms(n):
    """The structure maps of a seeded module of dimension n, the change of
    basis (C^T)^(-1) from prolong_lemma(M, 2) to prolong(M, 2), and the
    pattern _WEIGHTS (x) I_n from three copies of M to two, a morphism as
    is W (x) I_n for every rational 2x3 W."""
    M = random_module(random.Random(n), n, 2)
    N = random_module(random.Random(n + 10), 1, 2)
    Q = mat.inverse(mat.transpose(change_basis_matrix(n, 2)))
    return [inclusion_i(M), projection_phi(M), product_rule_map(M, N),
            dual_swap_g(M), embedding_E(M),
            ModuleMorphism(prolong_lemma(M, 2), prolong(M, 2), Q),
            ModuleMorphism(dsum(dsum(M, M), M), dsum(M, M),
                           diffmod._pattern(_WEIGHTS, n))]


def _weights(rows):
    """The rational matrix rows as RatFunc constants."""
    return [[RatFunc.from_fraction(Fraction(w)) for w in row] for row in rows]


def _with_entry(P, r, c, value):
    out = [list(row) for row in P]
    out[r][c] = value
    return out


def _assert_constant_scan_agrees(Q, src, dst):
    """is_morphism on the constant Q, and first_mismatch with D = None and
    with an explicit zero D, agree with the full products; the verdict."""
    want = dense_first_mismatch(Q, src, dst)
    assert is_morphism(Q, src, dst) == (want is None)
    assert mat.first_mismatch(Q, None, src.A, dst.A) == want
    assert mat.first_mismatch(Q, mat.zeros(*mat.shape(Q)), src.A,
                              dst.A) == want
    return want is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_is_morphism_agrees_with_the_products(n):
    verdicts = []
    maps = _constant_morphisms(n)
    for phi in maps:
        P = phi.P
        rows, cols = mat.shape(P)
        for Q in (P, _with_entry(P, 0, 0, P[0][0] + 1),
                  _with_entry(P, -1, -1, P[-1][-1] + 1), mat.zeros(rows, cols)):
            verdicts.append(_assert_constant_scan_agrees(Q, phi.src, phi.dst))
    # every map and every zero P holds, and some changed maps do not
    assert verdicts[::4] == [True] * 7 and verdicts[3::4] == [True] * 7
    assert False in verdicts
    # the pattern with one entry changed, at each position in turn, by
    # each weight and to the shared unit
    phi = maps[-1]
    rows, cols = mat.shape(phi.P)
    for r, c in itertools.product(range(rows), range(cols)):
        for Q in [_with_entry(phi.P, r, c, phi.P[r][c] + w)
                  for w in (1, Fraction(1, 2), 2, Fraction(1, 3))] + [
                _with_entry(phi.P, r, c, mat._ONE)]:
            _assert_constant_scan_agrees(Q, phi.src, phi.dst)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_is_morphism_reaches_every_entry(n):
    # against a zero module one side is zero, so the matrix with one
    # nonzero weight at (r, c) fails in row r alone (into it) or in
    # column c alone (out of it)
    M = random_module(random.Random(n), n, 2)
    Z = DiffModule(mat.zeros(2, 2))
    for src, dst in ((M, Z), (Z, M)):
        for r, c in itertools.product(range(dst.n), range(src.n)):
            for w in [mat._ONE] + _weights([[1, Fraction(1, 2), 2,
                                             Fraction(1, 3)]])[0]:
                E = _with_entry(mat.zeros(dst.n, src.n), r, c, w)
                _assert_constant_scan_agrees(E, src, dst)


@pytest.fixture
def matrix_calls(monkeypatch):
    """The names of the matrices.mul and matrices._reduce calls made from
    here on, in call order."""
    calls = []
    for name in ("mul", "_reduce"):
        def counting(*args, _run=getattr(mat, name), _name=name):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(mat, name, counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_maps_act_without_a_dense_product(matrix_calls, n):
    maps = _constant_morphisms(n)
    M = random_module(random.Random(n), n, 2)
    lemma, C = prolong_lemma(M, 3), change_basis_matrix(n, 3)
    matrix_calls.clear()
    assert all(is_morphism(phi.P, phi.src, phi.dst) for phi in maps)
    assert matrix_calls == []
    assert conjugate_constant(lemma, C) == prolong(M, 3)
    assert matrix_calls == ["mul", "_reduce"]


def test_embedding_intertwines_and_has_full_rank():
    e = embedding_E(XT)
    assert e.src == prolong_lemma(XT, 2)
    assert e.dst == iterate_F(XT, 2)
    assert render_matrix(e.P) == [
        ["1", "0", "0"],
        ["0", "1/2", "0"],
        ["0", "1/2", "0"],
        ["0", "0", "1"],
    ]
    assert mat.eq(mat.mul(e.dst.A, e.P), mat.mul(e.P, e.src.A))
    assert mat.rank(e.P) == 3


def test_embedding_random_seeded():
    rng = random.Random(7)
    for _ in range(10):
        M = random_module(rng, 2)
        e = embedding_E(M)
        assert mat.eq(mat.mul(e.dst.A, e.P), mat.mul(e.P, e.src.A))
        assert mat.rank(e.P) == 6


@pytest.mark.parametrize("break_it", [
    lambda mp: mp.setattr(diffmod, "iterate_F", lambda M, k: prolong(M, k + 1)),
    lambda mp: mp.setattr(diffmod, "Fraction", lambda a, b: Fraction(a, b + 1)),
], ids=["target-module", "matrix"])
def test_check_embedding_fails_on_a_broken_embedding(monkeypatch, break_it):
    break_it(monkeypatch)
    res = check_embedding(3, cases=2)
    assert not res.passed
    assert res.failures == [
        f"{label}: matrix does not satisfy the morphism condition"
        for label in ("xt example", "case 0", "case 1")]


def test_inclusion_projection_exactness():
    rng = random.Random(8)
    for _ in range(10):
        M = random_module(rng, rng.randint(1, 3))
        inc = inclusion_i(M)
        proj = projection_phi(M)
        assert mat.rank(inc.P) == M.n
        assert mat.rank(proj.P) == M.n
        assert mat.is_zero(mat.mul(proj.P, inc.P))


def test_top_block_inclusion_is_not_a_morphism():
    # the order-0 coordinates sit in the last block; the first block fails
    M = XT
    P = mat.block([[mat.identity(1)], [mat.zeros(1, 1)]])
    assert not is_morphism(P, M, prolong(M, 1))


def test_product_rule_map_shapes_and_rank():
    rng = random.Random(9)
    for _ in range(5):
        M = random_module(rng, 2)
        N = random_module(rng, rng.randint(1, 2))
        pr = product_rule_map(M, N)
        nm = M.n * N.n
        assert mat.shape(pr.P) == (4 * nm, 2 * nm)
        assert mat.rank(pr.P) == 2 * nm


def test_product_rule_map_is_the_sum_of_three_slot_maps():
    # source slot r of the pair (p, q) goes to target slot (a, b): one
    # Kronecker product E_ar (x) I_n (x) e_b (x) I_m per (a, b, r)
    def unit(r, c, i, j):
        return [[RatFunc.from_int(int((k, l) == (i, j))) for l in range(c)]
                for k in range(r)]

    for n in (1, 2, 3):
        for m in (1, 2, 3):
            want = mat.zeros(4 * n * m, 2 * n * m)
            for a, b, r in ((0, 1, 0), (1, 0, 0), (1, 1, 1)):
                slot = kron(kron(kron(
                    unit(2, 2, a, r), identity(n)), unit(2, 1, b, 0)),
                    identity(m))
                want = add(want, slot)
            M = DiffModule(mat.zeros(n, n))
            N = DiffModule(mat.zeros(m, m))
            assert mat.eq(product_rule_map(M, N).P, want), (n, m)


def test_dual_swap_is_isomorphism_with_triangle_identities():
    rng = random.Random(10)
    for _ in range(5):
        M = random_module(rng, rng.randint(1, 3))
        g = dual_swap_g(M)
        assert mat.det(g.P) in (RatFunc.from_int(1), RatFunc.from_int(-1))
        assert mat.eq(mat.mul(g.P, inclusion_i(dual(M)).P),
                      dual_morphism(projection_phi(M)).P)
        assert mat.eq(mat.mul(dual_morphism(inclusion_i(M)).P, g.P),
                      projection_phi(dual(M)).P)


def test_prolong_morphism_functorial():
    rng = random.Random(11)
    M = random_module(rng, 2)
    C = random_constant_invertible(rng, 2)
    N = conjugate_constant(M, C)
    Q = mat.inverse(mat.transpose(C))
    phi = ModuleMorphism(M, N, Q)
    for i in (1, 2, 3):
        lifted = prolong_morphism(phi, i)  # constructor checks the condition
        assert lifted.src == prolong(M, i)
        assert lifted.dst == prolong(N, i)
    ident = ModuleMorphism(M, M, mat.identity(2))
    assert mat.eq(prolong_morphism(ident, 2).P, mat.identity(6))


# category operations ------------------------------------------------------

def test_tensor_of_running_example_doubles():
    T = tensor(XT, XT)
    assert render_matrix(T.A) == [["2*t/x"]]


def test_tensor_with_trivial_is_identity():
    M = random_module(random.Random(12), 2)
    assert tensor(M, trivial_module()) == M
    assert tensor(trivial_module(), M) == M


def test_tensor_kronecker_block_structure():
    M = DiffModule(pmat([["x"]]))
    N = DiffModule(pmat([["t", "0"], ["1", "t"]]))
    T = tensor(M, N)
    assert render_matrix(T.A) == [["x + t", "0"], ["1", "x + t"]]


# zeros and units repeated, so that many slots are empty or meet a 1
_TENSOR_ENTRIES = ("0", "0", "0", "1", "-1", "1/2", "x", "t/x", "x^2 - t",
                   "(x + t)/(x - 1)")


@pytest.mark.parametrize("n, m", list(itertools.product((1, 2, 3), repeat=2)))
def test_tensor_matches_the_kronecker_sum(monkeypatch, n, m):
    # only a diagonal slot of A (x) I meets one of I (x) B, so at most n m
    # slots take a sum
    rng = random.Random(10 * n + m)
    pairs = [[DiffModule(pmat([[rng.choice(_TENSOR_ENTRIES) for _ in range(k)]
                               for _ in range(k)])) for k in (n, m)]
             for _ in range(4)]
    sums, tensors = [], []
    add = RatFunc.__add__
    monkeypatch.setattr(RatFunc, "__add__",
                        lambda a, b: sums.append(1) or add(a, b))
    for M, N in pairs:
        sums.clear()
        tensors.append(tensor(M, N))
        assert len(sums) <= n * m
    monkeypatch.undo()
    for (M, N), T in zip(pairs, tensors):
        assert mat.eq(T.A, kron_sum(M.A, N.A))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pattern_maps_are_w_kron_identity(n):
    M = random_module(random.Random(n), n, 2)
    half = Fraction(1, 2)
    maps = [(inclusion_i(M).P, [[0], [1]]),
            (projection_phi(M).P, [[1, 0]]),
            (dual_swap_g(M).P, [[0, 1], [1, 0]]),
            (embedding_E(M).P,
             [[1, 0, 0], [0, half, 0], [0, half, 0], [0, 0, 1]]),
            (diffmod._pattern(_WEIGHTS, n), _WEIGHTS)]
    for i in range(4):
        maps.append((change_basis_matrix(n, i),
                     [[math.comb(i - q + p, p) if p <= q else 0
                       for q in range(i + 1)] for p in range(i + 1)]))
    for P, W in maps:
        assert mat.eq(P, kron(_weights(W), identity(n))), W
        assert all(e is mat._ONE for row in P for e in row if e == 1), W


def test_dsum_blocks():
    M = DiffModule(pmat([["x"]]))
    N = DiffModule(pmat([["t"]]))
    assert render_matrix(dsum(M, N).A) == [["x", "0"], ["0", "t"]]


def _xt_module(rng, n):
    """A seeded n x n module whose every entry has an x*t term: the drawn
    coefficients are at most 5 in size, so 6*x*t never cancels."""
    xt = RatFunc.var_x() * RatFunc.var_t()
    return DiffModule([[random_poly_ratfunc(rng) + xt * 6
                        for _ in range(n)] for _ in range(n)])


def _additivity_map(n, m, i):
    """The constant block permutation prolong(dsum(M, N), i) ->
    dsum(prolong(M, i), prolong(N, i)) for an n x n M and an m x m N."""
    size = (i + 1) * (n + m)
    P = mat.zeros(size, size)
    one = RatFunc.one()
    for r in range(i + 1):
        for a in range(n):
            P[r * n + a][r * (n + m) + a] = one
        for b in range(m):
            P[(i + 1) * n + r * m + b][r * (n + m) + n + b] = one
    return P


@pytest.mark.parametrize("i", [0, 1, 2, 3])
def test_prolongation_is_additive(i):
    rng = random.Random(19)
    M, N = _xt_module(rng, 2), _xt_module(rng, 1)
    src = prolong(dsum(M, N), i)
    dst = dsum(prolong(M, i), prolong(N, i))
    P = _additivity_map(2, 1, i)
    assert mat.rank(ModuleMorphism(src, dst, P).P) == (i + 1) * 3
    if i:
        # the target's first two blocks of M, exchanged
        P[:2], P[2:4] = P[2:4], P[:2]
        with pytest.raises(ValueError, match="morphism condition"):
            ModuleMorphism(src, dst, P)


def test_dual_negates_transpose():
    M = DiffModule(pmat([["0", "x"], ["t", "0"]]))
    assert render_matrix(dual(M).A) == [["0", "-t"], ["-x", "0"]]
    assert dual(dual(M)) == M


@pytest.mark.parametrize("i", range(4))
def test_dual_of_a_prolongation_negates_each_entry_object_once(
        monkeypatch, i):
    A = prolong(DiffModule(pmat([["t^2/x", "x*t"], ["1/(x + t)", "t^3"]])),
                i).A
    distinct = {id(a) for row in A for a in row}
    calls = []
    neg = RatFunc.__neg__

    def counted(self):
        calls.append(self)
        return neg(self)
    monkeypatch.setattr(RatFunc, "__neg__", counted)
    D = dual(DiffModule(A)).A
    assert len(calls) == len(distinct)
    monkeypatch.undo()
    assert D == [[-a for a in row] for row in mat.transpose(A)]


def test_dual_of_morphism_reverses():
    rng = random.Random(13)
    M = random_module(rng, 2)
    C = random_constant_invertible(rng, 2)
    N = conjugate_constant(M, C)
    phi = ModuleMorphism(M, N, mat.inverse(mat.transpose(C)))
    rev = dual_morphism(phi)
    assert rev.src == dual(N)
    assert rev.dst == dual(M)


def test_module_validation():
    with pytest.raises(ValueError):
        DiffModule([])
    with pytest.raises(ValueError):
        DiffModule([[RatFunc.zero(), RatFunc.zero()]])
    with pytest.raises(ValueError):
        prolong(XT, -1)


# what a module keeps -----------------------------------------------------
# Each test below builds its own modules: a result an earlier test kept on a
# module built at import time would change what these count.

KEPT_ROWS = [["t^2/x", "x*t"], ["1/(x + t)", "t^3"]]


def _record(monkeypatch, owner, name):
    """A list that gets the positional arguments of every owner.name call
    made from here on."""
    calls = []
    run = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return run(*args)
    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_a_dual_swap_case_builds_one_tower_per_distinct_module(
        monkeypatch, seed):
    drawn = _record(monkeypatch, checks, "dual_swap_g")
    asked = _record(monkeypatch, diffmod, "prolong")
    derived = _record(monkeypatch, mat, "deriv")
    built = _record(monkeypatch, mat, "_tower_prolongation")
    assert check_dual_swap(seed, cases=1).passed
    [(M,)] = drawn
    distinct = sorted(id(N.A) for N in (M, dual(M)))
    # six first prolongations are asked for, of M and dual(M) alone, and
    # each of the two is built once, from one tower of one derivative
    assert [i for _, i in asked] == [1] * 6
    assert sorted({id(N.A) for N, _ in asked}) == distinct
    assert sorted((id(X), var) for X, var in derived) == [
        (key, "t") for key in distinct]
    assert sorted(id(tower[0]) for tower, _, _ in built) == distinct


def test_structure_maps_share_the_kept_prolongations(deriv_calls):
    M = DiffModule(pmat(KEPT_ROWS))
    assert inclusion_i(M).dst is projection_phi(M).src is prolong(M, 1)
    assert len(deriv_calls) == M.n ** 2
    e = embedding_E(M)
    # one more tower level serves the lemma shape and the iterated shape,
    # which are built again from the kept tower when asked for again
    assert len(deriv_calls) == 2 * M.n ** 2
    assert e.src == prolong_lemma(M, 2) and e.dst == iterate_F(M, 2)
    assert len(deriv_calls) == 2 * M.n ** 2
    prolong(M, 3)
    assert len(deriv_calls) == 3 * M.n ** 2


@pytest.mark.parametrize("orders", [range(5), range(4, -1, -1)],
                         ids=["rising", "falling"])
def test_kept_results_equal_fresh_ones(orders):
    M = DiffModule(pmat(KEPT_ROWS))
    for i in orders:
        got = prolong(M, i)
        assert got.A == mat.prolongation(M.A, i, math.comb), i
        assert prolong(M, i) is got
        assert prolong_lemma(M, i).A == mat.prolongation(
            M.A, i, lambda r, c: math.comb(i - c, r - c)), i
        assert iterate_F(M, i).A == _iterate_by_blocks(M, i)
    assert dual(M).A == mat.neg(mat.transpose(M.A))
    assert dual(M) is dual(M)


def test_equal_modules_keep_separate_results():
    M, N = DiffModule(pmat(KEPT_ROWS)), DiffModule(pmat(KEPT_ROWS))
    assert M == N
    assert prolong(M, 2) == prolong(N, 2)
    assert prolong(M, 2) is not prolong(N, 2)
    assert dual(M) == dual(N) and dual(M) is not dual(N)


def test_threads_sharing_a_module_get_equal_results():
    # two threads may both build a value; each gets a correct one
    first = DiffModule(pmat(KEPT_ROWS))
    want = {i: (mat.prolongation(first.A, i, math.comb),
                _iterate_by_blocks(first, i)) for i in range(4)}
    got, errors = [], []

    def work(M, start, orders):
        try:
            start.wait(timeout=60)
            for i in orders:
                got.append((i, prolong(M, i).A, iterate_F(M, i).A))
        except Exception as err:  # a thread's error fails the test below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            M, start = DiffModule(pmat(KEPT_ROWS)), threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(M, start, orders))
                       for orders in [range(4), range(3, -1, -1)] * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(got) == 160
    for i, P, F in got:
        assert (P, F) == want[i], i


def test_a_negative_order_raises_every_time_and_keeps_nothing():
    M = DiffModule(pmat(KEPT_ROWS))
    for _ in range(2):
        for build in (prolong, prolong_lemma):
            with pytest.raises(ValueError,
                               match="prolongation order must be >= 0"):
                build(M, -1)
        with pytest.raises(ValueError, match="iteration count must be >= 0"):
            iterate_F(M, -1)
    assert M._kept == {}
