import random

import hypothesis
import hypothesis.strategies as st
import pytest

from prolongkit import matrices, ratfield
from prolongkit.diffmod import DiffModule, dsum, prolong, tensor
from prolongkit.exprparse import EvalError, parse_expr
from prolongkit.ratfield import RatFunc
from prolongkit.sampling import random_ratfunc
from prolongkit.solspace import (SolExpr, UnrepresentableSolutionError,
                                 build_fundamental_prolongation, load_solution,
                                 parse_solution, render_sol, sol_nonsingular,
                                 unweighted_prolongation, verify_fundamental,
                                 xt_example)

TH = SolExpr.theta()
LA = SolExpr.lam()
X = RatFunc.var_x()
T = RatFunc.var_t()


def test_derivation_rules_on_atoms():
    assert TH.deriv("x") == TH.scale(T / X)
    assert TH.deriv("t") == TH * LA
    assert LA.deriv("x") == SolExpr.from_ratfunc(1 / X)
    assert LA.deriv("t").is_zero


def test_derivations_commute_seeded():
    rng = random.Random(2)
    for _ in range(30):
        e = SolExpr.zero()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            c = RatFunc(rng.randint(-3, 3)) * (X ** rng.randint(0, 1)) * (T ** rng.randint(0, 1))
            e = e + SolExpr({(a, b): c}) if not c.is_zero else e
        assert e.deriv("x").deriv("t") == e.deriv("t").deriv("x")


def test_leibniz_in_term_algebra():
    e = TH * LA + SolExpr.from_ratfunc(T / X)
    f = TH + LA
    for var in ("x", "t"):
        assert (e * f).deriv(var) == e.deriv(var) * f + e * f.deriv(var)


def test_xt_example_base_case():
    M, Y = xt_example()
    chk = verify_fundamental(M, Y)
    assert chk.passed and chk.first_mismatch is None


def test_first_prolongation_solution_frozen():
    _, Y = xt_example()
    Y1 = build_fundamental_prolongation(Y, 1)
    assert [[render_sol(e) for e in row] for row in Y1] == [
        ["theta", "0"],
        ["theta*lam", "theta"],
    ]


def test_second_prolongation_carries_binomial_weight():
    M, Y = xt_example()
    Y2 = build_fundamental_prolongation(Y, 2)
    assert [[render_sol(e) for e in row] for row in Y2] == [
        ["theta", "0", "0"],
        ["theta*lam", "theta", "0"],
        ["theta*lam^2", "2*theta*lam", "theta"],
    ]
    assert verify_fundamental(prolong(M, 2), Y2).passed


def test_prolonged_solutions_verify_through_order_3():
    M, Y = xt_example()
    for i in range(4):
        chk = verify_fundamental(prolong(M, i), build_fundamental_prolongation(Y, i))
        assert chk.passed, f"order {i}"


def test_unweighted_prolongation_fails_from_order_2():
    M, Y = xt_example()
    for i in (0, 1):
        chk = verify_fundamental(prolong(M, i), unweighted_prolongation(Y, i))
        assert chk.passed
    chk = verify_fundamental(prolong(M, 2), unweighted_prolongation(Y, 2))
    assert not chk.passed
    assert chk.first_mismatch == (2, 1)
    assert repr(chk) == ("FundamentalCheck(derivative_ok=False, "
                         "first_mismatch=(2, 1), det_ok=True)")


# the transport check against the dense product it replaced ----------------

def _dense_first_mismatch(M, Y):
    """d_x Y against the full product A Y, scanned row-major: the
    reference for verify_fundamental's first_mismatch."""
    lhs, rhs = matrices.deriv(Y, "x"), matrices.mul(M.A, Y)
    return next(((r, c) for r, (lrow, rrow) in enumerate(zip(lhs, rhs))
                 for c, (a, b) in enumerate(zip(lrow, rrow)) if a != b), None)


# t/x and theta repeated and first, and 0 third, so that some rows and some
# whole systems hold
_A_ENTRIES = [parse_expr(e) for e in (
    "t/x", "t/x", "0", "0", "1/x", "1", "x*t", "(x + t)/(x - t)")]
_Y_ENTRIES = [parse_solution(e) for e in (
    "theta", "theta", "0", "1", "lam*theta", "x*theta + t", "theta^2 - lam")]


def _square(entries, n):
    return st.lists(st.lists(st.sampled_from(entries), min_size=n,
                             max_size=n), min_size=n, max_size=n)


def _near_diagonal(entries, n):
    """entries[0] times the identity, with one entry redrawn."""
    def build(rce):
        r, c, e = rce
        out = [[entries[0] if i == j else entries[2] for j in range(n)]
               for i in range(n)]
        out[r][c] = e
        return out
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.sampled_from(entries)).map(build)


_systems = st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.one_of(_near_diagonal(_A_ENTRIES, n), _square(_A_ENTRIES, n)),
    st.one_of(_near_diagonal(_Y_ENTRIES, n), _square(_Y_ENTRIES, n))))


@hypothesis.given(_systems, st.integers(0, 3),
                  st.sampled_from([build_fundamental_prolongation,
                                   unweighted_prolongation]))
@hypothesis.example(([[_A_ENTRIES[0]]], [[_Y_ENTRIES[0]]]), 3,
                    unweighted_prolongation)
@hypothesis.settings(deadline=None, max_examples=60)
def test_first_mismatch_matches_the_dense_product(AY, i, build):
    A, Y = AY
    M, Yi = prolong(DiffModule(A), i), build(Y, i)
    want = _dense_first_mismatch(M, Yi)
    check = verify_fundamental(M, Yi)
    assert check.first_mismatch == want
    assert check.derivative_ok == (want is None)


@hypothesis.given(_systems, st.integers(0, 3),
                  st.sampled_from([build_fundamental_prolongation,
                                   unweighted_prolongation]))
@hypothesis.settings(deadline=None, max_examples=40)
def test_a_none_source_matrix_reads_as_zero(AY, i, build):
    A, Y = AY
    M, Yi = prolong(DiffModule(A), i), build(Y, i)
    zero = matrices.zeros(M.n, M.n)
    for D in (matrices.deriv(Yi, "x"), None):
        assert (matrices.first_mismatch(Yi, D, None, M.A)
                == matrices.first_mismatch(Yi, D, zero, M.A))


def _count_products(monkeypatch):
    """Count RatFunc products from here on; returns the reader.  A RatFunc
    times a SolExpr hands over to SolExpr.__rmul__, and is no product."""
    calls = []
    times = ratfield.RatFunc.__mul__

    def counted(a, b):
        out = times(a, b)
        if out is not NotImplemented:
            calls.append(None)
        return out
    monkeypatch.setattr(ratfield.RatFunc, "__mul__", counted)
    monkeypatch.setattr(ratfield.RatFunc, "__rmul__", counted)
    return lambda: len(calls)


def test_a_failing_verify_stops_at_its_first_mismatch(monkeypatch):
    M, Y = xt_example()
    M3, Y3 = prolong(M, 3), unweighted_prolongation(Y, 3)
    count = _count_products(monkeypatch)
    check = verify_fundamental(M3, Y3)
    scan = count()
    # what the dense check makes: d_x Y, the whole of A Y, the determinant
    matrices.deriv(Y3, "x")
    matrices.mul(M3.A, Y3)
    sol_nonsingular(Y3)
    full = count() - scan
    assert check.first_mismatch == (2, 1)
    assert scan < full


def test_constant_module_prolonged_solution_is_diagonal():
    A = [[parse_expr(e) for e in row] for row in [["0", "1"], ["0", "0"]]]
    M = DiffModule(A)
    Y = [[SolExpr.from_ratfunc(X), SolExpr.from_ratfunc(RatFunc.one())],
         [SolExpr.from_ratfunc(RatFunc.one()), SolExpr.zero()]]
    assert verify_fundamental(M, Y).passed
    Y2 = build_fundamental_prolongation(Y, 2)
    chk = verify_fundamental(prolong(M, 2), Y2)
    assert chk.passed
    # off-diagonal blocks vanish because Y has no t-dependence
    assert all(Y2[i][j].is_zero
               for i in range(6) for j in range(6) if i // 2 != j // 2)


def test_tensor_solution_oracle():
    M, _ = xt_example()
    chk = verify_fundamental(tensor(M, M), [[TH * TH]])
    assert chk.passed


def test_dsum_solution_oracle():
    M, Y = xt_example()
    D = dsum(M, M)
    Z = SolExpr.zero()
    chk = verify_fundamental(D, [[TH, Z], [Z, TH]])
    assert chk.passed


def test_det_detects_degenerate_solution():
    M, _ = xt_example()
    M2 = dsum(M, M)
    Y = [[TH, TH], [TH, TH]]
    chk = verify_fundamental(M2, Y)
    assert chk.derivative_ok
    assert not chk.det_ok
    assert not chk.passed


def _cofactor_det(Y):
    """The reference determinant: cofactor expansion along the first row."""
    if len(Y) == 1:
        return Y[0][0]
    out = SolExpr.zero()
    for j, a in enumerate(Y[0]):
        if not a.is_zero:
            term = a * _cofactor_det([row[:j] + row[j + 1:] for row in Y[1:]])
            out = out + term if j % 2 == 0 else out - term
    return out


def test_sol_det_small():
    Z = SolExpr.zero()
    assert sol_nonsingular([[TH, Z], [LA, TH]])
    assert sol_nonsingular([[TH]])
    assert not sol_nonsingular([[Z]])
    assert not sol_nonsingular([[TH, LA], [TH * TH, TH * LA]])


def test_zero_row_of_an_unsplittable_block_is_singular():
    Z, one = SolExpr.zero(), SolExpr.one()
    Y = [[TH, one, LA], [Z, Z, Z], [one, TH, one]]
    assert _cofactor_det(Y).is_zero
    assert not sol_nonsingular(Y)


@pytest.mark.parametrize("rows", [
    [["theta - 1", "theta - 1"], ["1", "2"]],          # det theta - 1
    [["theta", "-2"], ["1", "theta - 3"]],             # (theta - 1)(theta - 2)
    [["lam - 1", "lam - 1"], ["1", "2"]],
    [["lam", "-2"], ["1", "lam - 3"]],
])
def test_determinant_vanishing_on_all_but_the_last_grid_point(rows):
    # the determinant vanishes at theta (or lam) = 1..D and not at D + 1, so
    # a grid one point short would read these matrices as singular
    Y = [[parse_solution(e) for e in row] for row in rows]
    assert not _cofactor_det(Y).is_zero
    assert sol_nonsingular(Y)


def _random_sol(rng):
    if rng.random() < 0.25:
        return SolExpr.zero()
    c = RatFunc(rng.randint(-3, 3)) * X ** rng.randint(0, 1) * T ** rng.randint(0, 1)
    return SolExpr({(rng.randint(0, 1), rng.randint(0, 1)): c})


@pytest.mark.parametrize("shape", ["lower", "zero row", "singular block",
                                   "block diagonal", "upper", "dense"])
def test_sol_det_splitting_matches_the_cofactor_expansion(shape):
    rng = random.Random(f"sol_det {shape}")
    for case in range(15):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        if shape == "singular block" and max(sizes) == 1:
            sizes[0] = 2
        if shape == "dense":
            sizes = [rng.randint(2, 4)]
        block = [b for b, size in enumerate(sizes) for _ in range(size)]
        n = len(block)
        Y = [[_random_sol(rng) if block[c] == block[r] or (
            block[c] < block[r] and shape != "block diagonal")
              else SolExpr.zero() for c in range(n)] for r in range(n)]
        if shape == "zero row":
            Y[rng.randrange(n)] = [SolExpr.zero()] * n
        elif shape == "singular block":
            # within its block, the second row of a 2- or 3-block repeats
            # the first; the entries left of the block stay random
            b = next(b for b, size in enumerate(sizes) if size > 1)
            r0 = block.index(b)
            for c in range(r0, r0 + sizes[b]):
                Y[r0 + 1][c] = Y[r0][c]
        elif shape == "upper":
            Y = [list(col) for col in zip(*Y)]
        elif shape == "dense" and case % 3 == 0:
            # the last row is theta times the first plus lam times the one
            # before the last
            Y[-1] = [TH * a + LA * b for a, b in zip(Y[0], Y[-2])]
        singular = _cofactor_det(Y).is_zero
        assert sol_nonsingular(Y) == (not singular), (sizes, Y)
        if shape in ("zero row", "singular block") or (
                shape == "dense" and case % 3 == 0):
            assert singular


@pytest.mark.parametrize("build", [build_fundamental_prolongation,
                                   unweighted_prolongation],
                         ids=["binomial", "unweighted"])
@pytest.mark.parametrize("i", range(4))
def test_det_of_a_prolonged_solution_is_a_power(build, i):
    Y = [[TH, TH * LA + SolExpr.from_ratfunc(X * T), SolExpr.from_ratfunc(T)],
         [SolExpr.from_ratfunc(T * T), TH * TH, LA],
         [TH * SolExpr.from_ratfunc(T), SolExpr.one(), TH + LA]]
    singular = Y[:2] + [[a + b * LA for a, b in zip(Y[0], Y[1])]]
    assert sol_nonsingular(Y) and not sol_nonsingular(singular)
    for Z in (Y, singular):
        assert sol_nonsingular(build(Z, i)) == sol_nonsingular(Z)
        assert _cofactor_det(build(Z, i)) == _cofactor_det(Z) ** (i + 1)


def _rank_calls(monkeypatch, Y):
    """sol_nonsingular(Y) and the number of matrices.rank calls it made."""
    calls = []

    def counted(A, _rank=matrices.rank):
        calls.append(len(A))
        return _rank(A)
    monkeypatch.setattr(matrices, "rank", counted)
    return sol_nonsingular(Y), len(calls)


@pytest.mark.parametrize("i", range(4))
def test_equal_diagonal_blocks_are_decided_once(monkeypatch, i):
    Y = [[parse_solution(e) for e in row]
         for row in [["theta", "x*lam"], ["t*theta", "lam"]]]
    assert _rank_calls(monkeypatch, build_fundamental_prolongation(Y, i)) == (
        True, 1)


@pytest.mark.parametrize("i", range(4))
def test_a_singular_block_walks_its_grid_once(monkeypatch, i):
    # theta spreads 3 + 3 and lam 0: the grid holds 7 points, all singular
    Y = [[parse_solution(e) for e in row]
         for row in [["theta^3", "1"], ["theta^3", "1"]]]
    assert _rank_calls(monkeypatch, build_fundamental_prolongation(Y, i)) == (
        False, 7)


def test_cuts_on_both_sides_split_into_the_diagonal():
    # cut 1 has a zero upper-right rectangle, cut 2 a zero lower-left one
    Z = SolExpr.zero()
    Y = [[TH, Z, Z], [LA, TH, SolExpr.from_ratfunc(X)], [Z, Z, LA]]
    assert sol_nonsingular(Y)
    Y[1][1] = Z
    assert _cofactor_det(Y).is_zero
    assert not sol_nonsingular(Y)


def test_wrong_shape_rejected():
    M, Y = xt_example()
    with pytest.raises(ValueError):
        verify_fundamental(M, [[TH, TH]])


# parsing ------------------------------------------------------------------

def test_parse_solution_atoms():
    assert parse_solution("theta") == TH
    assert parse_solution("lam") == LA
    assert parse_solution("theta*lam^2") == TH * LA * LA
    assert parse_solution("t/x") == SolExpr.from_ratfunc(T / X)
    assert parse_solution("theta/2") == TH.scale(RatFunc(1) / 2)


def test_parse_solution_long_flat_chain():
    assert parse_solution("+".join(["theta"] * 3000)) == TH.scale(RatFunc(3000))
    assert parse_solution("*".join(["lam"] * 300)) == LA ** 300


def test_parse_solution_rejects_theta_division():
    with pytest.raises(UnrepresentableSolutionError):
        parse_solution("1/theta")
    with pytest.raises(UnrepresentableSolutionError):
        parse_solution("theta^-1")
    with pytest.raises(UnrepresentableSolutionError):
        parse_solution("x/(lam + 1)")


@pytest.mark.parametrize("text, message", [
    ("1/theta",
     "division by a theta/lam expression is outside the term algebra"),
    ("theta^-1",
     "negative power of a theta/lam expression is outside the term algebra"),
])
def test_unrepresentable_messages(text, message):
    with pytest.raises(UnrepresentableSolutionError) as e:
        parse_solution(text)
    assert str(e.value) == message


@pytest.mark.parametrize("text, message", [
    ("(theta - theta)^-1", "zero raised to a negative power (byte 15)"),
    ("x/(lam - lam)", "division by a zero expression (byte 1)"),
])
def test_zero_divisors_are_eval_errors(text, message):
    with pytest.raises(EvalError) as e:
        parse_solution(text)
    assert str(e.value) == message


def test_load_solution_document():
    doc = b'{"n": 2, "matrix": [["theta", "0"], ["theta*lam", "theta"]]}'
    Y = load_solution(doc)
    M, base = xt_example()
    assert verify_fundamental(prolong(M, 1), Y).passed


def test_sol_render_roundtrip():
    e = TH * LA.scale(T / X) + SolExpr.from_ratfunc(X + T) + (TH ** 2).scale(RatFunc(-3))
    assert parse_solution(render_sol(e)) == e


def test_render_sol_of_mixed_element():
    e = (TH * LA.scale(T / X) + SolExpr.from_ratfunc(X + T)
         + (TH ** 2).scale(RatFunc(-3)) + (LA ** 2).scale(1 / (X + T))
         + TH.scale(RatFunc(1) / X))
    assert render_sol(e) == ("-3*theta^2 + t/x*theta*lam + 1/x*theta"
                             " + (1/(x + t))*lam^2 + (x + t)")
    assert render_sol(SolExpr.zero()) == "0"


@pytest.mark.parametrize("text", [
    "theta - 3", "x*theta - x", "theta^2 - (x + 1)*theta", "-theta"])
def test_render_sol_prints_a_negative_term_after_a_minus(text):
    assert render_sol(parse_solution(text)) == text


def test_render_sol_round_trips_negative_coefficients_seeded():
    rng = random.Random(19)
    minus = 0
    for _ in range(150):
        e = SolExpr({(rng.randint(0, 2), rng.randint(0, 2)):
                     random_ratfunc(rng) * rng.choice((-1, -2, 3))
                     for _ in range(rng.randint(1, 4))})
        text = render_sol(e)
        assert parse_solution(text) == e, text
        assert "+ -" not in text
        minus += " - " in text
    assert minus > 50


def test_negative_powers_of_coefficients_are_inverses():
    assert parse_solution("x^-1") == SolExpr.from_ratfunc(parse_expr("1/x"))
    assert (parse_solution("(x + t)^-2*theta")
            == parse_solution("theta/(x + t)^2"))


def test_sol_nonsingular_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="non-square"):
        sol_nonsingular([[TH, LA]])
