import random

import pytest

from prolongkit.diffmod import DiffModule, dsum, prolong, tensor
from prolongkit.exprparse import EvalError, parse_expr
from prolongkit.ratfield import RatFunc
from prolongkit.solspace import (SolExpr, UnrepresentableSolutionError,
                                 build_fundamental_prolongation, load_solution,
                                 parse_solution, render_sol, sol_det,
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


def test_sol_det_small():
    Z = SolExpr.zero()
    assert sol_det([[TH, Z], [LA, TH]]) == TH * TH
    assert sol_det([[TH]]) == TH


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
