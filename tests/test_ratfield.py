import math
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from prolongkit import ratfield
from prolongkit.hopf import GM, DiffPoly
from prolongkit.ratfield import LinDiffOp, MPoly, RatFunc, gcd
from prolongkit.sampling import random_module, random_operator, random_ratfunc
from prolongkit.solspace import SolExpr

from dense_reference import poly_product

X = RatFunc.var_x()
T = RatFunc.var_t()


def test_mpoly_basics():
    p = MPoly.variable("x") + MPoly.variable("t")
    q = MPoly.variable("x") - MPoly.variable("t")
    assert (p * q).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert (p - p).is_zero
    assert p.deriv("x") == MPoly.one()
    assert MPoly.const(5).deriv("t").is_zero


def test_gcd_cancellation():
    # (x^2 - t^2) / (x - t) reduces to x + t; checked by re-multiplication
    x, t = MPoly.variable("x"), MPoly.variable("t")
    f = RatFunc(x * x - t * t, x - t)
    assert f == X + T
    assert f * (X - T) == X * X - T * T


def test_gcd_is_primitive_with_positive_lead():
    x, t = MPoly.variable("x"), MPoly.variable("t")
    g, a, b = gcd((x + t) * (x + t).scale(3), (x + t) * x.scale(2))
    assert (g, a, b) == (x + t, (x + t).scale(3), x.scale(2))
    # integer content is stripped (primitive representative, positive lead)
    # and left in the cofactors; shared integer factors are RatFunc's job
    g2, a2, b2 = gcd((x + t).scale(-6), (x + t).scale(-4))
    assert (g2, a2, b2) == (x + t, MPoly.const(-6), MPoly.const(-4))


def test_canonical_primitive_denominator():
    # integer-coefficient representative: no shared integer factor between
    # numerator and denominator, denominator leading coefficient positive
    f = RatFunc(MPoly.variable("t"), MPoly.variable("x").scale(2))
    assert f.den == MPoly.variable("x").scale(2)
    assert f.num == MPoly.variable("t")
    g = RatFunc(MPoly.variable("t").scale(Fraction(1, 2)), MPoly.variable("x"))
    assert g == f
    assert g.num == MPoly.variable("t")
    assert g.den == MPoly.variable("x").scale(2)
    h = RatFunc(MPoly.variable("t"), -MPoly.variable("x"))
    assert h.den == MPoly.variable("x")
    assert h.num == -MPoly.variable("t")
    k = RatFunc(MPoly.variable("t").scale(4), MPoly.variable("x").scale(6))
    assert k.num == MPoly.variable("t").scale(2)
    assert k.den == MPoly.variable("x").scale(3)


def test_constant_value_is_an_exact_fraction():
    # integer coefficients are stored as int, and int / int would be a float
    for num, den in ((1, 2), (3, 3), (-4, 6)):
        v = RatFunc(MPoly.const(num), MPoly.const(den)).constant_value()
        assert type(v) is Fraction and v == Fraction(num, den)
        w = MPoly.const(Fraction(num, den)).constant_value()
        assert type(w) is Fraction and w == Fraction(num, den)
    assert type(MPoly.zero().constant_value()) is Fraction
    assert type(RatFunc.zero().constant_value()) is Fraction


def test_exact_div_with_rational_quotient():
    x, t = MPoly.variable("x"), MPoly.variable("t")
    q = (x + t).scale(3).exact_div((x + t).scale(2))
    assert q.terms == {(0, 0): Fraction(3, 2)}
    q = (x * x - t * t).exact_div((x - t).scale(2))
    assert q.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    assert q * (x - t).scale(2) == x * x - t * t
    # a rational dividend with an integral quotient
    assert x.scale(Fraction(1, 3)).exact_div(MPoly.const(Fraction(1, 3))) == x
    with pytest.raises(ValueError):
        x.exact_div(t)
    with pytest.raises(ValueError):
        (x * x + MPoly.one()).exact_div(x.scale(2))


def test_terms_compare_equal_to_fractions():
    x, t = MPoly.variable("x"), MPoly.variable("t")
    half = x.scale(Fraction(1, 2))
    assert half.terms == {(1, 0): Fraction(1, 2)}
    # a Fraction that cancels to an integer compares equal to that integer
    assert half.scale(2).terms == {(1, 0): Fraction(1)}
    assert half.scale(2) == x
    f = RatFunc(MPoly({(1, 0): Fraction(4, 2)}), MPoly({(0, 1): Fraction(6)}))
    assert f.num.terms == {(1, 0): Fraction(1)}
    assert f.den.terms == {(0, 1): Fraction(3)}
    g = RatFunc((x + t).scale(Fraction(2, 3)), (x - t).scale(Fraction(5, 7)))
    assert g.num.terms == {(1, 0): Fraction(14), (0, 1): Fraction(14)}
    assert g.den.terms == {(1, 0): Fraction(15), (0, 1): Fraction(-15)}


def test_mpoly_operators_reject_other_operands():
    x = MPoly.variable("x")
    for other in (1, Fraction(1, 2), 0.5, "x"):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x - other
        with pytest.raises(TypeError):
            x * other
    # a RatFunc operand falls through to RatFunc's reflected methods
    X, T = RatFunc.var_x(), RatFunc.var_t()
    t = MPoly.variable("t")
    assert x + T == X + T
    assert x - T == X - T
    assert x * T == X * T
    assert t / X == T / X


def test_mpoly_keeps_only_the_product_of_its_own():
    # the sum is the base's, rebound here only so that it is found by name
    assert vars(MPoly)["__add__"] is ratfield.Sparse.__add__
    assert "__sub__" not in vars(MPoly)



@pytest.mark.parametrize("terms, text", [
    ([], "0"),
    ([(1, [])], "1"),
    ([(-1, [])], "-1"),
    ([(1, [("x", 0), ("t", 0)])], "1"),
    ([(-1, [("x", 1)]), (1, [])], "-x + 1"),
    ([(Fraction(-3, 2), [("y", 2)]), (Fraction(1, 2), [("y", -1)])],
     "-3/2*y^2 + 1/2*y^-1"),
    ([(2, [("x", 3), ("t", 0)]), (-1, [("x", 0), ("t", 1)]), (-7, [])],
     "2*x^3 - t - 7"),
    ([(1, [("u", 1), ("v", 2)]), (-1, [("v", -1)])], "u*v^2 - v^-1"),
])
def test_render_terms(terms, text):
    assert ratfield.render_terms(terms) == text

def test_constructors_take_only_ints_and_fractions():
    x = MPoly.variable("x")
    for bad in (0.5, 0.0, "1/2", 1j):
        with pytest.raises(TypeError):
            MPoly({(0, 0): bad})
        with pytest.raises(TypeError):
            x.scale(bad)
        with pytest.raises(TypeError):
            RatFunc(bad)
        with pytest.raises(TypeError):
            RatFunc(x, bad)
    assert RatFunc(Fraction(1, 2)) == RatFunc(MPoly.one(), MPoly.const(2))


def test_operator_coefficients_must_be_field_elements():
    for bad in (0.5, "x", None):
        with pytest.raises(TypeError):
            LinDiffOp("x", [bad])
        with pytest.raises(TypeError):
            LinDiffOp("t", [RatFunc.one(), bad])
    assert LinDiffOp("x", [1, Fraction(1, 2), MPoly.variable("t")]) == LinDiffOp(
        "x", [RatFunc.one(), RatFunc.from_fraction(Fraction(1, 2)), T])


def test_fraction_arithmetic_meets_the_field_with_int_coefficients():
    h = MPoly({(1, 0): Fraction(1, 2)})
    # the sum keeps a Fraction(1, 1); the field clears it
    assert type((h + h).terms[(1, 0)]) is Fraction
    f = RatFunc(h + h)
    assert_canonical(f)
    assert f == X
    g = RatFunc(h * h - h, (h + h).scale(Fraction(3)))
    assert_canonical(g)
    assert g == (X - 2) / 12


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(MPoly.one(), MPoly.zero())
    with pytest.raises(ZeroDivisionError):
        X / RatFunc.zero()


def test_negated_cancellation():
    x, t = MPoly.variable("x"), MPoly.variable("t")
    f = RatFunc(-(x * x - t * t), x - t)
    assert f == -(X + T)


def test_pow_negative():
    f = (X + T) ** -1
    assert f * (X + T) == RatFunc.one()
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero() ** -1


def test_deriv_quotient_rule():
    f = T / X
    assert f.deriv("x") == -T / (X * X)
    assert f.deriv("t") == RatFunc.one() / X


def test_derivations_commute_on_example():
    f = (X * X + T) / (X - T)
    assert f.deriv("x").deriv("t") == f.deriv("t").deriv("x")


# hypothesis strategies over the field -------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
mpolys = st.dictionaries(keys, coeffs, max_size=3).map(MPoly)
nonzero_mpolys = mpolys.filter(lambda p: not p.is_zero)
ratfuncs = st.builds(lambda n, d: RatFunc(n, d), mpolys, nonzero_mpolys)


@hypothesis.given(ratfuncs, ratfuncs, ratfuncs)
@hypothesis.settings(deadline=None)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@hypothesis.given(ratfuncs)
@hypothesis.settings(deadline=None)
def test_inverse_roundtrip(f):
    hypothesis.assume(not f.is_zero)
    assert f * (RatFunc.one() / f) == RatFunc.one()


@hypothesis.given(mpolys, nonzero_mpolys, nonzero_mpolys)
@hypothesis.settings(deadline=None)
def test_canonical_form_ignores_common_factor(p, q, r):
    assert RatFunc(p * r, q * r) == RatFunc(p, q)


@hypothesis.given(ratfuncs, ratfuncs)
@hypothesis.settings(deadline=None)
def test_leibniz(a, b):
    for var in ("x", "t"):
        assert (a * b).deriv(var) == a.deriv(var) * b + a * b.deriv(var)


@hypothesis.given(ratfuncs)
@hypothesis.settings(deadline=None)
def test_derivations_commute(f):
    assert f.deriv("x").deriv("t") == f.deriv("t").deriv("x")


# input gates: integral coefficients are ints ------------------------------

def test_mpoly_stores_integral_coefficients_as_int():
    p = MPoly({(0, 0): Fraction(6, 3), (1, 0): True, (0, 1): Fraction(1, 2),
               (1, 1): False})
    assert p.terms == {(0, 0): 2, (1, 0): 1, (0, 1): Fraction(1, 2)}
    assert type(p.terms[(0, 0)]) is int and type(p.terms[(1, 0)]) is int
    assert type(p.terms[(0, 1)]) is Fraction


@hypothesis.given(mpolys, nonzero_mpolys)
@hypothesis.settings(deadline=None)
def test_fraction_coefficients_clear_by_the_lcm(p, q):
    # RatFunc(p, q) is RatFunc(l p, l q) for l the lcm of the denominators
    cs = [*p.terms.values(), *q.terms.values()]
    l = math.lcm(*[Fraction(c).denominator for c in cs])
    lp = MPoly({k: int(c * l) for k, c in p.terms.items()})
    lq = MPoly({k: int(c * l) for k, c in q.terms.items()})
    f = RatFunc(p, q)
    assert f == RatFunc(lp, lq)
    assert_canonical(f)


def test_random_module_draws_are_fixed_by_the_seed():
    A = random_module(random.Random(5), 2).A
    assert [[(e.num.terms, e.den.terms) for e in row] for row in A] == [
        [({(2, 1): 5, (1, 0): 5}, {(0, 0): 1}), ({(0, 1): 1}, {(0, 0): 1})],
        [({(2, 0): 4, (0, 2): -1, (1, 0): 1}, {(0, 0): 2}), ({}, {(0, 0): 1})],
    ]
    for row in A:
        for e in row:
            assert_canonical(e)


# operators ----------------------------------------------------------------

def test_commutation_rule():
    # d * x = x * d + 1, with d = d/dx
    d = LinDiffOp.partial("x")
    left = d * LinDiffOp.from_scalar("x", X)
    assert left == LinDiffOp("x", [RatFunc.one(), X])


def test_second_order_past_a_constant():
    # (d*d) * f for f with df/dx = 0 keeps f out front untouched
    d = LinDiffOp.partial("x")
    f = LinDiffOp.from_scalar("x", T * 3)
    assert (d * d) * f == LinDiffOp("x", [RatFunc.zero(), RatFunc.zero(), T * 3])


def test_identity_operator():
    one = LinDiffOp.from_scalar("x", RatFunc.one())
    d = LinDiffOp.partial("x")
    assert one * d == d
    assert d * one == d


def test_mixed_var_operators_rejected():
    with pytest.raises(ValueError):
        LinDiffOp.partial("x") * LinDiffOp.partial("t")


def test_apply_matches_derivative():
    d = LinDiffOp.partial("x")
    f = T / X
    assert d.apply(f) == f.deriv("x")
    assert (d * d).apply(f) == f.deriv("x").deriv("x")


def test_operator_associativity_seeded():
    rng = random.Random(7)
    for _ in range(40):
        var = rng.choice(["x", "t"])
        D = random_operator(rng, var, 2)
        E = random_operator(rng, var, 2)
        F = random_operator(rng, var, 2)
        assert (D * E) * F == D * (E * F)


def test_apply_respects_composition_seeded():
    rng = random.Random(11)
    for _ in range(40):
        var = rng.choice(["x", "t"])
        D = random_operator(rng, var, 2)
        E = random_operator(rng, var, 2)
        f = random_ratfunc(rng)
        assert (D * E).apply(f) == D.apply(E.apply(f))


def test_zero_operator_is_absorbing():
    z = LinDiffOp("x", [])
    d = LinDiffOp.partial("x")
    assert (z * d).is_zero
    assert (d * z).is_zero
    assert z.order == -1


def test_operator_sum_distributes_and_commutes():
    rng = random.Random(23)
    for var in ("x", "t"):
        for _ in range(6):
            A, B, C = (random_operator(rng, var, 3) for _ in range(3))
            assert (A + B) * C == A * C + B * C
            assert C * (A + B) == C * A + C * B
            assert A + B == B + A


def test_operator_sum_with_cancelling_tops_drops_order():
    rng = random.Random(31)
    for var in ("x", "t"):
        A = random_operator(rng, var, 3)
        while A.order < 1:
            A = random_operator(rng, var, 3)
        low = [random_ratfunc(rng) for _ in range(A.order)]
        B = LinDiffOp(var, low + [-A.coeffs[-1]])
        S = A + B
        assert S.order < A.order
        assert S == B + A
        assert S == LinDiffOp(var, [a + b for a, b in zip(A.coeffs, low)])


def test_operator_sum_rejects_other_operands():
    with pytest.raises(ValueError):
        LinDiffOp.partial("x") + LinDiffOp.partial("t")
    with pytest.raises(TypeError):
        LinDiffOp.partial("x") + 1


# the operator product against its binomial expansion ----------------------

def binomial_product(A, B):
    """A * B by d^i * b = sum_k C(i, k) b^(i-k) d^k for every pair of
    coefficients: the reference for LinDiffOp.__mul__."""
    if A.is_zero or B.is_zero:
        return LinDiffOp(A.var, [])
    out = [RatFunc.zero()] * (len(A.coeffs) + len(B.coeffs) - 1)
    for j, b in enumerate(B.coeffs):
        derivs = [b]
        for _ in range(len(A.coeffs) - 1):
            derivs.append(derivs[-1].deriv(A.var))
        for i, a in enumerate(A.coeffs):
            for k in range(i + 1):
                out[k + j] = out[k + j] + a * derivs[i - k] * math.comb(i, k)
    return LinDiffOp(A.var, out)


small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
small_mpolys = st.dictionaries(keys, small_coeffs, max_size=2).map(MPoly)
# zero coefficients are drawn often, so interior zeros and zero operators
# (all coefficients zero) both occur
op_coeffs = st.one_of(st.just(RatFunc.zero()), st.builds(
    RatFunc, small_mpolys, small_mpolys.filter(lambda p: not p.is_zero)))


@hypothesis.given(st.sampled_from("xt"), st.lists(op_coeffs, max_size=5),
                  st.lists(op_coeffs, max_size=5))
@hypothesis.settings(deadline=None, max_examples=120)
def test_operator_product_matches_binomial_expansion(var, a, b):
    A, B = LinDiffOp(var, a), LinDiffOp(var, b)
    assert A * B == binomial_product(A, B)
    assert B * A == binomial_product(B, A)


# sums: the divisibility fast path against direct reduction ----------------

def assert_canonical(f):
    """Coprime integer polynomials with no common integer factor and a
    positive leading denominator coefficient."""
    values = [*f.num.terms.values(), *f.den.terms.values()]
    assert all(type(c) is int for c in values)
    assert math.gcd(*values) == 1
    assert f.den.leading()[1] > 0
    assert gcd(f.num, f.den)[0] == MPoly.one()


def reduced_sum(a, b):
    return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)


int_mpolys = st.dictionaries(keys, st.integers(-3, 3), max_size=3).map(MPoly)
nonzero_int_mpolys = int_mpolys.filter(lambda p: not p.is_zero)


@hypothesis.given(int_mpolys, int_mpolys, nonzero_int_mpolys,
                  nonzero_int_mpolys, nonzero_int_mpolys,
                  st.integers(1, 6), st.integers(1, 6))
@hypothesis.settings(deadline=None, max_examples=200)
def test_sum_matches_direct_reduction(n1, n2, p, r, s, c1, c2):
    # denominators c1*p*r and c2*p*s share p and carry integer content, so
    # one often divides the other
    a = RatFunc(n1, (p * r).scale(c1))
    b = RatFunc(n2, (p * s).scale(c2))
    for total in (a + b, b + a):
        assert total == reduced_sum(a, b)
        assert_canonical(total)


_x, _t = MPoly.variable("x"), MPoly.variable("t")


@pytest.mark.parametrize("a, b, want", [
    (RatFunc(1, _x.scale(2) + MPoly.const(2)), RatFunc(1, _x + MPoly.one()),
     RatFunc(3, _x.scale(2) + MPoly.const(2))),
    (RatFunc(1, _x.scale(2)), RatFunc(1, (_x * _x).scale(4)),
     RatFunc(_x.scale(2) + MPoly.one(), (_x * _x).scale(4))),
    (RatFunc(1, _t.scale(3)), RatFunc(1, (_t * _t).scale(6)),
     RatFunc(_t.scale(2) + MPoly.one(), (_t * _t).scale(6))),
    (RatFunc(1, (_x + _t).scale(2)), RatFunc(1, (_x + _t).scale(2)),
     RatFunc(1, _x + _t)),
    (RatFunc(1, _x - _t), RatFunc(-1, _x - _t), RatFunc.zero()),
    (RatFunc(_x, 2), RatFunc(_t, 2), RatFunc(_x + _t, 2)),
    (RatFunc(_x, 2), RatFunc(-_x, 2), RatFunc.zero()),
], ids=["2x+2,x+1", "2x,4x^2", "3t,6t^2", "d+d", "d-d", "2+2", "2-2"])
def test_sum_fixed_cases(a, b, want):
    for total in (a + b, b + a):
        assert total == want == reduced_sum(a, b)
        assert_canonical(total)


@pytest.mark.parametrize("a, b, products", [
    (RatFunc(_x, 2), RatFunc(_t, 2), 0),
    (RatFunc(_x, _x - _t), RatFunc(_x + _t, _x - _t), 0),
    (RatFunc(_x, _x + _t), RatFunc(_t * _t + MPoly.one()), 1),
    (RatFunc(1, _x), RatFunc(_t, _x * _x), 1),
], ids=["2+2", "d+d", "d+1", "x+x^2"])
def test_sum_skips_products_by_a_unit_cofactor(monkeypatch, a, b, products):
    # multiplying by every cofactor takes 3 products in each case
    calls = []
    mul = MPoly.__mul__

    def counting(p, q):
        # a product by 1 returns at once, so only the others count
        if p != MPoly.one() and q != MPoly.one():
            calls.append((p, q))
        return mul(p, q)
    monkeypatch.setattr(MPoly, "__mul__", counting)
    total = a + b
    assert len(calls) == products
    monkeypatch.undo()
    assert total == reduced_sum(a, b)
    assert_canonical(total)


multi_term_mpolys = st.dictionaries(
    keys, st.integers(-3, 3).filter(bool), min_size=2, max_size=3).map(MPoly)


@hypothesis.given(nonzero_int_mpolys, nonzero_int_mpolys, multi_term_mpolys,
                  st.one_of(st.just(MPoly.one()), multi_term_mpolys),
                  st.integers(1, 2), st.integers(1, 2),
                  st.integers(1, 6), st.integers(1, 6))
@hypothesis.settings(deadline=None, max_examples=200)
def test_sum_over_nested_denominators(n1, n2, f, h, a, extra, c1, c2):
    # f^a h and f^b with a < b: with h = 1 the first divides the second,
    # and with another h often neither divides the other; integer content
    # on either side, and the divisor on the left and on the right
    b = a + extra
    left = RatFunc(n1, (f ** a * h).scale(c1))
    right = RatFunc(n2, (f ** b).scale(c2))
    for total in (left + right, right + left):
        assert total == reduced_sum(left, right)
        assert_canonical(total)


@pytest.mark.parametrize("a, b, calls", [
    (RatFunc(1, _x + _t), RatFunc(1, (_x + _t) ** 2), 0),
    (RatFunc(1, _x.scale(2) + MPoly.const(2)),
     RatFunc(1, (_x + MPoly.one()) ** 2), 0),
    (RatFunc(1, _x + _t), RatFunc(1, _x - _t), 1),
], ids=["d,d^2", "2d,d^2", "coprime"])
def test_nested_denominators_take_one_division(monkeypatch, a, b, calls):
    # the gcd of two denominators is a division when one's primitive part
    # divides the other; a coprime pair still takes the heuristic gcd
    for x, y in ((a, b), (b, a)):
        dens = []
        inner = ratfield.gcd

        def counting(p, q):
            if (p, q) in ((x.den, y.den), (y.den, x.den)):
                dens.append((p, q))
            return inner(p, q)
        monkeypatch.setattr(ratfield, "gcd", counting)
        total = x + y
        monkeypatch.undo()
        assert len(dens) == calls
        assert total == reduced_sum(x, y)
        assert_canonical(total)


@pytest.mark.parametrize("a, b, products", [
    (RatFunc(_x + _t), RatFunc(_x - MPoly.one()), 1),
    (RatFunc(_x + _t), RatFunc.one(), 0),
    (RatFunc.one(), RatFunc(_x + _t, _x - _t), 0),
    (RatFunc(3), RatFunc(_x, _t + MPoly.one()), 1),
    (RatFunc(_x, _t + MPoly.one()), RatFunc(_t, _x + MPoly.one()), 2),
    (RatFunc(_x + MPoly.one(), _t), RatFunc(_t * _t, _x * _x - MPoly.one()), 0),
], ids=["poly*poly", "poly*1", "1*rat", "3*rat", "rat*rat", "cancelled"])
def test_product_skips_products_by_one(monkeypatch, a, b, products):
    # a factor 1, a denominator 1 or one left by the cross-cancel among
    # them, costs no MPoly product
    calls = []
    mul = MPoly.__mul__

    def counting(p, q):
        # a product by 1 returns at once, so only the others count
        if p != MPoly.one() and q != MPoly.one():
            calls.append((p, q))
        return mul(p, q)
    monkeypatch.setattr(MPoly, "__mul__", counting)
    product = a * b
    assert len(calls) == products
    monkeypatch.undo()
    assert product == RatFunc(a.num * b.num, a.den * b.den)
    assert_canonical(product)


@pytest.mark.parametrize("p", [
    _x * _x - _t.scale(3) + MPoly.one(), (_x + _t).scale(Fraction(2, 3)),
    MPoly.const(Fraction(1, 2)),
], ids=["int", "fraction", "constant-fraction"])
def test_mpoly_product_by_one_is_the_other_factor(p):
    assert p * MPoly.one() is p
    assert MPoly.one() * p is p


one_term_coeffs = st.one_of(st.integers(-5, 5), coeffs).filter(bool)
one_terms = st.builds(lambda k, c: MPoly({k: c}), keys, one_term_coeffs)
mixed_mpolys = st.dictionaries(
    keys, st.one_of(st.integers(-5, 5), coeffs), max_size=4).map(MPoly)


@hypothesis.given(one_terms, mixed_mpolys)
@hypothesis.example(MPoly.one(), MPoly({(1, 0): Fraction(1, 2), (0, 1): -3}))
@hypothesis.settings(deadline=None, max_examples=200)
def test_one_term_product_matches_the_double_loop(m, p):
    # int, negative and Fraction coefficients, on either side
    (shift_x, shift_t), = m.terms
    for a, b in ((m, p), (p, m)):
        product = a * b
        assert product.terms == poly_product(a, b)
        assert all(product.terms.values())
        if m != MPoly.one():
            # p's keys shifted by m's, in p's order
            assert list(product.terms) == [(i + shift_x, j + shift_t)
                                           for i, j in p.terms]
    if m == MPoly.one():
        assert p * m is p
        if p != MPoly.one():
            assert m * p is p


def test_mpoly_deriv_rejects_an_unknown_derivation():
    with pytest.raises(ValueError, match="unknown derivation 'z'"):
        MPoly({(1, 2): 3}).deriv("z")


@pytest.mark.parametrize("f", [
    RatFunc(_x * _x - _t), RatFunc(Fraction(3, 4)),
    RatFunc(_x + _t, _x - MPoly.one()),
], ids=["denominator-1", "constant", "rational"])
def test_ratfunc_product_by_one_is_the_other_operand(f):
    for product in (f * RatFunc.one(), RatFunc.one() * f, 1 * f, f * 1):
        assert product is f


def test_deriv_of_a_polynomial_is_canonical():
    f = RatFunc((_x * _x * _t).scale(3) - _t.scale(6) + MPoly.one())
    for var in ("x", "t"):
        df = f.deriv(var)
        assert df == RatFunc(f.num.deriv(var))
        assert_canonical(df)
    assert not RatFunc(MPoly.const(7)).deriv("x")


@pytest.mark.parametrize("f, var", [
    (RatFunc(7), "x"), (T * 3 + 1, "x"), (X, "t"),
    (RatFunc(_t, _t + MPoly.one()), "x"),
    (RatFunc(_x, _x.scale(2) - MPoly.one()), "t"),
], ids=["constant", "poly-in-t", "poly-in-x", "free-of-x", "free-of-t"])
def test_zero_derivative_is_the_shared_zero(f, var):
    assert f.deriv(var) is ratfield._RF_ZERO


def test_other_operands_still_coerce():
    f = RatFunc(_x + _t, _x - MPoly.one())
    one, two, half = RatFunc.one(), RatFunc(2), RatFunc(Fraction(1, 2))
    pairs = [
        (f + 1, f + one), (1 + f, one + f),
        (f * Fraction(1, 2), f * half), (Fraction(1, 2) * f, half * f),
        (_x + f, RatFunc(_x) + f), (f / 2, f / two),
    ]
    for got, want in pairs:
        assert type(got) is RatFunc
        assert got == want
        assert_canonical(got)
    assert (f == 1) is (f == one) is False
    assert (one == 1) is (one == one) is True
    assert (half == Fraction(1, 2)) is True
    with pytest.raises(TypeError):
        f + "a"


@pytest.mark.parametrize("d", [MPoly.const(2), _x - _t, (_x * _t).scale(3)],
                         ids=["2", "x-t", "3xt"])
def test_zero_sum_is_the_shared_zero(d):
    assert RatFunc(_x, d) + RatFunc(-_x, d) is ratfield._RF_ZERO


# dense inputs: p*r and q*r hold at least 24 Z[t] coefficients, and r makes
# their gcd nontrivial

def _dense_poly(dx, dt):
    corner = st.integers(-4, 4).filter(bool)
    return st.tuples(st.lists(st.integers(-4, 4), min_size=(dx + 1) * (dt + 1),
                              max_size=(dx + 1) * (dt + 1)), corner).map(
        lambda v: MPoly({(k // (dt + 1), k % (dt + 1)): c
                         for k, c in enumerate(v[0][:-1] + [v[1]])}))


def _zt_coefficients(f):
    """Number of Z[t] coefficients of f viewed as a polynomial in x."""
    rows: dict[int, int] = {}
    for dx, dt in f.terms:
        rows[dx] = max(rows.get(dx, 0), dt + 1)
    return sum(rows.values())


def _divides(d, f):
    try:
        f.exact_div(d)
    except ValueError:
        return False
    return True


@hypothesis.given(_dense_poly(2, 2), _dense_poly(2, 2),
                  st.integers(1, 2).flatmap(lambda dx: _dense_poly(dx, 1)))
@hypothesis.settings(deadline=None, max_examples=60)
def test_gcd_of_dense_products(p, q, r):
    a, b = p * r, q * r
    hypothesis.assume(_zt_coefficients(a) + _zt_coefficients(b) >= 24)
    g, ca, cb = gcd(a, b)
    assert _divides(r, g)
    assert g * ca == a and g * cb == b
    assert gcd(ca, cb)[0] == MPoly.one()


def test_gcd_of_a_coprime_pair_whose_images_share_a_root():
    # a and b are coprime, but at t = 2 both images are divisible by x
    x, t = MPoly.variable("x"), MPoly.variable("t")
    a = x * x + t - MPoly.const(2)
    b = x * x + x + t - MPoly.const(2)
    assert gcd(a, b) == (MPoly.one(), a, b)


# derivatives: the reduction against gcd(d, d') only ----------------------

def _quotient_rule(f, var):
    n, d = f.num, f.den
    return RatFunc(n.deriv(var) * d - n * d.deriv(var), d * d)


_repeated_dens = [(_x + _t) ** 2 * _t ** 3,
                  (_x * _x + _t) ** 2 * (_t + MPoly.one()),
                  _t ** 3, (_x + MPoly.one()) ** 2, (_x - _t).scale(3) * _x ** 2]


@hypothesis.given(nonzero_int_mpolys, st.sampled_from(_repeated_dens),
                  st.sampled_from("xt"))
@hypothesis.settings(deadline=None, max_examples=200)
def test_deriv_matches_full_reduction(n, d, var):
    # denominators with repeated factors, some free of var and some not
    f = RatFunc(n, d)
    df = f.deriv(var)
    assert df == _quotient_rule(f, var)
    assert_canonical(df)


# powers: square only while bits remain ------------------------------------

def test_power_makes_one_product_per_squaring_and_set_bit(monkeypatch):
    calls = []
    mul = MPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    p = _x + _t + MPoly.one()
    for base, e, want in ((_x, 2, 1), (p, 32, 5), (p, 3, 2), (p, 1, 0),
                          (p, 0, 0), (p, 7, 4)):
        calls.clear()
        base ** e
        assert len(calls) == want, (e, len(calls))


def _repeated(unit, base, e):
    out = unit
    for _ in range(e):
        out = out * base
    return out


def test_power_matches_repeated_products():
    p = _x - _t.scale(2) + MPoly.one()
    s = SolExpr.theta() + SolExpr.lam() * RatFunc.var_x()
    y0 = DiffPoly.generator(GM, 2, 0)
    y = y0 + DiffPoly.generator(GM, 2, 1).scale(3)
    for e in range(41):
        assert p ** e == _repeated(MPoly.one(), p, e)
        assert s ** e == _repeated(SolExpr.one(), s, e)
        assert y ** e == _repeated(DiffPoly.unit(GM, 2), y, e)
        # gm's order-0 variable is invertible, so negative powers exist
        assert y0 ** -e == _repeated(DiffPoly.unit(GM, 2), y0.inv(), e)
