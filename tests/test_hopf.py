from fractions import Fraction

import pytest

from prolongkit.hopf import (GA, GM, DiffPoly, OrderOverflowError, antipode,
                             check_axioms, coproduct, counit,
                             reduce_mod_derivatives, subgroup_defining_poly)


def gen(group, order, j, **kw):
    return DiffPoly.generator(group, order, j, **kw)


def test_derive_shifts_indices():
    y0 = gen(GM, 3, 0)
    assert y0.derive() == gen(GM, 3, 1)
    assert (y0 * y0).derive() == gen(GM, 3, 1) * y0.scale(2)


def test_derive_overflow():
    top = gen(GA, 2, 2)
    with pytest.raises(OrderOverflowError):
        top.derive()


def test_laurent_only_for_multiplicative_order_zero():
    inv = gen(GM, 2, 0).inv()
    assert inv * gen(GM, 2, 0) == DiffPoly.unit(GM, 2)
    with pytest.raises(ValueError):
        gen(GA, 2, 0).inv()
    with pytest.raises(ValueError):
        gen(GM, 2, 1).inv()


def test_coproduct_on_generators():
    # additive: primitive generators
    d = coproduct(gen(GA, 3, 2))
    assert d == gen(GA, 3, 2, leg=0, legs=2) + gen(GA, 3, 2, leg=1, legs=2)
    # multiplicative: grouplike at order zero, product rule above
    u0 = gen(GM, 3, 0, leg=0, legs=2)
    v0 = gen(GM, 3, 0, leg=1, legs=2)
    u1 = gen(GM, 3, 1, leg=0, legs=2)
    v1 = gen(GM, 3, 1, leg=1, legs=2)
    assert coproduct(gen(GM, 3, 0)) == u0 * v0
    assert coproduct(gen(GM, 3, 1)) == u1 * v0 + u0 * v1


def test_coproduct_is_algebra_map():
    a = gen(GM, 3, 0)
    b = gen(GM, 3, 1)
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


def test_antipode_on_generators():
    assert antipode(gen(GA, 3, 2)) == -gen(GA, 3, 2)
    assert antipode(gen(GM, 3, 0)) == gen(GM, 3, 0).inv()
    # S(dy) = -dy / y^2 in the multiplicative group
    y0, y1 = gen(GM, 3, 0), gen(GM, 3, 1)
    assert antipode(y1) == -(y1 * (y0.inv() ** 2))


def test_counit_values():
    assert counit(gen(GA, 2, 0)) == 0
    assert counit(gen(GM, 2, 0)) == 1
    assert counit(gen(GM, 2, 1)) == 0
    assert counit(gen(GM, 2, 0).inv()) == 1
    assert counit(DiffPoly.constant(GM, 2, Fraction(7, 2))) == Fraction(7, 2)


def test_axioms_pass_both_groups():
    for group in (GA, GM):
        for order in (3, 4):
            report = check_axioms(group, order)
            assert report.all_passed, (group, order, report.failures())
            assert len(report.checks) == 5 * order


def test_printed_antipode_conflict_flagged_at_one():
    report = check_axioms(GA, 3)
    assert report.printed_antipode_first_conflict == 1
    assert check_axioms(GM, 3).printed_antipode_first_conflict is None


def test_printed_antipode_breaks_derivation_axiom():
    report = check_axioms(GA, 3, antipode_mode="printed")
    assert not report.all_passed
    bad = [c for c in report.failures() if c.axiom == "antipode-derivation"]
    assert bad and bad[0].generator == 0
    assert "order 1" in bad[0].witness


def test_printed_and_derived_agree_for_multiplicative():
    got = check_axioms(GM, 3, antipode_mode="printed")
    assert got.all_passed


def test_reduce_mod_derivatives():
    y0, y1 = gen(GM, 3, 0), gen(GM, 3, 1)
    e = y0 * y0 + y1 * y0 + y1 * y1.scale(5)
    assert reduce_mod_derivatives(e) == y0 * y0
    with pytest.raises(ValueError):
        reduce_mod_derivatives(gen(GA, 3, 0))


def test_reduce_is_compatible_with_coproduct():
    # the derivative ideal is a coideal: reducing either before or after
    # the coproduct kills the same generators
    d = coproduct(gen(GM, 3, 1))
    assert reduce_mod_derivatives(d).is_zero


def test_subgroup_defining_poly():
    y0, y1, y2 = (gen(GM, 2, j) for j in range(3))
    p = subgroup_defining_poly()
    assert p == y0 * y2 - y1 * y1
    assert counit(p) == 0


def test_mixed_shapes_rejected():
    with pytest.raises(ValueError):
        gen(GA, 2, 0) + gen(GM, 2, 0)
    with pytest.raises(ValueError):
        gen(GA, 2, 0) * gen(GA, 3, 0)
    with pytest.raises(ValueError):
        gen(GA, 2, 0) - gen(GA, 2, 0, legs=2)


# printed text, pinned ----------------------------------------------------

def test_str_of_structure_maps_on_y2():
    assert str(coproduct(gen(GA, 3, 2))) == "u2 + v2"
    assert str(antipode(gen(GA, 3, 2))) == "-y2"
    assert str(coproduct(gen(GM, 3, 2))) == "u0*v2 + 2*u1*v1 + u2*v0"
    assert str(antipode(gen(GM, 3, 2))) == "2*y0^-3*y1^2 - y0^-2*y2"
    assert str(coproduct(gen(GM, 3, 3))) == "u0*v3 + 3*u1*v2 + 3*u2*v1 + u3*v0"


def test_str_orders_terms_by_variable_then_exponent():
    # y0's terms come first, lowest exponent first, whatever the degree
    y0, y1 = gen(GM, 2, 0), gen(GM, 2, 1)
    e = y1 * y0 * y0 + y1 + y0.inv() - y1.scale(Fraction(2, 3)) * y1
    assert str(e) == "y0^-1 + y0^2*y1 + y1 - 2/3*y1^2"
    d = coproduct(gen(GA, 2, 1))
    assert str(d * d - d.scale(3)) == "-3*u1 + 2*u1*v1 + u1^2 - 3*v1 + v1^2"


def test_str_of_three_leg_laurent_element():
    u0 = gen(GM, 3, 0, leg=0, legs=3)
    v1 = gen(GM, 3, 1, leg=1, legs=3)
    w0 = gen(GM, 3, 0, leg=2, legs=3)
    w2 = gen(GM, 3, 2, leg=2, legs=3)
    e = ((u0 * v1 - w2.scale(Fraction(1, 2))) ** 2 + w0.inv() * v1
         + u0 ** -2 - DiffPoly.constant(GM, 3, 3, legs=3))
    assert str(e) == ("-3 + u0^-2 - u0*v1*w2 + u0^2*v1^2 + v1*w0^-1"
                      " + 1/4*w2^2")
    assert repr(gen(GM, 3, 1) * gen(GM, 3, 0).inv()) == "DiffPoly('gm', y0^-1*y1)"
    assert str(DiffPoly.zero(GA, 2, legs=3)) == "0"


def test_printed_antipode_witnesses():
    report = check_axioms(GA, 3, "printed")
    assert [(c.axiom, c.generator, c.witness) for c in report.failures()] == [
        ("antipode-derivation", 0,
         "S(d^1 y) = y1 (order 1) but d(S(d^0 y)) = -y1"),
        ("antipode", 1, "m(S x id)delta(y1) = 2*y1"),
        ("antipode-derivation", 1,
         "S(d^2 y) = -y2 (order 2) but d(S(d^1 y)) = y2"),
        ("antipode-derivation", 2,
         "S(d^3 y) = y3 (order 3) but d(S(d^2 y)) = -y3"),
    ]


@pytest.mark.parametrize("kw, message", [
    (dict(j=4), "derivative index 4 out of range"),
    (dict(j=-1), "derivative index -1 out of range"),
    (dict(j=0, leg=2, legs=2), "leg 2 out of range"),
    (dict(j=0, leg=-1, legs=2), "leg -1 out of range"),
    (dict(j=1, leg=3, legs=3), "leg 3 out of range"),
])
def test_generator_rejects_out_of_range(kw, message):
    with pytest.raises(ValueError, match=message):
        DiffPoly.generator(GM, 3, **kw)


@pytest.mark.parametrize("group, j, leg, legs", [
    (GA, 0, 0, 1), (GA, 0, 1, 2), (GM, 1, 0, 1), (GM, 3, 0, 1),
    (GM, 2, 1, 2), (GM, 1, 2, 3),
])
def test_negative_exponent_only_on_gm_order_zero(group, j, leg, legs):
    g = DiffPoly.generator(group, 3, j, leg=leg, legs=legs)
    with pytest.raises(ValueError, match="negative exponents are only allowed"):
        g.inv()
    with pytest.raises(ValueError, match="negative exponents are only allowed"):
        (g * g) ** -1


def test_laurent_order_zero_allowed_in_every_leg():
    for leg in range(3):
        g = DiffPoly.generator(GM, 3, 0, leg=leg, legs=3)
        assert (g ** -2) * g * g == DiffPoly.unit(GM, 3, legs=3)
