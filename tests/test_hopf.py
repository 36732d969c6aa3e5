from fractions import Fraction

import pytest

from prolongkit import hopf
from prolongkit.hopf import (GA, GM, DiffPoly, OrderOverflowError,
                             _antipode_table, _counit_table, _delta_table,
                             antipode, check_axioms, coproduct, counit,
                             reduce_mod_derivatives, subgroup_defining_poly)


def gen(group, order, j, **kw):
    return DiffPoly.generator(group, order, j, **kw)


def test_derive_shifts_indices():
    y0 = gen(GM, 3, 0)
    assert y0.derive() == gen(GM, 3, 1)
    assert (y0 * y0).derive() == gen(GM, 3, 1) * y0.scale(2)


@pytest.mark.parametrize("bad", [0.1, 0.0, "1/3", None])
def test_scalars_are_ints_or_fractions(bad):
    y0 = gen(GA, 2, 0)
    with pytest.raises(TypeError):
        y0.scale(bad)
    with pytest.raises(TypeError):
        DiffPoly.constant(GA, 2, bad)
    with pytest.raises(TypeError):
        DiffPoly(GA, 2, 1, {(1, 0, 0): bad})


def test_fraction_scalars_stay_exact():
    third = Fraction(1, 3)
    y0 = gen(GA, 2, 0)
    assert y0.scale(third).terms == {(1, 0, 0): third}
    assert y0.scale(3).scale(third) == y0
    assert DiffPoly.constant(GA, 2, third).terms == {(0, 0, 0): third}
    assert DiffPoly(GA, 2, 1, {(1, 0, 0): 2}).terms == {(1, 0, 0): Fraction(2)}
    assert str(DiffPoly.constant(GM, 1, third) * gen(GM, 1, 1)) == "1/3*y1"


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



def _transport(image):
    """[image, d image, ..., d^N image]: the images of y_0, ..., y_N under
    the homomorphism that commutes with d and sends y_0 to image."""
    table = [image]
    for _ in range(image.order):
        table.append(table[-1].derive())
    return table


@pytest.mark.parametrize("order", range(1, 7))
def test_transported_tables_match_the_closed_forms(order):
    # each closed-form table is d^j of its map's value on y_0
    u0 = {group: gen(group, order, 0, leg=0, legs=2) for group in (GA, GM)}
    v0 = {group: gen(group, order, 0, leg=1, legs=2) for group in (GA, GM)}
    assert _delta_table(GA, order) == _transport(u0[GA] + v0[GA])
    assert _delta_table(GM, order) == _transport(u0[GM] * v0[GM])
    assert _antipode_table(GA, order) == _transport(-gen(GA, order, 0))
    assert _antipode_table(GM, order) == _transport(gen(GM, order, 0).inv())
    for group, eps0 in ((GA, 0), (GM, 1)):
        assert _counit_table(group, order) == (
            [DiffPoly.constant(group, order, eps0)]
            + [DiffPoly.zero(group, order)] * order)

def test_axioms_pass_both_groups():
    for group in (GA, GM):
        for order in (3, 4):
            report = check_axioms(group, order)
            assert report.all_passed, (group, order, report.failures())
            assert len(report.checks) == 5 * order


def test_a_coproduct_without_the_binomials_fails_its_derivation_row(
        monkeypatch):
    # delta(y_j) = sum_k u_k v_(j-k) agrees with d delta(y_(j-1)) up to
    # y_1 only: d(u_0 v_1 + u_1 v_0) has 2 u_1 v_1
    def unweighted(group, order):
        u, v = ([gen(group, order, j, leg=leg, legs=2) for j in range(order + 1)]
                for leg in (0, 1))
        return [sum((u[k] * v[j - k] for k in range(j + 1)),
                    DiffPoly.zero(group, order, 2)) for j in range(order + 1)]
    monkeypatch.setattr(hopf, "_delta_table", unweighted)
    report = check_axioms(GM, 3)
    bad = [c for c in report.failures() if c.axiom == "coproduct-derivation"]
    assert [c.generator for c in bad] == [1, 2]
    assert bad[0].witness == ("delta(d y1) = u0*v2 + u1*v1 + u2*v0 but "
                              "d delta(y1) = u0*v2 + 2*u1*v1 + u2*v0")


def test_printed_antipode_conflict_flagged_at_one():
    report = check_axioms(GA, 3)
    assert report.printed_antipode_first_conflict == 1
    assert check_axioms(GM, 3).printed_antipode_first_conflict is None


@pytest.mark.parametrize("group", [GA, GM])
@pytest.mark.parametrize("mode", ["derived", "printed"])
def test_check_axioms_builds_each_table_once(monkeypatch, group, mode):
    built = []
    for name in ("_delta_table", "_antipode_table"):
        def counted(*args, _build=getattr(hopf, name), _name=name, **kw):
            built.append(_name)
            return _build(*args, **kw)
        monkeypatch.setattr(hopf, name, counted)
    hopf.check_axioms(group, 3, mode)
    assert sorted(built) == ["_antipode_table", "_antipode_table",
                             "_delta_table"]


def _antipode_law_in_two_steps(group, order, S, j):
    """m(S (x) id)delta(y_j) the long way: S lifted into leg 0 of the 2-leg
    algebra, substituted into delta(y_j), then the two legs merged."""
    two = [[gen(group, order, k, leg=l, legs=2) for k in range(order + 1)]
           for l in (0, 1)]
    one = [gen(group, order, k) for k in range(order + 1)]
    s_leg0 = [hopf._substitute(s, two[:1], 2) for s in S]
    dg = hopf._delta_table(group, order)[j]
    return hopf._substitute(hopf._substitute(dg, [s_leg0, two[1]], 2),
                            [one, one], 1)


@pytest.mark.parametrize("group", [GA, GM])
@pytest.mark.parametrize("mode", ["derived", "printed"])
@pytest.mark.parametrize("order", range(1, 7))
def test_antipode_rows_match_the_two_step_composition(group, mode, order):
    S = hopf._antipode_table(group, order, printed=mode == "printed")
    eps = hopf._counit_table(group, order)
    rows = [c for c in check_axioms(group, order, mode).checks
            if c.axiom == "antipode"]
    assert [c.generator for c in rows] == list(range(order))
    for c in rows:
        value = _antipode_law_in_two_steps(group, order, S, c.generator)
        ok = value == eps[c.generator]
        assert (c.passed, c.witness) == (
            ok, None if ok else f"m(S x id)delta(y{c.generator}) = {value}")


@pytest.mark.parametrize("group", [GA, GM])
@pytest.mark.parametrize("mode", ["derived", "printed"])
@pytest.mark.parametrize("order", [1, 3, 6])
def test_check_axioms_substitutes_6_order_plus_2_times(monkeypatch, group,
                                                        mode, order):
    out_legs, gen_legs = [], []

    def substitute(e, images, legs, _sub=hopf._substitute):
        out_legs.append(legs)
        return _sub(e, images, legs)

    def generator(cls, *args, _gen=DiffPoly.generator.__func__, **kw):
        gen_legs.append(kw.get("legs", 1))
        return _gen(cls, *args, **kw)

    monkeypatch.setattr(hopf, "_substitute", substitute)
    monkeypatch.setattr(DiffPoly, "generator", classmethod(generator))
    check_axioms(group, order, mode)
    # delta lifted twice into the 3-leg algebra and coassociativity's two
    # sides, then the counit and antipode laws into the 1-leg algebra; no
    # antipode is lifted into the 2-leg algebra
    assert len(out_legs) == 6 * order + 2
    assert out_legs.count(3) == 4 * order + 2
    assert out_legs.count(1) == 2 * order
    # the only 2-leg generators are delta's u_j and v_j
    assert gen_legs.count(2) == 2 * (order + 1)


@pytest.mark.parametrize("group, order, message", [
    ("bad", 3, "unknown group tag 'bad'"),
    (GA, 0, "truncation order must be >= 1"),
    (GM, -1, "truncation order must be >= 1"),
    ("bad", -1, "unknown group tag 'bad'"),
])
def test_check_axioms_rejects_what_diffpoly_rejects(group, order, message):
    with pytest.raises(ValueError) as err:
        check_axioms(group, order)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        DiffPoly.zero(group, order)
    assert str(err.value) == message


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



def test_str_sorts_indices_as_numbers():
    # a string sort of the names would put y10 before y9 and u10 after v0
    y9, y10 = gen(GA, 11, 9), gen(GA, 11, 10)
    e = y10 - y9.scale(Fraction(1, 2)) - DiffPoly.unit(GA, 11)
    assert str(e) == "-1 - 1/2*y9 + y10"
    u10 = gen(GM, 11, 10, leg=0, legs=2)
    v0 = gen(GM, 11, 0, leg=1, legs=2)
    assert str(u10 * v0 * v0 - v0.inv()) == "u10*v0^2 - v0^-1"

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
