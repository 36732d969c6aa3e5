"""The heuristic gcd against a subresultant PRS reference.

The reference is the gcd route prolongkit used before the heuristic: the
subresultant polynomial remainder sequence in x over Z[t], on coefficient
tables {deg_x: [t-coefficients]}, with the contents in Z[t] split off
first.  It shares no code with ``ratfield.gcd``.
"""

import math

import hypothesis
import hypothesis.strategies as st
import pytest

from prolongkit import ratfield
from prolongkit.ratfield import MPoly, gcd

# reference: subresultant PRS in x over Z[t] ----------------------------------

def _table(p):
    """Z[t]-coefficient table of an integer polynomial."""
    out = {}
    for (dx, dt), c in p.terms.items():
        u = out.get(dx)
        if u is None:
            out[dx] = u = [0] * (dt + 1)
        elif len(u) <= dt:
            u.extend([0] * (dt + 1 - len(u)))
        u[dt] = c
    return out


def _z_trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _z_sub(a, b):
    if len(a) < len(b):
        out = list(b)
        for k in range(len(out)):
            out[k] = -out[k]
        for k, v in enumerate(a):
            out[k] += v
    else:
        out = list(a)
        for k, v in enumerate(b):
            out[k] -= v
    return _z_trim(out)


def _z_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, v in enumerate(a):
        if v:
            for j, w in enumerate(b):
                out[i + j] += v * w
    return _z_trim(out)


def _z_primitive(u):
    g = math.gcd(*u)
    if g <= 1:
        return u, 1
    return [v // g for v in u], g


def _z_prem(a, b):
    """Pseudo-remainder of a by b: a is scaled freely by lc(b), which keeps
    every intermediate value an integer."""
    db = len(b) - 1
    lcb = b[-1]
    r = list(a)
    while len(r) > db:
        lt = r.pop()
        if not lt:
            continue
        if lcb != 1:
            for k in range(len(r)):
                r[k] *= lcb
        shift = len(r) - db
        for k in range(db):
            r[shift + k] -= lt * b[k]
    return _z_trim(r)


def _z_gcd(a, b):
    """Gcd in Z[t] up to sign, integer content included; [] only for
    gcd(0, 0)."""
    if not a or a == b:
        return b
    if not b:
        return a
    if not a[0] or not b[0]:
        # t is prime, so the power of t splits off: gcd(t^i a', t^j b') =
        # t^min(i, j) gcd(a', b') when t divides neither a' nor b'
        i = j = 0
        while not a[i]:
            i += 1
        while not b[j]:
            j += 1
        return [0] * min(i, j) + _z_gcd(a[i:], b[j:])
    if len(a) == 1 or len(b) == 1:
        return [math.gcd(*a, *b)]
    a, ca = _z_primitive(a)
    b, cb = _z_primitive(b)
    c = math.gcd(ca, cb)
    while b:
        if len(a) < len(b):
            a, b = b, a
        a, b = b, _z_primitive(_z_prem(a, b))[0]
    if c != 1:
        a = [v * c for v in a]
    return a


def _z_exact_div(u, g):
    if len(g) == 1:
        c = g[0]
        for v in u:
            if v % c:
                raise ValueError("univariate division is not exact")
        return [v // c for v in u]
    dg = len(g) - 1
    lcg = g[-1]
    q = [0] * max(len(u) - dg, 0)
    r = list(u)
    r = _z_trim(r)
    while r:
        dr = len(r) - 1
        if dr < dg or r[-1] % lcg:
            raise ValueError("univariate division is not exact")
        c = r[-1] // lcg
        q[dr - dg] = c
        r.pop()
        shift = dr - dg
        for k in range(dg):
            r[shift + k] -= c * g[k]
        r = _z_trim(r)
    return q


def _z_pow(u, e):
    out = [1]
    for _ in range(e):
        out = _z_mul(out, u)
    return out


def _zx_content(xv):
    g = []
    for u in xv.values():
        g = _z_gcd(g, u)
        if g == [1]:
            return [1]
    return g


def _zx_div_content(xv, g):
    if g == [1]:
        return xv
    return {dx: _z_exact_div(u, g) for dx, u in xv.items()}


def _zx_prem(a, b):
    """Standard pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in x
    over Z[t]; the exact scaling power matters for the subresultant chain,
    so skipped reduction steps are compensated at the end."""
    da = max(a)
    db = max(b)
    lcb = b[db]
    steps = 0
    r = a
    while r and max(r) >= db:
        steps += 1
        dr = max(r)
        lt = r[dr]
        shift = dr - db
        new = {}
        for k, u in r.items():
            if k != dr:
                new[k] = _z_mul(u, lcb)
        for k, u in b.items():
            if k == db:
                continue
            kk = k + shift
            v = _z_sub(new.get(kk, []), _z_mul(u, lt))
            if v:
                new[kk] = v
            else:
                new.pop(kk, None)
        r = new
    if r and steps < da - db + 1:
        f = _z_pow(lcb, da - db + 1 - steps)
        r = {k: _z_mul(u, f) for k, u in r.items()}
    return r


def _zx_prs_gcd(a, b):
    """Gcd of the primitive parts via the subresultant chain: dividing each
    remainder by g * h^delta bounds the growth without any content gcds
    along the way."""
    g = h = [1]
    while b:
        delta = max(a) - max(b)
        r = _zx_prem(a, b)
        if r:
            beta = _z_mul(g, _z_pow(h, delta))
            if beta != [1]:
                r = {dx: _z_exact_div(u, beta) for dx, u in r.items()}
        g = b[max(b)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _z_exact_div(_z_pow(g, delta), _z_pow(h, delta - 1))
        a, b = b, r
    return _zx_div_content(a, _zx_content(a))


def reference_gcd(p, q):
    """Canonical gcd of nonzero integer polynomials: the gcd of the contents
    in Z[t] times the PRS gcd of the primitive parts, scaled to be
    integer-primitive with a positive leading coefficient."""
    a, b = _table(p), _table(q)
    if max(a) < max(b):
        a, b = b, a
    ca, cb = _zx_content(a), _zx_content(b)
    g = {0: [1]}
    if max(b) > 0:
        g = _zx_prs_gcd(_zx_div_content(a, ca), _zx_div_content(b, cb))
    d = _z_gcd(ca, cb)
    terms = {(dx, dt): c for dx, u in g.items()
             for dt, c in enumerate(_z_mul(u, d)) if c}
    c = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        c = -c
    return MPoly({k: v // c for k, v in terms.items()})


# the differential test --------------------------------------------------------

def assert_gcd_matches_reference(p, q):
    g, cp, cq = gcd(p, q)
    assert g == reference_gcd(p, q)
    assert g * cp == p and g * cq == q
    assert all(type(c) is int for f in (g, cp, cq) for c in f.terms.values())


small = st.integers(-5, 5)
nonzero = small.filter(bool)
exponents = st.integers(0, 3)


def _polys(keys):
    return st.dictionaries(keys, small, min_size=1, max_size=4).map(
        MPoly).filter(lambda p: not p.is_zero)


monomials = st.builds(lambda c, i, j: MPoly({(i, j): c}),
                      nonzero, exponents, exponents)
x_free = _polys(st.tuples(st.just(0), exponents))
t_free = _polys(st.tuples(exponents, st.just(0)))
dense = _polys(st.tuples(exponents, exponents))
# products of x + a t + b: an image at x = xi shares a root in t with
# another, or an image gcd picks up a spurious integer factor, often enough
# that these force the retries
linear_forms = st.builds(
    lambda a, b: MPoly({(1, 0): 1, (0, 1): a, (0, 0): b}),
    st.integers(-3, 3), st.integers(-4, 4))
linear_products = st.lists(linear_forms, min_size=1, max_size=3).map(
    lambda fs: math.prod(fs[1:], start=fs[0]))
factors = st.one_of(monomials, x_free, t_free, dense, linear_products)
contents = st.integers(-6, 6).filter(bool)


@hypothesis.given(factors, factors, st.one_of(st.just(MPoly.one()), factors),
                  contents, contents)
@hypothesis.settings(deadline=None, max_examples=400)
def test_gcd_matches_prs_reference(f, h, shared, c1, c2):
    # integer content and a negative leading coefficient on either side,
    # and a shared factor that is often nontrivial
    assert_gcd_matches_reference((f * shared).scale(c1), (h * shared).scale(c2))


@hypothesis.given(linear_products, linear_products, linear_products)
@hypothesis.settings(deadline=None, max_examples=200)
def test_gcd_of_products_of_linear_forms(f, h, shared):
    assert_gcd_matches_reference(f * shared, h * shared)


# the retries --------------------------------------------------------------------

_x, _t, _1 = MPoly.variable("x"), MPoly.variable("t"), MPoly.one()


def _counting_retries(monkeypatch):
    """Counts of the checks that reject a candidate: an x-level candidate
    that MPoly.exact_div cannot divide into a side, and a t-level one that
    fails the univariate division."""
    failed = {"x": 0, "t": 0}
    exact_div, divides = MPoly.exact_div, ratfield._divides_zt

    def counted_exact_div(self, d):
        try:
            return exact_div(self, d)
        except ValueError:
            failed["x"] += 1
            raise

    def counted_divides(a, g):
        ok = divides(a, g)
        failed["t"] += not ok
        return ok

    monkeypatch.setattr(MPoly, "exact_div", counted_exact_div)
    monkeypatch.setattr(ratfield, "_divides_zt", counted_divides)
    return failed


@pytest.mark.parametrize("p, q, level", [
    # at x = 14 the images have the integer gcd 8, which reads back as x - 6
    (_x + _1.scale(2),
     _x ** 3 - (_x * _x * _t).scale(2) - (_x * _x).scale(3)
     + (_x * _t).scale(2) + _t.scale(4) + _1.scale(4), "x"),
    # at x = 42 and t = 162 the images have the spurious factor 123, which
    # reads back as t - 39
    (_x * _x + (_x * _t).scale(2) - _t.scale(6) - _1.scale(9),
     _x - _t - _1.scale(3), "t"),
], ids=["x-level", "t-level"])
def test_gcd_retries_and_stays_exact(monkeypatch, p, q, level):
    failed = _counting_retries(monkeypatch)
    for a, b in ((p, q), (q, p), (p * (_x + _t), q * (_x + _t))):
        assert_gcd_matches_reference(a, b)
    assert failed[level] >= 1


def test_gcd_exits_before_the_heuristic():
    f = _x * _x + _t
    # a zero side leaves the other's canonical scaling
    assert gcd(MPoly.zero(), f.scale(-3)) == (f, MPoly.zero(), MPoly.const(-3))
    assert gcd(f, MPoly.zero()) == (f, _1, MPoly.zero())
    assert gcd(MPoly.zero(), MPoly.zero())[0] == _1
    # a constant side
    assert gcd(f.scale(6), MPoly.const(4)) == (_1, f.scale(6), MPoly.const(4))
    # a monomial side: the smallest exponents across both sides
    m = (_x * _x * _t).scale(-2)
    g, cm, cf = gcd(m, f * _x * _t)
    assert g == _x * _t and cm == _x.scale(-2) and cf == f
    assert gcd(m, f) == (_1, m, f)


@pytest.mark.parametrize("p", [
    (_x * _x * _t + _x + _t + _1).scale(-6),
    ((_x + _t) * (_x - _t.scale(2) + _1)).scale(-4),
    (_t * _t + _1).scale(-3),
], ids=["dense", "linear-product", "x-free"])
def test_gcd_of_equal_sides_is_the_primitive_part(monkeypatch, p):
    calls = []
    exact_div = MPoly.exact_div

    def counted_exact_div(self, d):
        calls.append(d)
        return exact_div(self, d)

    monkeypatch.setattr(MPoly, "exact_div", counted_exact_div)
    g, cp, cq = gcd(p, p)
    assert g == reference_gcd(p, p)
    # p's content with p's sign, on both sides
    assert cp == cq and cp.is_constant and cp.constant_value() < -1
    assert g * cp == p
    assert not calls


def test_a_coprime_pair_makes_no_division_check(monkeypatch):
    # the images in Z[t] are coprime, so the candidate there is the unit
    calls = []
    divides = ratfield._divides_zt
    monkeypatch.setattr(ratfield, "_divides_zt",
                        lambda a, g: calls.append(g) or divides(a, g))
    p, q = _x + _t + _1, _x - _t
    for a, b in ((p, q), (q, p)):
        g, ca, cb = gcd(a, b)
        assert g == _1 and ca is a and cb is b
    assert not calls


@pytest.mark.parametrize("f", [
    _x + _1.scale(2), _t * _t + _1, _x * _x + _x * _t - _1.scale(2),
], ids=["t-free", "x-free", "mixed"])
def test_a_known_common_factor_comes_back_with_integral_cofactors(f):
    # a t-free factor leaves a constant candidate in Z[t]: its content is
    # f at x = xi, read back as f
    p, q = f * (_x + _t), (f * (_x - _t) * (_t + _1)).scale(-3)
    for a, b in ((p, q), (q, p)):
        g, ca, cb = gcd(a, b)
        assert g == f and g * ca == a and g * cb == b
        assert all(type(c) is int for h in (ca, cb) for c in h.terms.values())
