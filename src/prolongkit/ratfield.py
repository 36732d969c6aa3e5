"""Exact arithmetic over Q(x, t) with the two commuting derivations d/dx, d/dt.

Four layers live here:

  Sparse    the base of every sparse commutative polynomial in the
            package: a map from monomials (exponent tuples, multiplied by
            adding them entry by entry) to nonzero coefficients, with the
            ring operations on it.  MPoly, solspace's SolExpr and hopf's
            DiffPoly are its subclasses,
  MPoly     sparse polynomials in x and t over Q; a coefficient is a plain
            int when it is an integer and a Fraction only when it has a
            denominator,
  RatFunc   rational functions kept in canonical form (coprime integer
            polynomials with no shared integer factor; the denominator's
            leading coefficient under lexicographic order with x > t is
            positive), so that structural equality decides field equality,
  LinDiffOp linear differential operators sum a_q * d^q in a single
            derivation, with the noncommutative product d * a = a * d + a'.

Everything is exact; no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

# monomial key: (deg_x, deg_t)
Term = tuple[int, int]


class Sparse:
    """Sparse commutative polynomial over a field.

    ``terms`` maps a monomial, a tuple of exponents, to a nonzero
    coefficient; the empty map is zero.  Instances are treated as immutable.
    A subclass with invertible elements supplies ``inv``, and one whose
    elements carry more state than their terms overrides ``_like`` and
    ``_unit``.
    """

    __slots__ = ("terms",)

    def _like(self, terms):
        """An element of self's ring over terms that are already clean."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def _unit(self):
        return type(self).one()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key)
            v = c if v is None else v + c
            if v:
                out[key] = v
            else:
                del out[key]
        return self._like(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = {}
        B = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in B:
                key = tuple(map(add, m1, m2))
                v = acc.get(key)
                acc[key] = c1 * c2 if v is None else v + c1 * c2
        return self._like({k: c for k, c in acc.items() if c})

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** -e
        result = self._unit()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self):
        raise ValueError("negative power of a polynomial")


class MPoly(Sparse):
    """Sparse polynomial in x, t over Q.

    ``terms`` maps (deg_x, deg_t) to a nonzero coefficient: a plain int when
    the coefficient is an integer, a Fraction only when it has a
    denominator, so integer polynomials (every RatFunc numerator and
    denominator) run on machine-level int arithmetic.  The sum, difference,
    product and scaling override the base's with loops specialised to
    these keys and coefficients; the benchmark's tracer finds them by name
    in MPoly's own class dict, so they stay defined here.
    """

    __slots__ = ()

    def __init__(self, terms: dict[Term, int | Fraction] | None = None):
        clean: dict[Term, int | Fraction] = {}
        if terms:
            for key, c in terms.items():
                if c:
                    if type(c) is not int:
                        c = Fraction(c)
                        if c.denominator == 1:
                            c = c.numerator
                    clean[key] = c
        self.terms = clean

    @classmethod
    def const(cls, c) -> MPoly:
        return cls({(0, 0): c})

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def one(cls) -> MPoly:
        return cls({(0, 0): 1})

    @classmethod
    def variable(cls, name: str) -> MPoly:
        if name == "x":
            return cls({(1, 0): 1})
        if name == "t":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    @property
    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and (0, 0) in t)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get((0, 0), 0))

    def leading(self) -> tuple[Term, int | Fraction]:
        """Leading key and coefficient under lex order with x > t."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    def __repr__(self) -> str:
        return f"MPoly({self.terms!r})"

    def __add__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return MPoly(out)

    def __sub__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return MPoly(out)

    def __mul__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        acc: dict[Term, int | Fraction] = {}
        B = list(other.terms.items())
        for (ax, at), ac in self.terms.items():
            for (bx, bt), bc in B:
                key = (ax + bx, at + bt)
                acc[key] = acc.get(key, 0) + ac * bc
        return MPoly(acc)

    def scale(self, c) -> MPoly:
        if type(c) is not int:
            c = Fraction(c)
        return MPoly({k: v * c for k, v in self.terms.items()})

    def deriv(self, var: str) -> MPoly:
        idx = 0 if var == "x" else 1
        out: dict[Term, int | Fraction] = {}
        for (dx, dt), c in self.terms.items():
            e = (dx, dt)[idx]
            if e:
                key = (dx - 1, dt) if idx == 0 else (dx, dt - 1)
                out[key] = c * e
        return MPoly(out)

    def exact_div(self, d: MPoly) -> MPoly:
        """Exact quotient self / d; raises ValueError if d does not divide.

        Long division by leading terms; a quotient coefficient is an int
        whenever the integer division is exact, else a Fraction."""
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q: dict[Term, int | Fraction] = {}
        r = dict(self.terms)
        (dx0, dt0), dc = d.leading()
        rest = [(k, c) for k, c in d.terms.items() if k != (dx0, dt0)]
        while r:
            rx, rt = rkey = max(r)
            mx, mt = rx - dx0, rt - dt0
            if mx < 0 or mt < 0:
                raise ValueError("polynomial division is not exact")
            c = r.pop(rkey)
            if type(c) is int and type(dc) is int and not c % dc:
                mc = c // dc
            else:
                mc = Fraction(c) / dc
            q[(mx, mt)] = mc
            for (kx, kt), c2 in rest:
                kk = (mx + kx, mt + kt)
                v = r.get(kk, 0) - mc * c2
                if v:
                    r[kk] = v
                else:
                    del r[kk]
        return MPoly(q)


def _poly(terms: dict[Term, int | Fraction]) -> MPoly:
    """MPoly over a map that already holds only nonzero, normalised
    coefficients; skips the constructor's per-term checks."""
    p = object.__new__(MPoly)
    p.terms = terms
    return p


def _integral(p: MPoly) -> MPoly:
    """p scaled by the lcm of its coefficient denominators."""
    l = math.lcm(*[c.denominator for c in p.terms.values()])
    return p if l == 1 else p.scale(l)


# ---------------------------------------------------------------------------
# gcd machinery: subresultant PRS in x over Z[t].  Integer polynomials are
# viewed as coefficient tables {dx: [t-coefficients]} so the inner loops run
# on plain int lists.

def _table(p: MPoly) -> dict[int, list[int]]:
    """Z[t]-coefficient table of p cleared of coefficient denominators."""
    out: dict[int, list[int]] = {}
    for (dx, dt), c in p.terms.items():
        if type(c) is not int:
            return _table(_integral(p))
        u = out.get(dx)
        if u is None:
            out[dx] = u = [0] * (dt + 1)
        elif len(u) <= dt:
            u.extend([0] * (dt + 1 - len(u)))
        u[dt] = c
    return out


def _z_trim(u: list[int]) -> list[int]:
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


def _z_scale(u, c: int):
    return [v * c for v in u]


def _z_mul(a, b):
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if la == 1:
        return _z_trim(_z_scale(b, a[0]))
    if lb == 1:
        return _z_trim(_z_scale(a, b[0]))
    if la * lb <= 24:
        out = [0] * (la + lb - 1)
        for i, v in enumerate(a):
            if v:
                for j, w in enumerate(b):
                    out[i + j] += v * w
        return _z_trim(out)
    # Kronecker substitution: pack both factors into single big ints, do one
    # machine-level multiply and read the product back off in balanced base
    # 2^k digits
    ma = max(abs(v) for v in a)
    mb = max(abs(v) for v in b)
    k = (ma * mb * min(la, lb)).bit_length() + 2
    A = 0
    for v in reversed(a):
        A = (A << k) + v
    B = 0
    for v in reversed(b):
        B = (B << k) + v
    C = A * B
    n = la + lb - 1
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    out = [0] * n
    for i in range(n):
        d = C & mask
        C >>= k
        if d >= half:
            d -= mask + 1
            C += 1
        out[i] = d
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


def _z_pow(u, e: int):
    out = [1]
    for _ in range(e):
        out = _z_mul(out, u)
    return out


def _zx_content(xv):
    g: list[int] = []
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
        new: dict[int, list[int]] = {}
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
    along the way.  gcd's one full route, taken when neither the
    divisibility test nor the coprime probe settles the pair."""
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


def _zx_divides(a, g):
    """Whether g divides a in x over Z[t].  For a primitive g the quotient
    of an exact division is integral, so a failed coefficient division
    means "no"."""
    r = dict(a)
    dg = max(g)
    lcg = g[dg]
    while r:
        dr = max(r)
        if dr < dg:
            return False
        try:
            q = _z_exact_div(r.pop(dr), lcg)
        except ValueError:
            return False
        for k, u in g.items():
            if k == dg:
                continue
            kk = k + dr - dg
            v = _z_sub(r.get(kk, []), _z_mul(u, q))
            if v:
                r[kk] = v
            else:
                r.pop(kk, None)
    return True


def _eval_list(u, t0: int, p: int) -> int:
    acc = 0
    for c in reversed(u):
        acc = (acc * t0 + c) % p
    return acc


def _mod_eval_rows(xv, t0: int, p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for dx, u in xv.items():
        acc = _eval_list(u, t0, p)
        if acc:
            out[dx] = acc
    return out


def _dense(d: dict[int, int], n: int) -> list[int]:
    return [d.get(k, 0) for k in range(n + 1)]


_P61 = (1 << 61) - 1


def _mod_gcd_degree(A, B, p) -> int:
    """Degree of gcd(A, B) over F_p, computed with a scaled remainder chain
    so no modular inverses are needed."""
    while B:
        db = len(B) - 1
        lcb = B[-1]
        R = list(A)
        while len(R) - 1 >= db:
            lcr = R.pop()
            if not lcr:
                continue
            shift = len(R) - db
            for k in range(db):
                R[shift + k] = (R[shift + k] * lcb - lcr * B[k]) % p
            for k in range(shift):
                R[k] = R[k] * lcb % p
        while R and not R[-1]:
            R.pop()
        A, B = B, R
    return len(A) - 1


def _zx_coprime_probe(a, b) -> bool:
    """True when a modular evaluation proves the primitive parts coprime.

    Evaluating t at a point that keeps both leading rows nonzero can only
    raise the x-degree of the gcd image, so a degree-0 image certifies
    gcd = 1.  A coprime pair has an image of positive degree only at roots
    of its resultant, so such a point gives way to the next one.  Runs over
    a word-size prime so the common coprime case stays cheap; False means
    inconclusive, never "not coprime".
    """
    p = _P61
    da, db = max(a), max(b)
    for t0 in (2, 3, 7):
        Ae = _mod_eval_rows(a, t0, p)
        Be = _mod_eval_rows(b, t0, p)
        if Ae.get(da) is None or Be.get(db) is None:
            continue
        if _mod_gcd_degree(_dense(Ae, da), _dense(Be, db), p) == 0:
            return True
    return False


def _canon_poly(p: MPoly) -> MPoly:
    """Integer-primitive scaling with positive leading coefficient (lex
    order with x > t): the canonical generator over Q of the ideal (p)."""
    p = _integral(p)
    g = math.gcd(*p.terms.values())
    if p.terms[max(p.terms)] < 0:
        g = -g
    if g == 1:
        return p
    return _poly({k: c // g for k, c in p.terms.items()})


def gcd(p: MPoly, q: MPoly) -> MPoly:
    """Canonical gcd in Q[x, t]: integer-primitive with positive leading
    coefficient under lex order x > t."""
    if p.is_zero:
        return MPoly.one() if q.is_zero else _canon_poly(q)
    if q.is_zero:
        return _canon_poly(p)
    if p.is_constant or q.is_constant:
        return _MP_ONE
    a, b = _table(p), _table(q)
    if max(a) < max(b):
        a, b = b, a
    # gcd = gcd(content(a), content(b)) * gcd(pp(a), pp(b)), contents in Z[t]
    cb = _zx_content(b)
    d = cb
    for u in a.values():
        if len(d) == 1:
            break
        d = _z_gcd(d, u)
    # the primitive part of b is 1 when b is free of x.  One of x-degree 1
    # is irreducible, so it either divides a or is coprime to it.  Above
    # that, the coprime probe settles most pairs, and the subresultant PRS
    # runs only when the probe is inconclusive
    g = None
    if max(b) > 0:
        b = _zx_div_content(b, cb)
        if _zx_divides(a, b):
            g = b
        elif max(b) > 1 and not _zx_coprime_probe(a, b):
            g = _zx_prs_gcd(_zx_div_content(a, _zx_content(a)), b)
    if g is None:
        if len(d) == 1:
            # an integer content is stripped by the canonical scaling
            return _MP_ONE
        g = {0: [1]}
    return _canon_poly(_poly({(dx, dt): c
                              for dx, u in g.items()
                              for dt, c in enumerate(_z_mul(u, d)) if c}))


def _split_gcd(d1: MPoly, d2: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    """(g, d1 / g, d2 / g) for g a gcd over Q of the integer polynomials
    d1 and d2, with both cofactors integral.

    In most sums one denominator divides the other, so one trial division
    of the larger by the primitive part of the smaller comes before the
    full gcd.  When it is exact, that primitive part is a gcd, the quotient
    is integral by Gauss's lemma and is one cofactor, and the smaller one's
    integer content is the other.  The trial can only succeed when the
    smaller one's leading monomial divides the larger one's."""
    if d1.terms == d2.terms:
        return d1, _MP_ONE, _MP_ONE
    (x1, t1), (x2, t2) = max(d1.terms), max(d2.terms)
    if x1 <= x2 and t1 <= t2:
        small, large = d1, d2
    elif x2 <= x1 and t2 <= t1:
        small, large = d2, d1
    else:
        small = None
    if small is not None:
        c = math.gcd(*small.terms.values())
        p = small if c == 1 else _poly({k: v // c
                                        for k, v in small.terms.items()})
        try:
            q = large.exact_div(p)
        except ValueError:
            pass
        else:
            c = MPoly.const(c)
            return (p, c, q) if small is d1 else (p, q, c)
    g = gcd(d1, d2)
    if g.terms == _ONE_TERMS:
        return g, d1, d2
    return g, d1.exact_div(g), d2.exact_div(g)

# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function over Q in x and t, stored in canonical form.

    Canonical form: gcd(num, den) = 1, both have integer coefficients with
    no common integer factor, and the denominator's leading coefficient
    (lex order with x > t) is positive.  That representative is unique, so
    two RatFuncs are equal in the field iff their term maps are equal and
    __eq__ is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _reduce=True):
        if not isinstance(num, MPoly):
            num = MPoly.const(num)
        if den is None:
            den = _MP_ONE
        elif not isinstance(den, MPoly):
            den = MPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = _MP_ZERO
            self.den = _MP_ONE
            return
        # with _reduce=False the caller passes coprime integer polynomials
        if _reduce:
            # clear coefficient denominators of both at once, then cancel
            l = math.lcm(*[c.denominator for c in num.terms.values()],
                         *[c.denominator for c in den.terms.values()])
            if l != 1:
                num, den = num.scale(l), den.scale(l)
            if den.terms != _ONE_TERMS:
                g = gcd(num, den)
                if g.terms != _ONE_TERMS:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
        # canonical scaling: strip the common integer content and make the
        # denominator's leading coefficient positive
        ig = math.gcd(*den.terms.values())
        if ig != 1:
            ig = math.gcd(ig, *num.terms.values())
        if den.terms[max(den.terms)] < 0:
            ig = -ig
        if ig != 1:
            num = _poly({k: c // ig for k, c in num.terms.items()})
            den = _poly({k: c // ig for k, c in den.terms.items()})
        self.num = num
        self.den = den

    # constructors ---------------------------------------------------------
    @classmethod
    def from_int(cls, n: int) -> RatFunc:
        return cls(MPoly.const(n))

    @classmethod
    def from_fraction(cls, f: Fraction) -> RatFunc:
        return cls(MPoly.const(f))

    @classmethod
    def var_x(cls) -> RatFunc:
        return cls(MPoly.variable("x"))

    @classmethod
    def var_t(cls) -> RatFunc:
        return cls(MPoly.variable("t"))

    @classmethod
    def zero(cls) -> RatFunc:
        return cls(_MP_ZERO)

    @classmethod
    def one(cls) -> RatFunc:
        return cls(_MP_ONE)

    # predicates -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.terms == _ONE_TERMS and self.den.terms == _ONE_TERMS

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.num.constant_value() / self.den.constant_value()

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __repr__(self) -> str:
        return f"RatFunc({self.num.terms!r}, {self.den.terms!r})"

    # arithmetic -----------------------------------------------------------
    def __add__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1.terms == _ONE_TERMS and d2.terms == _ONE_TERMS:
            return RatFunc(n1 + n2)
        # with reduced inputs the sum over the lcm denominator can only
        # share factors with g = gcd(d1, d2), so one small gcd suffices
        g, d1r, d2r = _split_gcd(d1, d2)
        if g.terms == _ONE_TERMS:
            return RatFunc(n1 * d2 + n2 * d1, d1 * d2, _reduce=False)
        num = n1 * d2r + n2 * d1r
        if num.is_zero:
            return _RF_ZERO
        den = d1 * d2r
        h = gcd(num, g)
        if h.terms != _ONE_TERMS:
            num = num.exact_div(h)
            den = den.exact_div(h)
        return RatFunc(num, den, _reduce=False)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> RatFunc:
        out = object.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if n1.is_zero or n2.is_zero:
            return _RF_ZERO
        # cross-cancel: reduced inputs leave the cross pairs as the only
        # possible common factors, so the product below is already reduced
        if d2.terms != _ONE_TERMS:
            g1 = gcd(n1, d2)
            if g1.terms != _ONE_TERMS:
                n1 = n1.exact_div(g1)
                d2 = d2.exact_div(g1)
        if d1.terms != _ONE_TERMS:
            g2 = gcd(n2, d1)
            if g2.terms != _ONE_TERMS:
                n2 = n2.exact_div(g2)
                d1 = d1.exact_div(g2)
        return RatFunc(n1 * n2, d1 * d2, _reduce=False)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        flipped = RatFunc(other.den, other.num, _reduce=False)
        return self * flipped

    def __rtruediv__(self, other) -> RatFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, e: int) -> RatFunc:
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero to a negative power")
            return RatFunc(self.den ** (-e), self.num ** (-e), _reduce=False)
        return RatFunc(self.num ** e, self.den ** e, _reduce=False)

    def deriv(self, var: str) -> RatFunc:
        """Partial derivative d/dx or d/dt; the two commute."""
        if var not in ("x", "t"):
            raise ValueError(f"unknown derivation {var!r}")
        if self.den.terms == _ONE_TERMS:
            return RatFunc(self.num.deriv(var))
        n, d = self.num, self.den
        dd = d.deriv(var)
        if dd.is_zero:
            return RatFunc(n.deriv(var), d)
        g = gcd(d, dd)
        if g.terms == _ONE_TERMS:
            # squarefree-in-var denominator: the quotient rule output is
            # already in lowest terms
            return RatFunc(n.deriv(var) * d - n * dd, d * d, _reduce=False)
        # peel the repeated part: same value with both degrees deflated by
        # deg g, though a final reduction is still required
        e = d.exact_div(g)
        w = dd.exact_div(g)
        return RatFunc(n.deriv(var) * e - n * w, d * e)


_MP_ZERO = MPoly.zero()
_MP_ONE = MPoly.one()
_ONE_TERMS = {(0, 0): 1}
_RF_ZERO = RatFunc(_MP_ZERO)


def _coerce(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction)):
        return RatFunc(MPoly.const(v))
    if isinstance(v, MPoly):
        return RatFunc(v)
    return NotImplemented


# ---------------------------------------------------------------------------

class LinDiffOp:
    """Linear differential operator sum_q a_q * d^q in one derivation.

    ``var`` is "x" or "t" and names the derivation d; coefficients are
    RatFunc, stored lowest order first with no trailing zero (the zero
    operator has an empty coefficient tuple).  Multiplication uses
    d * a = a * d + a', applied once per order of the left factor.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs):
        if var not in ("x", "t"):
            raise ValueError(f"unknown derivation {var!r}")
        cs = [c if isinstance(c, RatFunc) else _coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    @classmethod
    def partial(cls, var: str) -> LinDiffOp:
        return cls(var, [RatFunc.zero(), RatFunc.one()])

    @classmethod
    def from_scalar(cls, var: str, a) -> LinDiffOp:
        return cls(var, [a])

    @property
    def order(self) -> int:
        """Order of the operator; -1 for the zero operator."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, LinDiffOp):
            return self.var == other.var and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"LinDiffOp({self.var!r}, {list(self.coeffs)!r})"

    def __add__(self, other: LinDiffOp) -> LinDiffOp:
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        if self.var != other.var:
            raise ValueError("operators act through different derivations")
        n = max(len(self.coeffs), len(other.coeffs))
        zero = RatFunc.zero()
        out = []
        for q in range(n):
            a = self.coeffs[q] if q < len(self.coeffs) else zero
            b = other.coeffs[q] if q < len(other.coeffs) else zero
            out.append(a + b)
        return LinDiffOp(self.var, out)

    def __mul__(self, other: LinDiffOp) -> LinDiffOp:
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        if self.var != other.var:
            raise ValueError("operators act through different derivations")
        if self.is_zero or other.is_zero:
            return LinDiffOp(self.var, [])
        var = self.var
        # A * B = sum_i a_i * D_i with D_0 = B and D_(i+1) = d * D_i, whose
        # coefficients follow from d * c d^q = c' d^q + c d^(q+1).  The top
        # coefficient of every D_i is B's leading one, differentiated once
        out = [_RF_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        D = list(other.coeffs)
        lead = D[-1]
        lead_d = lead.deriv(var) if len(self.coeffs) > 1 else None
        for i, a in enumerate(self.coeffs):
            if i:
                nxt = [c.deriv(var) if c else c for c in D[:-1]]
                nxt.append(lead_d)
                for q in range(1, len(D)):
                    nxt[q] = nxt[q] + D[q - 1]
                nxt.append(lead)
                D = nxt
            if a:
                for q, c in enumerate(D):
                    if c:
                        c = a * c
                        out[q] = out[q] + c if out[q] else c
        return LinDiffOp(var, out)

    def apply(self, f: RatFunc) -> RatFunc:
        """Apply the operator to a field element."""
        if not isinstance(f, RatFunc):
            f = _coerce(f)
        result = RatFunc.zero()
        g = f
        for q, a in enumerate(self.coeffs):
            if q:
                g = g.deriv(self.var)
            if not a.is_zero:
                result = result + a * g
        return result
