"""Exact arithmetic over Q(x, t) with the two commuting derivations d/dx, d/dt.

Four layers live here:

  Sparse    the base of every sparse commutative polynomial in the
            package: a map from monomials (exponent tuples, multiplied by
            adding them entry by entry) to nonzero coefficients, with the
            ring operations on it (a difference is the sum with the
            negation).  MPoly, solspace's SolExpr and hopf's
            DiffPoly are its subclasses; render_terms is the text of an
            MPoly (through exprparse.render_poly) and of a DiffPoly,
  MPoly     sparse polynomials in x and t over Q with int or Fraction
            coefficients, specialising only the product, in which a
            factor 1 is the other factor itself and a one-term factor
            c x^a t^b shifts the other's keys by (a, b) and scales its
            coefficients by c,
  RatFunc   rational functions kept in canonical form (coprime polynomials
            with int coefficients and no shared integer factor; the
            denominator's leading coefficient under lexicographic order with
            x > t is positive), so that structural equality decides field
            equality; a product by 1 is the other operand itself, a result
            with denominator 1 is stored with no gcd and no second
            normalisation, and nested denominators add by one division,
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
        return self + (-other)

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
        if not e:
            return self._unit()
        # the result starts at the lowest set bit, and the base is squared
        # only while bits remain
        base, result = self, None
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def inv(self):
        raise ValueError("negative power of a polynomial")


def render_terms(terms) -> str:
    """Text of a signed sum of monomials.

    terms holds (coefficient, [(name, exponent), ...]) items in print
    order.  A term is its factors joined by '*': the coefficient's absolute
    value unless it is 1 and the term has a variable, then name^exponent,
    or just name at exponent 1; factors with exponent 0 are left out.  The
    first term carries a bare '-' when negative, later ones ' - ' or ' + ';
    no terms print as "0".
    """
    parts = []
    for c, factors in terms:
        if c < 0:
            parts.append(" - ")
            c = -c
        else:
            parts.append(" + ")
        body = "" if c == 1 else str(c)
        for name, e in factors:
            if e == 1:
                body = f"{body}*{name}" if body else name
            elif e:
                body = f"{body}*{name}^{e}" if body else f"{name}^{e}"
        parts.append(body or "1")
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


class MPoly(Sparse):
    """Sparse polynomial in x, t over Q.

    ``terms`` maps (deg_x, deg_t) to a nonzero int or Fraction.  The
    constructor, which takes only ints and Fractions, stores an integer
    coefficient as an int; arithmetic on polynomials with Fraction
    coefficients may leave a Fraction(k, 1), which compares and hashes
    equal to k.  RatFunc's constructor clears such values, so every RatFunc
    numerator and denominator has int coefficients and runs on plain int
    arithmetic.  The product is the one loop specialised to these keys,
    with a one-term factor done as a shift; the sum, difference and
    scaling are the base's.
    """

    __slots__ = ()

    def __init__(self, terms: dict[Term, int | Fraction] | None = None):
        clean: dict[Term, int | Fraction] = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not int:
                    c = _scalar(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
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

    # the benchmark's tracer finds the sum by name in this class's dict
    __add__ = Sparse.__add__

    def __mul__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        # a one-term factor c x^a t^b shifts the other's keys by (a, b) and
        # scales its coefficients by c: the keys stay distinct and the
        # coefficients nonzero, so there is nothing to add up or filter
        A, B = self.terms, other.terms
        if len(B) == 1:
            ((bx, bt), bc), = B.items()
            return _poly({(ax + bx, at + bt): ac * bc
                          for (ax, at), ac in A.items()})
        if len(A) == 1:
            ((ax, at), ac), = A.items()
            return _poly({(ax + bx, at + bt): ac * bc
                          for (bx, bt), bc in B.items()})
        acc: dict[Term, int | Fraction] = {}
        B = list(B.items())
        for (ax, at), ac in A.items():
            for (bx, bt), bc in B:
                key = (ax + bx, at + bt)
                acc[key] = acc.get(key, 0) + ac * bc
        return _poly({k: c for k, c in acc.items() if c})

    def scale(self, c) -> MPoly:
        return Sparse.scale(self, _scalar(c))

    def deriv(self, var: str) -> MPoly:
        if var not in ("x", "t"):
            raise ValueError(f"unknown derivation {var!r}")
        idx = 0 if var == "x" else 1
        out: dict[Term, int | Fraction] = {}
        for (dx, dt), c in self.terms.items():
            e = (dx, dt)[idx]
            if e:
                key = (dx - 1, dt) if idx == 0 else (dx, dt - 1)
                out[key] = c * e
        return _poly(out)

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
        return _poly(q)


def _poly(terms: dict[Term, int | Fraction]) -> MPoly:
    """MPoly over a map that already holds only nonzero coefficients;
    skips the constructor's per-term checks."""
    p = object.__new__(MPoly)
    p.terms = terms
    return p


def _scalar(c):
    """c itself when it is an int or a Fraction; TypeError otherwise."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, not {type(c).__name__}")
    return c


# ---------------------------------------------------------------------------
# gcd: the heuristic gcd of Char, Geddes and Gonnet (JSC 1989).  Evaluating x
# at an integer xi turns both sides into polynomials in t.  Their exact gcd
# in Z[t] comes the same way, from an integer gcd at a second point, and
# each gcd is read back as balanced base-xi digits.  A candidate is kept
# only when it divides both sides.
#
# Why a kept candidate is the gcd.  B(p) = |p|_1 * 2^(deg_x p + deg_t p)
# bounds every coefficient of every factor of p (Mignotte, Math. Comp.
# 1974), and xi >= 2 min(B(p), B(q)) + 2.  Say the primitive candidate G
# divides p and q, so that the gcd is G*h.  The image gcd is c * G(xi),
# where c, the content of balanced digits, has |c| <= xi/2; the gcd's image
# divides it, so h(xi) divides c.  But h divides p, so its coefficients are
# below xi/2: if h is not constant, h(xi) is either of positive degree in t
# or an integer larger than xi/2.  So h = 1.  The same holds in Z[t]: an
# image gcd of 1 is the gcd.
#
# Why the loop ends.  Write p = g*p1 and q = g*q1.  The image gcd is g(xi)
# times the gcd of the images of p1 and q1, which divides their resultant:
# that spurious factor is bounded independently of xi, and it is free of t
# for all but finitely many xi.  Once xi exceeds twice the spurious factor
# times the height of g, the digits spell a multiple of g, and the check
# passes.  So there is no retry cap and no fallback route.

def _bound(coeffs, degree: int) -> int:
    """2 B + 2 for B the factor-height bound |coeffs|_1 * 2^degree."""
    return (sum(map(abs, coeffs)) << (degree + 1)) + 2


def _digits(v: int, xi: int) -> list[int]:
    """Balanced base-xi digits of v, lowest first."""
    out = []
    half = xi >> 1
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        out.append(d)
    return out


def _divides_zt(a: list[int], g: list[int]) -> bool:
    """Whether g divides a in Z[t]; stops at the first leading coefficient
    that does not divide."""
    r = list(a)
    dg = len(g) - 1
    lc = g[-1]
    for top in range(len(r) - 1, dg - 1, -1):
        c, m = divmod(r[top], lc)
        if m:
            return False
        if c:
            s = top - dg
            for k in range(dg):
                r[s + k] -= c * g[k]
    return not any(r[:dg])


def _gcd_zt(a: list[int], b: list[int]) -> list[int]:
    """Gcd in Z[t] of two nonzero dense coefficient lists, lowest first,
    integer content included, up to sign."""
    if len(a) == 1 or len(b) == 1:
        return [math.gcd(*a, *b)]
    xi = min(_bound(a, len(a) - 1), _bound(b, len(b) - 1))
    while True:
        va = vb = 0
        for v in reversed(a):
            va = va * xi + v
        for v in reversed(b):
            vb = vb * xi + v
        h = math.gcd(va, vb)
        if h == 1:
            return [1]
        g = _digits(h, xi)
        k = math.gcd(*g)
        if k != 1:
            g = [v // k for v in g]
        # a constant candidate is the unit once its content is removed, and
        # the unit divides both sides
        if len(g) == 1 or (_divides_zt(a, g) and _divides_zt(b, g)):
            c = math.gcd(*a, *b)
            return g if c == 1 else [v * c for v in g]
        xi = 2 * xi + 1


def _degrees(P: dict[Term, int]) -> tuple[int, int]:
    """P's degrees in x and in t, read in one pass over its keys."""
    dx = dt = 0
    for i, j in P:
        if i > dx:
            dx = i
        if j > dt:
            dt = j
    return dx, dt


def _eval_x(P: dict[Term, int], xi: int, deg_x: int, deg_t: int) -> list[int]:
    """The dense coefficient list in t of P at x = xi; deg_x and deg_t are
    P's degrees in x and in t."""
    powers = [1]
    for _ in range(deg_x):
        powers.append(powers[-1] * xi)
    out = [0] * (deg_t + 1)
    for (i, j), c in P.items():
        out[j] += c * powers[i]
    return out


def _primitive(p: MPoly) -> tuple[MPoly, int]:
    """(g, c) with p = c g, g integer-primitive with a positive lead."""
    c = math.gcd(*p.terms.values())
    if p.terms[max(p.terms)] < 0:
        c = -c
    return p if c == 1 else _poly({k: v // c for k, v in p.terms.items()}), c


def gcd(p: MPoly, q: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    """(g, p / g, q / g) for the integer polynomials p and q, where g is
    their canonical gcd in Q[x, t]: integer-primitive with positive leading
    coefficient under lex order x > t.  Both cofactors are integral."""
    P, Q = p.terms, q.terms
    if P and Q and ((len(P) == 1 and (0, 0) in P)
                    or (len(Q) == 1 and (0, 0) in Q)):
        return _MP_ONE, p, q
    if not P or not Q or P == Q:
        # gcd(p, 0) = gcd(p, p) is p's primitive part, and each nonzero
        # side's cofactor is p's signed content
        r = p if P else q
        if not r.terms:
            return _MP_ONE, p, q
        g, c = _primitive(r)
        c = MPoly.const(c)
        return g, (c if P else p), (c if Q else q)
    if len(P) == 1 or len(Q) == 1:
        i, j = next(iter(P))
        for a, b in (*P, *Q):
            if a < i:
                i = a
            if b < j:
                j = b
        if not i and not j:
            return _MP_ONE, p, q
        return (_poly({(i, j): 1}),
                _poly({(a - i, b - j): c for (a, b), c in P.items()}),
                _poly({(a - i, b - j): c for (a, b), c in Q.items()}))
    (px, pt), (qx, qt) = _degrees(P), _degrees(Q)
    xi = min(_bound(P.values(), px + pt), _bound(Q.values(), qx + qt))
    while True:
        terms = {}
        for j, v in enumerate(_gcd_zt(_eval_x(P, xi, px, pt),
                                      _eval_x(Q, xi, qx, qt))):
            for i, d in enumerate(_digits(v, xi)):
                if d:
                    terms[(i, j)] = d
        g = _primitive(_poly(terms))[0]
        if g.terms == _ONE_TERMS:
            return _MP_ONE, p, q
        try:
            return g, p.exact_div(g), q.exact_div(g)
        except ValueError:
            xi = 2 * xi + 1


def _nested_gcd(p: MPoly, q: MPoly) -> tuple[MPoly, MPoly, MPoly] | None:
    """gcd(p, q) of unequal nonzero integer polynomials by one division, or
    None: the primitive part of the one with the lex-smaller leading key, if
    it divides the other; the cofactors are integral by Gauss's lemma."""
    kp, kq = max(p.terms), max(q.terms)
    swap = kq < kp
    if swap:
        p, q, kp, kq = q, p, kq, kp
    if kp[1] > kq[1]:
        return None
    g, c = _primitive(p)
    try:
        r = q.exact_div(g)
    except ValueError:
        return None
    c = MPoly.const(c)
    return (g, r, c) if swap else (g, c, r)


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
            # clear denominators of both at once to int coefficients, cancel
            cs = [*num.terms.values(), *den.terms.values()]
            if any(type(c) is not int for c in cs):
                l = math.lcm(*[c.denominator for c in cs])
                num = _poly({k: c.numerator * (l // c.denominator)
                             for k, c in num.terms.items()})
                den = _poly({k: c.numerator * (l // c.denominator)
                             for k, c in den.terms.items()})
            if den.terms != _ONE_TERMS:
                _, num, den = gcd(num, den)
        # canonical scaling: strip the common integer content and make the
        # denominator's leading coefficient positive; a denominator 1 is
        # canonical as it is (content gcd 1, leading coefficient 1)
        if den.terms != _ONE_TERMS:
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
        n, d = self.num.terms, self.den.terms
        return (not n or (len(n) == 1 and (0, 0) in n)) and (
            len(d) == 1 and (0, 0) in d)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.num.constant_value() / self.den.constant_value()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __repr__(self) -> str:
        return f"RatFunc({self.num.terms!r}, {self.den.terms!r})"

    # arithmetic -----------------------------------------------------------
    def __add__(self, other) -> RatFunc:
        """The canonical sum.  Unequal denominators of two or more terms,
        like e d^k and e d^(k+1), first try _nested_gcd's one division."""
        if type(other) is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1.terms == d2.terms:
            # equal denominators, 1 among them: the cofactors are 1, and
            # only a factor of d1 can cancel
            num = n1 + n2
            if num.terms and d1.terms != _ONE_TERMS:
                _, num, d1 = gcd(num, d1)
            return RatFunc(num, d1, _reduce=False) if num.terms else _RF_ZERO
        # with reduced inputs the sum over the lcm denominator can only
        # share factors with g = gcd(d1, d2), so one small gcd suffices
        g, d1r, d2r = (len(d1.terms) > 1 and len(d2.terms) > 1
                       and _nested_gcd(d1, d2)) or gcd(d1, d2)
        # nonzero: canonical -a has a's denominator, so these cannot cancel
        num = n1 * d2r + n2 * d1r
        # the lcm denominator is g * d1r * d2r = d1 * d2r; only g can cancel
        h, num, gr = gcd(num, g)
        den = d1 * d2r if h.terms == _ONE_TERMS else gr * d1r * d2r
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
        if type(other) is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1.terms or not n2.terms:
            return _RF_ZERO
        if n2.terms == _ONE_TERMS and d2.terms == _ONE_TERMS:
            return self
        if n1.terms == _ONE_TERMS and d1.terms == _ONE_TERMS:
            return other
        # cross-cancel: reduced inputs leave the cross pairs as the only
        # possible common factors, so the product below is already reduced
        if d2.terms != _ONE_TERMS:
            _, n1, d2 = gcd(n1, d2)
        if d1.terms != _ONE_TERMS:
            _, n2, d1 = gcd(n2, d1)
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
        # a zero derivative, of a function free of var, is the shared zero
        n, d = self.num, self.den
        if d.terms == _ONE_TERMS:
            nd = n.deriv(var)
            return RatFunc(nd, _reduce=False) if nd.terms else _RF_ZERO
        dd = d.deriv(var)
        if dd.is_zero:
            # d is free of var, so only its factors can cancel against n'
            nd = n.deriv(var)
            if not nd.terms:
                return _RF_ZERO
            _, nd, e = gcd(nd, d)
            return RatFunc(nd, e, _reduce=False)
        g, e, w = gcd(d, dd)
        # peel the repeated part: f' = (n'e - n w) / (d e).  A factor of d
        # that depends on var and divides it m times divides d e m + 1
        # times but divides n'e - n w not at all, since it divides e once
        # and n w not at all; so only factors of g can cancel
        h, num, gr = gcd(n.deriv(var) * e - n * w, g)
        den = d * e if h.terms == _ONE_TERMS else gr * e * e
        return RatFunc(num, den, _reduce=False)


_MP_ZERO = MPoly.zero()
_MP_ONE = MPoly.one()
_ONE_TERMS = {(0, 0): 1}
_RF_ZERO = RatFunc(_MP_ZERO)


def _coerce(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction, MPoly)):
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
        cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return LinDiffOp(self.var,
                         [p + q for p, q in zip(a, b)] + list(a[len(b):]))

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
