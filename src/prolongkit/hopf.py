"""Order-truncated differential Hopf algebras of the two classical groups.

Elements live in the differential polynomial algebra on one coordinate y
and its derivatives y_0, y_1, ..., y_N (N is the truncation order); for the
multiplicative group the order-0 variable is Laurent (negative powers of
y_0 are allowed), for the additive group it is not.  Tensor powers are
modeled by extra "legs": a 2-leg element is a polynomial in u_j and v_j,
a 3-leg element also in w_j.

DiffPoly is a ratfield.Sparse whose monomials are dense: a tuple of
legs * (order + 1) exponents, that of y_j in leg l at index
l * (order + 1) + j, so the base's product (which adds exponent tuples
entry by entry) is the product here.  Printing sorts the terms by the
sparse form ((leg, j), exponent), ... of their monomials and hands them to
ratfield.render_terms.

Structure maps are algebra homomorphisms fixed on y_0:

  additive (ga):        delta(y_0) = u_0 + v_0     S(y_0) = -y_0    eps(y_0) = 0
  multiplicative (gm):  delta(y_0) = u_0 v_0       S(y_0) = 1/y_0   eps(y_0) = 1

with the higher generators sent to d^j of y_0's image, so that delta and S
commute with d.  delta and ga's S are closed forms (u_j + v_j, the sum of
C(j, k) u_k v_(j-k), -y_j) that check_axioms tests against d; gm's S is
transported.  check_axioms runs the five families on all generators below
the truncation order and, for ga, also compares the derivation-compatible
antipode with the alternating-sign one, which first disagrees at order 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .ratfield import Sparse, _scalar, render_terms

GA = "ga"
GM = "gm"
_GROUPS = (GA, GM)

_LEG_NAMES = ("y", "u", "v", "w")


class OrderOverflowError(ValueError):
    """A derivative beyond the truncation order was requested."""


class DiffPoly(Sparse):
    """Truncated differential (Laurent) polynomial with leg structure, over
    dense monomials (see the module docstring).  Coefficients are Fractions;
    the constructor, constant and scale take only int and Fraction scalars
    and raise TypeError for anything else."""

    __slots__ = ("group", "order", "legs")

    def __init__(self, group: str, order: int, legs: int, terms=None):
        if group not in _GROUPS:
            raise ValueError(f"unknown group tag {group!r}")
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if not 1 <= legs <= 3:
            raise ValueError("legs must be 1, 2 or 3")
        size = legs * (order + 1)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for mono, c in terms.items():
                if not _scalar(c):
                    continue
                if len(mono) != size:
                    raise ValueError(f"a monomial needs {size} exponents")
                for k, e in enumerate(mono):
                    if e < 0 and (k % (order + 1) or group != GM):
                        raise ValueError(
                            "negative exponents are only allowed on the "
                            "order-0 variable of the multiplicative group")
                clean[mono] = c if isinstance(c, Fraction) else Fraction(c)
        self.group = group
        self.order = order
        self.legs = legs
        self.terms = clean

    def _like(self, terms) -> DiffPoly:
        out = object.__new__(DiffPoly)
        out.group, out.order, out.legs = self.group, self.order, self.legs
        out.terms = terms
        return out

    def _unit(self) -> DiffPoly:
        return DiffPoly.unit(self.group, self.order, self.legs)

    # constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, group: str, order: int, legs: int = 1) -> DiffPoly:
        return cls(group, order, legs)

    @classmethod
    def unit(cls, group: str, order: int, legs: int = 1) -> DiffPoly:
        return cls.constant(group, order, 1, legs)

    @classmethod
    def constant(cls, group: str, order: int, c, legs: int = 1) -> DiffPoly:
        return cls(group, order, legs, {(0,) * (legs * (order + 1)): c})

    @classmethod
    def generator(cls, group: str, order: int, j: int, leg: int = 0,
                  legs: int = 1) -> DiffPoly:
        if not 0 <= leg < legs:
            raise ValueError(f"leg {leg} out of range")
        if not 0 <= j <= order:
            raise ValueError(f"derivative index {j} out of range")
        mono = [0] * (legs * (order + 1))
        mono[leg * (order + 1) + j] = 1
        return cls(group, order, legs, {tuple(mono): Fraction(1)})

    def scale(self, c) -> DiffPoly:
        return Sparse.scale(self, _scalar(c))

    def _same_shape(self, other: DiffPoly):
        if (self.group, self.order, self.legs) != (other.group, other.order, other.legs):
            raise ValueError("mixed algebra shapes")

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly) and (
                (self.group, self.order, self.legs)
                != (other.group, other.order, other.legs)):
            return False
        return Sparse.__eq__(self, other)

    def __repr__(self) -> str:
        return f"DiffPoly({self.group!r}, {self})"

    def __str__(self) -> str:
        # sorting by flat index sorts by (leg, j), so y10 follows y9
        n = self.order + 1
        names = [f"{_LEG_NAMES[k // n + 1] if self.legs > 1 else 'y'}{k % n}"
                 for k in range(self.legs * n)]
        terms = sorted((tuple((k, e) for k, e in enumerate(mono) if e), c)
                       for mono, c in self.terms.items())
        return render_terms([(c, [(names[k], e) for k, e in sparse])
                             for sparse, c in terms])

    # arithmetic -----------------------------------------------------------
    def __add__(self, other: DiffPoly) -> DiffPoly:
        self._same_shape(other)
        return Sparse.__add__(self, other)

    def __mul__(self, other: DiffPoly) -> DiffPoly:
        self._same_shape(other)
        return Sparse.__mul__(self, other)

    def inv(self) -> DiffPoly:
        """Inverse of a single-monomial element."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible here")
        (mono, c), = self.terms.items()
        return DiffPoly(self.group, self.order, self.legs,
                        {tuple(-e for e in mono): 1 / c})

    def derive(self) -> DiffPoly:
        """Leibniz derivation sending y_j to y_(j+1) in every leg."""
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, c in self.terms.items():
            for k, e in enumerate(mono):
                if not e:
                    continue
                if k % (self.order + 1) == self.order:
                    raise OrderOverflowError(
                        f"derivative of order {self.order + 1} exceeds the "
                        f"truncation order {self.order}")
                d = list(mono)
                d[k] -= 1
                d[k + 1] += 1
                key = tuple(d)
                out[key] = out.get(key, 0) + c * e
        return self._like({k: v for k, v in out.items() if v})


# structure maps -----------------------------------------------------------

def _substitute(e: DiffPoly, images, out_legs: int) -> DiffPoly:
    """Algebra homomorphism sending y_j of leg l to images[l][j], given one
    list of order + 1 images per leg of e; images of Laurent variables
    must be invertible monomials."""
    # a monomial's exponent k is that of y_j in leg l = k // (order + 1)
    flat = [y for leg in images for y in leg]
    result = DiffPoly.zero(e.group, e.order, out_legs)
    for mono, c in e.terms.items():
        term = DiffPoly.unit(e.group, e.order, out_legs)
        for k, exp in enumerate(mono):
            if exp:
                term = term * (flat[k] ** exp)
        result = result + term.scale(c)
    return result


def _delta_table(group: str, order: int) -> list[DiffPoly]:
    """delta(y_j) as 2-leg elements, in the module docstring's closed form."""
    u, v = ([DiffPoly.generator(group, order, j, leg=leg, legs=2)
             for j in range(order + 1)] for leg in (0, 1))
    if group == GA:
        return [a + b for a, b in zip(u, v)]
    return [sum(((u[k] * v[j - k]).scale(math.comb(j, k))
                 for k in range(j + 1)), DiffPoly.zero(group, order, 2))
            for j in range(order + 1)]


def _antipode_table(group: str, order: int, printed: bool = False) -> list[DiffPoly]:
    """S(y_j) as 1-leg elements: -y_j for ga, and d^j (1/y_0) for gm.

    The printed variant uses the alternating sign (-1)^(j+1) on the additive
    group's generators and exists to exhibit its conflict with
    derivation-compatibility.
    """
    if group == GM:
        table = [DiffPoly.generator(group, order, 0).inv()]
        for _ in range(order):
            table.append(table[-1].derive())
        return table
    return [DiffPoly.generator(group, order, j).scale(
        (-1) ** (j + 1) if printed else -1) for j in range(order + 1)]


def _counit_table(group: str, order: int) -> list[DiffPoly]:
    """eps(y_j) as 1-leg constants: 1 for gm's y_0, 0 otherwise."""
    return ([DiffPoly.constant(group, order, int(group == GM))]
            + [DiffPoly.zero(group, order)] * order)


def coproduct(e: DiffPoly) -> DiffPoly:
    """Comultiplication, 1-leg to 2-leg."""
    if e.legs != 1:
        raise ValueError("coproduct takes a 1-leg element")
    return _substitute(e, [_delta_table(e.group, e.order)], 2)


def antipode(e: DiffPoly) -> DiffPoly:
    """Antipode, 1-leg to 1-leg."""
    if e.legs != 1:
        raise ValueError("antipode takes a 1-leg element")
    return _substitute(e, [_antipode_table(e.group, e.order)], 1)


def counit(e: DiffPoly) -> Fraction:
    """Counit into Q: substitutes eps(y_j) for y_j in every leg."""
    value = _substitute(e, [_counit_table(e.group, e.order)] * e.legs, 1)
    return Fraction(value.terms.get((0,) * (e.order + 1), 0))


# axiom checking -----------------------------------------------------------

class AxiomCheck(namedtuple("AxiomCheck", "axiom generator passed witness",
                            defaults=(None,))):
    """One axiom on one generator y_j; witness is the failure's text, or
    None."""

    __slots__ = ()


class AxiomReport(namedtuple(
        "AxiomReport", "group order antipode_mode checks "
        "printed_antipode_first_conflict")):
    """Every AxiomCheck of one check_axioms run, a tuple in run order, and
    the first order at which the printed antipode conflicts, or None."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


AXIOM_NAMES = (
    "coassociativity",
    "counit",
    "antipode",
    "coproduct-derivation",
    "antipode-derivation",
)


def check_axioms(group: str, order: int, antipode_mode: str = "derived") -> AxiomReport:
    """Run the five axiom families on every generator y_j with j < order.

    Families: coassociativity, the counit law, the antipode law
    m(S (x) id)delta = unit eps, compatibility of delta with d, and
    compatibility of S with d.  The last two need one spare derivative of
    headroom, hence the bound j < order.  DiffPoly checks the group and
    the order: an unknown group or an order below 1 raises its ValueError.
    gm's antipode is transported, so it commutes with d by construction,
    and is also its printed antipode: "antipode-derivation" can fail only
    in printed mode, and only for ga.
    """
    if antipode_mode not in ("derived", "printed"):
        raise ValueError("antipode_mode must be 'derived' or 'printed'")
    printed = antipode_mode == "printed"

    # generator images and structure-map tables, built once per call:
    # y[L][l] lists the generators of leg l in the L-leg algebra
    y = {L: [[DiffPoly.generator(group, order, j, leg=l, legs=L)
              for j in range(order + 1)] for l in range(L)] for L in (1, 3)}
    eps = _counit_table(group, order)
    delta = _delta_table(group, order)
    derived = _antipode_table(group, order)
    alternating = _antipode_table(group, order, printed=True)
    S = alternating if printed else derived
    delta_01 = [_substitute(d, y[3][:2], 3) for d in delta]
    delta_12 = [_substitute(d, y[3][1:], 3) for d in delta]

    checks = []
    for j in range(order):
        g, dg = y[1][0][j], delta[j]
        # one (lhs, rhs, witness) row per law, in AXIOM_NAMES order; the
        # witness is formatted with lhs, rhs, j and k = j + 1 on failure
        rows = (
            # (delta x id) delta = (id x delta) delta
            (_substitute(dg, [delta_01, y[3][2]], 3),
             _substitute(dg, [y[3][0], delta_12], 3), "({0}) != ({1})"),
            # (id x eps) delta = id
            (_substitute(dg, [y[1][0], eps], 1), g,
             "(id x eps)delta(y{j}) = {0}"),
            # m (S x id) delta = unit eps, one algebra map from the 2-leg
            # algebra: y_k of leg 0 goes to S(y_k), y_k of leg 1 to y_k
            (_substitute(dg, [S, y[1][0]], 1), eps[j],
             "m(S x id)delta(y{j}) = {0}"),
            # delta d = d delta
            (delta[j + 1], dg.derive(),
             "delta(d y{j}) = {0} but d delta(y{j}) = {1}"),
            # S d = d S
            (S[j + 1], S[j].derive(),
             "S(d^{k} y) = {0} (order {k}) but d(S(d^{j} y)) = {1}"),
        )
        for name, (lhs, rhs, witness) in zip(AXIOM_NAMES, rows):
            ok = lhs == rhs
            checks.append(AxiomCheck(name, j, ok, None if ok else
                                     witness.format(lhs, rhs, j=j, k=j + 1)))

    # the first j where the alternating-sign antipode differs from the
    # derivation-compatible one; for gm the two tables are the same
    conflict = next((j for j in range(order + 1)
                     if derived[j] != alternating[j]), None)
    return AxiomReport(group, order, antipode_mode, tuple(checks), conflict)


# the multiplicative group's derivative ideal ------------------------------

def reduce_mod_derivatives(e: DiffPoly) -> DiffPoly:
    """Image in the quotient by the ideal generated by d y: substitutes
    y_j = 0 for every j >= 1, in every leg.  Multiplicative group only."""
    if e.group != GM:
        raise ValueError("reduction is defined for the multiplicative group")
    zero = DiffPoly.zero(GM, e.order, e.legs)
    return _substitute(e, [[DiffPoly.generator(GM, e.order, 0, leg, e.legs)]
                           + [zero] * e.order for leg in range(e.legs)], e.legs)


def subgroup_defining_poly(order: int = 2) -> DiffPoly:
    """Numerator of d(y_1 / y_0) in the multiplicative group's algebra:
    y_0 y_2 - y_1^2, whose vanishing cuts out the subgroup on which the
    logarithmic derivative is constant."""
    if order < 2:
        raise ValueError("needs truncation order >= 2")
    y0 = DiffPoly.generator(GM, order, 0)
    y1 = DiffPoly.generator(GM, order, 1)
    ratio = y1 * y0.inv()
    d = ratio.derive()
    shift = max(-mono[0] for mono in d.terms)
    return d * (y0 ** shift)
