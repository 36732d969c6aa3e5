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
sparse form ((leg, j), exponent), ... of their monomials.

Structure maps are algebra homomorphisms fixed on generators:

  additive (ga):        delta(y_j) = u_j + v_j     S(y_j) = -y_j    eps(y_j) = 0
  multiplicative (gm):  delta(y_0) = u_0 v_0       S(y_0) = 1/y_0   eps(y_0) = 1

with the higher generators transported by d (delta and S commute with the
derivation by construction, which is exactly what makes the axiom set
checkable).  check_axioms runs the five families on all generators below
the truncation order and, for ga, also compares the derivation-compatible
antipode with the alternating-sign one, which first disagrees at order 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratfield import Sparse

GA = "ga"
GM = "gm"
_GROUPS = (GA, GM)

_LEG_NAMES = ("y", "u", "v", "w")


class OrderOverflowError(ValueError):
    """A derivative beyond the truncation order was requested."""


def _check_group(group: str):
    if group not in _GROUPS:
        raise ValueError(f"unknown group tag {group!r}")


class DiffPoly(Sparse):
    """Truncated differential (Laurent) polynomial with leg structure, over
    dense monomials (see the module docstring)."""

    __slots__ = ("group", "order", "legs")

    def __init__(self, group: str, order: int, legs: int, terms=None):
        _check_group(group)
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if not 1 <= legs <= 3:
            raise ValueError("legs must be 1, 2 or 3")
        size = legs * (order + 1)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for mono, c in terms.items():
                if not c:
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
        return cls(group, order, legs, {(0,) * (legs * (order + 1)): Fraction(c)})

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
        if not self.terms:
            return "0"
        n = self.order + 1
        terms = sorted((tuple((divmod(k, n), e) for k, e in enumerate(mono) if e), c)
                       for mono, c in self.terms.items())
        parts = []
        for mono, c in terms:
            factors = []
            if abs(c) != 1 or not mono:
                factors.append(str(abs(c)))
            for (leg, j), e in mono:
                name = _LEG_NAMES[leg + 1] if self.legs > 1 else "y"
                v = f"{name}{j}"
                factors.append(v if e == 1 else f"{v}^{e}")
            term = "*".join(factors)
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f" - {term}" if c < 0 else f" + {term}")
        return "".join(parts)

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

def _substitute(e: DiffPoly, image, out_legs: int) -> DiffPoly:
    """Algebra homomorphism: image(leg, j) gives the target of each
    generator; images of Laurent variables must be invertible monomials."""
    n = e.order + 1
    result = DiffPoly.zero(e.group, e.order, out_legs)
    for mono, c in e.terms.items():
        term = DiffPoly.unit(e.group, e.order, out_legs)
        for k, exp in enumerate(mono):
            if exp:
                term = term * (image(divmod(k, n)) ** exp)
        result = result + term.scale(c)
    return result


def _delta_table(group: str, order: int) -> list[DiffPoly]:
    """delta(y_j) as 2-leg elements, transported from order 0 by d."""
    if group == GM:
        d0 = (DiffPoly.generator(group, order, 0, leg=0, legs=2)
              * DiffPoly.generator(group, order, 0, leg=1, legs=2))
        table = [d0]
        for _ in range(order):
            table.append(table[-1].derive())
        return table
    return [DiffPoly.generator(group, order, j, leg=0, legs=2)
            + DiffPoly.generator(group, order, j, leg=1, legs=2)
            for j in range(order + 1)]


def _antipode_table(group: str, order: int, printed: bool = False) -> list[DiffPoly]:
    """S(y_j) as 1-leg elements.

    Derived form: transported from order 0 by d.  The printed variant uses
    the alternating sign (-1)^(j+1) on the additive group's generators and
    exists to exhibit its conflict with derivation-compatibility.
    """
    if group == GM:
        table = [DiffPoly.generator(group, order, 0).inv()]
        for _ in range(order):
            table.append(table[-1].derive())
        return table
    if printed:
        return [DiffPoly.generator(group, order, j).scale((-1) ** (j + 1))
                for j in range(order + 1)]
    return [-DiffPoly.generator(group, order, j) for j in range(order + 1)]


def _counit_value(group: str, j: int) -> Fraction:
    if group == GM:
        return Fraction(1) if j == 0 else Fraction(0)
    return Fraction(0)


def coproduct(e: DiffPoly) -> DiffPoly:
    """Comultiplication, 1-leg to 2-leg."""
    if e.legs != 1:
        raise ValueError("coproduct takes a 1-leg element")
    table = _delta_table(e.group, e.order)
    return _substitute(e, lambda var: table[var[1]], 2)


def antipode(e: DiffPoly, printed: bool = False) -> DiffPoly:
    """Antipode, 1-leg to 1-leg."""
    if e.legs != 1:
        raise ValueError("antipode takes a 1-leg element")
    table = _antipode_table(e.group, e.order, printed)
    return _substitute(e, lambda var: table[var[1]], 1)


def counit(e: DiffPoly) -> Fraction:
    """Counit into Q."""
    total = Fraction(0)
    for mono, c in e.terms.items():
        # eps(y_0) = 1 for gm absorbs any power; everything else kills
        if not any(mono if e.group == GA else _higher(e, mono)):
            total += c
    return total


def _higher(e: DiffPoly, mono) -> list[int]:
    """The exponents of y_j with j >= 1, in every leg, of one of e's
    monomials."""
    return [exp for k, exp in enumerate(mono) if k % (e.order + 1)]


def derive(e: DiffPoly) -> DiffPoly:
    return e.derive()


def _embed(e: DiffPoly, leg_of: dict[int, int], out_legs: int) -> DiffPoly:
    """Rename legs, e.g. put a 2-leg element into legs (0, 1) of a 3-leg one."""
    def image(var):
        leg, j = var
        return DiffPoly.generator(e.group, e.order, j, leg=leg_of[leg],
                                  legs=out_legs)
    return _substitute(e, image, out_legs)


def _multiply_legs(e: DiffPoly) -> DiffPoly:
    """Collapse a 2-leg element by multiplying the legs together."""
    if e.legs != 2:
        raise ValueError("leg multiplication takes a 2-leg element")
    def image(var):
        _, j = var
        return DiffPoly.generator(e.group, e.order, j, legs=1)
    return _substitute(e, image, 1)


# axiom checking -----------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    generator: int
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    group: str
    order: int
    antipode_mode: str
    checks: tuple[AxiomCheck, ...]
    printed_antipode_first_conflict: int | None

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


def _printed_conflict(group: str, order: int) -> int | None:
    """First j where the alternating-sign antipode differs from the
    derivation-compatible one; None when they agree everywhere."""
    if group != GA:
        return None
    derived = _antipode_table(group, order)
    printed = _antipode_table(group, order, printed=True)
    for j in range(order + 1):
        if derived[j] != printed[j]:
            return j
    return None


def check_axioms(group: str, order: int, antipode_mode: str = "derived") -> AxiomReport:
    """Run the five axiom families on every generator y_j with j < order.

    Families: coassociativity, the counit law, the antipode law
    m(S (x) id)delta = unit eps, compatibility of delta with d, and
    compatibility of S with d.  The last two need one spare derivative of
    headroom, hence the bound j < order.
    """
    _check_group(group)
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if antipode_mode not in ("derived", "printed"):
        raise ValueError("antipode_mode must be 'derived' or 'printed'")
    printed = antipode_mode == "printed"

    delta = _delta_table(group, order)
    s_tab = _antipode_table(group, order, printed)
    delta_01 = [_embed(d, {0: 0, 1: 1}, 3) for d in delta]
    delta_12 = [_embed(d, {0: 1, 1: 2}, 3) for d in delta]
    s_leg0 = [_embed(s, {0: 0}, 2) for s in s_tab]

    checks = []
    for j in range(order):
        g = DiffPoly.generator(group, order, j)
        dg = coproduct(g)

        # (delta x id) delta = (id x delta) delta
        left = _substitute(dg, lambda var: delta_01[var[1]] if var[0] == 0
                           else DiffPoly.generator(group, order, var[1], leg=2, legs=3), 3)
        right = _substitute(dg, lambda var: DiffPoly.generator(group, order, var[1], leg=0, legs=3)
                            if var[0] == 0 else delta_12[var[1]], 3)
        checks.append(AxiomCheck(
            AXIOM_NAMES[0], j, left == right,
            None if left == right else f"({left}) != ({right})"))

        # (id x eps) delta = id
        collapsed = _substitute(
            dg, lambda var: DiffPoly.generator(group, order, var[1], legs=1)
            if var[0] == 0
            else DiffPoly.constant(group, order, _counit_value(group, var[1])), 1)
        checks.append(AxiomCheck(
            AXIOM_NAMES[1], j, collapsed == g,
            None if collapsed == g else f"(id x eps)delta(y{j}) = {collapsed}"))

        # m (S x id) delta = unit eps
        swapped = _substitute(dg, lambda var: s_leg0[var[1]] if var[0] == 0
                              else DiffPoly.generator(group, order, var[1], leg=1, legs=2), 2)
        folded = _multiply_legs(swapped)
        expect = DiffPoly.constant(group, order, counit(g))
        checks.append(AxiomCheck(
            AXIOM_NAMES[2], j, folded == expect,
            None if folded == expect else f"m(S x id)delta(y{j}) = {folded}"))

        # delta d = d delta
        lhs = coproduct(g.derive())
        rhs = dg.derive()
        checks.append(AxiomCheck(
            AXIOM_NAMES[3], j, lhs == rhs,
            None if lhs == rhs else f"delta(d y{j}) = {lhs} but d delta(y{j}) = {rhs}"))

        # S d = d S
        lhs = antipode(g.derive(), printed)
        rhs = antipode(g, printed).derive()
        checks.append(AxiomCheck(
            AXIOM_NAMES[4], j, lhs == rhs,
            None if lhs == rhs
            else f"S(d^{j + 1} y) = {lhs} (order {j + 1}) but d(S(d^{j} y)) = {rhs}"))

    return AxiomReport(group, order, antipode_mode, tuple(checks),
                       _printed_conflict(group, order))


# the multiplicative group's derivative ideal ------------------------------

def reduce_mod_derivatives(e: DiffPoly) -> DiffPoly:
    """Image in the quotient by the ideal generated by d y: substitutes
    y_j = 0 for every j >= 1, in every leg.  Multiplicative group only."""
    if e.group != GM:
        raise ValueError("reduction is defined for the multiplicative group")
    return e._like({mono: c for mono, c in e.terms.items()
                    if not any(_higher(e, mono))})


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
