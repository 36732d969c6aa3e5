"""Seeded random generators for modules, field elements and operators.

Everything takes an explicit random.Random so runs are reproducible; the
CLI check suites and the randomized test batteries both draw from here.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import matrices as mat
from .diffmod import DiffModule
from .ratfield import LinDiffOp, MPoly, RatFunc


def random_fraction(rng: random.Random, bound: int = 5) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def random_mpoly(rng: random.Random, max_deg: int = 2,
                 max_terms: int = 3) -> MPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = random_fraction(rng)
    return MPoly(terms)


def random_nonzero_mpoly(rng: random.Random, max_deg: int = 2,
                         max_terms: int = 3) -> MPoly:
    while True:
        p = random_mpoly(rng, max_deg, max_terms)
        if not p.is_zero:
            return p


def random_poly_ratfunc(rng: random.Random, max_deg: int = 2) -> RatFunc:
    """Polynomial entry (denominator 1), the texture module matrices use."""
    return RatFunc(random_mpoly(rng, max_deg))


def random_ratfunc(rng: random.Random, max_deg: int = 2) -> RatFunc:
    num = random_mpoly(rng, max_deg)
    den = random_nonzero_mpoly(rng, max_deg=1, max_terms=2)
    return RatFunc(num, den)


def random_module(rng: random.Random, n: int, max_deg: int = 2) -> DiffModule:
    """n x n module with polynomial entries of degree <= max_deg."""
    return DiffModule([[random_poly_ratfunc(rng, max_deg) for _ in range(n)]
                       for _ in range(n)])


def random_constant_invertible(rng: random.Random, n: int):
    """Constant matrix with nonzero determinant, built as L * U with unit
    diagonals plus a diagonal of small nonzero fractions."""
    L = mat.identity(n)
    U = mat.identity(n)
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.6:
                L[i][j] = RatFunc.from_fraction(random_fraction(rng, 3))
            if i < j and rng.random() < 0.6:
                U[i][j] = RatFunc.from_fraction(random_fraction(rng, 3))
    D = mat.identity(n)
    for i in range(n):
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        D[i][i] = RatFunc.from_fraction(Fraction(num, rng.randint(1, 3)))
    return mat.mul(L, mat.mul(D, U))


def random_operator(rng: random.Random, var: str, max_order: int = 3) -> LinDiffOp:
    """Random operator of order <= max_order, drawn in common-denominator
    form p_q / d: a single random denominator with independent numerators.
    Every operator over Q(x, t) has such a form, so the sample space is all
    of them; products of two such operators immediately mix denominators,
    which keeps composition honest."""
    order = rng.randint(0, max_order)
    den = random_nonzero_mpoly(rng, max_deg=1, max_terms=2)
    coeffs = [RatFunc(random_mpoly(rng, max_deg=1), den)
              for _ in range(order + 1)]
    return LinDiffOp(var, coeffs)
