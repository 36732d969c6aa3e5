"""Named check suites: seeded randomized verification of the structural
identities, shared between the CLI and the acceptance tests.

Each suite returns a CheckResult whose details dictionary is JSON-ready and
deterministic for a given seed.

Importing this module loads the module side alone (ratfield, matrices,
diffmod, sampling): no parser, no solution space, no json and, like every
module of the package, no dataclasses; its running example comes from
diffmod.xt_module, and check_hopf imports hopf when it runs.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import chain

from . import matrices as mat
from .diffmod import (DiffModule, change_basis_matrix, conjugate_constant,
                      dual, dual_morphism, dual_swap_g, embedding_E,
                      inclusion_i, product_rule_map, projection_phi, prolong,
                      prolong_lemma, xt_module)
from .sampling import random_module


class CheckResult(namedtuple("CheckResult",
                             "name cases seed failures details")):
    """A suite's name, case count and seed (None when not seeded), the list
    of failure lines and the details dictionary."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _run(name: str, seed, cases: int, details: dict, draw, probe, given=()):
    """Probe the (label, case) pairs of given, then cases drawn one at a time
    by draw(rng) from random.Random(seed) as "case k".  Each message yielded
    by probe(case), or ValueError raised, is a line "<label>: <message>"."""
    rng = random.Random(seed)
    drawn = ((f"case {k}", draw(rng)) for k in range(cases))
    failures = []
    for label, case in chain(given, drawn):
        try:
            for message in probe(case):
                failures.append(f"{label}: {message}")
        except ValueError as err:
            failures.append(f"{label}: {err}")
    return CheckResult(name, len(given) + cases, seed, failures, details)


def check_conjugation(seed: int, cases: int = 100, max_n: int = 3,
                      max_i: int = 3, max_deg: int = 2) -> CheckResult:
    """conjugate_constant(prolong_lemma(M, i), C) == prolong(M, i) exactly."""
    def draw(rng):
        n, i = rng.randint(1, max_n), rng.randint(0, max_i)
        return n, i, random_module(rng, n, max_deg)

    def probe(case):
        n, i, M = case
        C = change_basis_matrix(n, i)
        if conjugate_constant(prolong_lemma(M, i), C) != prolong(M, i):
            yield f"n={n} i={i} conjugation mismatch"

    return _run("conjugation", seed, cases,
                {"max_n": max_n, "max_i": max_i, "max_deg": max_deg},
                draw, probe)


def check_embedding(seed: int, cases: int = 50, n: int = 2,
                    max_deg: int = 2) -> CheckResult:
    """embedding_E is a morphism of full rank 3n, for the running example
    and for random modules."""
    def probe(M):
        r = mat.rank(embedding_E(M).P)  # construction checks B P = P A
        if r != 3 * M.n:
            yield f"rank {r} != {3 * M.n}"

    return _run("embedding", seed, cases, {"n": n, "max_deg": max_deg},
                lambda rng: random_module(rng, n, max_deg), probe,
                given=[("xt example", xt_module())])


def check_exactness(seed: int | None, cases: int = 100, max_n: int = 3,
                    max_deg: int = 2, module: DiffModule | None = None) -> CheckResult:
    """inclusion and projection are morphisms of rank n with phi o i = 0;
    a given module is the one case, drawn with no seed or draw sizes."""
    def probe(M):
        inc, proj = inclusion_i(M), projection_phi(M)
        if mat.rank(inc.P) != M.n:
            yield f"inclusion rank != {M.n}"
        if mat.rank(proj.P) != M.n:
            yield f"projection rank != {M.n}"
        if not mat.is_zero(mat.mul(proj.P, inc.P)):
            yield "phi o i != 0"

    if module is not None:
        return _run("exactness", None, 0, {}, None, probe,
                    given=[("given module", module)])
    return _run("exactness", seed, cases, {"max_n": max_n, "max_deg": max_deg},
                lambda rng: random_module(rng, rng.randint(1, max_n), max_deg),
                probe)


def check_product_rule(seed: int, cases: int = 50, max_n: int = 2,
                       max_deg: int = 2) -> CheckResult:
    """product_rule_map is a morphism of rank 2nm."""
    def draw(rng):
        n, m = rng.randint(1, max_n), rng.randint(1, max_n)
        return random_module(rng, n, max_deg), random_module(rng, m, max_deg)

    def probe(case):
        M, N = case
        if mat.rank(product_rule_map(M, N).P) != 2 * M.n * N.n:
            yield f"rank != {2 * M.n * N.n}"

    return _run("product-rule", seed, cases,
                {"max_n": max_n, "max_deg": max_deg}, draw, probe)


def check_dual_swap(seed: int, cases: int = 50, max_n: int = 3,
                    max_deg: int = 2) -> CheckResult:
    """dual_swap_g is an isomorphism matching the two dual-prolongation
    triangle identities: g o i_(M*) = (phi_M)^T and (i_M)^T o g = phi_(M*)."""
    def probe(M):
        g, M_star = dual_swap_g(M), dual(M)
        inc_dual, proj_dual = inclusion_i(M_star), projection_phi(M_star)
        phi_star = dual_morphism(projection_phi(M))
        i_star = dual_morphism(inclusion_i(M))
        d = mat.det(g.P)
        if not (d == 1 or d == -1):
            yield "det(g) not a unit sign"
        if not mat.eq(mat.mul(g.P, inc_dual.P), phi_star.P):
            yield "g o i_(M*) != (phi_M)^T"
        if not mat.eq(mat.mul(i_star.P, g.P), proj_dual.P):
            yield "(i_M)^T o g != phi_(M*)"

    return _run("dual-swap", seed, cases, {"max_n": max_n, "max_deg": max_deg},
                lambda rng: random_module(rng, rng.randint(1, max_n), max_deg),
                probe)


def check_hopf(group: str, order: int = 3) -> CheckResult:
    from . import hopf  # only this suite needs the Hopf algebras
    report = hopf.check_axioms(group, order)
    failures = [f"{c.axiom} at y{c.generator}: {c.witness}"
                for c in report.failures()]
    details = {
        "group": group,
        "order": order,
        "antipode_mode": "derived",
        "axioms": {name: all(c.passed for c in report.checks if c.axiom == name)
                   for name in hopf.AXIOM_NAMES},
        "printed_antipode_first_conflict": report.printed_antipode_first_conflict,
    }
    return CheckResult("hopf", len(report.checks), None, failures, details)
