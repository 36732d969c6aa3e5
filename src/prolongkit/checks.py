"""Named check suites: seeded randomized verification of the structural
identities, shared between the CLI and the acceptance tests.

Each suite returns a CheckResult whose details dictionary is JSON-ready and
deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import hopf
from . import matrices as mat
from .diffmod import (DiffModule, change_basis_matrix, conjugate_constant,
                      dual, dual_morphism, dual_swap_g, embedding_E,
                      inclusion_i, product_rule_map, projection_phi, prolong,
                      prolong_lemma)
from .sampling import random_module
from .solspace import xt_example


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    seed: int | None
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def check_conjugation(seed: int, cases: int = 100, max_n: int = 3,
                      max_i: int = 3, max_deg: int = 2) -> CheckResult:
    """conjugate_constant(prolong_lemma(M, i), C) == prolong(M, i) exactly."""
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        n = rng.randint(1, max_n)
        i = rng.randint(0, max_i)
        M = random_module(rng, n, max_deg)
        C = change_basis_matrix(n, i)
        got = conjugate_constant(prolong_lemma(M, i), C)
        if got != prolong(M, i):
            failures.append(f"case {k}: n={n} i={i} conjugation mismatch")
    return CheckResult("conjugation", not failures, cases, seed, failures,
                       {"max_n": max_n, "max_i": max_i, "max_deg": max_deg})


def check_embedding(seed: int, cases: int = 50, n: int = 2,
                    max_deg: int = 2) -> CheckResult:
    """embedding_E is a morphism of full rank 3n, for the running example
    and for random modules."""
    rng = random.Random(seed)
    failures = []

    def probe(label: str, M: DiffModule):
        try:
            e = embedding_E(M)  # construction checks the identity B P = P A
        except ValueError as err:
            failures.append(f"{label}: {err}")
            return
        r = mat.rank(e.P)
        if r != 3 * M.n:
            failures.append(f"{label}: rank {r} != {3 * M.n}")

    probe("xt example", xt_example()[0])
    for k in range(cases):
        probe(f"case {k}", random_module(rng, n, max_deg))
    return CheckResult("embedding", not failures, cases + 1, seed, failures,
                       {"n": n, "max_deg": max_deg})


def check_exactness(seed: int | None, cases: int = 100, max_n: int = 3,
                    max_deg: int = 2, module: DiffModule | None = None) -> CheckResult:
    """inclusion and projection are morphisms of rank n with phi o i = 0;
    a given module is the one case, drawn with no seed or draw sizes."""
    failures = []

    def probe(label: str, M: DiffModule):
        try:
            inc = inclusion_i(M)
            proj = projection_phi(M)
        except ValueError as err:
            failures.append(f"{label}: {err}")
            return
        if mat.rank(inc.P) != M.n:
            failures.append(f"{label}: inclusion rank != {M.n}")
        if mat.rank(proj.P) != M.n:
            failures.append(f"{label}: projection rank != {M.n}")
        if not mat.is_zero(mat.mul(proj.P, inc.P)):
            failures.append(f"{label}: phi o i != 0")

    if module is not None:
        probe("given module", module)
        return CheckResult("exactness", not failures, 1, None, failures)
    rng = random.Random(seed)
    for k in range(cases):
        probe(f"case {k}", random_module(rng, rng.randint(1, max_n), max_deg))
    return CheckResult("exactness", not failures, cases, seed, failures,
                       {"max_n": max_n, "max_deg": max_deg})


def check_product_rule(seed: int, cases: int = 50, max_n: int = 2,
                       max_deg: int = 2) -> CheckResult:
    """product_rule_map is a morphism of rank 2nm."""
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_n)
        M = random_module(rng, n, max_deg)
        N = random_module(rng, m, max_deg)
        try:
            pr = product_rule_map(M, N)
        except ValueError as err:
            failures.append(f"case {k}: {err}")
            continue
        if mat.rank(pr.P) != 2 * n * m:
            failures.append(f"case {k}: rank != {2 * n * m}")
    return CheckResult("product-rule", not failures, cases, seed, failures,
                       {"max_n": max_n, "max_deg": max_deg})


def check_dual_swap(seed: int, cases: int = 50, max_n: int = 3,
                    max_deg: int = 2) -> CheckResult:
    """dual_swap_g is an isomorphism matching the two dual-prolongation
    triangle identities: g o i_(M*) = (phi_M)^T and (i_M)^T o g = phi_(M*)."""
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        M = random_module(rng, rng.randint(1, max_n), max_deg)
        try:
            g = dual_swap_g(M)
            inc_dual = inclusion_i(dual(M))
            proj_dual = projection_phi(dual(M))
            phi_star = dual_morphism(projection_phi(M))
            i_star = dual_morphism(inclusion_i(M))
        except ValueError as err:
            failures.append(f"case {k}: {err}")
            continue
        d = mat.det(g.P)
        if not (d == 1 or d == -1):
            failures.append(f"case {k}: det(g) not a unit sign")
        if not mat.eq(mat.mul(g.P, inc_dual.P), phi_star.P):
            failures.append(f"case {k}: g o i_(M*) != (phi_M)^T")
        if not mat.eq(mat.mul(i_star.P, g.P), proj_dual.P):
            failures.append(f"case {k}: (i_M)^T o g != phi_(M*)")
    return CheckResult("dual-swap", not failures, cases, seed, failures,
                       {"max_n": max_n, "max_deg": max_deg})


def check_hopf(group: str, order: int = 3,
               antipode_mode: str = "derived") -> CheckResult:
    report = hopf.check_axioms(group, order, antipode_mode)
    failures = [f"{c.axiom} at y{c.generator}: {c.witness}"
                for c in report.failures()]
    details = {
        "group": group,
        "order": order,
        "antipode_mode": antipode_mode,
        "axioms": {name: all(c.passed for c in report.checks if c.axiom == name)
                   for name in hopf.AXIOM_NAMES},
        "printed_antipode_first_conflict": report.printed_antipode_first_conflict,
    }
    return CheckResult("hopf", report.all_passed, len(report.checks), None,
                       failures, details)

