"""The seeded check suites: which modules they draw, and the failure lines
they report when a structure map is broken."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from prolongkit import checks, diffmod
from prolongkit import matrices as mat
from prolongkit.diffmod import (ModuleMorphism, dual, inclusion_i, iterate_F,
                                prolong, prolong_lemma, tensor)
from prolongkit.exprparse import render_matrix
from prolongkit.ratfield import RatFunc
from prolongkit.sampling import random_module
from prolongkit.solspace import xt_example

SEED = 11

SUITES = {
    "conjugation": checks.check_conjugation,
    "embedding": checks.check_embedding,
    "exactness": checks.check_exactness,
    "product-rule": checks.check_product_rule,
    "dual-swap": checks.check_dual_swap,
}


def _draws(monkeypatch, suite: str, cases: int) -> list:
    """render_matrix of every module the suite draws, in draw order."""
    drawn = []

    def recording(rng, n, max_deg=2):
        M = random_module(rng, n, max_deg)
        drawn.append(render_matrix(M.A))
        return M

    with monkeypatch.context() as mp:
        mp.setattr(checks, "random_module", recording)
        SUITES[suite](SEED, cases=cases)
    return drawn


@pytest.mark.parametrize("suite, count, digest", [
    ("conjugation", 4, "f93186d824e1dca8"),
    ("embedding", 4, "a634bddbf2025e12"),
    ("exactness", 4, "83b2d7c6fd3c54fb"),
    ("product-rule", 8, "a5020f450dde1014"),
    ("dual-swap", 4, "83b2d7c6fd3c54fb"),
])
def test_suite_draws_are_pinned_and_prefix_stable(monkeypatch, suite, count,
                                                  digest):
    four = _draws(monkeypatch, suite, 4)
    assert len(four) == count
    assert hashlib.sha256(json.dumps(four).encode()).hexdigest()[:16] == digest
    two = _draws(monkeypatch, suite, 2)
    assert two == four[:count // 2]


@pytest.mark.parametrize("suite, cases, details", [
    ("conjugation", 1, {"max_n": 3, "max_i": 3, "max_deg": 2}),
    ("embedding", 2, {"n": 2, "max_deg": 2}),
    ("exactness", 1, {"max_n": 3, "max_deg": 2}),
    ("product-rule", 1, {"max_n": 2, "max_deg": 2}),
    ("dual-swap", 1, {"max_n": 3, "max_deg": 2}),
])
def test_passing_suite_result_fields(suite, cases, details):
    res = SUITES[suite](SEED, cases=1)
    assert (res.name, res.passed, res.seed, res.cases, res.failures,
            res.details) == (suite, True, SEED, cases, [], details)


def _zero_map(rows: int, cols: int):
    return SimpleNamespace(P=mat.zeros(rows, cols))


def _lines(*messages, cases=3) -> list[str]:
    return [f"case {k}: {m}" for k in range(cases) for m in messages]


NOT_A_MORPHISM = "matrix does not satisfy the morphism condition"

# suite, name in checks, stand-in, failure lines of cases=3 at SEED
BROKEN = {
    "conjugation-identity": (
        "conjugation", "change_basis_matrix",
        lambda n, i: mat.identity(n * (i + 1)),
        ["case 0: n=2 i=3 conjugation mismatch",
         "case 2: n=2 i=3 conjugation mismatch"]),
    "embedding-rank": (
        "embedding", "embedding_E",
        lambda M: ModuleMorphism(prolong_lemma(M, 2), iterate_F(M, 2),
                                 mat.zeros(4 * M.n, 3 * M.n)),
        ["xt example: rank 0 != 3", "case 0: rank 0 != 6",
         "case 1: rank 0 != 6", "case 2: rank 0 != 6"]),
    "exactness-morphism": (
        "exactness", "inclusion_i",
        lambda M: ModuleMorphism(M, prolong(M, 1), mat.block(
            [[mat.identity(M.n)], [mat.zeros(M.n, M.n)]])),
        _lines(NOT_A_MORPHISM)),
    "exactness-inclusion-rank": (
        "exactness", "inclusion_i", lambda M: _zero_map(2 * M.n, M.n),
        ["case 0: inclusion rank != 2", "case 1: inclusion rank != 3",
         "case 2: inclusion rank != 2"]),
    "exactness-projection-rank": (
        "exactness", "projection_phi", lambda M: _zero_map(M.n, 2 * M.n),
        ["case 0: projection rank != 2", "case 1: projection rank != 3",
         "case 2: projection rank != 2"]),
    "exactness-composite": (
        "exactness", "projection_phi",
        lambda M: SimpleNamespace(P=mat.transpose(inclusion_i(M).P)),
        _lines("phi o i != 0")),
    "product-rule-morphism": (
        "product-rule", "product_rule_map",
        lambda M, N: ModuleMorphism(
            prolong(tensor(M, N), 1), tensor(prolong(M, 1), prolong(N, 1)),
            mat.block([[mat.identity(2 * M.n * N.n)],
                       [mat.zeros(2 * M.n * N.n, 2 * M.n * N.n)]])),
        _lines(NOT_A_MORPHISM)),
    "product-rule-rank": (
        "product-rule", "product_rule_map",
        lambda M, N: _zero_map(4 * M.n * N.n, 2 * M.n * N.n),
        ["case 0: rank != 8", "case 1: rank != 4", "case 2: rank != 4"]),
    "dual-swap-morphism": (
        "dual-swap", "dual_swap_g",
        lambda M: ModuleMorphism(prolong(dual(M), 1), dual(prolong(M, 1)),
                                 mat.identity(2 * M.n)),
        _lines(NOT_A_MORPHISM)),
    "dual-swap-doubled": (
        "dual-swap", "dual_swap_g",
        lambda M: SimpleNamespace(
            P=mat.scale(diffmod.dual_swap_g(M).P, RatFunc.from_int(2))),
        _lines("det(g) not a unit sign", "g o i_(M*) != (phi_M)^T",
               "(i_M)^T o g != phi_(M*)")),
    "dual-swap-negated-duals": (
        "dual-swap", "dual_morphism",
        lambda phi: SimpleNamespace(P=mat.neg(mat.transpose(phi.P))),
        _lines("g o i_(M*) != (phi_M)^T", "(i_M)^T o g != phi_(M*)")),
}


@pytest.mark.parametrize("key", list(BROKEN))
def test_broken_structure_map_failure_lines(monkeypatch, key):
    suite, name, stand_in, expected = BROKEN[key]
    monkeypatch.setattr(checks, name, stand_in)
    res = SUITES[suite](SEED, cases=3)
    assert not res.passed
    assert res.failures == expected
    assert (res.seed, res.cases) == (SEED, 3 + (suite == "embedding"))


def test_conjugation_value_error_is_a_case_line(monkeypatch):
    monkeypatch.setattr(checks, "change_basis_matrix",
                        lambda n, i: mat.zeros(n * (i + 1), n * (i + 1)))
    res = checks.check_conjugation(SEED, cases=3)
    assert not res.passed
    assert res.failures == _lines("matrix is singular")


@pytest.mark.parametrize("name, stand_in, line", [
    ("inclusion_i", BROKEN["exactness-morphism"][2], NOT_A_MORPHISM),
    ("inclusion_i", lambda M: _zero_map(2 * M.n, M.n), "inclusion rank != 1"),
])
def test_given_module_failure_lines(monkeypatch, name, stand_in, line):
    monkeypatch.setattr(checks, name, stand_in)
    res = checks.check_exactness(None, module=xt_example()[0])
    assert (res.passed, res.cases, res.seed, res.details) == (False, 1, None, {})
    assert res.failures == [f"given module: {line}"]


def test_passed_follows_the_failures():
    res = checks.check_exactness(None, module=xt_example()[0])
    assert res.passed and res.failures == []
    res.failures.append("given module: marked by hand")
    assert not res.passed


def test_the_embedding_suite_runs_the_running_example(monkeypatch):
    seen = []

    def recording(M):
        seen.append(M)
        return diffmod.embedding_E(M)

    monkeypatch.setattr(checks, "embedding_E", recording)
    assert checks.check_embedding(SEED, cases=0).passed
    M = xt_example()[0]
    assert len(seen) == 1
    assert seen[0] == M and seen[0].name == M.name == "xt"
