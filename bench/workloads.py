"""The benchmark's three closed-loop workloads: inputs and per-case verdicts.

Every input is generated from the run's seed before the timed window.  A
``Workload`` has ``generate`` (the timed cases), ``warmup`` (a small
seed-independent set run before timing), ``execute`` (one case: the only
part inside the per-case latency) and ``verify`` (None on success, else a
failure message).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

# sizes of acceptance criteria 3-6, one suite call per case, round-robin
SUITES = (
    ("conjugation", "check_conjugation", {"max_n": 3, "max_i": 3, "max_deg": 2}),
    ("embedding", "check_embedding", {"n": 2, "max_deg": 2}),
    ("exactness", "check_exactness", {"max_n": 3, "max_deg": 2}),
    ("product-rule", "check_product_rule", {"max_n": 2, "max_deg": 2}),
    ("dual-swap", "check_dual_swap", {"max_n": 3, "max_deg": 2}),
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# module and solution documents of each shape in the cli corpus; enough that
# its latency tail holds many documents, not a few seed-dependent ones, and
# that the cost of the whole corpus depends little on the seed
CORPUS_COPIES = 24


class Workload:
    name = ""
    # modules imported during set-up, besides the package itself
    modules: tuple[str, ...] = ()
    # cases in one traced pass; fixed so call counts repeat exactly
    trace_cases = 0
    # wrappers that must record calls on every traced pass
    hot: tuple[str, ...] = ()

    def generate(self, seed: int, seconds: float, out_dir: Path) -> list:
        raise NotImplementedError

    def warmup(self, out_dir: Path) -> list:
        raise NotImplementedError

    def execute(self, case):
        raise NotImplementedError

    def verify(self, case, output) -> str | None:
        raise NotImplementedError


# op-battery ---------------------------------------------------------------

class OpBattery(Workload):
    """Criterion 9's identities: RatFunc Leibniz, d_x d_t = d_t d_x and
    LinDiffOp associativity on three operators of order <= 3."""

    name = "op-battery"
    modules = ("prolongkit.sampling",)
    trace_cases = 100
    hot = ("ratfield.gcd", "ratfield.MPoly.mul", "ratfield.MPoly.add",
           "ratfield.MPoly.exact_div", "ratfield.RatFunc.add",
           "ratfield.RatFunc.mul", "ratfield.RatFunc.deriv",
           "ratfield.RatFunc.new", "ratfield.LinDiffOp.mul",
           "ratfield.gcd.prs")
    # cases generated per second of run time; the pool cycles when a run
    # completes more cases than that
    pool_rate = 120

    @staticmethod
    def _cases(rng: random.Random, count: int) -> list:
        """Operators as sampling.random_operator draws them, except that the
        order triples are stratified: each block of 64 cases runs every
        triple in {0..3}^3 once, in seeded order, and the leading
        coefficient is nonzero, so that the drawn order is the operator's
        order.  The order fixes most of a case's cost, so the run-to-run
        variance of the heavy tail is smaller."""
        from prolongkit.ratfield import LinDiffOp, RatFunc
        from prolongkit.sampling import (random_mpoly, random_nonzero_mpoly,
                                         random_poly_ratfunc, random_ratfunc)

        def operator(var: str, order: int) -> LinDiffOp:
            den = random_nonzero_mpoly(rng, max_deg=1, max_terms=2)
            nums = [random_mpoly(rng, max_deg=1) for _ in range(order)]
            nums.append(random_nonzero_mpoly(rng, max_deg=1))
            return LinDiffOp(var, [RatFunc(num, den) for num in nums])

        triples = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
        out = []
        for k in range(count):
            if k % len(triples) == 0:
                rng.shuffle(triples)
            var = "x" if k % 2 else "t"
            a = random_poly_ratfunc(rng, 2)
            b = random_ratfunc(rng, 2)
            ops = tuple(operator(var, q) for q in triples[k % len(triples)])
            out.append((var, a, b, ops))
        return out

    def generate(self, seed, seconds, out_dir):
        count = max(400, int(self.pool_rate * seconds))
        return self._cases(random.Random(f"{self.name}:{seed}"), count)

    def warmup(self, out_dir):
        return self._cases(random.Random(f"{self.name}:warmup"), 4)

    def execute(self, case):
        var, a, b, (o0, o1, o2) = case
        return (
            (a * b).deriv(var) == a.deriv(var) * b + a * b.deriv(var),
            b.deriv("x").deriv("t") == b.deriv("t").deriv("x"),
            (o0 * o1) * o2 == o0 * (o1 * o2),
        )

    def verify(self, case, output):
        bad = [label for label, ok in
               zip(("Leibniz", "commutation", "associativity"), output) if not ok]
        return f"{', '.join(bad)} failed" if bad else None


# module-suites ------------------------------------------------------------

class ModuleSuites(Workload):
    """One checks.check_<suite>(case_seed, cases=1, ...) call per case."""

    name = "module-suites"
    modules = ("prolongkit.checks",)
    trace_cases = 250
    hot = ("ratfield.MPoly.mul", "ratfield.RatFunc.mul", "matrices.mul",
           "matrices.rank", "matrices.det", "matrices.inverse",
           "diffmod.prolong", "diffmod.prolong_lemma", "diffmod.iterate_F",
           "diffmod.conjugate_constant", "diffmod.tensor", "diffmod.dual",
           "diffmod.is_morphism", "checks.check_conjugation",
           "checks.check_embedding", "checks.check_exactness",
           "checks.check_product_rule", "checks.check_dual_swap")

    def generate(self, seed, seconds, out_dir):
        rng = random.Random(f"{self.name}:{seed}")
        count = max(1000, int(600 * seconds))
        return [(SUITES[k % len(SUITES)], rng.getrandbits(31))
                for k in range(count)]

    def warmup(self, out_dir):
        return [(suite, 7) for suite in SUITES]

    def execute(self, case):
        from prolongkit import checks
        (_, func, sizes), case_seed = case
        return getattr(checks, func)(case_seed, cases=1, **sizes)

    def verify(self, case, output):
        if output.passed:
            return None
        (label, _, _), case_seed = case
        return f"{label} seed {case_seed}: {'; '.join(output.failures)}"


# cli-corpus ---------------------------------------------------------------

def _rand_poly(rng: random.Random, terms=2, max_deg=1) -> dict:
    """{(deg_x, deg_t): int} with exactly `terms` distinct monomials and
    nonzero coefficients: random values in a fixed shape, so that the
    cost of a document depends little on the seed."""
    grid = [(a, b) for a in range(max_deg + 1) for b in range(max_deg + 1)]
    return {m: rng.choice((-1, 1)) * rng.randint(1, 5)
            for m in rng.sample(grid, terms)}


def _poly_dx(p: dict) -> dict:
    return {(a - 1, b): c * a for (a, b), c in p.items() if a}


def _poly_text(p: dict, rng: random.Random) -> str:
    """Render with seeded cosmetic variation in term order and spacing."""
    if not p:
        return "0"
    keys = sorted(p)
    rng.shuffle(keys)
    sep = rng.choice((" ", ""))
    out = []
    for i, (a, b) in enumerate(keys):
        c = p[(a, b)]
        factors = [] if abs(c) == 1 and (a or b) else [str(abs(c))]
        if a:
            factors.append("x" if a == 1 else f"x^{a}")
        if b:
            factors.append("t" if b == 1 else f"t^{b}")
        body = "*".join(factors)
        if i == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f"{sep}{'-' if c < 0 else '+'}{sep}{body}")
    return "".join(out)


def _entry(rng: random.Random, rational: bool) -> str:
    num = _poly_text(_rand_poly(rng, terms=3, max_deg=2), rng)
    if not rational:
        return num
    return f"({num})/({_poly_text(_rand_poly(rng), rng)})"


def _theta_entry(rng: random.Random):
    """(A entry, Y entry) for Y = theta^k * g, so A = k*t/x + g_x/g."""
    k = rng.randint(1, 2)
    g = _rand_poly(rng)
    gt = _poly_text(g, rng)
    return f"{k}*t/x + ({_poly_text(_poly_dx(g), rng)})/({gt})", f"theta^{k}*({gt})"


def _solution_pair(rng: random.Random, kind: str):
    """Module matrix and fundamental solution with d_x Y = A Y, by hand.

    "a": Y = [[theta^k g]].  "b": Y = [[u, h], [0, g2]] with u = theta^k g1,
    so A = [[u_x/u, (h_x - h u_x/u)/g2], [0, g2_x/g2]].  "c": the block sum
    of a "b" and an "a".  "lam": Y = [[c, c2*lam + h], [0, g2]].
    The "a", "b" and "c" modules depend on t, so dropping the binomial
    weights breaks the identity first in block row 2.
    """
    if kind == "a":
        a, y = _theta_entry(rng)
        return [[a]], [[y]]
    if kind == "b":
        a00, y00 = _theta_entry(rng)
        h = _rand_poly(rng, max_deg=2)
        g2 = _rand_poly(rng)
        ht, g2t = _poly_text(h, rng), _poly_text(g2, rng)
        a01 = f"(({_poly_text(_poly_dx(h), rng)}) - ({ht})*({a00}))/({g2t})"
        a11 = f"({_poly_text(_poly_dx(g2), rng)})/({g2t})"
        return [[a00, a01], ["0", a11]], [[y00, ht], ["0", g2t]]
    if kind == "c":
        Ab, Yb = _solution_pair(rng, "b")
        Aa, Ya = _solution_pair(rng, "a")
        return ([Ab[0] + ["0"], Ab[1] + ["0"], ["0", "0", Aa[0][0]]],
                [Yb[0] + ["0"], Yb[1] + ["0"], ["0", "0", Ya[0][0]]])
    if kind == "lam":
        c2 = rng.choice((1, -1, 2))
        h = _rand_poly(rng, max_deg=2)
        g2 = _rand_poly(rng)
        g2t = _poly_text(g2, rng)
        a01 = f"({c2}/x + {_poly_text(_poly_dx(h), rng)})/({g2t})"
        a11 = f"({_poly_text(_poly_dx(g2), rng)})/({g2t})"
        y01 = f"{c2}*lam + {_poly_text(h, rng)}"
        return ([["0", a01], ["0", a11]],
                [[str(rng.choice((1, 2, -3))), y01], ["0", g2t]])
    raise ValueError(f"unknown solution kind {kind!r}")


# equivalent spellings of the running example's matrix (t/x)
_XT_FORMS = ("t/x", "(t*x)/(x^2)", "t*x^-1", "(2*t)/(2*x)", "t/x + 0*x")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliCorpus(Workload):
    """One in-process cli.main(argv) call per case, round-robin over a
    seeded corpus of module and solution documents written in set-up.

    A case is (argv, exit code, outcome, block row of the first mismatch or
    None).  At a seed with a golden file, stdout's sha256 and the exit code
    must match it as well.
    """

    name = "cli-corpus"
    modules = ("prolongkit.cli",)
    hot = ("cli.main", "exprparse.parse_expr", "exprparse.render_matrix",
           "exprparse.ModuleDoc.parse", "hopf.check_axioms",
           "solspace.build_fundamental_prolongation",
           "solspace.verify_fundamental", "diffmod.prolong",
           "diffmod.prolong_lemma", "diffmod.iterate_F", "diffmod.tensor",
           "diffmod.dual")

    # a prefix of the shuffled corpus, which is a fair sample of it
    trace_cases = 640

    def __init__(self):
        self.golden: dict | None = None

    @staticmethod
    def golden_path(seed: int) -> Path:
        return GOLDEN_DIR / f"cli-corpus-seed{seed}.json"

    @staticmethod
    def corpus(rng: random.Random, d: Path, copies: int) -> list:
        d.mkdir(parents=True, exist_ok=True)

        def write(name: str, doc: dict) -> str:
            path = d / name
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            return path.as_posix()

        mods = {}
        for copy in range(1, copies + 1):
            for n in (1, 2, 3):
                for kind in ("poly", "rational"):
                    name = f"m{n}{kind[0]}{copy}"
                    # rational modules: a checkerboard of rational entries
                    matrix = [[_entry(rng, kind == "rational" and (r + c) % 2 == 0)
                               for c in range(n)] for r in range(n)]
                    mods[name] = write(f"{name}.json",
                                       {"name": name, "n": n, "matrix": matrix})
        xt = write("xt.json", {"name": "xt", "n": 1,
                               "matrix": [[rng.choice(_XT_FORMS)]]})
        cases = []
        for path in mods.values():
            for kind in ("binomial", "lemma", "iterated"):
                for i in (1, 2, 3):
                    cases.append((("prolong", path, "-i", str(i), "--kind", kind),
                                  0, "result", None))
        pairs = [(f"{a}{c}", f"{b}{c}") for c in range(1, copies + 1)
                 for a, b in (("m1p", "m2r"), ("m2p", "m1r"), ("m1r", "m3p"),
                              ("m2r", "m2p"))]
        for op in ("tensor", "dsum"):
            for a, b in pairs:
                cases.append(((op, mods[a], mods[b]), 0, "result", None))
        for path in mods.values():
            cases.append((("dual", path), 0, "result", None))
        for i in (1, 2, 3):
            cases.append((("verify", xt, "-i", str(i), "--example", "xt"),
                          0, "pass", None))
        for i in (2, 3):
            cases.append((("verify", xt, "-i", str(i), "--example", "xt",
                           "--strip-binomials"), 1, "fail", 2))
        for k, kind in enumerate(("a", "b", "c", "lam") * copies):
            A, Y = _solution_pair(rng, kind)
            name = f"s{kind}{k // 4 + 1}"
            mod = write(f"{name}-module.json",
                        {"name": name, "n": len(A), "matrix": A})
            sol = write(f"{name}-solution.json", {"n": len(Y), "matrix": Y})
            for i in (1, 2):
                cases.append((("verify", mod, "-i", str(i), "--solution", sol),
                              0, "pass", None))
            if kind != "lam":
                cases.append((("verify", mod, "-i", "2", "--solution", sol,
                               "--strip-binomials"), 1, "fail", 2))
        for group in ("ga", "gm"):
            for order in (3, 4, 5):
                cases.append((("check", "hopf", "--group", group,
                               "--order", str(order)), 0, "pass", None))
        # interleave the kinds, so that any prefix of a pass is a fair sample
        rng.shuffle(cases)
        return cases

    def generate(self, seed, seconds, out_dir):
        d = out_dir / f"corpus-{seed}"
        self._prefix = d.as_posix() + "/"
        self._corpus = self.corpus(random.Random(f"{self.name}:{seed}"), d,
                                   CORPUS_COPIES)
        path = self.golden_path(seed)
        if path.exists():
            self.golden = json.loads(path.read_text(encoding="utf-8"))
            self._golden_cases = set(self._corpus)
        return self._corpus

    def golden_key(self, argv) -> str:
        return " ".join(argv).replace(self._prefix, "")

    def warmup(self, out_dir):
        cases = self.corpus(random.Random(f"{self.name}:warmup"),
                            out_dir / "corpus-warmup", 1)
        # one command of each kind
        seen, out = set(), []
        for case in cases:
            if case[0][0] not in seen:
                seen.add(case[0][0])
                out.append(case)
        return out

    def execute(self, case):
        from prolongkit import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case[0]))
        return code, out.getvalue(), err.getvalue()

    def verify(self, case, output):
        argv, want_code, want_outcome, want_row = case
        code, text, err = output
        if code != want_code:
            return f"exit {code}, expected {want_code}: {err.strip()[-300:]}"
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return "stdout is not one JSON document"
        if report.get("outcome") != want_outcome:
            return f"outcome {report.get('outcome')!r}, expected {want_outcome!r}"
        if want_row is not None:
            block = report["result"]["first_mismatch_block"]
            if not block or block[0] != want_row:
                return f"first mismatch in block {block}, expected row {want_row}"
        if self.golden is not None and case in self._golden_cases:
            expect = self.golden.get(self.golden_key(argv))
            if expect is None:
                return "no golden output for this command"
            if expect != f"{_sha256(text)} {code}":
                return "stdout or exit code differs from the golden output"
        return None

    def golden_entries(self) -> dict:
        """{command with the corpus directory left out: "<stdout sha256>
        <exit code>"} for the corpus."""
        out = {}
        for case in self._corpus:
            code, text, _ = self.execute(case)
            out[self.golden_key(case[0])] = f"{_sha256(text)} {code}"
        return out


WORKLOADS = {w.name: w for w in (OpBattery, ModuleSuites, CliCorpus)}
