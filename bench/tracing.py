"""Span tracing of prolongkit's public functions, installed from outside.

The tracer wraps functions by rebinding them: every module of the package
that holds a reference to the original function gets the wrapper (so
``from .diffmod import prolong`` in ``checks`` and ``cli`` is covered), and
so does every class-dict alias of a method (``__radd__ = __add__``).  ``Tracer.uninstall`` puts every original back and checks that no
wrapper is left behind.

Spans live in memory as parallel arrays (name, start, end, parent span,
case id) and are written out only when asked, after the measured pass.
Self time is a span's duration minus the time its child spans cover.
Counters record calls (and a per-call outcome) without opening a span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

# (metric prefix, module, qualified name) of every function traced as a span
SPANS = (
    ("ratfield.gcd", "prolongkit.ratfield", "gcd"),
    ("ratfield.MPoly.mul", "prolongkit.ratfield", "MPoly.__mul__"),
    ("ratfield.MPoly.add", "prolongkit.ratfield", "MPoly.__add__"),
    ("ratfield.MPoly.exact_div", "prolongkit.ratfield", "MPoly.exact_div"),
    ("ratfield.RatFunc.add", "prolongkit.ratfield", "RatFunc.__add__"),
    ("ratfield.RatFunc.mul", "prolongkit.ratfield", "RatFunc.__mul__"),
    ("ratfield.RatFunc.deriv", "prolongkit.ratfield", "RatFunc.deriv"),
    ("ratfield.LinDiffOp.mul", "prolongkit.ratfield", "LinDiffOp.__mul__"),
    ("matrices.mul", "prolongkit.matrices", "mul"),
    ("matrices.rank", "prolongkit.matrices", "rank"),
    ("matrices.det", "prolongkit.matrices", "det"),
    ("matrices.inverse", "prolongkit.matrices", "inverse"),
    ("diffmod.prolong", "prolongkit.diffmod", "prolong"),
    ("diffmod.prolong_lemma", "prolongkit.diffmod", "prolong_lemma"),
    ("diffmod.iterate_F", "prolongkit.diffmod", "iterate_F"),
    ("diffmod.conjugate_constant", "prolongkit.diffmod", "conjugate_constant"),
    ("diffmod.tensor", "prolongkit.diffmod", "tensor"),
    ("diffmod.dual", "prolongkit.diffmod", "dual"),
    ("diffmod.is_morphism", "prolongkit.diffmod", "is_morphism"),
    ("solspace.build_fundamental_prolongation", "prolongkit.solspace",
     "build_fundamental_prolongation"),
    ("solspace.verify_fundamental", "prolongkit.solspace", "verify_fundamental"),
    ("exprparse.parse_expr", "prolongkit.exprparse", "parse_expr"),
    ("exprparse.render_matrix", "prolongkit.exprparse", "render_matrix"),
    ("exprparse.ModuleDoc.parse", "prolongkit.exprparse", "ModuleDoc.parse"),
    ("hopf.check_axioms", "prolongkit.hopf", "check_axioms"),
    ("checks.check_conjugation", "prolongkit.checks", "check_conjugation"),
    ("checks.check_embedding", "prolongkit.checks", "check_embedding"),
    ("checks.check_exactness", "prolongkit.checks", "check_exactness"),
    ("checks.check_product_rule", "prolongkit.checks", "check_product_rule"),
    ("checks.check_dual_swap", "prolongkit.checks", "check_dual_swap"),
    ("cli.main", "prolongkit.cli", "main"),
)

# (counter name, module, qualified name, outcome predicate or None); an
# outcome counter "<name>.hit" counts the calls whose result satisfies it
COUNTERS = (
    ("ratfield.RatFunc.new", "prolongkit.ratfield", "RatFunc.__init__", None),
    # the coprime probe is conclusive when it proves coprimality
    ("ratfield.gcd.probe", "prolongkit.ratfield", "_zx_coprime_probe",
     lambda r: r is True),
    # the modular gcd has fallen back to the PRS when it declines with None
    ("ratfield.gcd.modular", "prolongkit.ratfield", "_zx_mod_gcd",
     lambda r: r is None),
    ("ratfield.gcd.prs", "prolongkit.ratfield", "_zx_prs_gcd", None),
)

# the gcd routes, by counter name; a route the package no longer has is
# reported as "absent" rather than as an error
GCD_ROUTES = {"probe": "ratfield.gcd.probe", "modular": "ratfield.gcd.modular",
              "prs": "ratfield.gcd.prs"}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw dict value) or None when the target is gone."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        # every traced module is imported, so "absent" means the function is
        # gone; every package module is searched for bindings of wrapped
        # functions
        for _, module_name, *_ in SPANS + COUNTERS:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        self.scan_modules = tuple(
            m for name, m in list(sys.modules.items())
            if name == "prolongkit" or name.startswith("prolongkit."))
        self.names: list[str] = []
        self.name_id = array("i")
        self.case = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.case_id = -1
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # id -> wrapper, holding each wrapper alive so its id stays unique
        self._wrappers: dict[int, object] = {}

    # wrappers -------------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, case, parent = self.name_id, self.case, self.parent
        start, end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            case.append(self.case_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
        return wrapper

    def _counter_wrapper(self, name: str, fn, outcome):
        counts = self.counts
        counts[name] = 0
        hit = name + ".hit"
        if outcome is not None:
            counts[hit] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if outcome is not None and outcome(result):
                counts[hit] += 1
            return result
        return wrapper

    # installation ---------------------------------------------------------
    def _patch(self, owner, attr: str, raw, make):
        """Wrap raw (a function, or a classmethod around one) and rebind
        every reference to it: aliases in owner's dict and module globals."""
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        wrapped = make(fn)
        self._wrappers[id(wrapped)] = wrapped
        replacement = classmethod(wrapped) if is_cm else wrapped
        holders = [owner] if isinstance(owner, type) else []
        holders.extend(self.scan_modules)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    self._patches.append((holder, key, value))
                    setattr(holder, key, replacement)

    def install(self):
        for name, module_name, qualname in SPANS:
            target = _resolve(module_name, qualname)
            if target is None:
                self.absent.append(name)
                continue
            self._patch(*target, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module_name, qualname, outcome in COUNTERS:
            target = _resolve(module_name, qualname)
            if target is None:
                self.absent.append(name)
                continue
            self._patch(*target, lambda fn, name=name, outcome=outcome:
                        self._counter_wrapper(name, fn, outcome))

    def uninstall(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()
        for holder in self.scan_modules:
            for key, value in vars(holder).items():
                inner = value.__func__ if isinstance(value, classmethod) else value
                if id(inner) in self._wrappers:
                    raise RuntimeError(f"wrapper left bound at "
                                       f"{holder.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == holder.__name__:
                    for k, v in vars(value).items():
                        v = v.__func__ if isinstance(v, classmethod) else v
                        if id(v) in self._wrappers:
                            raise RuntimeError(f"wrapper left bound at "
                                               f"{value.__qualname__}.{k}")

    # results --------------------------------------------------------------
    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name_id = self.name_id
        for sid in range(n):
            k = name_id[sid]
            calls[k] += 1
            self_ns[k] += end[sid] - start[sid] - child[sid]
        return {name: (calls[k], self_ns[k] / 1e9)
                for k, name in enumerate(self.names)}

    def write_spans(self, path) -> int:
        """Write every span as tab-separated text (gzip); returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\tcase\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.case[sid]}\t"
                         f"{names[self.name_id[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\n")
        return len(self.start)
