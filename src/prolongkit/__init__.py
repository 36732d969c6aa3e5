"""Exact prolongation calculus for parameterized linear differential
systems over Q(x, t).

Importing the package loads none of its modules: each public name, and
each submodule that defines one (and `matrices`), is imported on first use
(PEP 562).  Importing a submodule loads only that submodule and what it
imports, so field arithmetic through `prolongkit.ratfield` never loads the
parser, the Hopf algebras or the solution space.  A name is looked up in
its submodule on every access, so it is always that submodule's current
binding.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines, in the order of __all__; each
# submodule here is also an attribute of the bare package
_MODULES = {
    "diffmod": (
        "DiffModule", "ModuleMorphism", "change_basis_matrix",
        "conjugate_constant", "dsum", "dual", "dual_morphism", "dual_swap_g",
        "embedding_E", "inclusion_i", "is_morphism", "iterate_F",
        "product_rule_map", "projection_phi", "prolong", "prolong_lemma",
        "prolong_morphism", "tensor", "trivial_module"),
    "exprparse": (
        "EvalError", "ExprError", "ModuleDoc", "ModuleDocError", "ParseError",
        "load_module", "parse_expr", "render", "render_matrix"),
    "hopf": (
        "GA", "GM", "AxiomReport", "DiffPoly", "OrderOverflowError",
        "antipode", "check_axioms", "coproduct", "counit",
        "reduce_mod_derivatives", "subgroup_defining_poly"),
    "ratfield": ("LinDiffOp", "MPoly", "RatFunc"),
    "solspace": (
        "FundamentalCheck", "SolExpr", "UnrepresentableSolutionError",
        "build_fundamental_prolongation", "load_solution",
        "unweighted_prolongation", "verify_fundamental", "xt_example"),
    "matrices": (),
}

_ORIGIN = {name: module for module, names in _MODULES.items()
           for name in names}

__all__ = list(_ORIGIN)


def _submodule(module):
    # __import__, not importlib.import_module, whose path skips the
    # interpreter's import timer, so `-X importtime` lists the submodule; a
    # non-empty fromlist makes it return the submodule, not the package
    return __import__(f"{__name__}.{module}", fromlist=("_",))


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(_submodule(_ORIGIN[name]), name)
    if name in _MODULES:
        return _submodule(name)
    raise AttributeError(f"module 'prolongkit' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
