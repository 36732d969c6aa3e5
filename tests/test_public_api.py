import ast
import importlib
import inspect

import pytest

import prolongkit


def _import_origins():
    """Name -> submodule of each `from .module import name` in the package's
    __init__."""
    origins = {}
    for node in ast.parse(inspect.getsource(prolongkit)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module
    return origins


def test_every_public_name_is_the_object_of_its_defining_module():
    origins = _import_origins()
    assert sorted(set(prolongkit.__all__)) == sorted(prolongkit.__all__)
    for name in prolongkit.__all__:
        assert name in origins, name
        module = importlib.import_module(f"prolongkit.{origins[name]}")
        obj = getattr(prolongkit, name)
        assert obj is getattr(module, name), name
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
            assert obj.__name__ == name, name


@pytest.mark.parametrize("module, name", [
    ("diffmod", "prolong"), ("diffmod", "prolong_lemma"),
    ("diffmod", "change_basis_matrix"), ("diffmod", "prolong_morphism"),
    ("solspace", "build_fundamental_prolongation"),
    ("solspace", "unweighted_prolongation"),
    ("matrices", "rank"), ("matrices", "det"), ("matrices", "inverse"),
])
def test_builders_and_eliminations_live_in_their_modules(module, name):
    fn = getattr(importlib.import_module(f"prolongkit.{module}"), name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == f"prolongkit.{module}"
    assert fn.__name__ == name
    if module != "matrices":
        assert getattr(prolongkit, name) is fn


# The benchmark's tracer finds its hot layers by looking each name up in its
# owner's own __dict__, so an inherited method would read as absent there.
@pytest.mark.parametrize("qualname", [
    "MPoly.__add__", "MPoly.__mul__", "MPoly.exact_div", "RatFunc.__init__",
    "RatFunc.__add__", "RatFunc.__mul__", "RatFunc.deriv",
    "LinDiffOp.__mul__", "gcd", "_zx_coprime_probe", "_zx_prs_gcd",
])
def test_traced_names_are_defined_by_their_owner(qualname):
    owner = importlib.import_module("prolongkit.ratfield")
    *path, attr = qualname.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert inspect.isfunction(vars(owner).get(attr)), qualname
