import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prolongkit


def test_every_public_name_is_the_object_of_its_defining_module():
    origins = prolongkit._ORIGIN
    assert sorted(set(prolongkit.__all__)) == sorted(prolongkit.__all__)
    for name in prolongkit.__all__:
        assert name in origins, name
        module = importlib.import_module(f"prolongkit.{origins[name]}")
        obj = getattr(prolongkit, name)
        assert obj is getattr(module, name), name
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
            assert obj.__name__ == name, name


def _source_definitions(path: Path) -> set[str]:
    """The names a module's source binds at top level other than by import."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
    return names


def test_the_table_names_the_one_submodule_that_defines_each_name():
    # read from the sources, independently of the table and of importing
    package = Path(prolongkit.__file__).parent
    defined = {path.stem: _source_definitions(path)
               for path in package.glob("*.py")
               if not path.stem.startswith("__")}
    for name in prolongkit.__all__:
        definers = [module for module, names in defined.items()
                    if name in names]
        assert definers == [prolongkit._ORIGIN[name]], name


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
    "LinDiffOp.__mul__", "gcd",
])
def test_traced_names_are_defined_by_their_owner(qualname):
    owner = importlib.import_module("prolongkit.ratfield")
    *path, attr = qualname.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert inspect.isfunction(vars(owner).get(attr)), qualname


def _loaded_after(code: str) -> set[str]:
    """The package modules a fresh interpreter holds after running code."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'prolongkit')))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=60).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_importing_the_field_layer_loads_only_the_field_layer():
    assert _loaded_after("import prolongkit.ratfield") == {
        "prolongkit", "prolongkit.ratfield"}


def test_importing_sampling_loads_only_what_it_imports():
    assert _loaded_after("import prolongkit.sampling") == {
        "prolongkit", "prolongkit.ratfield", "prolongkit.matrices",
        "prolongkit.diffmod", "prolongkit.sampling"}


SUITE_MODULES = {"prolongkit.checks", "prolongkit.hopf",
                 "prolongkit.sampling"}


def test_only_check_loads_the_suites_and_the_hopf_algebras(tmp_path):
    doc = tmp_path / "xt.json"
    doc.write_text('{"n": 1, "matrix": [["t/x"]]}')
    quiet = ("import contextlib, io\nfrom prolongkit import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n")
    prolong = _loaded_after(
        quiet + f"    assert cli.main(['prolong', {str(doc)!r}, '-i', '1']) == 0")
    assert not prolong & SUITE_MODULES
    check = _loaded_after(
        quiet + "    assert cli.main(['check', 'hopf', '--group', 'gm', "
                "'--order', '3']) == 0")
    assert SUITE_MODULES <= check


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from prolongkit import *", namespace)
    for name in prolongkit.__all__:
        assert namespace[name] is getattr(prolongkit, name), name


def test_dir_lists_every_public_name():
    assert set(prolongkit.__all__) <= set(dir(prolongkit))
    assert "__version__" in dir(prolongkit)


def test_a_submodule_is_an_attribute_of_the_bare_package():
    code = ("import prolongkit, sys\n"
            "assert 'prolongkit.matrices' not in sys.modules\n"
            "assert prolongkit.matrices is sys.modules['prolongkit.matrices']")
    assert "prolongkit.matrices" in _loaded_after(code)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prolongkit.no_such_name
