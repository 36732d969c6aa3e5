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


def _fresh(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on args with this checkout's src/ first on
    the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, check=True, timeout=60)


def _added_by(code: str) -> set[str]:
    """Every module, the package's or the standard library's, that a fresh
    interpreter adds to sys.modules while running code; recorded before the
    report imports json."""
    code = (f"import sys\n_before = set(sys.modules)\n{code}\n"
            "_added = sorted(set(sys.modules) - _before)\n"
            "import json\nprint(json.dumps(_added))")
    return set(json.loads(_fresh(["-c", code]).stdout.splitlines()[-1]))


def _loaded_after(code: str) -> set[str]:
    """The package modules a fresh interpreter holds after running code."""
    return {m for m in _added_by(code) if m.split(".")[0] == "prolongkit"}


def test_importing_the_field_layer_loads_only_the_field_layer():
    assert _loaded_after("import prolongkit.ratfield") == {
        "prolongkit", "prolongkit.ratfield"}


def test_importing_sampling_loads_only_what_it_imports():
    assert _loaded_after("import prolongkit.sampling") == {
        "prolongkit", "prolongkit.ratfield", "prolongkit.matrices",
        "prolongkit.diffmod", "prolongkit.sampling"}


# dataclasses pulls in inspect (and with it ast, dis and tokenize)
HEAVY_STDLIB = {"json", "dataclasses", "inspect"}


def test_importing_the_check_suites_loads_only_the_module_side():
    added = _added_by("import prolongkit.checks")
    assert {m for m in added if m.split(".")[0] == "prolongkit"} == {
        "prolongkit", "prolongkit.ratfield", "prolongkit.matrices",
        "prolongkit.diffmod", "prolongkit.sampling", "prolongkit.checks"}
    assert not added & HEAVY_STDLIB


def test_no_module_of_the_package_loads_dataclasses():
    package = Path(prolongkit.__file__).parent
    code = "\n".join(f"import prolongkit.{path.stem}"
                     for path in sorted(package.glob("*.py"))
                     if not path.stem.startswith("__"))
    added = _added_by(code)
    assert "prolongkit.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _imported_under(parent: str) -> set[str]:
    """The modules `-X importtime` lists as imported while a fresh
    interpreter imported parent."""
    lines = [line.rsplit("|", 1)[1] for line in _fresh(
        ["-X", "importtime", "-c", f"import {parent}"]).stderr.splitlines()
        if line.startswith("import time:")]
    tree = [(len(name) - len(name.lstrip()), name.strip()) for name in lines]
    at = [name for _, name in tree].index(parent)
    under = set()
    for depth, name in reversed(tree[:at]):
        if depth <= tree[at][0]:
            break
        under.add(name)
    return under


@pytest.mark.parametrize("parent, child", [
    ("prolongkit.diffmod", "prolongkit.matrices"),
    ("prolongkit.solspace", "prolongkit.exprparse"),
])
def test_import_time_lists_submodules_imported_through_the_package(
        parent, child):
    # `from . import matrices` resolves through the package's __getattr__
    assert child in _imported_under(parent)


SUITE_MODULES = {"prolongkit.checks", "prolongkit.hopf",
                 "prolongkit.sampling"}


def test_only_check_loads_the_suites_and_the_hopf_algebras(tmp_path):
    doc = tmp_path / "xt.json"
    doc.write_text('{"n": 1, "matrix": [["t/x"]]}')
    quiet = ("import contextlib, io\nfrom prolongkit import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n")
    prolong = _added_by(
        quiet + f"    assert cli.main(['prolong', {str(doc)!r}, '-i', '1']) == 0")
    assert not prolong & SUITE_MODULES
    # the CLI reads JSON documents, so of HEAVY_STDLIB it loads json alone
    assert prolong & HEAVY_STDLIB == {"json"}
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


# (module, a record built from it, the repr it had as a dataclass); the
# records with a defaulted last field leave it out
RECORDS = [
    ("checks", lambda m: m.CheckResult(
        "embedding", 3, 11, ["case 0: rank 0 != 6"], {"n": 2, "max_deg": 2}),
     "CheckResult(name='embedding', cases=3, seed=11, "
     "failures=['case 0: rank 0 != 6'], details={'n': 2, 'max_deg': 2})"),
    ("exprparse", lambda m: m.ModuleDoc(1, (("t/x",),)),
     "ModuleDoc(n=1, entries=(('t/x',),), name=None)"),
    ("solspace", lambda m: m.FundamentalCheck(False, (2, 1), True),
     "FundamentalCheck(derivative_ok=False, first_mismatch=(2, 1), "
     "det_ok=True)"),
    ("hopf", lambda m: m.AxiomCheck("counit", 0, True),
     "AxiomCheck(axiom='counit', generator=0, passed=True, witness=None)"),
    ("hopf", lambda m: m.AxiomReport(
        "ga", 2, "derived", (m.AxiomCheck("antipode", 1, False, "y_1"),), 1),
     "AxiomReport(group='ga', order=2, antipode_mode='derived', "
     "checks=(AxiomCheck(axiom='antipode', generator=1, passed=False, "
     "witness='y_1'),), printed_antipode_first_conflict=1)"),
]
DEFAULTS = {"ModuleDoc": {"name": None}, "AxiomCheck": {"witness": None}}


@pytest.mark.parametrize("module, build, text", RECORDS,
                         ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_records_keep_their_fields_repr_defaults_and_are_read_only(
        module, build, text):
    record = build(importlib.import_module(f"prolongkit.{module}"))
    cls = type(record)
    assert repr(record) == text
    fields = cls._fields
    values = [getattr(record, f) for f in fields]
    assert cls(*values) == record
    assert cls(*values[:-1], "other") != record
    defaults = DEFAULTS.get(cls.__name__, {})
    assert cls._field_defaults == defaults
    if not defaults:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
