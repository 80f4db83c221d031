"""The public surface: what srfolds exports, what its decision layer takes, what it imports.

The fold/tangential decision is a fixed policy (PAIRING_TOL, SECOND_ORDER_TOL
and SECOND_ORDER_STEP in singularity.py and DEFAULT_RANK_TOL_FACTOR in
numeric.py), printed by the CLI in every tolerances block, and the fold
witness's gates are fixed too. These tests keep both from growing per-call
knobs again, keep the adapter at the hooks the scan and the witness call,
keep every module from importing a name it does not use, and keep the
scalar and array forms of each formula on one body.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srfolds
from srfolds.numeric import rank_nullspace
from srfolds.singularity import (classify, fold_witness, scan_ray,
                                 second_order_transversality)


def test_every_exported_name_resolves_once():
    names = srfolds.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(srfolds, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    # the names resolve on first access, so a star import must reach each
    namespace = {}
    exec("from srfolds import *", namespace)
    assert len(srfolds.__all__) == 61
    assert [name for name in srfolds.__all__ if name not in namespace] == []
    assert set(srfolds._SOURCES) == set(srfolds.__all__)


def test_dir_lists_every_exported_name():
    names = dir(srfolds)
    assert "__all__" in names and "__version__" in names
    assert set(srfolds.__all__) <= set(names)


# each caller runs in its own interpreter; after import and after each step
# the probe prints the srfolds modules loaded
_MODULE_PROBE = """
import json, sys

def report(step):
    print(json.dumps([step, sorted(m for m in sys.modules if m.startswith("srfolds."))]))

def grushin():
    from srfolds import (GrushinBase, SingularityClass, fold_witness, grushin_adapter,
                         scan_ray)
    adapter = grushin_adapter(GrushinBase(2.5, 0.5, 0.0))
    fold = next(r for r in scan_ray(adapter, (0.4, 1.0), 10.0)
                if r.singularity_class is SingularityClass.FOLD)
    fold_witness(adapter, fold, 1e-3)

def groups():
    from srfolds import SingularityClass, fold_witness, scan_ray, sl2_adapter, su2_adapter
    su2 = scan_ray(su2_adapter(), (1.0, 0.0, 0.5), 20.0)
    assert scan_ray(sl2_adapter(), (1.0, 0.0, 2.0), 30.0)
    fold = next(r for r in su2 if r.singularity_class is SingularityClass.FOLD)
    fold_witness(su2_adapter(), fold, 1e-3)

import srfolds
report("import")
for step in sys.argv[1:]:
    globals()[step]()
    report(step)
"""
_GRUSHIN_MODULES = ["alphatrig", "errors", "grushin", "numeric", "oracles", "scfun",
                    "singularity", "state"]
_GROUP_MODULES = ["contact", "errors", "numeric", "scfun", "singularity", "sl2", "state", "su2"]


def _loaded(names):
    return sorted(f"srfolds.{name}" for name in set(names))


@pytest.mark.parametrize("order", [("grushin", "groups"), ("groups", "grushin")], ids=str)
def test_each_caller_loads_only_the_modules_it_uses(order):
    # a bare import loads no submodule; a Grushin caller never loads the
    # groups or the self-test, and a group caller never loads the
    # alpha-trigonometry, the Grushin plane, the oracles or the self-test
    env = dict(os.environ)
    src = str(Path(srfolds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *order], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    first = {"grushin": _GRUSHIN_MODULES, "groups": _GROUP_MODULES}[order[0]]
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        ["import", []],
        [order[0], _loaded(first)],
        [order[1], _loaded(_GRUSHIN_MODULES + _GROUP_MODULES)],
    ]


@pytest.mark.parametrize("fn,params", [
    # scan_points and root_tol shape the root search, not the decision
    (scan_ray, ["adapter", "direction", "s_max", "scan_points", "root_tol"]),
    (classify, ["adapter", "record"]),
    (second_order_transversality, ["adapter", "record"]),
    # delta bounds where the witness may lie; its gates are fixed
    (fold_witness, ["adapter", "record", "delta"]),
    (rank_nullspace, ["M"]),
    (srfolds.su2_kernel, ["cov"]),
    (srfolds.sl2_kernel, ["cov"]),
    (srfolds.grushin_kernel, ["base", "cov"]),
], ids=lambda value: getattr(value, "__name__", None))
def test_decision_layer_takes_no_tolerance_or_step(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_structure_adapter_hooks_are_pinned():
    # every field is one more thing each new structure must supply, so one is
    # added or dropped only on purpose
    assert [f.name for f in dataclasses.fields(srfolds.StructureAdapter)] == [
        "name", "fiber_dim", "chart", "chart_jacobian", "chart_array", "ray_strata",
        "record_fields", "stratum_names", "undetermined"]
    assert srfolds.RayStrata._fields == ("g", "g_rows", "nodes")


_COVECTOR_FUNCTIONS = [f"{group}_{op}" for group in ("su2", "sl2")
                       for op in ("exp", "jacobi", "chart", "conj_f", "kernel", "conj_grad",
                                  "frame_images")]
_COVECTOR_FUNCTIONS += [f"grushin_{op}" for op in ("exp", "dexp", "jacobi", "conj_f",
                                                   "conj_grad", "kernel")]


@pytest.mark.parametrize("name", _COVECTOR_FUNCTIONS)
@pytest.mark.parametrize("malformed", ["short", "long", "text", "none", "scalar", "string",
                                       "bytes", "mapping", "numeric-text", "array-component"])
def test_malformed_covector_raises_invalid_input(name, malformed):
    # every public function that takes a covector parses it with
    # numeric.finite_covector, so a caller's except SrfoldsError sees a
    # covector of the wrong length or with a non-numeric component
    dim = 2 if name.startswith("grushin") else 3
    # float() takes each character of "12", each byte of b"12", the keys of a
    # mapping, a component "0.5" and a 0-d array, none of which is a number
    cov = {"short": [0.5] * (dim - 1), "long": (0.5,) * (dim + 1),
           "text": [0.5] * (dim - 1) + ["u"], "none": (None,) + (0.5,) * (dim - 1),
           "scalar": 0.5, "string": "123"[:dim], "bytes": b"123"[:dim],
           "mapping": dict.fromkeys(range(dim), 0.5),
           "numeric-text": [0.5] * (dim - 1) + ["0.5"],
           "array-component": [0.5] * (dim - 1) + [np.array(0.5)]}[malformed]
    base = (srfolds.GrushinBase(alpha=1.5, x0=0.5, y0=0.0),) if dim == 2 else ()
    start = srfolds.JacobiCoords(p=(1.0,) + (0.0,) * (dim - 1), x=(0.0,) * dim)
    rest = {"exp": (1.0,), "jacobi": (start, 1.0)}.get(name.split("_", 1)[1], ())
    with pytest.raises(srfolds.InvalidInput, match=f"covector must have {dim} finite real"):
        getattr(srfolds, name)(*base, cov, *rest)


# each step runs in one interpreter, in order; after each the probe prints
# which of the watched scipy modules are loaded
_SCIPY_PROBE = """
import contextlib, io, json, runpy, sys
WATCHED = ("scipy.optimize", "scipy.special", "scipy.integrate")

def report(step):
    print(json.dumps([step, [m for m in WATCHED if m in sys.modules]]))

import srfolds, srfolds.cli
report("import")
from srfolds import (SingularityClass, GrushinBase, fold_witness, grushin_adapter,
                     scan_ray, sl2_adapter, su2_adapter)
su2 = scan_ray(su2_adapter(), (1.0, 0.0, 0.5), 20.0)
sl2 = scan_ray(sl2_adapter(), (1.0, 0.0, 2.0), 30.0)
fold = next(r for r in su2 if r.singularity_class is SingularityClass.FOLD)
fold_witness(su2_adapter(), fold, 1e-3)
assert su2 and sl2
report("group scans and witness")
assert scan_ray(grushin_adapter(GrushinBase(1.0, 0.5, 0.0)), (0.4, 1.0), 10.0)
report("alpha = 1 scan")

def expmap(structure, *args):
    sys.argv = ["srfolds", "expmap", "--structure", structure, *args, "--format", "text"]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_module("srfolds.cli", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        assert done.code == 0 and out.getvalue(), (done.code, out.getvalue())
    report("expmap " + structure)

for structure in ("su2", "sl2"):
    expmap(structure, "--covector", "1,0.5,2")
assert scan_ray(grushin_adapter(GrushinBase(1.5, 0.5, 0.0)), (0.4, 1.0), 10.0)
report("alpha = 1.5 scan")
grushin = grushin_adapter(GrushinBase(2.5, 0.5, 0.0))
fold = next(r for r in scan_ray(grushin, (0.4, 1.0), 10.0)
            if r.singularity_class is SingularityClass.FOLD)
fold_witness(grushin, fold, 1e-3)
report("alpha = 2.5 witness")
expmap("grushin", "--alpha", "2.5", "--base", "0.5,0", "--covector", "0.4,1")
"""


def test_scan_paths_leave_scipy_unloaded():
    # Brent is written out in numeric, alphatrig builds its per-alpha tables
    # from the standard library, the ODE solver and quadrature serve only
    # the oracles (oracles imports scipy.integrate inside integrate and
    # quad), and cli looks the scipy version up when it prints it; so no
    # scan, witness or expmap at any alpha loads a watched module
    env = dict(os.environ)
    src = str(Path(srfolds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        ["import", []],
        ["group scans and witness", []],
        ["alpha = 1 scan", []],
        ["expmap su2", []],
        ["expmap sl2", []],
        ["alpha = 1.5 scan", []],
        ["alpha = 2.5 witness", []],
        ["expmap grushin", []],
    ]


def _scipy_imports(path: Path) -> list[tuple]:
    """(enclosing top-level name, line) of each scipy import in a module.

    The name is None for an import at module level.
    """
    hits = []
    for stmt in ast.parse(path.read_text()).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                hits.append((getattr(stmt, "name", None), node.lineno))
    return hits


def test_only_the_oracles_import_scipy():
    # oracles.py holds the ODE and quadrature routes, and cli's version report
    # names scipy's version; every other module stays on numpy and the
    # standard library, whatever path imports it
    package = Path(srfolds.__file__).resolve().parent
    offenders = [(path.name, name, line) for path in sorted(package.glob("*.py"))
                 if path.name not in ("oracles.py", "cli.py")
                 for name, line in _scipy_imports(path)]
    assert offenders == []
    assert [name for name, _ in _scipy_imports(package / "cli.py")] == ["_versions"]
    assert _scipy_imports(package / "oracles.py")


def _tracer_boundaries() -> set[tuple[str, str]]:
    """(module, name) of every srfolds name perfbench/tracer.py wraps, read from its lists.

    A boundary is a tuple of strings whose first is an srfolds module; the
    tracer keeps them in module-level lists, or alone in a module-level tuple.
    """
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    boundaries = set()
    for stmt in ast.parse(tracer.read_text()).body:
        if not isinstance(stmt, ast.Assign):
            continue
        try:
            value = ast.literal_eval(stmt.value)
        except ValueError:
            continue
        for entry in ([value] if isinstance(value, tuple) else value):
            if (isinstance(entry, tuple) and entry and isinstance(entry[0], str)
                    and entry[0].split(".")[0] == "srfolds"):
                boundaries.add(entry[:2])
    return boundaries


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets):
            used |= set(ast.literal_eval(stmt.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # a dead import hides what a module needs; the only ones allowed are the
    # names the benchmark's tracer wraps in that module, and they go when
    # the tracer stops wrapping them
    package = Path(srfolds.__file__).resolve().parent
    boundaries = _tracer_boundaries()
    assert boundaries
    offenders = []
    for path in sorted(package.glob("*.py")):
        module = "srfolds" if path.stem == "__init__" else f"srfolds.{path.stem}"
        offenders += [(path.name, name) for name in _unused_imports(path)
                      if (module, name) not in boundaries]
    assert offenders == []


# numpy's transcendental ufuncs; any of them may differ from the C library by
# an ulp, where numeric.libm gives what the scalar code computes
_NUMPY_TRANSCENDENTALS = {
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
    "exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "power", "float_power", "hypot"}


def _numpy_transcendentals(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each numpy transcendental ufunc a module names."""
    tree = ast.parse(path.read_text())
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "numpy"}
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr in _NUMPY_TRANSCENDENTALS):
            hits.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            hits += [(alias.name, node.lineno) for alias in node.names
                     if alias.name in _NUMPY_TRANSCENDENTALS]
    return hits


def test_no_module_calls_a_numpy_transcendental():
    # the array passes (chart_array, record_fields, g_rows) equal the scalar
    # functions bit for bit because every sin, cos, pow or log in them goes
    # through numeric.libm; a change that trades libm for numpy's ufuncs
    # drops that contract on purpose, and this guard with it
    package = Path(srfolds.__file__).resolve().parent
    offenders = [(path.name, *hit) for path in sorted(package.glob("*.py"))
                 for hit in _numpy_transcendentals(path)]
    assert offenders == []


# top-level names that no src/ code calls and __all__ does not list, each with
# the reason it stays: the quadrature route to pi_alpha is the tests' oracle,
# and its import of oracles.quad is a boundary the benchmark's tracer wraps;
# the package's __getattr__ and __dir__ are called by the interpreter (PEP 562)
_UNREFERENCED_ALLOWED = {("alphatrig.py", "_pi_alpha_quadrature"),
                         ("__init__.py", "__getattr__"), ("__init__.py", "__dir__")}


def _unreferenced_definitions(package: Path) -> list[tuple[str, str]]:
    """(module file, name) of each top-level function or class no other src/ code names.

    A name counts as referenced where a Name or an attribute of that name
    appears anywhere in the package outside the definition itself.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    # (file, top-level statement index) -> the names read in that statement
    reads = {}
    for name, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            reads[name, index] = {node.id if isinstance(node, ast.Name) else node.attr
                                  for node in ast.walk(stmt)
                                  if isinstance(node, (ast.Name, ast.Attribute))}
    unreferenced = []
    for name, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if stmt.name in srfolds.__all__:
                continue
            if not any(stmt.name in names for key, names in reads.items()
                       if key != (name, index)):
                unreferenced.append((name, stmt.name))
    return unreferenced


def test_every_definition_is_called_or_exported():
    # a function or class that no shipped path reaches and the package does
    # not export is dead code, however well a test covers it
    package = Path(srfolds.__file__).resolve().parent
    assert set(_unreferenced_definitions(package)) - _UNREFERENCED_ALLOWED == set()


# each formula that runs on Python floats and on numpy arrays is written once,
# in a body that takes its elementary functions as arguments: (body, a scalar
# caller, an array caller), each a dotted path of nested definitions in src/
_SHARED_BODIES = [
    ("contact._trig_fields", "contact.ContactGroup.conj_f", "contact.ContactGroup.record_fields"),
    ("contact._trig_fields", "contact.ContactGroup.conj_grad",
     "contact.ContactGroup.record_fields"),
    ("contact._gradient_coefficients", "contact.ContactGroup.conj_grad",
     "contact.ContactGroup.record_fields"),
    ("su2._endpoint_entries", "su2.su2_exp", "su2._entries_array"),
    ("sl2._first_factor", "sl2.sl2_exp", "sl2._entries_array"),
    ("sl2._rotated", "sl2.sl2_exp", "sl2._entries_array"),
    ("sl2._unimodular", "sl2.Sl2Matrix.__post_init__", "sl2._entries_array"),
    ("scfun.trig_sc_pair", "scfun.sc_pair", "sl2._entries_array"),
]


def _definition(package: Path, dotted: str):
    """The function or class a dotted path names, module first, or None."""
    module, *path = dotted.split(".")
    node = ast.parse((package / f"{module}.py").read_text())
    for name in path:
        node = next((child for child in node.body
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     and child.name == name), None)
        if node is None:
            return None
    return node


@pytest.mark.parametrize("body,scalar,array", _SHARED_BODIES, ids=lambda path: path)
def test_scalar_and_array_forms_call_one_body(body, scalar, array):
    # the bit-for-bit tests of each pair guard its masks and fall-back loops;
    # this keeps the arithmetic itself from being written out twice again
    package = Path(srfolds.__file__).resolve().parent
    assert _definition(package, body) is not None, body
    name = body.split(".")[-1]
    for caller in (scalar, array):
        node = _definition(package, caller)
        assert node is not None, caller
        assert name in {sub.id if isinstance(sub, ast.Name) else sub.attr
                        for sub in ast.walk(node)
                        if isinstance(sub, (ast.Name, ast.Attribute))}, (caller, name)
