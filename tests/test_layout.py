"""Source layout: each mechanism family's knowledge lives in its class.

The library asks a mechanism for its facts instead of dispatching on
its family, so no ``isinstance`` names a concrete family class, and it
asks the mechanism directly, through no module function that only
forwards to one of its methods.  The dimensions of a zero set come
from its classification report, where each route computes them in one
place.  Every
family also defines ``__call__`` in its own body, where the benchmark
tracer wraps evaluations by class name, and every family with a spec
string defines ``values``, its array form over a panel's nodes, so a
panel of a built-in family calls no ``__call__``; no family's ``values``
loops over its points in Python, as only the base class's fallback for
user handles does.  The flow solver holds only its mechanism, and every
numeric flow inversion goes through one solve, ``FlowSolver._invert``.
A custom branching declares nothing beside its handle, and the compound
Poisson family nothing beside its mass.
Every panel is integrated and resolved by ``quadrature._rows``: ``quad``,
every scan stream and every bisection, and the rule's sums call no BLAS
product.  Each command-line option lives in
the parser alone, so ``cli.py`` declares no dataclass.
Every integral runs on the panel rule and both bracketed root solves
(``largest_root`` and the sampler's beyond-table inversion) on
``quadrature.brent``: no module imports ``scipy``, and importing the
package or its command line loads no ``scipy`` module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cbizero import mechanisms, quadrature
from cbizero.classify import classify_zero_state

SRC = Path(__file__).resolve().parent.parent / "src" / "cbizero"
BASES = {"BranchingMechanism", "ImmigrationMechanism"}
FAMILIES = {"StableBranching", "QuadraticBranching", "CustomBranching",
            "StableImmigration", "GammaImmigration", "LampertiImmigration",
            "CompoundPoissonImmigration", "CustomImmigration"}
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _family_classes():
    return {node.name: node for node in TREES["mechanisms.py"].body
            if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id in BASES for b in node.bases)}


def _named_classes(node):
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _named_classes(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_families_are_the_eight_classes():
    assert set(_family_classes()) == FAMILIES


def test_no_isinstance_names_a_family():
    offenders = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                hits = FAMILIES.intersection(_named_classes(node.args[1]))
                if hits:
                    offenders.append(f"{name}:{node.lineno} {sorted(hits)}")
    assert offenders == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_defines_its_own_call(family):
    body = _family_classes()[family].body
    assert any(isinstance(node, ast.FunctionDef) and node.name == "__call__"
               for node in body)


@pytest.mark.parametrize("family", sorted(cls.__name__ for cls in mechanisms._SPEC_FAMILIES))
def test_family_defines_its_own_values(family):
    body = _family_classes()[family].body
    assert any(isinstance(node, ast.FunctionDef) and node.name == "values"
               for node in body)


def _loops_over_points(fn):
    """The loops and comprehensions of a ``values`` whose iterable reads its
    array of points."""
    points = fn.args.args[1].arg
    return [node.iter.lineno for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.comprehension))
            and any(isinstance(name, ast.Name) and name.id == points
                    for name in ast.walk(node.iter))]


def test_only_the_fallback_loops_over_points():
    # a built-in family's values is array arithmetic: a Python loop over a
    # panel's points costs a frame per point.  The base class's fallback,
    # which calls a user handle per point, is the one loop the check finds
    base = next(node for node in TREES["mechanisms.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "Mechanism")
    fallback = next(node for node in base.body
                    if isinstance(node, ast.FunctionDef) and node.name == "values")
    assert _loops_over_points(fallback)
    offenders = {family: _loops_over_points(node) for family, cls in _family_classes().items()
                 for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == "values"}
    assert offenders and all(lines == [] for lines in offenders.values()), offenders


def test_panel_rule_calls_no_blas_product():
    # a BLAS product sums one row and eleven rows in different orders, so a
    # panel read alone, in a block or as a bisected half would differ in bits
    offenders = [node.lineno for node in ast.walk(TREES["quadrature.py"])
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                 or isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul")]
    assert offenders == []


def _in_a_panel():
    """Whether the caller of the caller runs inside the panel rule, whose
    ``_block`` and ``quad`` call the integrands."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name in ("_block", "quad") and frame.f_code.co_filename.endswith(
                "quadrature.py"):
            return True
        frame = frame.f_back
    return False


def test_panels_of_built_in_families_call_no_scalar_evaluation(engine_calls, monkeypatch):
    psi = mechanisms.parse_branching("stable:d=1,alpha=1.8")
    phi = mechanisms.parse_immigration("stable:d=1,beta=0.9")
    calls = {"all": 0, "in_panel": 0}
    for cls in (mechanisms.StableBranching, mechanisms.StableImmigration):
        def counting(mech, q, _call=cls.__call__):
            calls["all"] += 1
            calls["in_panel"] += _in_a_panel()
            return _call(mech, q)
        monkeypatch.setattr(cls, "__call__", counting)
    report = classify_zero_state(psi, phi, numeric_only=True)
    assert report.zero_class == "Polar"
    # the numeric scans alone read 83 rows; 105 with cold caches
    assert engine_calls["panels"] >= 83
    assert calls["in_panel"] == 0
    assert calls["all"] <= 10                           # measured 4, outside the panels


PAIRS = {
    "transient": (mechanisms.StableBranching(d=1.0, alpha=1.5),
                  mechanisms.StableImmigration(dprime=1.0, beta=0.3)),
    "recurrent": (mechanisms.StableBranching(d=1.0, alpha=2.0),
                  mechanisms.StableImmigration(dprime=0.5, beta=1.0)),
    "recurrent-undeclared": (mechanisms.CustomBranching(eval=lambda q: q * q),
                             mechanisms.CustomImmigration(eval=lambda q: 0.5 * q)),
    "polar": (mechanisms.StableBranching(d=1.0, alpha=1.8),
              mechanisms.StableImmigration(dprime=1.0, beta=0.9)),
}


@pytest.mark.parametrize("pair, zero_class", [("transient", "Transient"),
                                              ("recurrent", "Recurrent"),
                                              ("recurrent-undeclared", "Recurrent"),
                                              ("polar", "Polar")])
def test_numeric_classification_scans_each_direction_once(pair, zero_class, monkeypatch):
    # heaviness rides on the outer criterion scan and, for a pair that is not
    # supercritical, stationarity on the inner one: two panel scans, where a
    # scan per verdict made four.  A polar pair has no inner scan, so its
    # stationarity scans alone.  The second classification finds every
    # cached check warm, so it counts the criterion scans only
    psi, phi = PAIRS[pair]
    classify_zero_state(psi, phi, numeric_only=True)
    scans, run = [], quadrature._run_panels

    def counting(*args, **kwargs):
        scans.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_run_panels", counting)
    assert classify_zero_state(psi, phi, numeric_only=True).zero_class == zero_class
    assert len(scans) == 2


def _forwards(fn):
    """Whether a function's body, past its docstring, is one return that
    hands its own parameters, unchanged, to a method of one of them or to
    another function."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    passed = [arg.id for arg in call.args if isinstance(arg, ast.Name)]
    passed += [kw.value.id for kw in call.keywords if isinstance(kw.value, ast.Name)]
    if len(passed) != len(call.args) + len(call.keywords):
        return False
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id in params and sorted([func.value.id, *passed]) == sorted(params)
    return isinstance(func, ast.Name) and sorted(passed) == sorted(params)


@pytest.mark.parametrize("module", ["mechanisms.py", "classify.py", "ou.py", "cutout.py"])
def test_no_module_function_only_forwards(module):
    offenders = [node.name for node in TREES[module].body
                 if isinstance(node, ast.FunctionDef) and _forwards(node)]
    assert offenders == []


def _users(helper):
    """The functions that name ``helper``, as module:function."""
    return sorted({f"{name}:{fn.name}" for name, tree in TREES.items()
                   for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == helper})


@pytest.mark.parametrize("helper, caller", [("_dims_numeric", "classify_zero_state"),
                                            ("_dims_from_summary", "rv_fastpath")])
def test_each_dimension_route_has_one_caller(helper, caller):
    # box_dims reads the report, so each route's dimensions come from one place
    assert _users(helper) == [f"classify.py:{caller}"]


@pytest.mark.parametrize("helper, caller", [("_bisect", "_rows"), ("_WEIGHTS", "_integrals")])
def test_one_panel_path(helper, caller):
    # quad, every scan stream and every bisection integrate and resolve a
    # panel in _rows, and a weight is one more array of a stream's read
    assert _users(helper) == [f"quadrature.py:{caller}"]


@pytest.mark.parametrize("verdict", ["tail_verdict_upper", "tail_verdict_lower"])
def test_single_stream_verdicts_take_no_options(verdict):
    fn = next(node for node in TREES["quadrature.py"].body
              if isinstance(node, ast.FunctionDef) and node.name == verdict)
    assert fn.args.kwonlyargs == [] and fn.args.defaults == []


def test_cli_declares_no_dataclass():
    # each option and its default live in the parser, which the handlers read
    tree = TREES["cli.py"]
    decorated = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]
    assert decorated == [] and "dataclasses" not in set(_imported_modules(tree))


def test_flow_solver_holds_only_its_mechanism():
    solver = next(node for node in TREES["flow.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "FlowSolver")
    fields = [node.target.id for node in solver.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["psi"]


@pytest.mark.parametrize("family, want", [("CustomBranching", ["eval"]),
                                          ("CompoundPoissonImmigration", ["mass"])])
def test_probed_facts_are_not_declared(family, want):
    # a custom branching's threshold and indices are probed from its handle,
    # and a bounded exponent other than mass q/(1+q) is a CustomImmigration
    body = _family_classes()[family].body
    assert [node.target.id for node in body if isinstance(node, ast.AnnAssign)] == want


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_flow_has_one_root_solve_site():
    # no scipy root finder, and the one iterate-to-a-level loop is _invert's
    # (v_from_infinity's while loop walks scans, it does not solve)
    tree = TREES["flow.py"]
    assert not any(name.startswith("scipy") for name in _imported_modules(tree))
    solvers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.For) for node in ast.walk(fn))]
    assert solvers == ["_invert"]


def test_no_module_imports_scipy():
    offenders = {name for name, tree in TREES.items() for module in _imported_modules(tree)
                 if module.split(".")[0] == "scipy"}
    assert offenders == set()


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for package in ("cbizero", "cbizero.cli"):
        probe = (f"import sys, {package}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]", package
