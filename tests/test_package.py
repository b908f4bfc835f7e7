"""The package namespace and the library's immutable value types.

`thetafock` resolves its exported names and its submodules on first access,
so `import thetafock` loads no module.  The value types are tuples validated
on construction (the parameters, the budget, the schemes, the membership
result) and the three coefficient expansions.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import thetafock
from thetafock.bargmann import LineElement
from thetafock.core import DomainError, TruncationBudget, character, hermite_poly
from thetafock.fock import FockElement, MembershipResult, SpaceParams, quasiperiod_factor
from thetafock.landau import LandauElement
from thetafock.quadrature import LineScheme, StripScheme, strip_gram
from thetafock.theta import ThetaArgs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("bargmann", "cli", "core", "fock", "landau", "quadrature", "theta", "verify")
NAN_INF = (float("nan"), float("inf"))


def test_import_loads_no_submodule():
    code = "import sys, thetafock; print(sorted(m for m in sys.modules if m.startswith('thetafock.')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_source_line_exceeds_120_columns():
    long = [f"{path.name}:{i}" for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 120]
    assert long == []


def test_numbers_abcs_only_in_the_scalar_predicate():
    # an isinstance check against a numbers ABC costs ~20 type() tests; it stays behind core._is_number's fast path
    core = SRC / "thetafock" / "core.py"
    predicate = next(node for node in ast.parse(core.read_text()).body
                     if isinstance(node, ast.FunctionDef) and node.name == "_is_number")
    uses = [(path.name, i) for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if "numbers." in line]
    assert uses and all(path == core.name and predicate.lineno <= i <= predicate.end_lineno for path, i in uses), uses


def test_errstate_only_in_core():
    # numpy's error state is set in one place, core._quiet; every other function, in core too, enters it
    core = SRC / "thetafock" / "core.py"
    quiet = next(node for node in ast.parse(core.read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_quiet")
    uses = [(path.name, node.lineno) for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "errstate"]
    assert len(uses) == 1 and uses[0][0] == core.name and quiet.lineno <= uses[0][1] <= quiet.end_lineno, uses


def test_argument_rule_only_in_core():
    # every integer and real argument is checked by core._index and core._real; no module words its own check
    uses = [(path.name, i) for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if "must be an integer" in line or "finite, got" in line]
    assert uses and {path for path, _ in uses} == {"core.py"}, uses


def test_cli_handlers_import_nothing():
    # a handler reaches the library as tf.<name>, through the package's lazy names
    tree = ast.parse((SRC / "thetafock" / "cli.py").read_text())
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    imports = [(node.name, inner.lineno) for node in handlers for inner in ast.walk(node)
               if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert len(handlers) == 11 and imports == [], imports


def test_names_resolve_to_the_defining_module():
    for sub in SUBMODULES:
        assert getattr(thetafock, sub) is importlib.import_module(f"thetafock.{sub}")
    assert len(thetafock.__all__) == 45
    for name in thetafock.__all__:
        value = getattr(thetafock, name)
        assert value.__module__ in {f"thetafock.{sub}" for sub in SUBMODULES}, name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_every_export_has_a_caller_in_the_library():
    referenced = set()
    for path in sorted((SRC / "thetafock").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    referenced.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert set(thetafock.__all__) - referenced == set()


def test_readme_names_exports_and_counts_the_verify_cases():
    # a deleted or renamed function, or a verify case added or dropped, cannot linger in the README
    readme = (SRC.parent / "README.md").read_text()
    table = readme.split("| Capability | Key functions |\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    names = {name for row in table for name in re.findall(r"`([A-Za-z_]\w*)`", row.rsplit("|", 2)[1])}
    assert names and names <= set(thetafock.__all__), names - set(thetafock.__all__)
    counts = re.findall(r"\b(\d+)[ -](?:named )?checks?\b", readme)
    assert counts and set(map(int, counts)) == {len(thetafock.run_acceptance().cases)}, counts


def test_star_import_and_dir():
    namespace = {}
    exec("from thetafock import *", namespace)
    assert set(thetafock.__all__) <= set(namespace)
    assert set(thetafock.__all__) | set(SUBMODULES) <= set(dir(thetafock))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        thetafock.nonexistent
    assert not hasattr(thetafock, "np")


# (instance, an equal instance built by keyword, a different instance, its repr)
VALUES = [
    (TruncationBudget(), TruncationBudget(tol=1e-12), TruncationBudget(1e-10), "TruncationBudget(tol=1e-12)"),
    (ThetaArgs(0.3, 0.1, 2j), ThetaArgs(tau=2j, beta=0.1, alpha=0.3), ThetaArgs(0.3, 0.1, 1j),
     "ThetaArgs(alpha=0.3, beta=0.1, tau=2j)"),
    (SpaceParams(2.0, 0.3), SpaceParams(alpha=0.3, nu=2.0), SpaceParams(2.0, -0.3),
     "SpaceParams(nu=2.0, alpha=0.3)"),
    (MembershipResult(True, 1.5), MembershipResult(norm=1.5, in_space=True), MembershipResult(False, None),
     "MembershipResult(in_space=True, norm=1.5)"),
    (StripScheme(), StripScheme(x_points=64, y_order=64, y_shift=0.0), StripScheme(y_shift=-0.5),
     "StripScheme(x_points=64, y_order=64, y_shift=0.0)"),
    (LineScheme(), LineScheme(q_points=256), LineScheme(512), "LineScheme(q_points=256)"),
    (FockElement(SpaceParams(2.0, 0.3), {1: 0.5, 0: 1}),
     FockElement(SpaceParams(2.0, 0.3), coeffs={0: 1, 1: 0.5}),
     FockElement(SpaceParams(2.0, 0.3), {0: 1}),
     "FockElement(params=SpaceParams(nu=2.0, alpha=0.3), coeffs=((0, (1+0j)), (1, (0.5+0j))))"),
    (LineElement(0.2, {-1: 2j}), LineElement(alpha=0.2, coeffs={-1: 2j}), LineElement(0.3, {-1: 2j}),
     "LineElement(alpha=0.2, coeffs=((-1, 2j),))"),
    (LandauElement(SpaceParams(1.0, 0.0), {(1, 0): 1}), LandauElement(SpaceParams(1.0, 0.0), coeffs={(1, 0): 1}),
     LandauElement(SpaceParams(1.0, 0.0), {(0, 1): 1}),
     "LandauElement(params=SpaceParams(nu=1.0, alpha=0.0), coeffs=(((1, 0), (1+0j)),))"),
]


@pytest.mark.parametrize("value, same, other, text", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
def test_value_type_equality_hash_repr(value, same, other, text):
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert repr(value) == text


def test_elements_compare_by_class():
    line, params = LineElement(0.3, {0: 1}), SpaceParams(1.0, 0.3)
    assert FockElement(params, {0: 1}) != LandauElement(params, {(0, 0): 1})
    assert line != FockElement(params, {0: 1}) and line != (0.3, ((0, 1 + 0j),))
    assert len({FockElement(params, {0: 1}), FockElement(params, {0: 1.0}), FockElement(params, {})}) == 2


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=[type(v[0]).__name__ for v in VALUES])
def test_value_types_are_immutable(value):
    field = next(iter(value._fields)) if isinstance(value, tuple) else "coeffs"
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_scheme_defaults_and_derived_schemes():
    assert StripScheme() == (64, 64, 0.0) and LineScheme() == (256,)
    assert StripScheme(8, 16, 0.5).doubled() == StripScheme(16, 32, 0.5)
    assert LineScheme(4).doubled() == LineScheme(8)
    assert StripScheme.centered(2.0, 0.5, 1.5) == StripScheme(y_shift=-3.141592653589793)


def test_integral_counts_are_stored_as_int():
    counts = (*StripScheme(64.0, 16.0), *LineScheme(256.0))
    assert counts == (64, 16, 0.0, 256) and [type(c) for c in counts] == [int, int, float, int]


@pytest.mark.parametrize("build, message", [
    (lambda: TruncationBudget(tol=0.0), "budget tol must be positive and finite, got 0.0"),
    (lambda: TruncationBudget(tol=float("inf")), "budget tol must be positive and finite, got inf"),
    (lambda: ThetaArgs(float("nan"), 0.0, 1j), "theta characteristics must be finite reals"),
    (lambda: ThetaArgs(0.0, 0.0, 1 - 1j), r"tau must be finite with Im tau > 0, got \(1-1j\)"),
    (lambda: SpaceParams(-1.0, 0.0), "nu must be positive and finite, got -1.0"),
    (lambda: SpaceParams(1.0, float("inf")), "alpha must be finite, got inf"),
    (lambda: StripScheme(x_points=3), "x_points must be >= 4, got 3"),
    (lambda: StripScheme(y_order=7), "y_order must be >= 8, got 7"),
    (lambda: StripScheme(y_shift=float("nan")), "y_shift must be finite, got nan"),
    (lambda: LineScheme(2), "q_points must be >= 4, got 2"),
    (lambda: StripScheme(64.5), "x_points must be an integer, got 64.5"),
    (lambda: StripScheme(y_order=16.5), "y_order must be an integer, got 16.5"),
    (lambda: LineScheme(256.5), "q_points must be an integer, got 256.5"),
    (lambda: StripScheme.centered(float("nan"), 0.3, 0), "nu must be positive and finite, got nan"),
    (lambda: StripScheme.centered(float("inf"), 0.3, 0), "nu must be positive and finite, got inf"),
    (lambda: StripScheme.centered(1.0, float("nan"), 0), "alpha must be finite, got nan"),
    (lambda: StripScheme.centered(1.0, 0.3, float("-inf")), "n_bar must be finite, got -inf"),
    (lambda: strip_gram([(0, None), (0.5, None)], 1.0, 0.3), "mode index must be an integer, got 0.5"),
    # nan and inf in every count, degree, argument, step and element key raise naming it, not the error of int()
    *[(lambda build=build, v=v: build(v), f"{what} must be an integer, got {v}") for build, what, values in [
        (lambda v: StripScheme(v), "x_points", NAN_INF), (lambda v: StripScheme(y_order=v), "y_order", NAN_INF),
        (lambda v: LineScheme(v), "q_points", NAN_INF),
        (lambda v: hermite_poly(v, 0.3), "Hermite degree", (*NAN_INF, 0.5)),
        (lambda v: character(0.3, v), "character argument", (*NAN_INF, 0.5)),
        (lambda v: quasiperiod_factor(0.3, v, SpaceParams(2.0, 0.3)), "lattice step", (*NAN_INF, 0.5)),
        (lambda v: FockElement(SpaceParams(2.0, 0.3), {v: 1}), "mode index", (float("nan"),)),
        (lambda v: LineElement(0.3, {v: 1}), "mode index", (float("inf"),)),
        (lambda v: LandauElement(SpaceParams(2.0, 0.3), {(0, v): 1}), "mode index", (float("-inf"),)),
    ] for v in values],
    (lambda: hermite_poly(-1, 0.3), "Hermite degree must be >= 0, got -1"),
])
def test_value_type_domain_errors(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()
