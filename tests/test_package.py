"""The package namespace and the library's immutable value types.

`thetafock` resolves its exported names and its submodules on first access,
so `import thetafock` loads no module.  The value types are tuples validated
on construction (the parameters, the budget, the schemes, the membership
result) and the three coefficient expansions.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import thetafock
from thetafock.bargmann import LineElement
from thetafock.core import DomainError, TruncationBudget
from thetafock.fock import FockElement, MembershipResult, SpaceParams
from thetafock.landau import LandauElement
from thetafock.quadrature import LineScheme, StripScheme
from thetafock.theta import ThetaArgs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("bargmann", "cli", "core", "fock", "landau", "quadrature", "theta", "verify")


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


def test_names_resolve_to_the_defining_module():
    for sub in SUBMODULES:
        assert getattr(thetafock, sub) is importlib.import_module(f"thetafock.{sub}")
    assert len(thetafock.__all__) == 49
    for name in thetafock.__all__:
        value = getattr(thetafock, name)
        assert value.__module__ in {f"thetafock.{sub}" for sub in SUBMODULES}, name
        assert getattr(sys.modules[value.__module__], name) is value, name


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
    (TruncationBudget(), TruncationBudget(tol=1e-12, max_terms=10000), TruncationBudget(1e-10),
     "TruncationBudget(tol=1e-12, max_terms=10000)"),
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


@pytest.mark.parametrize("build, message", [
    (lambda: TruncationBudget(tol=0.0), "budget tol must be positive and finite, got 0.0"),
    (lambda: TruncationBudget(tol=float("inf")), "budget tol must be positive and finite, got inf"),
    (lambda: TruncationBudget(max_terms=0), "budget max_terms must be >= 1, got 0"),
    (lambda: ThetaArgs(float("nan"), 0.0, 1j), "theta characteristics must be finite reals"),
    (lambda: ThetaArgs(0.0, 0.0, 1 - 1j), r"tau must be finite with Im tau > 0, got \(1-1j\)"),
    (lambda: SpaceParams(-1.0, 0.0), "nu must be positive and finite, got -1.0"),
    (lambda: SpaceParams(1.0, float("inf")), "alpha must be finite, got inf"),
    (lambda: StripScheme(x_points=3), "x_points must be >= 4, got 3"),
    (lambda: StripScheme(y_order=7), "y_order must be >= 8, got 7"),
    (lambda: StripScheme(y_shift=float("nan")), "y_shift must be finite, got nan"),
    (lambda: LineScheme(2), "q_points must be >= 4, got 2"),
])
def test_value_type_domain_errors(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()
