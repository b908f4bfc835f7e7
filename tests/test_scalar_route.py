"""The scalar route: Python numbers are computed without numpy, and to the
last bit of the array route.

A Python number takes complex/cmath/math arithmetic; an ndarray takes numpy.
Both run one copy of each formula, so f(z) must equal f(np.array([z]))[0]
exactly, and the CLI leaves that evaluate at one point must never execute a
numpy module.  Those leaves also load no module they do not run: not
dataclasses, fractions, csv or thetafock.verify; and no module of the
package loads dataclasses at all.
"""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from thetafock.bargmann import (
    LineElement,
    bargmann_kernel_A,
    generating_kernel_G,
    generating_kernel_sum,
    phi_basis,
)
from thetafock.core import hermite_poly
from thetafock.fock import (
    FockElement,
    SpaceParams,
    basis_e,
    basis_psi,
    periodic_part,
    pointwise_bound,
    quasiperiod_factor,
    reproducing_kernel,
    theta_member,
)
from thetafock.landau import LandauElement, annihilation_apply, basis_psi_mn, creation_apply, landau_apply
from thetafock.theta import ThetaArgs, jacobi_theta3, riemann_theta, theta3_inversion_rhs, theta3_periodicity_factor

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCALAR_LEAVES = {
    "theta-eval": ["theta", "eval", "--alpha", "0.3", "--beta", "0.1", "--tau", "0.2+0.7i", "--z", "0.3+0.2i"],
    "fock-psi": ["fock", "psi", "--nu", "3.1", "--alpha", "0.3", "--n", "2", "--z", "0.4-0.3i"],
    "fock-kernel-theta": ["fock", "kernel", "--nu", "2.0", "--alpha", "0.1", "--z", "0.2+0.1i", "--w", "0.7-0.4i"],
    "fock-kernel-sum": ["fock", "kernel", "--nu", "2.0", "--alpha", "0.1", "--z", "0.2+0.1i", "--w", "0.7-0.4i",
                        "--path", "sum"],
    "fock-member": ["fock", "member", "--nu", "3.0", "--alpha", "0.2", "--beta", "0.1", "--tau", "0.1+1.5i"],
    "bargmann-forward": ["bargmann", "forward", "--in", "{line}", "--nu", "3.0", "--z", "0.3+0.4i"],
    "bargmann-inverse": ["bargmann", "inverse", "--in", "{fock}", "--q", "0.4"],
    "landau-apply": ["landau", "apply", "--in", "{landau}", "--z", "0.35+0.55i"],
    "landau-raise": ["landau", "raise", "--in", "{landau}", "--out", "{out}"],
    "landau-lower": ["landau", "lower", "--in", "{landau}", "--out", "{out}"],
    "landau-eigres": ["landau", "eigres", "--nu", "2.0", "--alpha", "0.3", "--m", "3", "--n", "1"],
}

_GUARD = """
import json, sys
from thetafock.cli import run_command
code, text = run_command(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "text": text, "numpy": sorted(m for m in sys.modules if m.startswith("numpy.")),
                  "unused": sorted({"dataclasses", "fractions", "csv", "thetafock.verify"} & set(sys.modules)),
                  "thetafock": sorted(m for m in sys.modules if m.startswith("thetafock."))}))
"""


def test_no_module_loads_dataclasses():
    # the value types are namedtuples: importing every module (verify imports all but cli) loads no dataclasses
    code = "import sys, thetafock.verify, thetafock.cli; assert 'dataclasses' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_array_evaluation_loads_no_numpy_ma(tmp_path):
    # np.unique and its kin import numpy.ma (~14 ms) on first use; no element sum or array leaf needs them
    fock = tmp_path / "fock.json"
    fock.write_text(FockElement.from_psi_coeffs(SpaceParams(2.0, 0.3), {-1: 0.5, 0: 1.0, 2: 0.3j}).to_json())
    code = f"""
import sys, numpy as np
from thetafock.bargmann import LineElement
from thetafock.cli import run_command
from thetafock.fock import FockElement, SpaceParams
from thetafock.landau import LandauElement
z = np.linspace(-1.0, 1.0, 64) * (1 + 2j)
p = SpaceParams(2.0, 0.3)
FockElement.from_psi_coeffs(p, {{-2: 1.0, 0: 0.5j, 3: 0.2}}).evaluate(z)
LandauElement(p, {{(0, -1): 1.0, (3, 0): 0.5j, (7, 2): 0.1}}).evaluate(z)
LineElement(0.3, {{-4: 1.0, 0: 0.5j, 5: 0.2}}).evaluate(z.real)
assert run_command(["bargmann", "inverse", "--in", {str(fock)!r}, "--q", "0.4"])[0] == 0
assert run_command(["fock", "gram", "--nu", "2", "--alpha", "0.3", "--nmin", "-2", "--nmax", "2"])[0] == 0
assert "numpy.ma" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("leaf", sorted(SCALAR_LEAVES))
def test_scalar_leaf_executes_no_numpy(leaf, tmp_path):
    files = {name: tmp_path / f"{name}.json" for name in ("line", "fock", "landau", "out")}
    files["line"].write_text(json.dumps(LineElement(0.2, {-1: 0.5, 0: 1.0, 2: 0.3j}).to_dict()))
    files["fock"].write_text(FockElement.from_psi_coeffs(SpaceParams(0.5, 0.3), {0: 1.0, 3: 0.5}).to_json())
    files["landau"].write_text(json.dumps(LandauElement(SpaceParams(2.0, 0.3), {(0, 1): 1.0, (2, -1): 0.5j}).to_dict()))
    argv = [a.format(**files) for a in SCALAR_LEAVES[leaf]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _GUARD, json.dumps(argv)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0, result["text"]
    assert result["numpy"] == []
    assert result["unused"] == []
    if leaf == "theta-eval":
        assert result["thetafock"] == ["thetafock.cli", "thetafock.core", "thetafock.theta"]


@pytest.mark.parametrize("first", ("numpy", "thetafock"))
def test_lazy_numpy_is_numpy_once_loaded(first):
    # a numpy imported before thetafock is left alone (executing it again would warn)
    code = (f"import {first}, numpy, thetafock.core as core; numpy.ones(1); "
            "assert core.np is numpy and core.np.ones(1).sum() == 1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def _points(rng, k, im=1.0):
    return [complex(x, y) for x, y in zip(rng.uniform(0.0, 1.0, k), rng.uniform(-im, im, k))]


def _params(rng):
    return SpaceParams(float(rng.uniform(0.5, 10.0)), float(rng.uniform(-0.5, 0.5)))


def _cases(rng):
    """(name, f, z): one call per draw, with its parameters fixed."""
    for z, w in zip(_points(rng, 25), _points(rng, 25)):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 2.0))  # |tau| < 1 takes the inversion step
        args = ThetaArgs(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), tau)
        params, n, q = _params(rng), int(rng.integers(-5, 6)), float(rng.uniform(0.0, math.sqrt(2.0)))
        level = int(rng.integers(0, 41))
        yield "riemann_theta", lambda x: riemann_theta(args, x), z
        yield "riemann_theta large Re tau", lambda x: riemann_theta(ThetaArgs(args.alpha, args.beta, tau + 1e3), x), z
        yield "basis_e", lambda x: basis_e(n, x, params), z
        yield "basis_psi", lambda x: basis_psi(n, x, params), z
        yield "basis_psi_mn", lambda x: basis_psi_mn(level, n, x, params), z
        yield "kernel theta", lambda x: reproducing_kernel(x, w, params), z
        yield "kernel sum", lambda x: reproducing_kernel(w, x, params, path="sum"), z
        yield "A", lambda x: bargmann_kernel_A(x, q, params), z
        wide = SpaceParams(0.01, params.alpha)  # Im tau = nu/pi: a 109-term window, summed left to right
        yield "A long window", lambda x: bargmann_kernel_A(x, q, wide), z
        yield "G", lambda x: generating_kernel_G(x, q, params), z
        yield "generating sum", lambda x: generating_kernel_sum(x, q, params), z
        low = SpaceParams(float(rng.uniform(0.5, 4.0)), params.alpha)
        m = int(rng.integers(0, 6))
        psi = lambda x, m=m, n=n, low=low: basis_psi_mn(m, n % 3 - 1, x, low)
        yield "landau_apply", lambda x: landau_apply(psi, x, low), z
        yield "creation_apply", lambda x: creation_apply(psi, x, low), z
        yield "annihilation_apply", lambda x: annihilation_apply(psi, x), z
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        fock = FockElement.from_psi_coeffs(params, dict(zip(range(n - 3, n + 4), coeffs)))
        yield "FockElement.evaluate", fock.evaluate, z
        landau = LandauElement(low, {(k % 3, k - 3): c for k, c in enumerate(coeffs)})
        yield "LandauElement.evaluate", landau.evaluate, z
        yield "theta3_periodicity_factor", lambda x: theta3_periodicity_factor(x, tau, n, level), z
        yield "theta3_inversion_rhs", lambda x: theta3_inversion_rhs(x, tau), z
        yield "quasiperiod_factor", lambda x: quasiperiod_factor(x, n, params), z
        yield "periodic_part", lambda x: periodic_part(fock.evaluate, x, params), z
        yield "pointwise_bound", lambda x: pointwise_bound(x, params) + 0j, z  # a real value, as a complex


def _level_cases(rng):
    """The stencils of psi_{m,n} at levels up to MAX_LEVEL = 40, near the mode's bump and out to where its
    exponential is subnormal, and hermite_poly at degrees 0..70 on real x."""
    for _ in range(30):
        params = SpaceParams(float(np.exp(rng.uniform(math.log(0.3), math.log(30.0)))), float(rng.uniform(-0.5, 0.5)))
        m, n = int(rng.integers(0, 41)), int(rng.integers(-5, 6))
        width = math.sqrt((2 * m + 1) / params.nu)
        y0 = -math.pi * (n + params.alpha) / params.nu
        z = complex(rng.uniform(0.0, 1.0), y0 + rng.uniform(-2.0, 2.0) * width)
        far = complex(z.real, y0 + rng.choice((-1.0, 1.0)) * rng.uniform(4.0, 6.0) * width)
        psi = lambda x, m=m, n=n, params=params: basis_psi_mn(m, n, x, params)
        yield "landau_apply to level 40", lambda x, psi=psi, params=params: landau_apply(psi, x, params), z
        yield "creation_apply to level 40", lambda x, psi=psi, params=params: creation_apply(psi, x, params), z
        yield "annihilation_apply to level 40", lambda x, psi=psi: annihilation_apply(psi, x), z
        yield "basis_psi_mn far from the bump", psi, far
    for m in range(71):
        scale = float(rng.uniform(-1.2, 1.2)) * math.sqrt(2 * m + 1)
        yield "hermite_poly", lambda x, m=m, scale=scale: hermite_poly(m, scale * x.real) + 0j, complex(rng.uniform())


def test_scalar_equals_array_to_the_last_bit():
    seen = set()
    for name, f, z in itertools.chain(_cases(np.random.default_rng(2024)), _level_cases(np.random.default_rng(2025))):
        scalar, array = f(z), f(np.array([z]))
        assert isinstance(scalar, complex) and array.shape == (1,)
        assert scalar == array[0], (name, z, scalar, array[0])
        seen.add(name)
    assert len(seen) == 21 + 5


# numpy scalars and the Python numbers the scalar route admits, each from a draw's point z
_KINDS = {
    "np.complex128": lambda z: np.complex128(z),
    "float": lambda z: z.real,
    "np.float64": lambda z: np.float64(z.real),
    "np.float32": lambda z: np.float32(z.real),
    "np.int64": lambda z: np.int64(round(2.0 * z.real)),
}


def test_numpy_scalars_take_the_scalar_route():
    seen = set()
    for i, (name, f, z) in enumerate(_cases(np.random.default_rng(7))):
        if i == 3 * 21:
            break
        for kind, make in _KINDS.items():
            x = make(z)
            value = f(x)
            assert type(value) is complex and value == f(complex(x)), (name, kind, x, value)
        seen.add(name)
    assert len(seen) == 21


class _NoABC:
    """Stands in for the numbers module: any ABC lookup fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numbers.{name} was asked")


def test_python_numbers_never_reach_the_numbers_abcs(monkeypatch):
    import thetafock.core as core

    cases = [(name, f, make(z)) for i, (name, f, z) in zip(range(2 * 21), _cases(np.random.default_rng(8)))
             for make in (complex, lambda z: z.real, lambda z: round(2.0 * z.real))]
    expected = [f(x) for _, f, x in cases]
    monkeypatch.setattr(core, "numbers", _NoABC())
    assert [f(x) for _, f, x in cases] == expected
    with pytest.raises(AssertionError, match="numbers.Complex was asked"):
        riemann_theta(ThetaArgs(0.3, 0.1, 0.2 + 0.7j), np.float64(0.4))


_P = SpaceParams(2.0, 0.3)
_PSI = lambda w: basis_psi_mn(2, 1, w, _P)
# (f, v): each public function of a point z, q or x, at a value v inside its domain
_ZERO_D = {
    "riemann_theta": (lambda x: riemann_theta(ThetaArgs(0.3, 0.1, 0.2 + 0.7j), x), 0.3 + 0.2j),
    "jacobi_theta3": (lambda x: jacobi_theta3(x, 0.1 + 0.4j), 0.3 + 0.2j),
    "kernel theta": (lambda x: reproducing_kernel(x, 0.7 - 0.4j, _P), 0.3 + 0.2j),
    "kernel sum": (lambda x: reproducing_kernel(0.7 - 0.4j, x, _P, path="sum"), 0.3 + 0.2j),
    "G": (lambda x: generating_kernel_G(x, 0.5, _P), 0.3 + 0.2j),
    "A": (lambda x: bargmann_kernel_A(x, 0.5, _P), 0.3 + 0.2j),
    "generating sum": (lambda x: generating_kernel_sum(x, 0.5, _P), 0.3 + 0.2j),
    "basis_psi": (lambda x: basis_psi(2, x, _P), 0.3 + 0.2j),
    "basis_e": (lambda x: basis_e(2, x, _P), 0.3 + 0.2j),
    "basis_psi_mn": (lambda x: basis_psi_mn(3, 1, x, _P), 0.3 + 0.2j),
    "FockElement": (FockElement.from_psi_coeffs(_P, {-1: 0.5, 0: 1.0, 2: 0.3j}).evaluate, 0.3 + 0.2j),
    "LandauElement": (LandauElement(_P, {(0, 1): 1.0, (2, -1): 0.5j}).evaluate, 0.3 + 0.2j),
    "LineElement": (LineElement(0.3, {-1: 0.5, 0: 1.0, 2: 0.3j}).evaluate, 0.4),
    "phi_basis": (lambda x: phi_basis(2, x, 0.3), 0.4),
    "landau_apply": (lambda x: landau_apply(_PSI, x, _P), 0.3 + 0.2j),
    "creation_apply": (lambda x: creation_apply(_PSI, x, _P), 0.3 + 0.2j),
    "annihilation_apply": (lambda x: annihilation_apply(_PSI, x), 0.3 + 0.2j),
    "hermite_poly": (lambda x: hermite_poly(5, x), 0.7),
    "pointwise_bound": (lambda x: pointwise_bound(x, _P), 0.3 + 0.2j),
    "theta_member": (theta_member(ThetaArgs(0.3, 0.1, 0.2 + 1.7j), _P), 0.3 + 0.2j),
}


@pytest.mark.parametrize("name", sorted(_ZERO_D))
def test_zero_dimensional_array_gives_the_python_number(name):
    f, v = _ZERO_D[name]
    kind = float if name in ("hermite_poly", "pointwise_bound") else complex
    value = f(np.asarray(v))
    assert type(value) is kind and repr(value) == repr(f(v))  # repr: the same bits, the sign of a zero too
