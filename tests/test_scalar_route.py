"""The scalar route: Python numbers are computed without numpy, and to the
last bit of the array route.

A Python number takes complex/cmath/math arithmetic; an ndarray takes numpy.
Both run one copy of each formula, so f(z) must equal f(np.array([z]))[0]
exactly, and the CLI leaves that evaluate at one point must never execute a
numpy module.  Those leaves also load no module they do not run: not
dataclasses, fractions, csv or thetafock.verify; and no module of the
package loads dataclasses at all.
"""

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
)
from thetafock.core import _sum
from thetafock.fock import (
    FockElement,
    SpaceParams,
    basis_e,
    basis_psi,
    periodic_part,
    pointwise_bound,
    quasiperiod_factor,
    reproducing_kernel,
)
from thetafock.landau import LandauElement, annihilation_apply, basis_psi_mn, creation_apply, landau_apply
from thetafock.theta import ThetaArgs, riemann_theta, theta3_inversion_rhs, theta3_periodicity_factor

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


def test_sum_follows_numpy_order():
    rng = np.random.default_rng(11)
    for n in [*range(0, 140), 257, 513, 1000]:
        terms = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n) + 1j * rng.standard_normal(n)
        assert _sum(terms.tolist()) == terms.sum(axis=-1)


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
        wide = SpaceParams(0.01, params.alpha)  # Im tau = nu/pi: a 109-term window, past _sum's 64-term runs
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


def test_scalar_equals_array_to_the_last_bit():
    seen = set()
    for name, f, z in _cases(np.random.default_rng(2024)):
        scalar, array = f(z), f(np.array([z]))
        assert isinstance(scalar, complex) and array.shape == (1,)
        assert scalar == array[0], (name, z, scalar, array[0])
        seen.add(name)
    assert len(seen) == 21
