"""Theta series: frozen values, oracles, and the classical identities."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetafock import theta
from thetafock.bargmann import bargmann_kernel_A
from thetafock.core import DomainError, TruncationError
from thetafock.fock import SpaceParams
from thetafock.theta import ThetaArgs, jacobi_theta3, riemann_theta


def brute_theta(alpha, beta, tau, z, span=60):
    """Independent plain-loop partial sum."""
    total = 0.0 + 0.0j
    for n in range(-span, span + 1):
        c = n + alpha
        total += cmath.exp(1j * math.pi * c * c * tau + 2j * math.pi * c * (z + beta))
    return total


def mp_theta3(z, tau):
    q = mp.exp(1j * mp.pi * tau)
    return complex(mp.jtheta(3, mp.pi * z, q))


def test_theta3_frozen_values():
    # partial-sum oracle: 1 + 2 exp(-2 pi) + 2 exp(-8 pi) + ...
    assert jacobi_theta3(0.0, 2j) == pytest.approx(1.0037348854877393, rel=1e-15)
    assert jacobi_theta3(0.0, 1j) == pytest.approx(1.0864348112133080, rel=1e-14)


def test_theta3_against_mpmath():
    for z, tau in [(0.37 + 0.21j, 1.3j), (0.0, 0.7j), (-0.4 + 0.6j, 0.5 + 0.9j), (1.7 - 0.3j, 2.4j)]:
        ours = jacobi_theta3(z, tau)
        ref = mp_theta3(z, tau)
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))


def test_riemann_theta_against_brute_sum():
    cases = [
        (0.3, 0.7, 1.5j, 0.1 + 0.05j),
        (-0.25, 0.0, 0.8j, 0.6 - 0.4j),
        (0.5, -0.3, 0.4 + 1.1j, -0.2 + 0.3j),
    ]
    for alpha, beta, tau, z in cases:
        ours = riemann_theta(ThetaArgs(alpha, beta, tau), z)
        ref = brute_theta(alpha, beta, tau, z)
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))


def test_riemann_theta_zero_characteristics_is_theta3():
    z, tau = 0.23 + 0.11j, 1.7j
    assert riemann_theta(ThetaArgs(0.0, 0.0, tau), z) == pytest.approx(jacobi_theta3(z, tau))


def test_beta_is_argument_shift():
    args = ThetaArgs(0.3, 0.45, 1.2j)
    base = ThetaArgs(0.3, 0.0, 1.2j)
    z = 0.1 - 0.2j
    assert riemann_theta(args, z) == pytest.approx(riemann_theta(base, z + 0.45), rel=1e-13)


def test_array_evaluation():
    zs = np.array([0.1 + 0.2j, 0.4 - 0.1j, 0.9 + 0.5j])
    vals = jacobi_theta3(zs, 1.1j)
    assert vals.shape == zs.shape
    for z, v in zip(zs, vals):
        assert v == pytest.approx(jacobi_theta3(complex(z), 1.1j), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    zr=st.floats(min_value=-1.0, max_value=1.0),
    zi=st.floats(min_value=-1.0, max_value=1.0),
    ti=st.floats(min_value=0.5, max_value=3.0),
    l=st.integers(min_value=-2, max_value=2),
    m=st.integers(min_value=-2, max_value=2),
)
def test_theta3_periodicity_property(zr, zi, ti, l, m):
    # the engine at the shifted point against the law's right-hand side, with theta3(z | tau) from mpmath
    z, tau = complex(zr, zi), complex(0.0, ti)
    lhs = jacobi_theta3(z + l * tau + m, tau)
    rhs = complex(mp.exp(-1j * mp.pi * l * l * tau - 2j * mp.pi * l * z)) * mp_theta3(z, tau)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=-1.0, max_value=1.0),
    zr=st.floats(min_value=-1.0, max_value=1.0),
    zi=st.floats(min_value=-0.8, max_value=0.8),
    ti=st.floats(min_value=0.5, max_value=3.0),
)
def test_riemann_translation_character(alpha, zr, zi, ti):
    args = ThetaArgs(alpha, 0.2, complex(0.0, ti))
    z = complex(zr, zi)
    lhs = riemann_theta(args, z + 1.0)
    rhs = cmath.exp(2j * math.pi * alpha) * riemann_theta(args, z)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_theta3_periodicity_at_a_skew_tau():
    z, tau, l, m = 0.2 + 0.3j, 0.5 + 1.2j, 2, -1
    lhs = jacobi_theta3(z + l * tau + m, tau)
    assert abs(lhs - mp_theta3(z + l * tau + m, tau)) <= 1e-14 * abs(lhs)
    rhs = complex(mp.exp(-1j * mp.pi * l * l * tau - 2j * mp.pi * l * z)) * mp_theta3(z, tau)
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_inversion_law_samples():
    # the engine, which inverts tau itself while |tau| < 1, against the law's right-hand side, with
    # theta3(z/tau | -1/tau) from mpmath
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.5))
        lhs = jacobi_theta3(z, tau)
        rhs = complex(mp.sqrt(1j / tau) * mp.exp(-1j * mp.pi * z * z / tau)) * mp_theta3(z / tau, -1.0 / tau)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_domain_validation():
    with pytest.raises(DomainError):
        ThetaArgs(0.0, 0.0, 1.0 - 0.5j)
    with pytest.raises(DomainError):
        ThetaArgs(0.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        jacobi_theta3(0.1, -1j)


def test_truncation_budget_exhaustion():
    # without the inversion law (the path of A) Im tau = 3e-8 needs a window of ~19,000 one-sided terms
    with pytest.raises(TruncationError, match="^theta window needs more than 10000 one-sided terms at Im tau = 3"):
        bargmann_kernel_A(0.2 + 0.1j, 0.5, SpaceParams(3e-8 * math.pi, 0.3))


def test_small_im_tau_reduced_by_inversion(monkeypatch):
    # 0.001i is certified after the inversion law, at Im tau = 1000, in a window of a few terms
    widths = []
    window = theta._window
    monkeypatch.setattr(theta, "_window", lambda t, tol: widths.append(window(t, tol)) or widths[-1])
    ours = jacobi_theta3(0.0, 0.001j)
    ref = mp_theta3(0.0, 0.001j)
    assert abs(ours - ref) <= 1e-12 * abs(ref)
    assert len(widths) == 1 and widths[0] == window(1000.0, 1e-12) <= 5


def test_window_follows_offcenter_peak():
    # large Im z pushes the dominant index away from n = 0
    z = 0.5 + 4.0j
    ours = jacobi_theta3(z, 1j)
    ref = brute_theta(0.0, 0.0, 1j, z, span=80)
    assert abs(ours - ref) <= 1e-12 * abs(ref)


def test_array_call_memory():
    # the window walks in place: one call on 10^4 points holds about six complex arrays of that size
    args, z = ThetaArgs(0.3, 0.1, 0.2 + 0.7j), np.linspace(0.0, 1.0, 10**4) + 1j * np.linspace(-1.5, 1.5, 10**4)
    riemann_theta(args, z)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        riemann_theta(args, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25e6


def test_overflow_reported():
    with pytest.raises(OverflowError):
        jacobi_theta3(0.5 + 40.0j, 1j)
