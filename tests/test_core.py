"""Scalar building blocks: Hermite recurrence, character, bilateral sums."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from thetafock.core import (
    MAX_TERMS,
    DomainError,
    TruncationBudget,
    TruncationError,
    bilateral_sum,
    character,
    hermite_poly,
)


def test_hermite_low_degrees():
    assert hermite_poly(0, 0.7) == 1.0
    assert hermite_poly(1, 2.5) == 5.0
    assert hermite_poly(3, 1.0) == -4.0  # 8x^3 - 12x at x = 1


def test_hermite_matches_scipy():
    xs = np.linspace(-5.0, 5.0, 41)
    for m in range(0, 13):
        ours = hermite_poly(m, xs)
        ref = scipy.special.eval_hermite(m, xs)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-8)


def test_hermite_equals_the_plain_recurrence_at_every_degree():
    # the recurrence as written, 2.0*x*h - 2.0*k*h_prev, at degrees below and past the table of factors 2k
    xs = np.linspace(-9.0, 9.0, 37)
    for m in range(71):
        ref = []
        for x in xs:
            h_prev, h = 1.0, 2.0 * x
            for k in range(1, m):
                h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
            ref.append(h if m else 1.0)
        assert [hermite_poly(m, float(x)) for x in xs] == ref == list(hermite_poly(m, xs)), m


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=30), x=st.floats(min_value=-5.0, max_value=5.0))
def test_hermite_recurrence_property(m, x):
    lhs = hermite_poly(m + 1, x)
    rhs = 2.0 * x * hermite_poly(m, x) - 2.0 * m * hermite_poly(m - 1, x)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_hermite_rejects_bad_degree():
    with pytest.raises(DomainError):
        hermite_poly(-1, 0.0)
    with pytest.raises(DomainError):
        hermite_poly(1.5, 0.0)


def test_hermite_overflow():
    with pytest.raises(OverflowError):
        hermite_poly(40, 1e60)


def test_character_frozen_value():
    val = character(0.3, 1)
    assert val.real == pytest.approx(math.cos(0.6 * math.pi), abs=1e-15)
    assert val.imag == pytest.approx(math.sin(0.6 * math.pi), abs=1e-15)
    assert character(0.3, 0) == 1.0


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(min_value=-1.0, max_value=1.0),
    m1=st.integers(min_value=-10**6, max_value=10**6),
    m2=st.integers(min_value=-10**6, max_value=10**6),
)
def test_character_multiplicative(alpha, m1, m2):
    lhs = character(alpha, m1 + m2)
    rhs = character(alpha, m1) * character(alpha, m2)
    assert abs(lhs - rhs) <= 1e-14


def test_character_unit_modulus():
    for m in (-7, 1, 123456):
        assert abs(abs(character(0.37, m)) - 1.0) <= 1e-15


def test_character_rejects_noninteger():
    with pytest.raises(DomainError):
        character(0.3, 0.5)


def test_bilateral_sum_gaussian_series():
    ref = sum(math.exp(-float(n) ** 2) for n in range(-40, 41))
    val = bilateral_sum(lambda n: math.exp(-float(n) ** 2), 0)
    assert complex(val).real == pytest.approx(ref, rel=1e-14)


def test_bilateral_sum_off_center():
    # same series, started far from the peak; the driver must walk back
    ref = sum(math.exp(-((n - 6.3) ** 2)) for n in range(-40, 60))
    val = bilateral_sum(lambda n: math.exp(-((n - 6.3) ** 2)), 0)
    assert complex(val).real == pytest.approx(ref, rel=1e-13)


def test_bilateral_sum_budget_exhaustion():
    # an algebraic tail, ~1/(pi N) of the sum after N terms a side, is not below tol within the cap
    with pytest.raises(TruncationError, match="^bilateral series not certified after 10000 one-sided terms;"):
        bilateral_sum(lambda n: 1.0 / (1.0 + n * n), 0, TruncationBudget(tol=1e-12))


def test_budget_validation():
    with pytest.raises(DomainError):
        TruncationBudget(tol=0.0)
    with pytest.raises(DomainError):
        TruncationBudget(tol=-1e-9)
    assert TruncationBudget._fields == ("tol",) and MAX_TERMS == 10000
