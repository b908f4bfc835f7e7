"""Line space, transform kernels, transport, and the inverse transform."""

import cmath
import json
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from thetafock.bargmann import (
    LineElement,
    bargmann_inverse,
    bargmann_kernel_A,
    bargmann_pointwise,
    bargmann_transform_coeffs,
    generating_kernel_G,
    generating_kernel_sum,
    phi_basis,
)
from thetafock.core import DomainError, TruncationBudget, TruncationError
from thetafock.fock import FockElement, SpaceParams, basis_psi, pointwise_bound
from thetafock.quadrature import SQRT2, StripScheme, line_inner_product, strip_inner_product

PARAMS = SpaceParams(math.pi, 0.3)


def test_phi_quasiperiodicity():
    for n in (-2, 0, 3):
        for q in (0.0, 0.4, 1.1):
            lhs = phi_basis(n, q + SQRT2, 0.3)
            rhs = cmath.exp(2j * math.pi * 0.3) * phi_basis(n, q, 0.3)
            assert abs(lhs - rhs) <= 1e-14


def test_phi_orthonormal():
    for n, m in [(0, 0), (2, 2), (0, 3), (-1, 2)]:
        ip = line_inner_product(lambda q: phi_basis(n, q, 0.3), lambda q: phi_basis(m, q, 0.3))
        assert abs(ip - (1.0 if n == m else 0.0)) <= 1e-10


def test_line_element_json_round_trip():
    elem = LineElement(0.3, {0: 1.0, 2: 0.5 - 0.3j})
    back = LineElement.from_dict(json.loads(json.dumps(elem.to_dict())))
    assert back == elem
    assert back.norm() == pytest.approx(math.sqrt(1.0 + 0.34), rel=1e-14)


def test_transform_transport_single_modes():
    for n in (-1, 0, 2):
        for z in (0.2 + 0.1j, 0.8 - 0.4j):
            value = bargmann_pointwise(lambda q: phi_basis(n, q, PARAMS.alpha), z, PARAMS)
            ref = basis_psi(n, z, PARAMS)
            assert abs(value - ref) <= 1e-8 * max(1.0, abs(ref))


def test_transform_is_linear():
    elem = LineElement(PARAMS.alpha, {0: 1.0, 2: 0.5 - 0.3j, -1: 0.25j})
    z = 0.4 + 0.3j
    value = bargmann_pointwise(elem.evaluate, z, PARAMS)
    ref = sum(b * basis_psi(n, z, PARAMS) for n, b in elem.coeffs)
    assert abs(value - ref) <= 1e-8 * max(1.0, abs(ref))


def test_transform_coeffs_isometry():
    elem = LineElement(PARAMS.alpha, {0: 1.0, 2: 0.5 - 0.3j, -1: 0.25j})
    fock_elem = bargmann_transform_coeffs(elem, PARAMS.nu)
    assert fock_elem.norm() == pytest.approx(elem.norm(), rel=1e-12)
    # coefficient transport equals pointwise transform
    z = 0.25 - 0.15j
    assert fock_elem.evaluate(z) == pytest.approx(bargmann_pointwise(elem.evaluate, z, PARAMS), rel=1e-9)


def test_kernel_equals_generating_series():
    for params in (PARAMS, SpaceParams(2.0, -0.25)):
        for z in (0.1 + 0.3j, 0.6 - 0.2j):
            for q in (0.0, 0.5, 1.3):
                a = bargmann_kernel_A(z, q, params)
                g = generating_kernel_G(z, q, params)
                s = generating_kernel_sum(z, q, params)
                assert abs(a - g) <= 1e-9 * abs(g)
                assert abs(s - g) <= 1e-9 * abs(g)


def test_kernels_raise_on_overflow():
    # the Gaussian factor leaves the double range; the theta factor stays finite or underflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError):
            bargmann_kernel_A(25j, 0.4, PARAMS)
        with pytest.raises(OverflowError):
            generating_kernel_G(25, 0.4, PARAMS)


def test_inverse_recovers_line_element():
    elem = LineElement(PARAMS.alpha, {0: 1.0, 2: 0.5 - 0.3j, -1: 0.25j})
    fock_elem = bargmann_transform_coeffs(elem, PARAMS.nu)
    for q in (0.1, 0.7, 1.2):
        value = bargmann_inverse(fock_elem, q)
        ref = elem.evaluate(q)
        assert abs(value - ref) <= 1e-8 * max(1.0, abs(ref))


def test_inverse_of_single_mode_is_phi():
    fock_elem = bargmann_transform_coeffs(LineElement(PARAMS.alpha, {1: 1.0}), PARAMS.nu)
    qs = np.array([0.2, 0.9])
    values = bargmann_inverse(fock_elem, qs)
    refs = phi_basis(1, qs, PARAMS.alpha)
    assert np.allclose(values, refs, rtol=0, atol=1e-10)
    assert values.tolist() == pytest.approx([bargmann_inverse(fock_elem, q) for q in qs], rel=1e-14)


def test_inverse_memory_flat_in_number_of_q():
    fock_elem = bargmann_transform_coeffs(LineElement(PARAMS.alpha, {-1: 0.5, 0: 1.0, 1: 0.3j}), 3.0)
    bargmann_inverse(fock_elem, 0.3)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        bargmann_inverse(fock_elem, np.linspace(0.0, SQRT2, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_inverse_vector_q_equals_scalar_calls_across_blocks():
    fock_elem = bargmann_transform_coeffs(LineElement(PARAMS.alpha, {0: 1.0, 2: 0.5 - 0.3j}), PARAMS.nu)
    n = 19  # a 2-d array of q
    qs = np.linspace(0.05, 1.35, n).reshape(n, 1)
    values = bargmann_inverse(fock_elem, qs)
    assert values.shape == qs.shape
    assert values.ravel().tolist() == [bargmann_inverse(fock_elem, float(q)) for q in qs.ravel()]


def _strip_pairing(elem, q):
    """<f, G(., q)> by linearity: sum of c_n <psi_n, G(., q)>, each on a strip rule centred on psi_n's bump."""
    p = elem.params
    return sum(c * strip_inner_product(lambda z, n=n: basis_psi(n, z, p), lambda z: generating_kernel_G(z, q, p), p.nu,
                                       StripScheme.centered(p.nu, p.alpha, n)) for n, c in elem.psi_coeffs().items())


@pytest.mark.parametrize("params, coeffs", [
    (PARAMS, {0: 1.0, 2: 0.5 - 0.3j, -1: 0.25j}),
    (PARAMS, {1: 1.0}),
    (SpaceParams(3.0, 0.3), {-1: 0.5, 0: 1.0, 1: 0.3j}),
    (PARAMS, {-2: 0.4j, 0: 1.0, 3: -0.6}),
    (SpaceParams(0.5, 0.3), {0: 1.0, 3: 0.5}),  # bumps far apart: y_0 = -1.9, y_3 = -20.7
    (SpaceParams(1.0, 0.3), {0: 1.0, 3: 0.5}),
])
def test_inverse_equals_strip_pairing_against_G(params, coeffs):
    # the closed form sum c_n phi_n against the quadrature oracle <f, G(., q)>, criterion 08's tolerance
    elem = FockElement.from_psi_coeffs(params, coeffs)
    for q in (0.1, 0.4, 1.2):
        ref = _strip_pairing(elem, q)
        assert abs(bargmann_inverse(elem, q) - ref) <= 1e-8 * max(1.0, abs(ref)), q


def _mp_phi(n, q, alpha):
    return mp.mpf(2) ** -0.25 * mp.expjpi(mp.sqrt(2) * (n + mp.mpf(alpha)) * q)


def test_inverse_of_far_apart_modes_against_mpmath():
    elem = FockElement.from_psi_coeffs(SpaceParams(0.5, 0.3), {0: 1.0, 3: 0.5})
    with mp.workdps(40):
        ref = complex(_mp_phi(0, 0.4, 0.3) + _mp_phi(3, 0.4, 0.3) / 2)
    assert ref == pytest.approx(1.1083401347588433 + 0.25648478850416345j, rel=1e-15)
    assert bargmann_inverse(elem, 0.4) == pytest.approx(ref, rel=1e-14)


def test_coefficient_past_the_double_range_of_e_n():
    # a_6 = 1e-300 against ||e_6|| ~ e^783 at nu = 0.5: c_6 ~ 2.35e40 is finite, though ||e_6|| is not
    params = SpaceParams(0.5, 0.3)
    elem = FockElement(params, {6: 1e-300})
    with mp.workdps(40):
        e6 = (mp.pi / (2 * mp.mpf(params.nu))) ** 0.25 * mp.exp(mp.pi**2 / params.nu * (6 + mp.mpf(0.3)) ** 2)
        c6, value = float(mp.mpf(1e-300) * e6), complex(mp.mpf(1e-300) * e6 * _mp_phi(6, 0.4, 0.3))
    # log|c_6| = log|a_6| + log||e_6|| = -690.8 + 783.6 carries ~1e-13 of rounding into c_6
    assert elem.norm() == pytest.approx(c6, rel=1e-12)
    assert elem.psi_coeffs().keys() == {6} and elem.psi_coeffs()[6] == pytest.approx(c6, rel=1e-12)
    assert elem.dominant_index() == 6
    assert bargmann_inverse(elem, 0.4) == pytest.approx(value, rel=1e-12)
    assert (c6, value) == pytest.approx((2.354782136056e40, 3.9434294e39 - 1.9404639e40j), rel=1e-7)


def test_element_value_past_the_double_range_raises():
    line = LineElement(0.3, {-40: 1.0, 40: 1.0})  # each term overflows at 0.1 - 9i
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy warns of none of it
        with pytest.raises(OverflowError, match="element value overflowed the double range"):
            line.evaluate(0.1 - 9j)
        with pytest.raises(OverflowError, match="element value overflowed the double range"):
            line.evaluate(np.array([0.2 + 0.1j, 0.1 - 9j]))
        with pytest.raises(OverflowError, match="element value overflowed the double range"):
            bargmann_inverse(FockElement.from_psi_coeffs(PARAMS, {0: 1e308, 1: 1e308}), 0.0)


def test_line_element_whose_exponential_alone_leaves_the_double_range():
    # the element leaves through core._finite_exp, which moves the coefficient's binary exponent into the exponent:
    # e^-733 at q = 1.65i is subnormal while 1e300 times it is 3.58e-19 (a product with it was 7.0e-6 off), and
    # e^733 at -1.65i overflows while 1e-320 times it is 0.0197, a subnormal coefficient shifted as the least normal.
    # 2^(-1/4) rides in the exponent, so a subnormal coefficient keeps its bits in range too (at -1.5i)
    for b, q in ((1e300, 1.65j), (1e-320, -1.65j), (1e-320, -1.5j)):
        elem = LineElement(0.0, {100: b})
        with mp.workdps(40):
            ref = complex(mp.mpf(b) * _mp_phi(100, mp.mpc(q), 0.0))
        value = elem.evaluate(q)
        assert value == elem.evaluate(np.array([q]))[0]
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_round_trip_composition():
    elem = LineElement(PARAMS.alpha, {-2: 0.4j, 0: 1.0, 3: -0.6})
    fock_elem = bargmann_transform_coeffs(elem, PARAMS.nu)
    back = bargmann_inverse(fock_elem, 0.55)
    forward_again = bargmann_pointwise(elem.evaluate, 0.3 + 0.2j, PARAMS)
    assert abs(back - elem.evaluate(0.55)) <= 1e-8
    assert abs(forward_again - fock_elem.evaluate(0.3 + 0.2j)) <= 1e-8


def test_pointwise_stops_relative_to_the_value():
    # |psi_3(z)| ~ 1.8e6 here, so the rounding of the rule is far above an absolute 1e-12
    params, z = SpaceParams(3.624, -0.494), 0.42 - 3.011j
    value = bargmann_pointwise(lambda q: phi_basis(3, q, params.alpha), z, params)
    ref = basis_psi(3, z, params)
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_pointwise_budget_exhaustion():
    phi = lambda q: phi_basis(0, q, PARAMS.alpha)
    with pytest.raises(TruncationError):
        bargmann_pointwise(phi, 0.2 + 0.1j, PARAMS, TruncationBudget(tol=1e-18))


# The stop is relative to sum |node term|, which scales with phi, so the certificate of s * phi_0 does not depend
# on s up to the edge of the double range.
SCALED_PARAMS, SCALES = SpaceParams(3.0, 0.3), (1e-250, 1e155, 1e290)


def _scaled_phi0(s):
    return lambda q: s * phi_basis(0, q, SCALED_PARAMS.alpha)


@pytest.mark.parametrize("s", SCALES)
def test_pointwise_scales_with_phi_at_the_bump(s):
    z = 0.3 - 0.3j
    value = bargmann_pointwise(_scaled_phi0(s), z, SCALED_PARAMS)
    assert abs(value / s - bargmann_pointwise(_scaled_phi0(1.0), z, SCALED_PARAMS)) <= 1e-12 * abs(value / s)


@pytest.mark.parametrize("s", SCALES)
def test_pointwise_scales_with_phi_where_it_cancels(s):
    # |psi_0(z)| ~ 4.8e-9 against K(z,z)^(1/2) ~ 9.0e5: the value is certified only relative to sum |node term|
    z = 0.3 + 3j
    value = bargmann_pointwise(_scaled_phi0(s), z, SCALED_PARAMS)
    assert abs(value / s - basis_psi(0, z, SCALED_PARAMS)) <= 1e-12 * pointwise_bound(z, SCALED_PARAMS)


def test_pointwise_overflow_raises_with_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^Bargmann transform overflowed the double range$"):
            bargmann_pointwise(_scaled_phi0(1e300), 0.3 + 8j, SCALED_PARAMS)


def test_line_element_validation():
    with pytest.raises(DomainError):
        LineElement(math.nan, {0: 1.0})
    with pytest.raises(DomainError):
        LineElement.from_dict({"coeffs": []})


def test_line_element_sum_matches_per_mode_sum():
    # 1 to 40 modes with gaps; q over three periods of the line, where Horner in the unimodular
    # exp(sqrt(2) i pi q) stays within rounding of the per-mode sum
    rng = np.random.default_rng(19)
    for _ in range(40):
        alpha = float(rng.uniform(-0.5, 0.5))
        pool = np.arange(-30, 31)
        ns = sorted(int(n) for n in rng.choice(pool, int(rng.integers(1, 41)), replace=False))
        coeffs = dict(zip(ns, rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))))
        q = rng.uniform(-SQRT2, 2.0 * SQRT2, 50)
        values = LineElement(alpha, coeffs).evaluate(q)
        for x, value in zip(q, values):
            terms = [b * phi_basis(n, float(x), alpha) for n, b in coeffs.items()]
            assert abs(value - sum(terms)) <= 1e-12 * math.fsum(abs(t) for t in terms)


def test_line_element_value_depends_on_its_point_only():
    rng = np.random.default_rng(3)
    elem = LineElement(0.2, {n: complex(*rng.standard_normal(2)) for n in (-7, -2, 0, 1, 5, 9)})
    q = rng.uniform(-1.0, 3.0, 200)
    whole = elem.evaluate(q)
    for i in range(q.size):
        assert whole[i] == elem.evaluate(q[i : i + 1])[0] == elem.evaluate(float(q[i]))


def test_line_element_few_modes_over_a_wide_span():
    # Horner takes one exp per distinct gap, so a wide span costs no more than a narrow one
    elem = LineElement(0.2, {-300: 1.0, 0: 0.5j, 300: -2.0, 301: 1.0})
    q = np.linspace(-1.0, 3.0, 101)
    for x, value in zip(q, elem.evaluate(q)):
        terms = [b * phi_basis(n, float(x), 0.2) for n, b in elem.coeffs]
        assert abs(value - sum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


def test_line_element_off_the_line():
    # below the line exp(sqrt(2) i pi q) grows, and Horner runs from the lowest index instead
    rng = np.random.default_rng(29)
    for _ in range(20):
        alpha = float(rng.uniform(-0.5, 0.5))
        ns = sorted(int(n) for n in rng.choice(np.arange(-40, 41), int(rng.integers(1, 41)), replace=False))
        elem = LineElement(alpha, dict(zip(ns, rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns)))))
        q = rng.uniform(0.0, SQRT2, 40) + 1j * rng.uniform(-3.0, 3.0, 40)
        for x, value in zip(q, elem.evaluate(q)):
            terms = [b * phi_basis(n, complex(x), alpha) for n, b in elem.coeffs]
            assert abs(value - sum(terms)) <= 1e-12 * math.fsum(abs(t) for t in terms)
            assert value == elem.evaluate(complex(x))
