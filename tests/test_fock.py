"""Quasi-periodic space: modes, norms, kernel, growth bound, membership."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetafock.bargmann import LineElement
from thetafock.core import DomainError
from thetafock.fock import (
    FockElement,
    SpaceParams,
    basis_e,
    basis_psi,
    e_norm,
    membership_log_partial_sums,
    periodic_part,
    pointwise_bound,
    quasiperiod_factor,
    quasiperiod_residual,
    reproducing_kernel,
    theta_member,
    theta_membership,
)
from thetafock.landau import LandauElement
from thetafock.quadrature import StripScheme, strip_inner_product
from thetafock.theta import ThetaArgs

PARAMS = SpaceParams(math.pi, 0.3)


def test_space_params_validation():
    with pytest.raises(DomainError):
        SpaceParams(0.0, 0.3)
    with pytest.raises(DomainError):
        SpaceParams(-1.0, 0.3)
    with pytest.raises(DomainError):
        SpaceParams(math.pi, math.inf)


def test_e_norm_closed_form_vs_quadrature():
    for n in (-2, 0, 1, 3):
        scheme = StripScheme.centered(PARAMS.nu, PARAMS.alpha, n)
        ip = strip_inner_product(
            lambda z: basis_e(n, z, PARAMS), lambda z: basis_e(n, z, PARAMS), PARAMS.nu, scheme
        )
        assert abs(math.sqrt(ip.real) - e_norm(n, PARAMS)) <= 1e-8 * e_norm(n, PARAMS)


def test_e_norm_overflow():
    with pytest.raises(OverflowError):
        e_norm(50, SpaceParams(0.7, 0.0))


def test_psi_is_normalized_e():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(0, 1), rng.uniform(-1, 1))
        for n in (-3, 0, 2):
            ref = basis_e(n, z, PARAMS) / e_norm(n, PARAMS)
            assert abs(basis_psi(n, z, PARAMS) - ref) <= 1e-12 * max(1.0, abs(ref))


# The residual compares f(z+m) against factor*f(z); the factor's modulus
# e^{nu*m*(Re z + m/2)} amplifies double-precision rounding, so the 1e-10
# certification holds on the central band of the unit period strip.  Sampling
# |Re z| <= 0.25 keeps the measured worst case near 3e-11 (>= 4x margin).
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=-3, max_value=3),
    m=st.integers(min_value=-2, max_value=2),
    zr=st.floats(min_value=-0.25, max_value=0.25),
    zi=st.floats(min_value=-1.0, max_value=1.0),
)
def test_basis_quasiperiodicity(n, m, zr, zi):
    z = complex(zr, zi)
    res = quasiperiod_residual(lambda w: basis_e(n, w, PARAMS), z, m, PARAMS)
    assert res <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=-2, max_value=2),
    zr=st.floats(min_value=-0.25, max_value=0.25),
    zi=st.floats(min_value=-1.0, max_value=1.0),
)
def test_element_quasiperiodicity(data, m, zr, zi):
    ns = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3, unique=True)
    )
    coeffs = {
        n: complex(
            data.draw(st.floats(min_value=-1.5, max_value=1.5)),
            data.draw(st.floats(min_value=-1.5, max_value=1.5)),
        )
        for n in ns
    }
    elem = FockElement(PARAMS, coeffs)
    res = quasiperiod_residual(elem.evaluate, complex(zr, zi), m, PARAMS)
    assert res <= 1e-10


def test_element_quasiperiodicity_fixed_grid():
    elem = FockElement.from_psi_coeffs(PARAMS, {-1: 0.5 + 0.2j, 0: 1.0, 2: -0.3j})
    for m in (-2, -1, 1, 2):
        for z in (0.1 + 0.4j, -0.2 - 0.7j, 0.25j, 0.2 - 1.0j):
            assert quasiperiod_residual(elem.evaluate, z, m, PARAMS) <= 1e-10


def test_theta_member_quasiperiodicity():
    f = theta_member(ThetaArgs(PARAMS.alpha, 0.1, 2j), PARAMS)
    for m in (-1, 1, 2):
        assert quasiperiod_residual(f, 0.2 - 0.3j, m, PARAMS) <= 1e-10


def test_theta_member_overflow_raises():
    f = theta_member(ThetaArgs(PARAMS.alpha, 0.1, 2j), PARAMS)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError):
            f(30)
        with pytest.raises(OverflowError):
            f(np.array([0.1, 30.0]))


def test_quasiperiod_factor_cocycle():
    # factor(z, m1+m2) = factor(z+m2, m1) * factor(z, m2)
    z = 0.3 + 0.7j
    for m1, m2 in [(1, 1), (2, -1), (-2, 3)]:
        lhs = quasiperiod_factor(z, m1 + m2, PARAMS)
        rhs = quasiperiod_factor(z + m2, m1, PARAMS) * quasiperiod_factor(z, m2, PARAMS)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_periodic_part_is_periodic():
    elem = FockElement.from_psi_coeffs(PARAMS, {0: 1.0, 1: 0.5})
    for z in (0.1 + 0.4j, 0.7 - 0.2j):
        a = periodic_part(elem.evaluate, z, PARAMS)
        b = periodic_part(elem.evaluate, z + 1.0, PARAMS)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_element_json_round_trip():
    elem = FockElement(PARAMS, {0: 1.0 + 0.5j, -2: 0.25})
    back = FockElement.from_json(elem.to_json())
    assert back == elem
    assert back.to_dict() == elem.to_dict()


def test_element_records_share_one_format():
    params = SpaceParams(0.5, 0.25)
    fock = FockElement(params, {1: 0.5 - 0.25j, -1: 2.0})
    assert fock.to_json() == (
        '{"nu": 0.5, "alpha": 0.25, "coeffs": ['
        '{"n": -1, "re": 2.0, "im": 0.0}, {"n": 1, "re": 0.5, "im": -0.25}]}'
    )
    line = LineElement(0.25, {3: 1.5j, 0: -1.0})
    assert line.to_json() == (
        '{"alpha": 0.25, "coeffs": [{"n": 0, "re": -1.0, "im": 0.0}, {"n": 3, "re": 0.0, "im": 1.5}]}'
    )
    landau = LandauElement(params, {(2, -1): 0.75, (0, 4): 0.25 - 0.5j})
    assert landau.to_json() == (
        '{"nu": 0.5, "alpha": 0.25, "coeffs": ['
        '{"m": 0, "n": 4, "re": 0.25, "im": -0.5}, {"m": 2, "n": -1, "re": 0.75, "im": 0.0}]}'
    )
    for elem in (fock, line, landau):
        assert type(elem).from_json(elem.to_json()) == elem


def test_element_rejects_malformed():
    with pytest.raises(DomainError):
        FockElement.from_dict({"nu": math.pi, "coeffs": []})
    with pytest.raises(DomainError):
        FockElement.from_dict({"nu": math.pi, "alpha": 0.3, "coeffs": [{"n": 0}]})
    with pytest.raises(DomainError):
        FockElement.from_dict({"nu": math.pi, "alpha": 0.3, "coeffs": [{"n": 0, "re": "x", "im": 0}]})


def test_element_keys_must_be_integral():
    with pytest.raises(DomainError):
        FockElement(PARAMS, {0.5: 1.0})
    with pytest.raises(DomainError):
        LandauElement(PARAMS, {(0, 1.5): 1.0})
    with pytest.raises(DomainError):
        LineElement.from_dict({"alpha": 0.3, "coeffs": [{"n": 0.5, "re": 1, "im": 0}]})
    assert FockElement(PARAMS, {2.0: 1.0}).coeff_dict() == {2: 1.0}
    assert LandauElement(PARAMS, {(1.0, -2.0): 1.0}).coeff_dict() == {(1, -2): 1.0}
    assert LineElement.from_dict({"alpha": 0.3, "coeffs": [{"n": 2.0, "re": 1, "im": 0}]}).coeff_dict() == {2: 1.0}


def test_norm_homogeneity_and_parseval():
    elem = FockElement.from_psi_coeffs(PARAMS, {-1: 0.6, 0: 1.0, 2: -0.3j})
    # orthonormal coefficients: norm^2 = sum |c_n|^2
    assert elem.norm() ** 2 == pytest.approx(0.36 + 1.0 + 0.09, rel=1e-12)
    scheme = StripScheme.centered(PARAMS.nu, PARAMS.alpha, 0)
    quad = strip_inner_product(elem.evaluate, elem.evaluate, PARAMS.nu, scheme)
    assert math.sqrt(quad.real) == pytest.approx(elem.norm(), rel=1e-6)


def test_kernel_hermitian_and_psd():
    pts = [0.1 + 0.2j, 0.4 - 0.3j, 0.7 + 0.1j, 0.9 - 0.1j, 0.25 + 0.55j, 0.6 + 0.0j]
    gram = np.array([[reproducing_kernel(z, w, PARAMS) for w in pts] for z in pts])
    assert np.allclose(gram, gram.conj().T, rtol=0, atol=1e-9 * np.max(np.abs(gram)))
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_kernel_two_paths_agree():
    for z, w in [(0.3 + 0.4j, 0.7 - 0.2j), (0.1 - 0.5j, 0.9 + 0.3j)]:
        kt = reproducing_kernel(z, w, PARAMS, path="theta")
        ks = reproducing_kernel(z, w, PARAMS, path="sum")
        assert abs(kt - ks) <= 1e-9 * abs(kt)
    with pytest.raises(DomainError):
        reproducing_kernel(0.1, 0.1, PARAMS, path="nope")


def test_kernel_reproduces_mode():
    w = 0.6 - 0.2j
    scheme = StripScheme.centered(PARAMS.nu, PARAMS.alpha, 1)
    ip = strip_inner_product(
        lambda z: basis_psi(1, z, PARAMS), lambda z: reproducing_kernel(z, w, PARAMS), PARAMS.nu, scheme
    )
    ref = basis_psi(1, w, PARAMS)
    assert abs(ip - ref) <= 1e-6 * max(1.0, abs(ref))


def test_pointwise_bound_dominates_modes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = complex(rng.uniform(0, 1), rng.uniform(-1, 1))
        bound = pointwise_bound(z, PARAMS)
        for n in (-2, 0, 1, 3):
            assert abs(basis_psi(n, z, PARAMS)) <= bound * (1.0 + 1e-12)


def test_growth_bound_random_elements():
    rng = np.random.default_rng(5)
    for _ in range(10):
        support = rng.choice(np.arange(-3, 4), size=3, replace=False)
        coeffs = {int(n): complex(*rng.standard_normal(2)) for n in support}
        elem = FockElement.from_psi_coeffs(PARAMS, coeffs)
        z = complex(rng.uniform(0, 1), rng.uniform(-1, 1))
        assert abs(elem.evaluate(z)) <= elem.norm() * pointwise_bound(z, PARAMS) * (1.0 + 1e-9)


def test_membership_decisions():
    cases = [
        (SpaceParams(math.pi, 0.3), 2.0j, True),
        (SpaceParams(math.pi, 0.3), 1.2j, True),
        (SpaceParams(math.pi, 0.3), 1.0j, False),  # boundary Im tau = pi/nu
        (SpaceParams(math.pi, 0.3), 0.5j, False),
        (SpaceParams(2.0, -0.25), 2.0j, True),
        (SpaceParams(2.0, -0.25), 1.5j, False),
    ]
    for params, tau, expect in cases:
        result = theta_membership(ThetaArgs(params.alpha, 0.1, tau), params)
        assert result.in_space is expect
        assert (result.norm is None) == (not expect)


def test_membership_norm_value_and_quadrature():
    targs = ThetaArgs(PARAMS.alpha, 0.1, 2j)
    result = theta_membership(targs, PARAMS)
    assert result.norm == pytest.approx(0.6589775957622392, rel=1e-12)
    member = theta_member(targs, PARAMS)
    scheme = StripScheme.centered(PARAMS.nu, PARAMS.alpha, 0)
    quad = math.sqrt(strip_inner_product(member, member, PARAMS.nu, scheme).real)
    assert quad == pytest.approx(result.norm, rel=1e-6)


def test_membership_divergence_certificate():
    for tau in (1.0j, 0.5j):
        logs = membership_log_partial_sums(ThetaArgs(PARAMS.alpha, 0.1, tau), PARAMS)
        assert all(b > a for a, b in zip(logs, logs[1:]))
    # convergent case: partial sums stabilize instead of growing
    logs = membership_log_partial_sums(ThetaArgs(PARAMS.alpha, 0.1, 2j), PARAMS)
    assert abs(logs[-1] - logs[-2]) <= 1e-12


def test_membership_character_mismatch():
    with pytest.raises(DomainError):
        theta_membership(ThetaArgs(0.1, 0.0, 2j), PARAMS)
    # alpha differing by an integer is the same character
    result = theta_membership(ThetaArgs(PARAMS.alpha + 1.0, 0.0, 2j), PARAMS)
    assert result.in_space


def test_dominant_index():
    elem = FockElement.from_psi_coeffs(PARAMS, {-3: 1.0j, 1: 0.7, 3: 0.2 - 0.1j})
    assert elem.dominant_index() == -3
