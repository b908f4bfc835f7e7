"""Quasi-periodic space: modes, norms, kernel, growth bound, membership."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetafock.bargmann import LineElement, bargmann_inverse, phi_basis
from thetafock.core import DomainError
from thetafock.fock import (
    FockElement,
    SpaceParams,
    basis_e,
    basis_psi,
    e_norm,
    pointwise_bound,
    quasiperiod_factor,
    quasiperiod_residual,
    reproducing_kernel,
    theta_member,
    theta_membership,
)
from thetafock.landau import LandauElement, basis_psi_mn
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


def test_space_params_store_python_floats():
    # a np.float32 nu would keep float32 arithmetic through numpy's promotion rules
    narrow, wide = SpaceParams(np.float32(0.5), 0.3), SpaceParams(0.5, 0.3)
    assert repr(narrow) == "SpaceParams(nu=0.5, alpha=0.3)"
    assert basis_psi_mn(3, 1, 0.3 + 0.2j, narrow) == basis_psi_mn(3, 1, 0.3 + 0.2j, wide)
    assert basis_psi(1, 0.3 + 0.2j, narrow) == basis_psi(1, 0.3 + 0.2j, wide)


@pytest.mark.parametrize("mode", [
    lambda n: basis_psi(n, 0.2 + 0.1j, SpaceParams(2.0, 0.3)),
    lambda n: basis_e(n, 0.2 + 0.1j, SpaceParams(2.0, 0.3)),
    lambda n: e_norm(n, SpaceParams(2.0, 0.3)),
    lambda n: phi_basis(n, 0.4, 0.3),
], ids=["basis_psi", "basis_e", "e_norm", "phi_basis"])
def test_mode_index_must_be_an_integer(mode):
    for n in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match=f"^mode index must be an integer, got {n}$"):
            mode(n)
    assert mode(np.int64(2)) == mode(2)


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


def test_quasiperiod_residual_is_relative_to_the_factor():
    # |factor| = 2.6e9 here: the rounding of f(z + 3) is no defect of the law
    elem = FockElement(PARAMS, {-1: 0.8 - 0.3j, 0: 1.0, 2: 0.25j})
    assert abs(quasiperiod_factor(0.8 - 0.3j, 3, PARAMS)) > 1e9
    assert quasiperiod_residual(elem.evaluate, 0.8 - 0.3j, 3, PARAMS) <= 1e-12


def test_quasiperiod_residual_checks_the_step_first():
    calls = []
    with pytest.raises(DomainError, match="lattice step must be an integer"):
        quasiperiod_residual(lambda z: calls.append(z) or 1.0, 0.1j, 1.5, PARAMS)
    assert calls == []


def test_element_json_round_trip():
    elem = FockElement(PARAMS, {0: 1.0 + 0.5j, -2: 0.25})
    back = FockElement.from_dict(json.loads(json.dumps(elem.to_dict())))
    assert back == elem
    assert back.to_dict() == elem.to_dict()


def test_element_records_share_one_format():
    params = SpaceParams(0.5, 0.25)
    fock = FockElement(params, {1: 0.5 - 0.25j, -1: 2.0})
    assert json.dumps(fock.to_dict()) == (
        '{"nu": 0.5, "alpha": 0.25, "coeffs": ['
        '{"n": -1, "re": 2.0, "im": 0.0}, {"n": 1, "re": 0.5, "im": -0.25}]}'
    )
    line = LineElement(0.25, {3: 1.5j, 0: -1.0})
    assert json.dumps(line.to_dict()) == (
        '{"alpha": 0.25, "coeffs": [{"n": 0, "re": -1.0, "im": 0.0}, {"n": 3, "re": 0.0, "im": 1.5}]}'
    )
    landau = LandauElement(params, {(2, -1): 0.75, (0, 4): 0.25 - 0.5j})
    assert json.dumps(landau.to_dict()) == (
        '{"nu": 0.5, "alpha": 0.25, "coeffs": ['
        '{"m": 0, "n": 4, "re": 0.25, "im": -0.5}, {"m": 2, "n": -1, "re": 0.75, "im": 0.0}]}'
    )
    for elem in (fock, line, landau):
        assert type(elem).from_dict(json.loads(json.dumps(elem.to_dict()))) == elem


def test_element_rejects_malformed():
    with pytest.raises(DomainError):
        FockElement.from_dict({"nu": math.pi, "coeffs": []})
    with pytest.raises(DomainError):
        FockElement.from_dict({"nu": math.pi, "alpha": 0.3, "coeffs": [{"n": 0}]})
    with pytest.raises(DomainError):
        FockElement.from_dict({"nu": math.pi, "alpha": 0.3, "coeffs": [{"n": 0, "re": "x", "im": 0}]})
    records = ((FockElement, {"nu": 0.5, "alpha": 0.3}, {"n": 0}), (LineElement, {"alpha": 0.3}, {"n": 0}),
               (LandauElement, {"nu": 0.5, "alpha": 0.3}, {"m": 1, "n": 0}))
    for cls, header, key in records:  # a key given twice is not a choice of the last row
        with pytest.raises(DomainError, match="duplicate key"):
            cls.from_dict({**header, "coeffs": [{**key, "re": 1.0, "im": 0.0}, {**key, "re": 2.0, "im": 0.0}]})
    rows = [{"m": 0, "n": 1, "re": 1, "im": 0}, {"m": 1, "n": 1, "re": 2, "im": 0}]  # one n on two levels is fine
    assert LandauElement.from_dict({"nu": 0.5, "alpha": 0.3, "coeffs": rows}).coeff_dict() == {(0, 1): 1, (1, 1): 2}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_element_record_rejects_non_finite_coefficient(bad):
    records = ((FockElement, {"nu": math.pi, "alpha": 0.3}, {"n": 0}), (LineElement, {"alpha": 0.3}, {"n": 0}),
               (LandauElement, {"nu": math.pi, "alpha": 0.3}, {"m": 1, "n": 0}))
    for cls, header, key in records:
        for part in ({"re": bad, "im": 0.0}, {"re": 1.0, "im": bad}):
            with pytest.raises(DomainError, match="malformed element record"):
                cls.from_dict({**header, "coeffs": [{**key, "re": 1.0, "im": 0.0}, {**key, "n": 1, **part}]})


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


def test_constructors_reject_a_key_given_twice():
    # pairs are not merged into the last one; keys that coincide only once cleaned count as one key
    builds = ((lambda pairs: FockElement(PARAMS, pairs), [(0, 1), (0.0, 2)], "0"),
              (lambda pairs: FockElement.from_psi_coeffs(PARAMS, pairs), [(0, 1), (0, 2)], "0"),
              (lambda pairs: LineElement(0.3, pairs), [(-1, 1), (-1.0, 2)], "-1"),
              (lambda pairs: LandauElement(PARAMS, pairs), [((1, 0), 1), ((1.0, 0.0), 2)], r"\(1, 0\)"))
    for build, pairs, key in builds:
        with pytest.raises(DomainError, match=f"duplicate key {key}$"):
            build(pairs)
        assert build(pairs[1:]) == build(dict(pairs[1:]))  # one pair per key: as the mapping
    assert LineElement(0.3, [(2, 1), (0, 2)]).coeffs == ((0, 2 + 0j), (2, 1 + 0j))


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


@pytest.mark.parametrize("gap", (1e-4, 1e-3, 1e-2))
@pytest.mark.parametrize("params", (PARAMS, SpaceParams(2.0, -0.25)), ids=("pi", "2"))
def test_membership_norm_next_to_the_boundary(gap, params):
    # ||f||^2 = sqrt(pi/(2 nu)) sum exp(-2 pi (n+alpha)^2 gap); at gap 1e-4 its terms fall below 1e-45 past |n| ~ 410
    tau = 1j * (math.pi / params.nu + gap)
    result = theta_membership(ThetaArgs(params.alpha, 0.1, tau), params)
    with mp.workdps(40):
        g, a = mp.mpf(tau.imag - math.pi / params.nu), mp.mpf(params.alpha)  # the gap the library decides on
        series = mp.fsum(mp.exp(-2 * mp.pi * (n + a) ** 2 * g) for n in range(-1500, 1501))
        norm = mp.sqrt(mp.sqrt(mp.pi / (2 * mp.mpf(params.nu))) * series)
    assert result.in_space and result.norm == pytest.approx(float(norm), rel=1e-12)


def test_membership_character_mismatch():
    with pytest.raises(DomainError):
        theta_membership(ThetaArgs(0.1, 0.0, 2j), PARAMS)
    # alpha differing by an integer is the same character
    result = theta_membership(ThetaArgs(PARAMS.alpha + 1.0, 0.0, 2j), PARAMS)
    assert result.in_space


def test_dominant_index():
    elem = FockElement.from_psi_coeffs(PARAMS, {-3: 1.0j, 1: 0.7, 3: 0.2 - 0.1j})
    assert elem.dominant_index() == -3


def _sparse(rng, lo, hi):
    """1 to 40 distinct indices of lo..hi, so that the index set has gaps."""
    pool = np.arange(lo, hi + 1)
    return sorted(int(n) for n in rng.choice(pool, int(rng.integers(1, min(40, pool.size) + 1)), replace=False))


def _rounding(params, z, c):
    """Relative rounding of a mode at z whose |n + alpha| <= c: the exponent is
    formed from terms as large as S = (nu/2)|z|^2 + 2 pi c |z| + (pi^2/nu) c^2,
    so either side carries about eps * S, beyond 1e-12 once |z| is large."""
    size = 0.5 * params.nu * abs(z) ** 2 + 2.0 * math.pi * c * abs(z) + math.pi**2 / params.nu * c * c
    return 4.0 * np.finfo(float).eps * size


def test_element_sum_matches_per_mode_sum():
    # Indices where ||e_n|| stays finite, Im z out past where the terms underflow.
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        params = SpaceParams(float(np.exp(rng.uniform(math.log(0.1), math.log(50.0)))), float(rng.uniform(-0.5, 0.5)))
        reach = math.sqrt(700.0 * params.nu) / math.pi
        ns = _sparse(rng, math.ceil(-params.alpha - reach), math.floor(-params.alpha + reach))
        coeffs = dict(zip(ns, rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))))
        elem = FockElement.from_psi_coeffs(params, coeffs)
        c = max(abs(n + params.alpha) for n in ns)
        ylim = 3.0 * math.pi * (reach + 1.0) / params.nu
        zs, refs = [], []
        for z in rng.uniform(0.0, 1.0, 50) + 1j * rng.uniform(-ylim, ylim, 50):
            try:
                terms = [a * basis_psi(n, complex(z), params) for n, a in coeffs.items()]
            except OverflowError:
                continue
            scale = math.fsum(abs(t) for t in terms)
            if 1e-280 < scale < math.inf:  # the tolerance is relative: no subnormal sums
                zs.append(z)
                refs.append((sum(terms), scale * (1e-12 + _rounding(params, z, c))))
        values = elem.evaluate(np.array(zs))  # finite wherever every term is
        for value, (ref, tol) in zip(values, refs):
            assert abs(value - ref) <= tol, (params, ns, value, ref)
        checked += len(zs)
    assert checked > 1500


def test_element_value_depends_on_its_point_only():
    rng = np.random.default_rng(5)
    params = SpaceParams(math.pi, 0.0)  # the peak -nu Im z/pi - alpha is Im z' negative
    elem = FockElement.from_psi_coeffs(params, {n: complex(*rng.standard_normal(2)) for n in (-6, -3, -2, 0, 1, 4)})
    ties = rng.uniform(0.0, 1.0, 16) - 1j * (np.arange(-8, 8) + 0.5)
    z = np.concatenate([ties, rng.uniform(0.0, 1.0, 200) + 1j * rng.uniform(-9.0, 9.0, 200)])
    peak = -params.nu * z.imag / math.pi - params.alpha
    assert np.count_nonzero(peak % 1.0 == 0.5) >= 8  # a tie between two keys goes to the lower one on both routes
    whole = elem.evaluate(z)
    for i in range(z.size):
        assert whole[i] == elem.evaluate(z[i : i + 1])[0] == elem.evaluate(complex(z[i]))


def test_element_past_the_range_of_e_n():
    # e_16(0.3 - 10i) overflows a double, while each psi_n term and the sum are finite.
    params = SpaceParams(6.0, 0.3)
    z = 0.3 - 10j
    value = FockElement.from_psi_coeffs(params, dict.fromkeys(range(-20, 20), 1.0)).evaluate(z)
    with mp.workdps(30):
        nu, w = mp.mpf(params.nu), mp.mpc(z.real, z.imag)
        cs = [n + mp.mpf(params.alpha) for n in range(-20, 20)]
        terms = [mp.exp(nu / 2 * w * w + 2j * mp.pi * c * w - mp.pi**2 / nu * c * c) for c in cs]
        ref = complex((2 * nu / mp.pi) ** 0.25 * mp.fsum(terms))
    assert abs(value - ref) <= 1e-12 * abs(ref)
    assert value == pytest.approx(2.0791508e130 - 2.3735034e130j, rel=1e-7)
    # ||e_6|| ~ e^783 overflows at nu = 0.5, while a_6 ||e_6|| and a_6 e_6(z) do not
    params = SpaceParams(0.5, 0.3)
    ref = 1e-300 * (basis_e(0, z, params) + basis_e(6, z, params))
    assert abs(FockElement(params, {0: 1e-300, 6: 1e-300}).evaluate(z) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("nu", [0.008, 0.01, 0.012])
def test_element_sum_where_the_step_constant_underflows(nu):
    # exp(-pi^2/nu) underflows below nu = pi^2/745, while psi_{n+1}/psi_n stays near 1 midway between two peaks
    params = SpaceParams(nu, 0.3)
    elem = FockElement.from_psi_coeffs(params, {-1: 1.0, 0: 0.5j})
    for peak in np.linspace(-0.7, 0.3, 21):
        z = complex(0.3, -math.pi * (peak + params.alpha) / nu)
        terms = [basis_psi(-1, z, params), 0.5j * basis_psi(0, z, params)]
        assert abs(elem.evaluate(z) - sum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


def test_norm_forms_each_product_before_squaring():
    # ||e_5||^2 ~ e^554 overflows; |a_5| ||e_5|| = 1 does not
    assert FockElement.from_psi_coeffs(SpaceParams(0.5, 0.3), {5: 1.0}).norm() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_norm_of_coefficients_whose_squares_leave_the_double_range(size):
    params = SpaceParams(0.5, 0.3)
    for elem in (LineElement(0.3, {0: size}), LandauElement(params, {(0, 0): size}),
                 FockElement.from_psi_coeffs(params, {0: size})):
        assert elem.norm() == size
    assert LineElement(0.3, {0: 3.0 * size, 1: 4.0 * size}).norm() == pytest.approx(5.0 * size, rel=1e-15)
    assert FockElement(params, {0: size}).norm() == pytest.approx(size * e_norm(0, params), rel=1e-12)  # via log|c_0|
    with pytest.raises(OverflowError, match="norm overflowed"):
        LineElement(0.3, {0: 1.5e308, 1: 1.5e308}).norm()


def test_element_from_psi_coefficients_whose_e_coefficients_underflow():
    # c_6 = 1 at nu = 0.5 is a_6 = c_6 / ||e_6|| ~ e^-783, which a double cannot hold; the element keeps c_6
    params = SpaceParams(0.5, 0.3)
    elem = FockElement.from_psi_coeffs(params, {6: 1})
    assert elem.coeff_dict() == {6: 0j}
    assert elem.norm() == 1.0 and elem.psi_coeffs() == {6: 1.0} and elem.dominant_index() == 6
    assert bargmann_inverse(elem, 0.4) == pytest.approx(phi_basis(6, 0.4, 0.3), rel=1e-15)
    z = complex(0.3, -math.pi * 6.3 / 0.5)  # the peak line of psi_6
    assert elem.evaluate(z) == pytest.approx(basis_psi(6, z, params), rel=1e-12)
    # equal a_n (both underflow to 0), different c_n: unequal elements
    other = FockElement.from_psi_coeffs(params, {6: 2})
    assert other.coeffs == elem.coeffs and other != elem and hash(other) != hash(elem)
    assert FockElement.from_psi_coeffs(params, {6: 1.0}) == elem
    # a c_n given as a double comes back as that double
    coeffs = {-2: 0.1 + 0.2j, 0: 1e-200, 3: -7.5e150j}
    assert FockElement.from_psi_coeffs(params, coeffs).psi_coeffs() == coeffs
    assert FockElement.from_psi_coeffs(params, {0: 1e-200}).norm() == 1e-200


def test_record_of_an_e_coefficient_below_the_double_range_raises():
    params = SpaceParams(0.5, 0.3)
    with pytest.raises(OverflowError, match="e_n coefficient a_6 underflowed"):
        FockElement.from_psi_coeffs(params, {0: 1.0, 6: 1.0}).to_dict()
    # a_5 ~ e^-554 is a normal double: the record holds it
    record = FockElement.from_psi_coeffs(params, {5: 1.0}).to_dict()
    assert FockElement.from_dict(record).norm() == pytest.approx(1.0, rel=1e-13)
    zero_row = FockElement.from_psi_coeffs(params, {0: 1.0, 6: 0.0}).to_dict()["coeffs"][1]  # c_6 = 0 is not lost
    assert zero_row == {"n": 6, "re": 0.0, "im": 0.0}


def test_e_coefficient_above_the_double_range_raises():
    # ||e_0|| = (pi/2000)^(1/4) ~ 0.2 at nu = 1000, so a_0 = c_0 / ||e_0|| ~ 5e308
    with pytest.raises(OverflowError, match=r"^e_n coefficient a_0 overflowed the double range$"):
        FockElement.from_psi_coeffs(SpaceParams(1000.0, 0.0), {0: 1e308})
    assert FockElement.from_psi_coeffs(SpaceParams(1000.0, 0.0), {0: 1e307}).psi_coeffs() == {0: 1e307}


def test_element_from_e_coefficients_where_psi_coefficients_overflow():
    # a_n ||e_n|| leaves the double range (||e_6|| ~ e^783 at nu = 0.5) while a_n e_n(z) does not;
    # {0: 1, 6: 1} needs two bands: scaled by the larger, a_0 ||e_0|| would underflow
    cases = [(0.5, {6: 1.0}, 0.3), (0.1, {3: 1.0}, 0.3), (0.5, {0: 1.0, 6: 1.0}, 0.3),
             (0.5, {0: 1.0, 6: 1.0}, 0.3 + 0.05j), (0.5, {-5: 1e-300, 0: 1.0, 6: 1.0, 9: 1e-200}, 0.1 - 0.2j)]
    for nu, coeffs, z in cases:
        params = SpaceParams(nu, 0.3)
        terms = [a * basis_e(n, z, params) for n, a in coeffs.items()]
        c = max(abs(n + params.alpha) for n in coeffs)
        tol = (1e-12 + _rounding(params, z, c)) * math.fsum(map(abs, terms))
        elem = FockElement(params, coeffs)
        assert abs(elem.evaluate(z) - sum(terms)) <= tol, (nu, coeffs, z)
        assert elem.evaluate(np.array([z]))[0] == elem.evaluate(z)


def test_e_coefficient_sum_matches_per_mode_sum():
    # a_n drawn directly, as JSON records and the CLI's --in files store them; wherever every
    # a_n e_n(z) is finite, so is the sum, however far a_n ||e_n|| leaves the double range
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(30):
        params = SpaceParams(float(np.exp(rng.uniform(math.log(0.1), math.log(50.0)))), float(rng.uniform(-0.5, 0.5)))
        ns = _sparse(rng, -12, 12)
        coeffs = dict(zip(ns, rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))))
        elem, c = FockElement(params, coeffs), max(abs(n + params.alpha) for n in ns)
        zs, refs = [], []
        for z in rng.uniform(0.0, 1.0, 40) + 1j * rng.uniform(-12.0, 12.0, 40):
            try:
                terms = [a * basis_e(n, complex(z), params) for n, a in coeffs.items()]
            except OverflowError:
                continue
            scale = math.fsum(abs(t) for t in terms)
            if 1e-280 < scale < math.inf:
                zs.append(z)
                refs.append((sum(terms), scale * (1e-12 + _rounding(params, z, c))))
        values = elem.evaluate(np.array(zs))
        for value, (ref, tol) in zip(values, refs):
            assert abs(value - ref) <= tol, (params, ns, value, ref)
        checked += len(zs)
    assert checked > 600


@pytest.mark.parametrize("keys", [(-30, 30), (-30, 0, 30), (-30, -29, 0, 29, 30), (0,)])
def test_few_modes_over_a_wide_span(keys, monkeypatch):
    # the walk steps from mode to mode: its products grow with the number of modes, not with the span
    import thetafock.fock as fock

    params = SpaceParams(40.0, 0.2)
    elem = FockElement.from_psi_coeffs(params, {n: 1.0 + 0.5j * n for n in keys})
    z = np.linspace(0.0, 1.0, 301) + 1j * np.concatenate([np.linspace(-4.0, 4.0, 201), np.linspace(-40.0, 40.0, 100)])
    calls = []
    monkeypatch.setattr(fock, "_mul", lambda a, b, mul=fock._mul: calls.append(1) or mul(a, b))
    values = elem.evaluate(z)
    assert len(calls) <= 2 + 4 * len(keys)
    for w, value in zip(z, values):
        terms = [(1.0 + 0.5j * n) * basis_psi(n, complex(w), params) for n in keys]
        scale = math.fsum(map(abs, terms))  # the tolerance is relative: no subnormal sums
        assert scale < 1e-280 or abs(value - sum(terms)) <= (1e-12 + _rounding(params, w, 30.2)) * scale


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1.0, math.inf)])
def test_non_finite_coefficient_raises(bad):
    elem = FockElement(PARAMS, {-1: 1.0, 0: bad, 2: 1e-300})
    with pytest.raises(OverflowError):
        elem.evaluate(0.3 + 0.1j)
    with pytest.raises(OverflowError):
        elem.evaluate(np.array([0.3 + 0.1j, -0.2j]))
