"""Strip and line inner products against closed-form norms."""

import math
import warnings

import numpy as np
import pytest

from thetafock.core import EvaluationError, DomainError
from thetafock.fock import FockElement, SpaceParams, basis_e, basis_psi, theta_member
from thetafock.quadrature import (
    SQRT2,
    LineScheme,
    StripScheme,
    _strip_rule,
    line_inner_product,
    strip_gram,
    strip_inner_product,
)
from thetafock.bargmann import phi_basis
from thetafock.landau import LandauElement, basis_psi_mn, landau_apply
from thetafock.theta import ThetaArgs

PARAMS = SpaceParams(math.pi, 0.3)


def _psi(n, params=PARAMS):
    return lambda z: basis_psi(n, z, params)


def pair_scheme(params, n, m):
    return StripScheme.centered(params.nu, params.alpha, (n + m) / 2.0)


def test_scheme_validation():
    with pytest.raises(DomainError):
        StripScheme(x_points=3)
    with pytest.raises(DomainError):
        StripScheme(y_order=4)
    with pytest.raises(DomainError):
        LineScheme(q_points=3)
    with pytest.raises(DomainError):
        StripScheme.centered(-1.0, 0.0, 0)


def test_psi_normalization():
    ip = strip_inner_product(_psi(0), _psi(0), PARAMS.nu, pair_scheme(PARAMS, 0, 0))
    assert abs(ip - 1.0) <= 1e-8


def test_psi_orthogonality():
    ip = strip_inner_product(_psi(1), _psi(2), PARAMS.nu, pair_scheme(PARAMS, 1, 2))
    assert abs(ip) <= 1e-8


def test_e0_norm_at_alpha_zero():
    params = SpaceParams(math.pi, 0.0)
    f = lambda z: basis_e(0, z, params)
    ip = strip_inner_product(f, f, params.nu, StripScheme())
    assert abs(ip - math.sqrt(0.5)) <= 1e-8


def test_conjugate_symmetry():
    f = _psi(0)
    g = lambda z: basis_psi(2, z, PARAMS) + 0.5j * basis_psi(-1, z, PARAMS)
    scheme = pair_scheme(PARAMS, 0, 1)
    ab = strip_inner_product(f, g, PARAMS.nu, scheme)
    ba = strip_inner_product(g, f, PARAMS.nu, scheme)
    assert abs(ab - ba.conjugate()) <= 1e-12


def test_integrand_strip_periodicity():
    # f conj(g) e^{-nu |z|^2} is 1-periodic in x for same-character pairs
    f, g = _psi(1), _psi(-2)
    for x in (0.0, 0.3, 0.8):
        for y in (-1.2, 0.0, 0.7):
            z = complex(x, y)
            h0 = f(z) * np.conj(g(z)) * math.exp(-PARAMS.nu * abs(z) ** 2)
            h1 = f(z + 1) * np.conj(g(z + 1)) * math.exp(-PARAMS.nu * abs(z + 1) ** 2)
            assert abs(h1 - h0) <= 1e-10 * max(1.0, abs(h0))


def test_scheme_doubling_stability():
    scheme = pair_scheme(PARAMS, 0, 0)
    a = strip_inner_product(_psi(0), _psi(0), PARAMS.nu, scheme)
    b = strip_inner_product(_psi(0), _psi(0), PARAMS.nu, scheme.doubled())
    assert abs(a - b) <= 1e-10


def test_recentering_matters_for_far_modes():
    # mode n = 4 at nu = 0.7 sits far from y = 0; the centered rule must
    # recover the unit norm where the uncentered one cannot
    params = SpaceParams(0.7, -0.25)
    f = lambda z: basis_psi(4, z, params)
    centered = strip_inner_product(f, f, params.nu, StripScheme.centered(params.nu, params.alpha, 4))
    assert abs(centered - 1.0) <= 1e-8
    flat = strip_inner_product(f, f, params.nu, StripScheme())
    assert abs(flat - 1.0) > 1e-3


def test_scalar_only_callable_fallback():
    f_vec = _psi(0)
    f_scalar = lambda z: complex(f_vec(complex(z)))
    scheme = pair_scheme(PARAMS, 0, 0)
    a = strip_inner_product(f_vec, f_vec, PARAMS.nu, scheme)
    b = strip_inner_product(f_scalar, f_scalar, PARAMS.nu, scheme)
    assert abs(a - b) <= 1e-13


def test_vectorized_error_propagates_without_pointwise_retry():
    calls = []

    def overflowing(z):
        calls.append(np.shape(z))
        raise OverflowError("mode overflowed")

    with pytest.raises(OverflowError):
        strip_inner_product(overflowing, _psi(0), PARAMS.nu, StripScheme())
    assert len(calls) == 1


def test_domain_error_propagates_without_pointwise_retry():
    calls = []

    def fractional_level(w):
        calls.append(np.shape(w))
        return basis_psi_mn(1.5, 0, w, PARAMS)

    with pytest.raises(DomainError):
        landau_apply(fractional_level, 0.2 + 0.1j, PARAMS)
    assert len(calls) == 1


def test_nonfinite_node_reported():
    bad = lambda z: np.where(np.abs(np.imag(z)) > 1.0, np.nan, 1.0) + 0j
    with pytest.raises(EvaluationError):
        strip_inner_product(bad, _psi(0), PARAMS.nu, StripScheme())


def test_strip_rejects_bad_nu():
    # a rule that raised is not cached: the second call raises alike
    for nu in (0.0, math.nan, math.inf) * 2:
        message = f"^nu must be positive and finite, got {nu}$"
        with pytest.raises(DomainError, match=message):
            strip_inner_product(_psi(0), _psi(0), nu, StripScheme())
        with pytest.raises(DomainError, match=message):
            strip_gram([(0, _psi(0))], nu, PARAMS.alpha)
        with pytest.raises(DomainError, match=message):
            _strip_rule(nu, StripScheme())


def test_strip_rule_is_built_once_and_read_only():
    scheme = pair_scheme(PARAMS, 1, 2)
    grid, root = _strip_rule(PARAMS.nu, scheme)
    again = _strip_rule(PARAMS.nu, scheme)
    assert again[0] is grid and again[1] is root
    assert not grid.flags.writeable and not root.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        root *= 2.0
    fresh = _strip_rule.__wrapped__(PARAMS.nu, scheme)
    assert np.array_equal(fresh[0], grid) and np.array_equal(fresh[1], root)


def test_a_callable_writing_into_its_nodes_cannot_change_a_later_call():
    scheme = pair_scheme(PARAMS, 0, 0)
    clean = strip_inner_product(_psi(0), _psi(0), PARAMS.nu, scheme)
    writes = []

    def vandal(z):  # the read-only grid refuses the write; the pointwise fallback then hands it numbers
        writes.append(np.ndim(z))
        z *= 2.0
        return basis_psi(0, z, PARAMS)

    doubled = strip_inner_product(vandal, vandal, PARAMS.nu, scheme)
    assert writes[0] == 2 and set(writes[1:]) == {0} and doubled != clean
    assert strip_inner_product(_psi(0), _psi(0), PARAMS.nu, scheme) == clean
    grid, _ = _strip_rule(PARAMS.nu, scheme)
    assert np.array_equal(grid, _strip_rule.__wrapped__(PARAMS.nu, scheme)[0])


def test_library_callables_take_the_cached_rule_as_an_array(monkeypatch):
    # every mode, element and theta member evaluates the read-only node grid whole, never point by point
    def no_fallback(*args, **kwargs):
        raise AssertionError("np.vectorize fallback reached")

    monkeypatch.setattr(np, "vectorize", no_fallback)
    params = SpaceParams(2.0, 0.3)
    callables = {
        "basis_e": lambda z: basis_e(1, z, params),
        "basis_psi": lambda z: basis_psi(-1, z, params),
        "basis_psi_mn level 0": lambda z: basis_psi_mn(0, 1, z, params),
        "basis_psi_mn level 3": lambda z: basis_psi_mn(3, -1, z, params),
        "FockElement": FockElement.from_psi_coeffs(params, {-1: 0.5, 0: 1.0, 2: 0.3j}).evaluate,
        "LandauElement": LandauElement(params, {(0, 1): 1.0, (2, -1): 0.5j}).evaluate,
        "theta member": theta_member(ThetaArgs(0.3, 0.1, 0.2 + 1.7j), params),
    }
    scheme = StripScheme.centered(params.nu, params.alpha, 0)
    for name, f in callables.items():
        first = strip_inner_product(f, f, params.nu, scheme)
        assert strip_inner_product(f, f, params.nu, scheme) == first, name


def test_strip_gram_matches_pairwise_inner_products():
    # repeated Fourier indices and levels m > 0; each mode is evaluated once
    # on each grid it takes part in, one grid per distinct n_i + n_j
    modes = [(0, 0), (1, 0), (0, 2), (2, 2), (1, -1), (3, 1)]
    calls = [0] * len(modes)

    def mode(k, m, n):
        def f(z):
            calls[k] += 1
            return basis_psi_mn(m, n, z, PARAMS)

        return n, f

    fs = [mode(k, m, n) for k, (m, n) in enumerate(modes)]
    gram = strip_gram(fs, PARAMS.nu, PARAMS.alpha)
    assert calls == [len({n for n, _ in fs})] * len(modes)
    for i, (n_i, f_i) in enumerate(fs):
        for j, (n_j, f_j) in enumerate(fs):
            ip = strip_inner_product(f_i, f_j, PARAMS.nu, pair_scheme(PARAMS, n_i, n_j))
            assert gram[i, j] == ip


def test_norm_evaluates_f_once():
    calls = []

    def f(z):
        calls.append(z.shape)
        return basis_psi(0, z, PARAMS) + 0.5j * basis_psi(1, z, PARAMS) - 0.2 * basis_psi(-1, z, PARAMS)

    scheme = StripScheme.centered(PARAMS.nu, PARAMS.alpha, 0)
    value = strip_inner_product(f, f, PARAMS.nu, scheme)
    assert calls == [(scheme.x_points, scheme.y_order)]
    assert value == strip_inner_product(f, lambda z: f(z), PARAMS.nu, scheme)


@pytest.mark.parametrize("nu, limit", [(0.2, 4), (1.0, 10), (100.0, 92)])
def test_psi_strip_norms_hold_up_to_the_overflow_of_psi(nu, limit):
    # at the outer Gauss-Hermite nodes |psi_n|^2 overflows where the node weight underflows; the rule
    # scales each side by the root of the weight, so every norm below psi_limit's overflow on the nodes is 1
    params = SpaceParams(nu, 0.3)
    for n in range(limit + 1):
        f, scheme = _psi(n, params), StripScheme.centered(nu, 0.3, n)
        if n == limit:
            with pytest.raises(OverflowError, match=f"psi_{n} overflowed"):
                strip_inner_product(f, f, nu, scheme)
            break
        norm = strip_inner_product(f, f, nu, scheme)
        assert abs(norm - 1.0) <= 1e-9
        assert strip_gram([(n, f)], nu, 0.3)[0, 0] == norm


def test_quadrature_overflow_raises_with_no_warning():
    huge = lambda z: np.full(np.shape(z), 1e200 + 0j)
    sums = (("strip inner product", lambda: strip_inner_product(huge, huge, PARAMS.nu, StripScheme())),
            ("strip Gram matrix", lambda: strip_gram([(0, huge)], PARAMS.nu, PARAMS.alpha)),
            ("line inner product", lambda: line_inner_product(huge, huge)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, total in sums:
            with pytest.raises(OverflowError, match=f"^{name} overflowed the double range$"):
                total()


def test_strip_gram_of_no_modes_is_empty():
    assert strip_gram([], PARAMS.nu, PARAMS.alpha).shape == (0, 0)


def test_line_orthonormality():
    phi0 = lambda q: phi_basis(0, q, 0.3)
    phi3 = lambda q: phi_basis(3, q, 0.3)
    assert abs(line_inner_product(phi0, phi0) - 1.0) <= 1e-10
    assert abs(line_inner_product(phi0, phi3)) <= 1e-10


def test_line_constant():
    one = lambda q: np.ones_like(np.asarray(q, dtype=complex))
    assert abs(line_inner_product(one, one) - SQRT2) <= 1e-12


def test_line_scheme_doubling():
    phi0 = lambda q: phi_basis(0, q, 0.3)
    scheme = LineScheme()
    a = line_inner_product(phi0, phi0, scheme)
    b = line_inner_product(phi0, phi0, scheme.doubled())
    assert abs(a - b) <= 1e-12
