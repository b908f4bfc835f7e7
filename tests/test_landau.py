"""Landau operator: eigenmodes, finite differences, ladder bookkeeping."""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

from thetafock.bargmann import phi_basis
from thetafock.core import DomainError, EvaluationError, hermite_poly
from thetafock.fock import SpaceParams, basis_e, basis_psi, e_norm, quasiperiod_factor
from thetafock.landau import (
    OFFSETS,
    STEP,
    LandauElement,
    annihilation_apply,
    basis_psi_mn,
    creation_apply,
    eigen_residual,
    landau_apply,
)
from thetafock.quadrature import strip_gram

PARAMS = SpaceParams(math.pi, 0.3)
POINTS = (0.2 + 0.1j, 0.8 - 0.3j, 0.35 + 0.55j)


def test_level_zero_reduces_to_psi():
    for n in (-2, 0, 3):
        for z in POINTS:
            a = basis_psi_mn(0, n, z, PARAMS)
            b = basis_psi(n, z, PARAMS)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_level_validation():
    with pytest.raises(DomainError):
        basis_psi_mn(-1, 0, 0.1, PARAMS)
    with pytest.raises(DomainError):
        basis_psi_mn(1.5, 0, 0.1, PARAMS)
    # nan, inf and a fraction raise DomainError naming the level, at every entry that takes one
    elem = LandauElement(PARAMS, {(1, 0): 1.0, (2, 0): 1.0})
    for m in (math.nan, math.inf, 1.5):
        for build in (lambda: basis_psi_mn(m, 0, 0.1, PARAMS), lambda: LandauElement(PARAMS, {(m, 0): 1.0}),
                      lambda: elem.project_level(m)):
            with pytest.raises(DomainError, match=f"^level must be an integer, got {m}$"):
                build()
    with pytest.raises(DomainError, match="^level must be >= 0, got -1$"):
        elem.project_level(-1)
    # a fractional Fourier index raises, as LandauElement's keys do, instead of truncating to psi_{1,0}
    with pytest.raises(DomainError, match="mode index must be an integer"):
        basis_psi_mn(1, 0.5, 0.2 + 0.1j, SpaceParams(2.0, 0.3))
    assert basis_psi_mn(1, np.int64(2), 0.2 + 0.1j, PARAMS) == basis_psi_mn(1, 2, 0.2 + 0.1j, PARAMS)
    assert basis_psi_mn(np.int64(2), 2.0, 0.2 + 0.1j, PARAMS) == basis_psi_mn(2, 2, 0.2 + 0.1j, PARAMS)


@pytest.mark.parametrize("z", [40 + 0.1j, np.array([40 + 0.1j]), np.array([0.2, 40 + 0.1j]), np.array(40 + 0.1j)])
def test_overflow_raises_with_no_warning_first(z):
    params = SpaceParams(1.0, 0.3)
    far = lambda w: z + (w - (40 + 0.1j))  # z with its entry 40 + 0.1j moved to w
    modes = ((r"psi_\{3,1\}", lambda: basis_psi_mn(3, 1, z, params)), ("e_1", lambda: basis_e(1, z, params)),
             ("psi_1", lambda: basis_psi(1, z, params)), ("phi_0", lambda: phi_basis(0, far(-1000j), 0.3)),
             ("factor of step 40", lambda: quasiperiod_factor(z, 40, params)),
             ("norm of e_30", lambda: e_norm(30, SpaceParams(0.5, 0.3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, mode in modes:
            with pytest.raises(OverflowError, match=name + " overflowed the double range"):
                mode()


@pytest.mark.parametrize("z", [0.3 + 0.1j, np.array([0.3 + 0.1j]), np.array([0.2, 0.3 + 0.1j])])
def test_stencil_sum_overflow_raises_with_no_warning(z):
    # f is finite at every node, but its weighted sum is not: each apply raises, none returns inf or nan
    f = lambda w: np.full(np.shape(w), 1e306 + 0j) if np.ndim(w) else 1e306 + 0j
    applies = (lambda: landau_apply(f, z, SpaceParams(2.0, 0.3)), lambda: creation_apply(f, z, SpaceParams(2.0, 0.3)),
               lambda: annihilation_apply(f, z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for apply in applies:
            with pytest.raises(OverflowError, match="finite-difference stencil overflowed the double range"):
                apply()


def test_eigenmode_against_direct_formula():
    # independent assembly: scipy Hermite times explicit normalization
    m, n = 2, 1
    nu, alpha = PARAMS.nu, PARAMS.alpha
    c = alpha + n
    for z in POINTS:
        xi = math.sqrt(2.0 * nu) * z.imag + math.sqrt(2.0 / nu) * math.pi * c
        norm = (2.0**m * math.factorial(m)) ** -0.5 * (2.0 * nu / math.pi) ** 0.25 * math.exp(
            -(math.pi**2 / nu) * c * c
        )
        ref = norm * np.exp(0.5 * nu * z**2 + 2j * math.pi * c * z) * scipy.special.eval_hermite(m, xi)
        ours = basis_psi_mn(m, n, z, PARAMS)
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))


def _mp_psi_mn(m, n, z, params):
    """psi_{m,n}(z) in 60-digit arithmetic, straight from the closed form."""
    with mpmath.workdps(60):
        nu, c, z = mpmath.mpf(params.nu), mpmath.mpf(params.alpha) + n, mpmath.mpc(z)
        norm = (2**m * mpmath.factorial(m)) ** -0.5 * (2 * nu / mpmath.pi) ** 0.25
        xi = mpmath.sqrt(2 * nu) * z.imag + mpmath.sqrt(2 / nu) * mpmath.pi * c
        expo = -(mpmath.pi**2 / nu) * c * c + nu / 2 * z * z + 2j * mpmath.pi * c * z
        return complex(norm * mpmath.exp(expo) * mpmath.hermite(m, xi))


def _near_bump(rng, m, n, params, count):
    """count points with Im z within 1.3 turning-point widths sqrt((2m+1)/(2 nu)) of psi_{m,n}'s centre."""
    y0, width = -math.pi * (n + params.alpha) / params.nu, math.sqrt((2 * m + 1) / (2.0 * params.nu))
    return rng.uniform(0.0, 1.0, count) + 1j * (y0 + rng.uniform(-1.3, 1.3, count) * width)


@pytest.mark.parametrize("m, n, nu, alpha, z", [
    (35, 5, 7.627848637386841, -0.4282056115170745, 0.24005898906092626 - 17.265737852714814j),
    (40, 5, 0.392, -0.213, 0.223 + 3.659j),
    (25, -1, 1.968, -0.455, 0.999 - 22.562j),
])
def test_subnormal_exponential_keeps_the_digits(m, n, nu, alpha, z):
    # exp(expo) is subnormal (Re expo < -708) while H_m(xi) is large and psi is a normal number
    params = SpaceParams(nu, alpha)
    ref = _mp_psi_mn(m, n, z, params)
    value = basis_psi_mn(m, n, z, params)
    assert abs(ref) > 1e-300 and abs(value - ref) <= 1e-12 * abs(ref)
    assert basis_psi_mn(m, n, np.array([z, 0.3 + 0.1j]), params)[0] == value


def test_levels_41_to_180_against_mpmath():
    # every 7th level above 40, 50 points each near the bump: nu log-uniform in [0.5, 30], n in [-5, 5]; the error
    # is relative to |psi| with a floor of 1e-3 of the mode's size (2 nu/pi)^(1/4) e^(nu (Re z)^2 / 2)
    rng = np.random.default_rng(41)
    for m in range(41, 181, 7):
        for _ in range(50):
            nu = float(np.exp(rng.uniform(math.log(0.5), math.log(30.0))))
            params, n = SpaceParams(nu, float(rng.uniform(-0.5, 0.5))), int(rng.integers(-5, 6))
            z = complex(_near_bump(rng, m, n, params, 1)[0])
            value, ref = basis_psi_mn(m, n, z, params), _mp_psi_mn(m, n, z, params)
            size = (2.0 * params.nu / math.pi) ** 0.25 * math.exp(0.5 * params.nu * z.real**2)
            assert abs(value - ref) <= 1e-10 * max(abs(ref), 1e-3 * size), (m, n, params, z)


def test_level_240_overflows_hermite_at_the_edge_of_the_bump():
    # 1.3 turning-point widths out, H_240(xi ~ 28.5) ~ 1e421: the mode raises and returns nothing, on every route
    params = SpaceParams(2.0, 0.3)
    z = 0.4 + 1j * (-math.pi * 1.3 / 2.0 + 1.3 * math.sqrt(481 / 4.0))
    for x in (z, np.asarray(z), np.array([0.3 + 0.1j, z])):
        with pytest.raises(OverflowError, match="^Hermite recurrence overflowed at degree 240$"):
            basis_psi_mn(240, 1, x, params)


def test_eigen_residuals():
    for m, n in [(0, 0), (1, 0), (2, 1), (4, -2)]:
        assert eigen_residual(m, n, PARAMS, POINTS) <= 1e-5
    for n in (-2, 0, 2):
        assert eigen_residual(0, n, PARAMS, POINTS) <= 1e-6


def test_ladder_constants_finite_difference():
    for m, n in [(1, 0), (2, -1), (3, 2)]:
        for z in POINTS:
            down = annihilation_apply(lambda w: basis_psi_mn(m, n, w, PARAMS), z)
            ref = 1j * math.sqrt(PARAMS.nu * m) * basis_psi_mn(m - 1, n, z, PARAMS)
            assert abs(down - ref) <= 1e-5 * max(1.0, abs(ref))
    for m, n in [(0, 0), (1, 1), (2, -2)]:
        for z in POINTS:
            up = creation_apply(lambda w: basis_psi_mn(m, n, w, PARAMS), z, PARAMS)
            ref = -1j * math.sqrt(PARAMS.nu * (m + 1)) * basis_psi_mn(m + 1, n, z, PARAMS)
            assert abs(up - ref) <= 1e-5 * max(1.0, abs(ref))


# landau_apply, creation_apply and annihilation_apply of psi_{m,1} at nu = 2.7, alpha = 0.3, z = 0.37-1.1i,
# as (re, im) float.hex pairs: a change to the order of the stencil's or the mode's arithmetic shows here
PINNED = {
    0: (("-0x1.2000000000000p-23", "0x1.d000000000000p-22"), ("0x1.2a1dd71eb1000p+3", "0x1.b6afe254a8000p+1"),
        ("-0x1.0000000000000p-36", "0x0.0p+0")),
    3: (("0x1.004cfdf800000p+3", "-0x1.5c58a51e00000p+4"), ("-0x1.a17c52a2bb000p+3", "-0x1.332bc84bb4800p+2"),
        ("-0x1.c3ae1c7883000p+2", "-0x1.4c5481e373000p+1")),
    23: (("0x1.06c0beadc0000p+4", "-0x1.651d981680000p+5"), ("0x1.3bb5727d24c00p+4", "0x1.d09312085f900p+2"),
         ("0x1.5555d6e9d1f00p+4", "0x1.f648e01107d00p+2")),
    40: (("0x1.014ae00c20000p+6", "-0x1.5db1b4c440000p+7"), ("0x1.fdeacdc7c5c00p+3", "0x1.772dca85d1a00p+2"),
         ("0x1.38acbbb62ae00p+4", "0x1.cc1c1d163fa00p+2")),
}


@pytest.mark.parametrize("m", sorted(PINNED))
def test_stencil_values_are_pinned_to_the_bit(m):
    params, z = SpaceParams(2.7, 0.3), 0.37 - 1.1j
    psi = lambda w: basis_psi_mn(m, 1, w, params)
    values = (landau_apply(psi, z, params), creation_apply(psi, z, params), annihilation_apply(psi, z))
    assert [(v.real.hex(), v.imag.hex()) for v in values] == list(PINNED[m])
    arrays = (landau_apply(psi, np.array([z]), params), creation_apply(psi, np.array([z]), params),
              annihilation_apply(psi, np.array([z])))
    assert [a[0] for a in arrays] == list(values)


def _operators(params):
    return (
        lambda f, z: annihilation_apply(f, z),
        lambda f, z: creation_apply(f, z, params),
        lambda f, z: landau_apply(f, z, params),
    )


def test_each_operator_calls_f_once_per_array_or_offset():
    # a Python number z stays on the scalar route: one call per offset, each on a Python number
    psi = lambda w: basis_psi_mn(2, 1, w, PARAMS)
    for op in _operators(PARAMS):
        shapes = []
        op(lambda w: shapes.append(np.shape(w)) or psi(w), POINTS[0])
        assert shapes == [()] * len(OFFSETS)
        shapes = []
        op(lambda w: shapes.append(np.shape(w)) or psi(w), np.array(POINTS))
        assert len(shapes) == 1 and shapes[0][0] == len(POINTS)


def test_stencils_exact_on_cubic():
    # f = z^2 zbar: d/dzbar f = z^2, d/dz f = 2 z zbar, d^2/(dz dzbar) f = 2 z
    f = lambda w: w * w * np.conj(w)
    nu = PARAMS.nu
    for z in POINTS:
        zb = z.conjugate()
        exact = (z * z, -2.0 * z * zb + nu * zb * f(z), -2.0 * z + nu * zb * z * z)
        for op, ref in zip(_operators(PARAMS), exact):
            assert abs(op(f, z) - ref) <= 1e-5 * abs(ref)


def test_scalar_only_callable_matches_vectorized():
    psi = lambda w: basis_psi_mn(3, -1, w, PARAMS)
    scalar_only = lambda w: complex(psi(w))  # complex() rejects arrays
    for op in _operators(PARAMS):
        for z in POINTS:
            assert op(scalar_only, z) == pytest.approx(op(psi, z), rel=1e-14, abs=1e-14)


def test_non_finite_sample_raises():
    z = POINTS[2]
    # nan only on the offsets one full step above z
    f = lambda w: np.where(np.imag(w) > z.imag + 0.75 * STEP, np.nan, w)
    for op in _operators(PARAMS):
        with pytest.raises(EvaluationError):
            op(f, z)


def test_batched_points_match_per_point_calls():
    m, n = 3, 1
    psi = lambda w: basis_psi_mn(m, n, w, PARAMS)
    batched = landau_apply(psi, np.array(POINTS), PARAMS)
    assert batched.shape == (len(POINTS),)
    for z, value in zip(POINTS, batched):
        assert value == pytest.approx(landau_apply(psi, z, PARAMS), rel=1e-14, abs=1e-14)
    per_point = max(
        abs(landau_apply(psi, z, PARAMS) - PARAMS.nu * m * psi(z)) / max(1.0, abs(psi(z))) for z in POINTS
    )
    assert eigen_residual(m, n, PARAMS, POINTS) == pytest.approx(per_point, rel=1e-12)


def test_operator_factorizes_through_ladder():
    # L = A* A pointwise: creation after annihilation reproduces nu*m
    m, n, z = 2, 0, 0.35 + 0.55j
    psi = lambda w: basis_psi_mn(m, n, w, PARAMS)
    via_ladder = creation_apply(lambda w: annihilation_apply(psi, w), z, PARAMS)
    direct = landau_apply(psi, z, PARAMS)
    assert abs(via_ladder - direct) <= 1e-3 * max(1.0, abs(direct))
    assert abs(direct - PARAMS.nu * m * psi(z)) <= 1e-5 * max(1.0, abs(psi(z)))


def test_raise_lower_bookkeeping():
    elem = LandauElement(PARAMS, {(0, 0): 1.0, (1, 1): 0.5j})
    up = elem.raised()
    assert up.coeff_dict() == {(1, 0): 1.0, (2, 1): 0.5j}
    down = up.lowered()
    assert down.coeff_dict() == elem.coeff_dict()
    assert elem.lowered().coeff_dict() == {(0, 1): 0.5j}  # ground state annihilated
    assert elem.project_level(1).coeff_dict() == {(1, 1): 0.5j}
    assert elem.project_level(3).coeff_dict() == {}


def test_repeated_raise_matches_eigenmode():
    elem = LandauElement(PARAMS, {(0, 1): 1.0})
    for _ in range(4):
        elem = elem.raised()
    assert elem.coeff_dict() == {(4, 1): 1.0}
    for z in POINTS:
        ref = basis_psi_mn(4, 1, z, PARAMS)
        assert abs(elem.evaluate(z) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_norm_and_projection_pythagoras():
    elem = LandauElement(PARAMS, {(0, 0): 3.0, (1, 0): 4.0j, (2, 2): 0.0})
    assert elem.norm() == pytest.approx(5.0, rel=1e-15)
    p0 = elem.project_level(0).norm()
    p1 = elem.project_level(1).norm()
    assert p0**2 + p1**2 == pytest.approx(elem.norm() ** 2, rel=1e-15)


def test_landau_apply_on_element():
    elem = LandauElement(PARAMS, {(1, 0): 1.0, (0, 1): 0.5j})
    z = 0.2 + 0.1j
    applied = landau_apply(elem.evaluate, z, PARAMS)
    ref = PARAMS.nu * 1.0 * basis_psi_mn(1, 0, z, PARAMS)  # level 0 part is annihilated
    assert abs(applied - ref) <= 1e-5 * max(1.0, abs(ref))


def test_element_validation_and_json():
    with pytest.raises(DomainError):
        LandauElement(PARAMS, {(-1, 0): 1.0})
    elem = LandauElement(PARAMS, {(2, -1): 0.3 - 0.2j})
    back = LandauElement.from_dict(json.loads(json.dumps(elem.to_dict())))
    assert back == elem
    with pytest.raises(DomainError):
        LandauElement.from_dict({"nu": 1.0, "alpha": 0.0, "coeffs": [{"m": 0, "n": 0}]})


def test_eigenmode_gram_subset():
    modes = [(0, 0), (1, 0), (2, 1), (1, -1)]
    fs = [(n, lambda z, m=m, n=n: basis_psi_mn(m, n, z, PARAMS)) for m, n in modes]
    gram = strip_gram(fs, PARAMS.nu, PARAMS.alpha)
    assert np.max(np.abs(gram - np.eye(len(modes)))) <= 1e-7


@pytest.mark.parametrize("nu", [0.7, math.pi, 20.0])
def test_eigenmode_gram_through_level_16(nu):
    # the default 64 x 64 pair-centred strip rule holds criterion 12's 1e-7 through level 18 at every nu; past it the
    # Gaussian left by u = sqrt(nu) (y - y_shift) is not integrated exactly (1.5e-7 at level 19, 0.29 at level 40)
    params = SpaceParams(nu, 0.3)
    fs = [(n, lambda z, m=m, n=n: basis_psi_mn(m, n, z, params)) for m in range(17) for n in (-1, 0, 1)]
    gram = strip_gram(fs, params.nu, params.alpha)
    assert np.max(np.abs(gram - np.eye(len(fs)))) <= 1e-7


def test_element_sum_matches_per_mode_sum():
    # nu log-uniform in [0.1, 50], levels up to 40, Fourier indices with gaps,
    # Im z out to where the per-mode terms stop being finite.
    rng = np.random.default_rng(17)
    eps, checked = np.finfo(float).eps, 0
    for _ in range(40):
        params = SpaceParams(float(np.exp(rng.uniform(math.log(0.1), math.log(50.0)))), float(rng.uniform(-0.5, 0.5)))
        count = int(rng.integers(1, 41))
        keys = {(int(m), int(n)) for m, n in zip(rng.integers(0, 41, count), rng.integers(-12, 13, count))}
        coeffs = dict(zip(sorted(keys), rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))))
        elem = LandauElement(params, coeffs)
        c = max(abs(n + params.alpha) for _, n in keys)
        ylim = math.sqrt(1600.0 / params.nu) + 13.0 * math.pi / params.nu
        zs, refs = [], []
        for z in rng.uniform(0.0, 1.0, 40) + 1j * rng.uniform(-ylim, ylim, 40):
            try:
                terms = [a * basis_psi_mn(m, n, complex(z), params) for (m, n), a in coeffs.items()]
            except OverflowError:
                continue
            scale = math.fsum(abs(t) for t in terms)
            # basis_psi_mn is exp(...) * H_m(xi): a term it forms from a subnormal exp is no reference
            xis = [math.sqrt(2.0 * params.nu) * z.imag + math.sqrt(2.0 / params.nu) * math.pi * (n + params.alpha)
                   for _, n in coeffs]
            if scale < math.inf and all(abs(t) < 1e-16 * scale or abs(t) >= 1e-300 * abs(a * hermite_poly(m, xi))
                                        for t, ((m, _), a), xi in zip(terms, coeffs.items(), xis)):
                # exponent terms as large as S carry a rounding of eps * S on either side (see test_fock)
                size = 0.5 * params.nu * abs(z) ** 2 + 2.0 * math.pi * c * abs(z) + math.pi**2 / params.nu * c * c
                zs.append(z)
                refs.append((sum(terms), scale * (1e-12 + 4.0 * eps * size)))
        values = elem.evaluate(np.array(zs))  # finite wherever every term is
        for value, (ref, tol) in zip(values, refs):
            assert abs(value - ref) <= tol, (params, value, ref)
        checked += len(zs)
    assert checked > 600


def test_element_value_depends_on_its_point_only():
    rng = np.random.default_rng(8)
    params = SpaceParams(math.pi, 0.0)
    keys = [(0, -4), (3, -4), (40, -1), (1, 0), (7, 0), (2, 3)]
    elem = LandauElement(params, {k: complex(*rng.standard_normal(2)) for k in keys})
    z = np.concatenate([rng.uniform(0.0, 1.0, 8) - 1j * (np.arange(-4, 4) + 0.5),
                        rng.uniform(0.0, 1.0, 200) + 1j * rng.uniform(-6.0, 6.0, 200)])
    whole = elem.evaluate(z)
    for i in range(z.size):
        assert whole[i] == elem.evaluate(z[i : i + 1])[0] == elem.evaluate(complex(z[i]))


def test_raised_element_above_level_40_evaluates():
    elem = LandauElement(PARAMS, {(0, 0): 1.0, (40, 1): 1.0}).raised()
    terms = [basis_psi_mn(1, 0, 0.3 + 0.1j, PARAMS), basis_psi_mn(41, 1, 0.3 + 0.1j, PARAMS)]
    assert abs(elem.evaluate(0.3 + 0.1j) - sum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


def test_element_at_levels_41_to_180_matches_its_per_mode_sum():
    # the element's one recurrence in h_m against the modes' closed form, near each key's bump; a point where some
    # H_m overflows has no per-mode sum.  The scalar route equals the array route to the bit
    rng = np.random.default_rng(180)
    checked = 0
    for _ in range(12):
        params = SpaceParams(float(np.exp(rng.uniform(math.log(0.5), math.log(30.0)))), float(rng.uniform(-0.5, 0.5)))
        keys = sorted({(int(m), int(n)) for m, n in zip(rng.integers(41, 181, 5), rng.integers(-5, 6, 5))})
        elem = LandauElement(params, {k: complex(*rng.standard_normal(2)) for k in keys})
        z = np.concatenate([_near_bump(rng, m, n, params, 20) for m, n in keys])
        values = elem.evaluate(z)
        for zk, value in zip(z, values):
            assert elem.evaluate(complex(zk)) == value
            try:
                terms = [c * basis_psi_mn(m, n, complex(zk), params) for (m, n), c in elem.coeffs]
            except OverflowError:
                continue
            assert abs(value - sum(terms)) <= 1e-12 * math.fsum(map(abs, terms)), (params, zk)
            checked += 1
    assert checked > 900


def test_few_modes_over_a_wide_span(monkeypatch):
    # the walk steps from Fourier index to index: its products grow with the modes, not with the span;
    # the points cross the peaks of all three indices
    import thetafock.fock as fock

    params = SpaceParams(40.0, 0.3)
    coeffs = {(0, -30): 1.0, (2, 30): 0.5j, (1, 0): 2.0, (3, 0): -1.0}
    z = np.linspace(0.0, 1.0, 201) + 1j * np.linspace(-4.0, 4.0, 201)
    calls = []
    monkeypatch.setattr(fock, "_mul", lambda a, b, mul=fock._mul: calls.append(1) or mul(a, b))
    values = LandauElement(params, coeffs).evaluate(z)
    assert len(calls) <= 2 + 4 * 3
    for w, value in zip(z, values):
        terms = [a * basis_psi_mn(m, n, complex(w), params) for (m, n), a in coeffs.items()]
        assert abs(value - sum(terms)) <= 1e-12 * math.fsum(map(abs, terms)), w
