"""The theta primitive behind every theta-path kernel, against mpmath.

References are plain mpmath series at 50 significant digits of the result:
each one is redone with as many extra digits as its terms cancel.  Every
check is relative, at the 1e-9 that criteria 04 and 09 pin.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from thetafock.bargmann import bargmann_kernel_A, generating_kernel_G, generating_kernel_sum
from thetafock.core import DomainError, TruncationError
from thetafock.fock import SpaceParams, reproducing_kernel, theta_member
from thetafock.landau import annihilation_apply, basis_psi_mn, creation_apply, landau_apply
from thetafock.theta import ThetaArgs, jacobi_theta3, riemann_theta

REL = 1e-9
NUS = (0.5, math.pi, 50.0, 300.0, 1000.0)


def mp_series(logterm, center, curvature, dps=50):
    """sum over n of exp(logterm(n)); `curvature` is a with Re logterm(n) =
    -a n^2 + ..., which sets how far from `center` the terms matter."""
    extra = 10
    for _ in range(5):
        # terms beyond `width` are below 10^-(dps + extra + 10) of the peak
        width = int(math.sqrt(math.log(10.0) * (dps + extra + 10) / curvature)) + 2
        with mp.workdps(dps + extra):
            terms = [mp.exp(logterm(n)) for n in range(center - width, center + width + 1)]
            total = mp.fsum(terms)
            lost = float(mp.log10(max(abs(t) for t in terms) / abs(total)))
        if lost < extra - 5:
            return complex(total)
        extra = int(lost) + 15
    raise AssertionError("reference did not converge")


def mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def mp_theta(alpha, beta, tau, z):
    tau, z = mpc(tau), mpc(z)

    def lt(n):
        c = n + mp.mpf(alpha)
        return 1j * mp.pi * c * c * tau + 2j * mp.pi * c * (z + mp.mpf(beta))

    center = round(-alpha - complex(z).imag / complex(tau).imag)
    return mp_series(lt, center, math.pi * complex(tau).imag)


def _log_psi(n, z, nu, alpha):
    c = n + mp.mpf(alpha)
    nu = mp.mpf(nu)
    return mp.log(2 * nu / mp.pi) / 4 + nu / 2 * z * z + 2j * mp.pi * c * z - mp.pi**2 / nu * c * c


def mp_kernel(z, w, nu, alpha):
    """K(z, w) as the mode sum of psi_n(z) conj(psi_n(w))."""
    zm, wm = mpc(z), mpc(w)
    center = round(-alpha - nu * (complex(z).imag + complex(w).imag) / (2 * math.pi))
    return mp_series(lambda n: _log_psi(n, zm, nu, alpha) + mp.conj(_log_psi(n, wm, nu, alpha)),
                     center, 2 * math.pi**2 / nu)


def mp_generating(z, q, nu, alpha):
    """G(z; q) as the mode sum of psi_n(z) conj(phi_n(q))."""
    zm, qm = mpc(z), mp.mpf(q)

    def lt(n):
        c = n + mp.mpf(alpha)
        return _log_psi(n, zm, nu, alpha) - mp.log(2) / 4 - mp.sqrt(2) * 1j * mp.pi * c * qm

    center = round(-alpha - nu * complex(z).imag / math.pi)
    return mp_series(lt, center, math.pi**2 / nu)


def rel_err(ours, ref):
    return abs(ours - ref) / abs(ref)


def _sweep_points(nu):
    """Points whose K(z, z) ~ e^{nu |z|^2} stays below 1e300."""
    return [complex(x, f * math.sqrt(680.0 / nu - x * x))
            for x, f in ((0.5, 0.0), (0.2, 0.45), (0.8, -0.7), (0.35, 0.95), (0.6, -1.0))]


@pytest.mark.parametrize("nu", NUS)
def test_kernel_theta_path_sweep(nu):
    alpha = 0.3
    params = SpaceParams(nu, alpha)
    pts = _sweep_points(nu)
    for z in pts:
        for w in (z, 0.1 + 0.5 * z.imag * 1j, 0.7 - 0.3j * z.imag):
            ref = mp_kernel(z, w, nu, alpha)
            assert abs(ref) < 1e300
            assert rel_err(reproducing_kernel(z, w, params), ref) <= REL, (nu, z, w)


@pytest.mark.parametrize("nu", NUS)
def test_generating_kernels_sweep(nu):
    alpha = -0.2
    params = SpaceParams(nu, alpha)
    for z in _sweep_points(nu):
        for q in (0.0, 0.61, 1.3):
            ref = mp_generating(z, q, nu, alpha)
            assert rel_err(generating_kernel_G(z, q, params), ref) <= REL, (nu, z, q)
            assert rel_err(bargmann_kernel_A(z, q, params), ref) <= REL, (nu, z, q)


@pytest.mark.parametrize("im_tau", (1e-3, 0.01, 0.13, 0.9, 2.5))
def test_riemann_theta_reduced_tau_sweep(im_tau):
    for re_tau in (-0.5, -0.31, 0.0, 0.17, 0.5):
        tau = complex(re_tau, im_tau)
        # Im z scaled with sqrt(Im tau) keeps |theta| within the double range.
        y = min(1.0, math.sqrt(im_tau))
        for alpha, beta, z in ((0.0, 0.0, 0.3 + 0.4j * y), (0.3, -0.45, 0.8 - 0.9j * y), (-0.4, 0.2, 0.05 + y * 1j)):
            ref = mp_theta(alpha, beta, tau, z)
            assert rel_err(riemann_theta(ThetaArgs(alpha, beta, tau), z), ref) <= REL, (tau, alpha, beta, z)


@pytest.mark.parametrize("re_tau", (7.3, 1000.5, 1e6 + 0.5, -1e6 - 0.5))
def test_riemann_theta_large_re_tau(re_tau):
    # the integer part of Re tau is shifted out before e^{i pi alpha^2 tau} and
    # z + alpha tau are formed, with the phase and the shift of beta exact
    cases = ((0.3, 0.1, 0.3 + 0.1j, 0.3), (-0.45, 0.37, 0.71 - 0.4j, 0.8), (0.25, -0.5, 0.9 + 0.6j, 0.15))
    for alpha, beta, z, im_tau in cases:
        tau = complex(re_tau, im_tau)
        ref = mp_theta(alpha, beta, tau, z)
        assert rel_err(riemann_theta(ThetaArgs(alpha, beta, tau), z), ref) <= 1e-12, (tau, alpha, beta, z)


def test_theta_path_fault_inputs_pass():
    # large nu: the series cancels by e^{nu/8}, the reduced window does not
    k = reproducing_kernel(0.5, 0.0, SpaceParams(300.0, 0.3))
    assert rel_err(k, mp_kernel(0.5, 0.0, 300.0, 0.3)) <= REL
    assert abs(k - (65.984 + 90.819j)) < 1e-3
    g = generating_kernel_G(0.3 + 1.71j, 1.11, SpaceParams(100.0, -0.46))
    assert rel_err(g, mp_generating(0.3 + 1.71j, 1.11, 100.0, -0.46)) <= REL
    t3 = jacobi_theta3(0.5, 0.02j)
    assert rel_err(t3, mp_theta(0.0, 0.0, 0.02j, 0.5)) <= REL
    assert abs(t3 - 1.2468e-16) < 1e-20
    # K(z, z) ~ e^{nu (Im z)^2}: the Gaussian prefactor cancels inside one exponent
    for y in (11.0, 12.0, 13.0, 14.0):
        z = 0.3 + y * 1j
        kzz = reproducing_kernel(z, z, SpaceParams(math.pi, 0.0))
        assert rel_err(kzz, mp_kernel(z, z, math.pi, 0.0)) <= REL
    assert rel_err(reproducing_kernel(0.3 + 11j, 0.3 + 11j, SpaceParams(math.pi, 0.0)), 2.3146e165) < 1e-4


def test_sum_paths_raise_on_cancellation():
    with np.errstate(over="ignore"):
        with pytest.raises(TruncationError):
            reproducing_kernel(0.5, 0.0, SpaceParams(300.0, 0.3), path="sum")
        with pytest.raises(TruncationError):
            generating_kernel_sum(0.3 + 1.71j, 1.11, SpaceParams(100.0, -0.46))


def test_sum_path_tiny_kernel_summed_to_relative_tolerance():
    # |K| = 1.4e-38 from terms up to 1.2e-36: a tail dropped at an absolute
    # 1e-13 held all of the value; the relative stopping rule keeps it
    z, w, params = 0.423 + 1.670j, 0.856 - 1.116j, SpaceParams(60.0, 0.057)
    ref = mp_kernel(z, w, 60.0, 0.057)
    assert rel_err(reproducing_kernel(z, w, params, path="sum"), ref) <= REL
    assert rel_err(reproducing_kernel(z, w, params), ref) <= REL


def test_arrays_equal_per_point_scalar_calls():
    rng = np.random.default_rng(5)
    # more points than one 1,024-point chunk of the engine
    zs = rng.uniform(0.0, 1.0, (3, 1100)) + 1j * rng.uniform(-1.0, 1.0, (3, 1100))
    params = SpaceParams(6.0, 0.2)
    member = theta_member(ThetaArgs(0.2, 0.1, 1.5j), params)
    psi = lambda w: basis_psi_mn(3, 1, w, params)
    calls = (
        lambda z: riemann_theta(ThetaArgs(0.3, -0.1, 0.4 + 0.07j), z),
        lambda z: reproducing_kernel(z, 0.3 - 0.4j, params),
        lambda z: reproducing_kernel(0.6 + 0.2j, z, SpaceParams(300.0, 0.3)),
        lambda z: generating_kernel_G(z, 0.9, params),
        lambda z: bargmann_kernel_A(z, 0.9, SpaceParams(0.5, 0.2)),
        member,
        lambda z: landau_apply(psi, z, params),
        lambda z: creation_apply(psi, z, params),
        lambda z: annihilation_apply(psi, z),
    )
    picks = rng.choice(zs.size, 40, replace=False)
    for f in calls:
        vals = f(zs)
        assert vals.shape == zs.shape
        for i in picks:
            z = complex(zs.flat[i])
            assert vals.flat[i] == f(z), (z, vals.flat[i], f(z))


def test_exact_zero_returns_rounding_not_error():
    # theta3 vanishes at (1 + tau)/2; the window cancels exactly there
    assert abs(jacobi_theta3(0.5 + 0.5j, 1j)) <= 1e-15


def test_non_finite_tau_rejected():
    # the reduction rounds Re tau, so a nan or inf tau must stop at the door
    for tau in (complex(math.nan, 1.0), complex(math.inf, 1.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            ThetaArgs(0.0, 0.0, tau)
