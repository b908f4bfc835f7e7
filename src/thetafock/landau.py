"""Landau levels of the magnetic Laplacian on quasi-periodic functions.

The operator

    L = -d^2/(dz dzbar) + nu * zbar * d/dzbar = A^* A,
    A = d/dzbar,   A^* = -d/dz + nu * zbar,

acts on functions with the quasi-periodicity law of character alpha and
Gaussian rate nu.  Its spectrum is the ladder nu*m, m = 0, 1, 2, ...,
and an orthonormal eigenbasis is

    psi_{m,n}(z) = C_{m,n} * exp((nu/2) z^2 + 2 i pi (alpha+n) z)
                   * H_m(sqrt(2 nu) y + sqrt(2/nu) pi (n+alpha)),

    C_{m,n} = (2^m m!)^(-1/2) (2 nu/pi)^(1/4) exp(-(pi^2/nu) (alpha+n)^2),

with y = Im z and H_m the physicists' Hermite polynomial.  The level
m = 0 recovers the holomorphic modes psi_n; a combination sums psi_n times
h_m = H_m / sqrt(2^m m!) in one pass (fock._psi_sum).  The ladder actions are

    A   psi_{m,n} =  i sqrt(nu m)      psi_{m-1,n},
    A^* psi_{m,n} = -i sqrt(nu (m+1))  psi_{m+1,n},

so L psi_{m,n} = nu m psi_{m,n}.

A, A^* and L act on sampled values by finite differences, so they stay
independent of the coefficient ladder they check.  A difference formula is
a table of offsets and weights (Fornberg, Math. Comp. 51, 1988); here the
three Wirtinger derivatives d/dz, d/dzbar and d^2/(dz dzbar) = Laplacian/4
share one 17-point offset table OFFSETS, the centre plus the edges and
corners of the squares of half-width 1 and 1/2.  Their unit-step weights
D_Z, D_ZBAR and D_ZZBAR are the central first differences and the compact
9-point Laplacian, each with one Richardson step folded in.  Each operator
builds its row of 17 weights once per call, from nu*zbar and the parts at
step STEP formed at import, and sums the weighted values f(z + STEP*OFFSETS)
left to right: a Python number z calls f once per offset, without numpy; an
ndarray z calls f once on every offset of every point.  The step STEP = 1e-4
balances truncation against rounding noise.  psi_{m,n} forms the constants of
a mode once per (m, n, nu, alpha), so the 17 calls of a stencil share them.
"""

import cmath
import functools
import math
import sys

from .core import DomainError, EvaluationError, _as_complex, _exp, _finite, _mul, hermite_poly, np
from .fock import _Expansion, _index, _psi_sum
from .quadrature import _evaluate_on

MAX_LEVEL = 40
STEP = 1e-4
# Sample points of the eigen-equation checks (verify, `landau eigres`).
SAMPLE_Z = (0.2 + 0.1j, 0.8 - 0.3j, 0.35 + 0.55j, 0.65 - 0.75j, 0.5 + 1.0j)
# numpy divides a complex array by a real number as the product with its
# reciprocal; the weights multiply by it on both routes
_INV_STEP = 1.0 / STEP
# exp(x) is a normal double for x in [_LOG_MIN, _LOG_MAX]
_LOG_MIN, _LOG_MAX, _LN2 = math.log(sys.float_info.min), math.log(sys.float_info.max), math.log(2.0)

# Offsets in units of STEP, by ring: the centre (ring 0), then the edges and
# corners of the squares of half-width 1 (rings 1, 2) and 1/2 (rings 3, 4).
_EDGES = (1 + 0j, -1 + 0j, 1j, -1j)
_CORNERS = (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
OFFSETS = (0j, *_EDGES, *_CORNERS, *(e / 2 for e in _EDGES), *(c / 2 for c in _CORNERS))
_RING = (0,) + (1,) * 4 + (2,) * 4 + (3,) * 4 + (4,) * 4
_NODES = tuple(STEP * o for o in OFFSETS)
# Unit-step weights on OFFSETS; at step h the first derivatives scale by 1/h
# and the mixed one by 1/h^2.  Each folds in one Richardson step,
# (4 D(h/2) - D(h)) / 3, which cancels the O(h^2) term of the central rules.
CENTRE = tuple(float(r == 0) for r in _RING)
D_ZBAR = tuple(o * (0.0, -1 / 12, 0.0, 4 / 3, 0.0)[r] for o, r in zip(OFFSETS, _RING))
D_Z = tuple(d.conjugate() for d in D_ZBAR)
D_ZZBAR = tuple((-25 / 6, -1 / 18, -1 / 72, 8 / 9, 2 / 9)[r] for r in _RING)
# The parts of the weights at STEP that do not depend on z.
_D_ZBAR_STEP = tuple(d * _INV_STEP for d in D_ZBAR)
_D_Z_STEP = tuple(d * _INV_STEP for d in D_Z)
_D_ZZBAR_STEP = tuple(d / STEP**2 for d in D_ZZBAR)


@functools.lru_cache(maxsize=256)
def _mode_constants(m, n, nu, alpha):
    """psi_{m,n}'s constants: expo = k0 + half*z^2 + lin*z, xi = s*Im z + t, and its name."""
    c = alpha + n
    log_norm = -0.5 * (m * math.log(2.0) + math.lgamma(m + 1)) + 0.25 * math.log(2.0 * nu / math.pi)
    return (log_norm - (math.pi**2 / nu) * c * c, 0.5 * nu, 2j * math.pi * c, math.sqrt(2.0 * nu),
            math.sqrt(2.0 / nu) * math.pi * c, f"psi_{{{m},{n}}}")


def basis_psi_mn(m, n, z, params):
    """Orthonormal Landau eigenmode psi_{m,n}(z) of level m and Fourier index n.

    The normalization exponent is assembled in log space and combined with the
    mode exponent inside a single exp call, from constants formed once per
    (m, n, nu, alpha).  Where that exponent leaves exp's normal range, H_m's
    binary exponent moves into it first, so a subnormal exp loses no digits.
    Levels m > 40 are rejected: beyond that the constants leave the range
    where doubles are reliable.  A non-integral n raises DomainError.
    """
    if not (type(m) is int and 0 <= m <= MAX_LEVEL):
        if m < 0 or m != int(m):
            raise DomainError(f"level must be a nonnegative integer, got {m}")
        if m > MAX_LEVEL:
            raise DomainError(f"level {m} exceeds the supported maximum {MAX_LEVEL}")
        m = int(m)
    n = n if type(n) is int else _index(n)
    k0, half, lin, s, t, name = _mode_constants(m, n, params.nu, params.alpha)
    z = _as_complex(z)
    expo = k0 + _mul(half * z, z) + lin * z
    h = hermite_poly(m, s * z.imag + t)
    if type(z) is complex:
        if not _LOG_MIN <= expo.real <= _LOG_MAX:
            h, e = math.frexp(h)
            expo += e * _LN2
        return _finite(_exp(expo) * h, name)
    outside = (expo.real < _LOG_MIN) | (expo.real > _LOG_MAX)
    if outside.any():
        mantissa, e = np.frexp(h)
        expo, h = np.where(outside, expo + e * _LN2, expo), np.where(outside, mantissa, h)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised by _finite
        return _finite(np.exp(expo) * h, name)


class LandauElement(_Expansion):
    """Finite combination sum c_{m,n} psi_{m,n} in the orthonormal eigenbasis."""

    KEYS = ("m", "n")

    @staticmethod
    def _clean_key(key):
        m, n = key
        if m < 0 or m != int(m):
            raise DomainError(f"level must be a nonnegative integer, got {m}")
        return int(m), _index(n)

    def _parts(self, z):
        levels, (nu, alpha) = {}, self.params
        for (m, n), c in self.coeffs:
            if m > MAX_LEVEL:
                raise DomainError(f"level {m} exceeds the supported maximum {MAX_LEVEL}")
            levels.setdefault(n, {})[m] = c

        def coeff(n, z):  # sum over m of c_{m,n} h_m(xi) at the points, one recurrence up to the top level of n
            xi = math.sqrt(2.0 * nu) * z.imag + math.sqrt(2.0 / nu) * math.pi * (n + alpha)
            total, h_prev, h = levels[n].get(0, 0j), 0.0, 1.0
            for m in range(1, max(levels[n]) + 1):
                h, h_prev = math.sqrt(2.0 / m) * xi * h - math.sqrt((m - 1) / m) * h_prev, h
                total = total + levels[n][m] * h if m in levels[n] else total
            return total

        yield _psi_sum(self.params, sorted(levels), z, coeff, 0.0)

    def raised(self):
        """Coefficient-level level shift psi_{m,n} -> psi_{m+1,n}."""
        return LandauElement(self.params, {(m + 1, n): c for (m, n), c in self.coeffs})

    def lowered(self):
        """Coefficient-level level shift psi_{m,n} -> psi_{m-1,n}; the ground
        level m = 0 is annihilated."""
        return LandauElement(self.params, {(m - 1, n): c for (m, n), c in self.coeffs if m >= 1})

    def project_level(self, m):
        """Orthogonal projection onto the eigenspace of eigenvalue nu*m."""
        return LandauElement(self.params, {(mm, n): c for (mm, n), c in self.coeffs if mm == int(m)})


def _apply(f, z, nu, weights):
    """Stencil sum of w_k * f(z + STEP*OFFSETS[k]) left to right, with the 17
    weights w_k = weights(nu*zbar)[k].  A Python number z calls f once per
    offset, on a Python number; an ndarray z calls f once on the offsets of
    every point."""
    z = _as_complex(z)
    if type(z) is complex:
        vals = []
        for step in _NODES:
            value = complex(f(z + step))
            if not cmath.isfinite(value):
                raise EvaluationError(f"f returned a non-finite value at node {z + step}")
            vals.append(value)
    else:
        vals = np.moveaxis(_evaluate_on(f, z[..., None] + np.array(_NODES), "f"), -1, 0)
    terms = [_mul(value, w) for value, w in zip(vals, weights(nu * z.conjugate()))]
    return sum(terms[1:], terms[0])


def annihilation_apply(f, z):
    """Finite-difference action of A = d/dzbar."""
    return _apply(f, z, 0.0, lambda nz: _D_ZBAR_STEP)


def creation_apply(f, z, params):
    """Finite-difference action of A^* = -d/dz + nu*zbar."""
    return _apply(f, z, params.nu, lambda nz: [nz * c - d for c, d in zip(CENTRE, _D_Z_STEP)])


def landau_apply(f, z, params):
    """Finite-difference action of L = -d^2/(dz dzbar) + nu*zbar*d/dzbar."""
    return _apply(f, z, params.nu, lambda nz: [nz * d * _INV_STEP - dd for d, dd in zip(D_ZBAR, _D_ZZBAR_STEP)])


def eigen_residual(m, n, params, points):
    """Scaled eigen-equation defect of psi_{m,n}: the max over the sample
    points of |L psi - nu*m*psi| / max(1, |psi|), point by point (a tuple or
    list of Python numbers stays on the scalar route)."""

    def psi(w):
        return basis_psi_mn(m, n, w, params)

    worst = 0.0
    for z in points if isinstance(points, (tuple, list)) else np.ravel(points):
        value = psi(z)
        worst = max(worst, abs(landau_apply(psi, z, params) - params.nu * m * value) / max(1.0, abs(value)))
    return worst
