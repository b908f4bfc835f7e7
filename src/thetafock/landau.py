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
m = 0 recovers the holomorphic modes psi_n.  The ladder actions are

    A   psi_{m,n} =  i sqrt(nu m)      psi_{m-1,n},
    A^* psi_{m,n} = -i sqrt(nu (m+1))  psi_{m+1,n},

so L psi_{m,n} = nu m psi_{m,n}.  Derivatives are realized by Wirtinger
finite differences (compact 9-point Laplacian and central first
differences, each with one Richardson extrapolation step) at the fixed
step STEP = 1e-4, which balances truncation against rounding noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, hermite_poly
from .fock import SpaceParams, _Expansion, _index

MAX_LEVEL = 40
STEP = 1e-4


def basis_psi_mn(m, n, z, params):
    """Orthonormal Landau eigenmode psi_{m,n}(z) of level m and Fourier index n.

    The normalization exponent is assembled in log space and combined with
    the mode exponent inside a single exp call.  Levels m > 40 are rejected:
    beyond that the constants leave the range where doubles are reliable.
    """
    if m < 0 or m != int(m):
        raise DomainError(f"level must be a nonnegative integer, got {m}")
    if m > MAX_LEVEL:
        raise DomainError(f"level {m} exceeds the supported maximum {MAX_LEVEL}")
    m, n = int(m), int(n)
    nu, alpha = params.nu, params.alpha
    zz = np.asarray(z, dtype=complex)
    c = alpha + n
    log_norm = -0.5 * (m * math.log(2.0) + math.lgamma(m + 1)) + 0.25 * math.log(2.0 * nu / math.pi)
    expo = log_norm - (math.pi**2 / nu) * c * c + 0.5 * nu * zz * zz + 2j * math.pi * c * zz
    xi = math.sqrt(2.0 * nu) * zz.imag + math.sqrt(2.0 / nu) * math.pi * c
    vals = np.exp(expo) * hermite_poly(m, xi)
    if not np.all(np.isfinite(vals)):
        raise OverflowError(f"psi_{{{m},{n}}} overflowed the double range")
    return complex(vals) if zz.ndim == 0 else vals


@dataclass(frozen=True, init=False)
class LandauElement(_Expansion):
    """Finite combination sum c_{m,n} psi_{m,n} in the orthonormal eigenbasis."""

    params: SpaceParams
    coeffs: tuple

    KEYS = ("m", "n")

    @staticmethod
    def _clean_key(key):
        m, n = key
        if m < 0 or m != int(m):
            raise DomainError(f"level must be a nonnegative integer, got {m}")
        return int(m), _index(n)

    def _mode(self, key, z):
        return basis_psi_mn(*key, z, self.params)

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


def _first_wirtinger(f, z, h, conjugate):
    """Central-difference d/dz (conjugate=False) or d/dzbar (conjugate=True)."""
    dx = (complex(f(z + h)) - complex(f(z - h))) / (2.0 * h)
    dy = (complex(f(z + 1j * h)) - complex(f(z - 1j * h))) / (2.0 * h)
    return 0.5 * (dx + 1j * dy) if conjugate else 0.5 * (dx - 1j * dy)


def _richardson(val_h, val_h2):
    return (4.0 * val_h2 - val_h) / 3.0


def _wirtinger(f, z, h, conjugate):
    """First Wirtinger derivative at steps h and h/2 with one Richardson step."""
    return _richardson(_first_wirtinger(f, z, h, conjugate), _first_wirtinger(f, z, 0.5 * h, conjugate))


def _mixed_second(f, z, h):
    """d^2/(dz dzbar) = Laplacian/4 by the compact 9-point stencil with one
    Richardson step."""
    f0 = complex(f(z))

    def lap(hh):
        edges = complex(f(z + hh)) + complex(f(z - hh)) + complex(f(z + 1j * hh)) + complex(f(z - 1j * hh))
        corners = (
            complex(f(z + hh + 1j * hh))
            + complex(f(z + hh - 1j * hh))
            + complex(f(z - hh + 1j * hh))
            + complex(f(z - hh - 1j * hh))
        )
        return (4.0 * edges + corners - 20.0 * f0) / (6.0 * hh * hh)

    return 0.25 * _richardson(lap(h), lap(0.5 * h))


def annihilation_apply(f, z):
    """Finite-difference action of A = d/dzbar at a point."""
    return _wirtinger(f, complex(z), STEP, True)


def creation_apply(f, z, params):
    """Finite-difference action of A^* = -d/dz + nu*zbar at a point."""
    z = complex(z)
    return -_wirtinger(f, z, STEP, False) + params.nu * z.conjugate() * complex(f(z))


def landau_apply(f, z, params):
    """Finite-difference action of L = -d^2/(dz dzbar) + nu*zbar*d/dzbar."""
    z = complex(z)
    return -_mixed_second(f, z, STEP) + params.nu * z.conjugate() * _wirtinger(f, z, STEP, True)


def eigen_residual(m, n, params, points):
    """Scaled eigen-equation defect of psi_{m,n}: the max over the sample
    points of |L psi - nu*m*psi| / max(1, |psi|)."""
    worst = 0.0
    for z in points:
        z = complex(z)
        psi = basis_psi_mn(m, n, z, params)
        applied = landau_apply(lambda w: basis_psi_mn(m, n, w, params), z, params)
        worst = max(worst, abs(applied - params.nu * m * psi) / max(1.0, abs(psi)))
    return worst
