"""Bargmann-style transform between the line and the quasi-periodic space.

The line space is L^2 on [0, sqrt(2)] spanned by the character modes

    phi_n(q) = 2^(-1/4) * exp(sqrt(2)*i*pi*(n+alpha)*q),  n in Z,

which extend to R with phi_n(q + sqrt(2)) = exp(2*i*pi*alpha) phi_n(q).
The transform B maps phi_n to the orthonormal mode psi_n of the
quasi-periodic space.  It is realized by integrating against the kernel

    A(z; q) = (nu/pi)^(3/4) * exp((nu/2) z^2 - nu xi^2)
              * theta3(alpha + (i nu/pi) xi | i nu/pi),   xi = q/sqrt(2) - z,

the character periodization of the classical Gaussian Bargmann kernel.
The same kernel has the bilateral generating expansion

    G(z; q) = sum over n of psi_n(z) * conj(phi_n(q))
            = (nu/pi)^(1/4) * exp((nu/2) z^2)
              * theta_{alpha,0}(z - q/sqrt(2) | i pi/nu),

and the pointwise identity A == G is equivalent to the theta3 inversion
law.  B is unitary, so the inverse of a finite member is closed form,
B^-1 (sum c_n psi_n) = sum c_n phi_n; the tests check it against the
strip pairing <f, G(., q)>, an independent quadrature.
"""

import math

from .core import _EPS, DEFAULT_BUDGET, TruncationError, bilateral_sum
from .core import _as_complex, _exp, _finite, _finite_exp, _index, _mul, _quiet, _real, _reduce, np
from .fock import FockElement, SpaceParams, _Expansion, basis_psi
from .quadrature import SQRT2, _evaluate_on, _trapezoid_weights
from .theta import _theta_value

# numpy divides a complex array by a real number as the product with its
# reciprocal; the kernels multiply by it on both routes
_INV_SQRT2 = 1.0 / SQRT2
# Trapezoid intervals of bargmann_pointwise: the first rule, and the cap of its doubling
START_INTERVALS, MAX_INTERVALS = 256, 4096


def phi_basis(n, q, alpha):
    """Line mode phi_n(q) = 2^(-1/4) exp(sqrt(2) i pi (n+alpha) q)."""
    n = n if type(n) is int else _index(n)
    name = f"phi_{n}"
    q = _finite(_as_complex(q), name)  # on both routes: a number at Im q = +-inf would give exp(-inf + nan i) = 0
    return _finite_exp(2.0 ** (-0.25), SQRT2 * 1j * math.pi * (n + alpha) * q, name)


class LineElement(_Expansion):
    """Finite combination sum b_n phi_n in the line space."""

    SPACE = "alpha"

    def __init__(self, alpha, coeffs):
        super().__init__(float(_real(alpha, "alpha")), coeffs)

    def _parts(self, q):
        """sum b_n phi_n(q) by Horner over the gaps d between indices in exp(s sqrt(2) i pi d q), |.| <= 1:
        from the top index (s = 1) where Im q >= 0, from the bottom one (s = -1) below the line."""
        below = q.imag < 0.0
        if isinstance(q, complex) or not below.any():
            yield self._horner(q, -1 if below is True else 1)
        else:
            out = np.empty(q.shape, dtype=complex)
            out[~below], out[below] = self._horner(q[~below], 1), self._horner(q[below], -1)
            yield out

    def _horner(self, q, s):  # one exp per distinct gap, one for the last mode and 2^(-1/4): total stays exact
        (last, total), powers = self.coeffs[-1 if s > 0 else 0], {}
        for n, b in self.coeffs[-2::-1] if s > 0 else self.coeffs[1:]:
            d, last = abs(last - n), n
            if d not in powers:
                powers[d] = _exp(s * SQRT2 * 1j * math.pi * d * q)
            total = _mul(total, powers[d]) + b
        return _finite_exp(total, SQRT2 * 1j * math.pi * (last + self.alpha) * q - math.log(2.0) / 4, "element value")

    def _header(self):
        return {"alpha": self.alpha}

    @staticmethod
    def _space_from(data):
        return float(data["alpha"])


def bargmann_kernel_A(z, q, params, budget=DEFAULT_BUDGET):
    """Periodized Gaussian kernel A(z; q); broadcasts over z and q."""
    z, q = _finite(_as_complex(z), "Bargmann kernel A"), _finite(_as_complex(q), "Bargmann kernel A")
    xi = q * _INV_SQRT2 - z
    tau = 1j * params.nu / math.pi
    logpref = 0.75 * math.log(params.nu / math.pi) + _mul(0.5 * params.nu * z, z) - _mul(params.nu * xi, xi)
    # Without the inversion step, so that A == G still tests the inversion law.
    return _theta_value("Bargmann kernel A", 0.0, 0.0, tau, params.alpha + tau * xi, budget, logpref, invert=False)


def generating_kernel_G(z, q, params, budget=DEFAULT_BUDGET):
    """Bilateral generating kernel G(z; q) in theta closed form."""
    z, q = _finite(_as_complex(z), "generating kernel G"), _finite(_as_complex(q), "generating kernel G")
    logpref = 0.25 * math.log(params.nu / math.pi) + _mul(0.5 * params.nu * z, z)
    tau = 1j * math.pi / params.nu
    return _theta_value("generating kernel G", params.alpha, 0.0, tau, z - q * _INV_SQRT2, budget, logpref)


def generating_kernel_sum(z, q, params, budget=DEFAULT_BUDGET):
    """G(z; q) by direct bilateral summation of psi_n(z) conj(phi_n(q))."""
    z, q = _finite(_as_complex(z), "generating kernel sum"), _finite(_as_complex(q), "generating kernel sum")
    center = -params.alpha - params.nu * _reduce("mean", z.imag) / math.pi

    def term(n):
        return _mul(basis_psi(n, z, params), phi_basis(n, q, params.alpha).conjugate())

    return _finite(bilateral_sum(term, round(center), budget), "generating kernel sum")


def bargmann_transform_coeffs(elem, nu):
    """Coefficient-level transform: sum b_n phi_n maps to sum b_n psi_n."""
    return FockElement.from_psi_coeffs(SpaceParams(nu, elem.alpha), elem.coeffs)


def bargmann_pointwise(phi, z, params, budget=DEFAULT_BUDGET):
    """Transform value (B phi)(z) = integral of A(z; q) phi(q) over [0, sqrt(2)].

    Trapezoid rule, nested: each doubling evaluates A and phi only at the n new
    midpoints, T_2n = T_n / 2 + h_2n * sum over them, and carries sum |node term|
    along the same way.  The integrand is sqrt(2)-periodic, so the rule converges
    spectrally.  It stops, as every series does, once |T_2n - T_n| and the rounding
    eps * sum |node term| are both below budget.tol * sum |node term|: relative to
    the value, or to sum |node term| where it cancels.  Raises TruncationError if
    MAX_INTERVALS is reached first, OverflowError if a node product overflows.
    """
    zz, what = complex(z), "Bargmann transform"

    def sums(qs, w):  # (sum of terms, sum |term|) of the rule with weights w on the nodes qs
        phiv, kernel = _evaluate_on(phi, qs, "phi"), bargmann_kernel_A(zz, qs, params, budget)
        with _quiet(qs):  # a node product that left the double range is raised by _finite
            vals = kernel * phiv * w
            return _finite(complex(np.sum(vals)), what), _finite(np.sum(np.abs(vals)), what).real

    n = START_INTERVALS
    total, absum = sums(np.linspace(0.0, SQRT2, n + 1), _trapezoid_weights(n + 1, SQRT2))
    while n < MAX_INTERVALS:
        h = SQRT2 / (2 * n)
        mid, mid_abs = sums(h * np.arange(1, 2 * n, 2), h)
        prev, total = total, 0.5 * total + mid
        absum, n = 0.5 * absum + mid_abs, 2 * n
        scale = budget.tol * absum
        if abs(total - prev) <= scale and _EPS * absum <= scale:
            return total
    raise TruncationError(
        f"line integral did not stabilize within {MAX_INTERVALS} intervals (budget tol {budget.tol:.1e})"
    )


def bargmann_inverse(elem, q):
    """Inverse transform of a finite member: B^-1 (sum c_n psi_n) = sum c_n phi_n, evaluated at q."""
    return LineElement(elem.params.alpha, elem.psi_coeffs()).evaluate(q)
