"""Jacobi and Riemann theta series with certified truncation.

The classical Jacobi theta function

    theta3(z | tau) = sum over n in Z of exp(i*pi*n^2*tau + 2*i*pi*n*z),

and the theta series with real characteristics alpha, beta,

    theta_{alpha,beta}(z | tau)
        = sum over n of exp(i*pi*(n+alpha)^2*tau + 2*i*pi*(n+alpha)*(z+beta)),

both absolutely convergent for Im tau > 0.  The term of index n peaks at
n ~ -alpha - Im(z)/Im(tau); the series driver starts there and expands
symmetrically until the tails are certified below the budget tolerance.

theta3 satisfies the periodicity law

    theta3(z + l*tau + m | tau) = exp(-i*pi*l^2*tau - 2*i*pi*l*z) * theta3(z | tau)

and the inversion law

    theta3(z | tau) = sqrt(i/tau) * exp(-i*pi*z^2/tau) * theta3(z/tau | -1/tau)

with the principal square root.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_BUDGET, DomainError, _finite, bilateral_sum


@dataclass(frozen=True)
class ThetaArgs:
    """Characteristics and modular parameter of a theta series."""

    alpha: float
    beta: float
    tau: complex

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("theta characteristics must be finite reals")
        if not complex(self.tau).imag > 0.0:
            raise DomainError(f"tau must satisfy Im tau > 0, got {self.tau}")


def riemann_theta(args, z, budget=DEFAULT_BUDGET):
    """theta_{alpha,beta}(z | tau) for scalar or ndarray z."""
    zz = np.asarray(z, dtype=complex)
    tau = complex(args.tau)
    center = -args.alpha - float(np.mean(zz.imag)) / tau.imag

    def term(n):
        c = n + args.alpha
        return np.exp(1j * math.pi * c * c * tau + 2j * math.pi * c * (zz + args.beta))

    return _finite(bilateral_sum(term, round(center), budget), "theta series")


def jacobi_theta3(z, tau, budget=DEFAULT_BUDGET):
    """Jacobi theta3(z | tau), the zero-characteristic series."""
    return riemann_theta(ThetaArgs(0.0, 0.0, tau), z, budget)


def theta3_periodicity_factor(z, tau, l, m):
    """Multiplier relating theta3(z + l*tau + m | tau) to theta3(z | tau).

    Equals exp(-i*pi*l^2*tau - 2*i*pi*l*z); the integer step m contributes
    no factor because theta3 is 1-periodic.
    """
    if l != int(l) or m != int(m):
        raise DomainError(f"lattice steps must be integers, got l={l}, m={m}")
    l = int(l)
    zz = np.asarray(z, dtype=complex)
    vals = np.exp(-1j * math.pi * l * l * complex(tau) - 2j * math.pi * l * zz)
    return complex(vals) if zz.ndim == 0 else vals


def theta3_inversion_rhs(z, tau, budget=DEFAULT_BUDGET):
    """Right-hand side of the theta3 inversion law:
    sqrt(i/tau) * exp(-i*pi*z^2/tau) * theta3(z/tau | -1/tau)."""
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise DomainError(f"tau must satisfy Im tau > 0, got {tau}")
    zz = np.asarray(z, dtype=complex)
    root = cmath.sqrt(1j / tau)
    vals = root * np.exp(-1j * math.pi * zz * zz / tau) * jacobi_theta3(zz / tau, -1.0 / tau, budget)
    return complex(vals) if zz.ndim == 0 else vals
