"""Jacobi and Riemann theta series by modular reduction and a fixed window.

theta3(z | tau) = sum over n of exp(i*pi*n^2*tau + 2*i*pi*n*z) and, with real
characteristics, theta_{alpha,beta}(z | tau) = sum over n of
exp(i*pi*(n+alpha)^2*tau + 2*i*pi*(n+alpha)*(z+beta)), for Im tau > 0.  theta3
obeys the periodicity and inversion laws (Mumford, Tata Lectures on Theta I)

    theta3(z + l*tau + m | tau) = exp(-i*pi*l^2*tau - 2*i*pi*l*z) * theta3(z | tau),
    theta3(z | tau) = sqrt(i/tau) * exp(-i*pi*z^2/tau) * theta3(z/tau | -1/tau).

Every theta value, and every kernel written through one (K, G, A, theta
members, the membership norm), comes from one primitive, _theta_exp, with
theta_{alpha,beta}(z | tau) * exp(logpref) = exp(E) * S for the caller's
Gaussian prefactor logpref.  Into E go the integer part of Re tau (shifted out
first, with its phase and beta's shift reduced mod 1 exactly, so a large Re tau
costs no digits), the characteristic factor
exp(i*pi*alpha^2*tau + 2*i*pi*alpha*(z+beta)), the steps theta3(z | tau+1) =
theta3(z+1/2 | tau) that keep Re tau in [-1/2, 1/2], the inversion law while
|tau| < 1 (so Im tau >= sqrt(3)/2 at the end), and the term of each point's
peak index n0 = round(-Im z / Im tau).  The rest has |Im z| <= Im tau / 2, a
central term 1 and terms below exp(-pi*Im tau*|m|*(|m|-1)), so S sums the
window -N..N with N set by Im tau and budget.tol in closed form (Deconinck et
al., Computing Riemann theta functions, Math. Comp. 73, 2004): the tail left
out is below budget.tol * sum |term| of the window; N above core.MAX_TERMS
raises TruncationError.  Near a zero of theta the window cancels to its
rounding, eps * sum |term|, which is what is certified there.  Each side walks
from t_0 = 1 by t_{+-(k+1)} = t_{+-k} r q^k, r = exp(i pi tau +- 2 i pi z),
q = exp(2 i pi tau): two exps a point, |r|, |q| <= 1, so each intermediate is
a true term; numbers walk in Python complexes, arrays in place (core._imul).
"""

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .core import DEFAULT_BUDGET, MAX_TERMS, DomainError, TruncationError, _as_complex, _exp, _finite, _finite_exp
from .core import _imul, _is_number, _mul, _quiet, np


class ThetaArgs(namedtuple("ThetaArgs", "alpha beta tau")):
    """Characteristics and modular parameter of a theta series."""

    __slots__ = ()

    def __new__(cls, alpha, beta, tau):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DomainError("theta characteristics must be finite reals")
        if not (complex(tau).imag > 0.0 and cmath.isfinite(complex(tau))):
            raise DomainError(f"tau must be finite with Im tau > 0, got {tau}")
        return super().__new__(cls, alpha, beta, tau)


@lru_cache(maxsize=64)
def _window(t, tol):
    """One-sided width N of the centred theta3 window -N..N at Im tau = t: the least N >= 1
    whose tail bound 2 exp(-pi t N (N+1)) / (1 - exp(-2 pi t (N+1))) is <= tol."""
    n = 1
    while 2.0 * math.exp(-math.pi * t * n * (n + 1)) > -tol * math.expm1(-2.0 * math.pi * t * (n + 1)):
        n += 1
        if n > MAX_TERMS:
            raise TruncationError(f"theta window needs more than {MAX_TERMS} one-sided terms at Im tau = {t:.3e}")
    return n


def _theta_exp(alpha, beta, tau, z, budget, logpref=0.0, invert=True):
    """(E, S) with theta_{alpha,beta}(z | tau) * exp(logpref) = exp(E) * S, for
    Python complex z and logpref or ndarrays of one shape; invert=False keeps
    tau as given (no shift of Re tau, no inversion)."""
    tau, rint = complex(tau), round if isinstance(z, complex) else np.rint
    k = round(tau.real) if invert else 0
    if k:
        # theta_{a,b}(z | tau + k) = exp(-i pi a (a+1) k) theta_{a, b + k (a + 1/2)}(z | tau): the
        # shift of b and the phase are reduced mod 1 exactly, so a large Re tau costs no digits.
        from fractions import Fraction

        a, shift = Fraction(alpha), Fraction(beta) + k * (Fraction(alpha) + Fraction(1, 2))
        j = math.floor(shift)
        logpref = logpref + 2j * math.pi * float(a * (j - k * (a + 1) / 2) % 1)
        tau, beta = tau - k, float(shift - j)
    E = logpref + 1j * math.pi * alpha * (alpha * tau + 2.0 * (z + beta))
    z = z + (beta + alpha * tau)  # an ndarray z is a fresh array from here on, updated in place
    while invert:
        k = round(tau.real)
        tau, z = tau - k, z + 0.5 * (k % 2)
        if abs(tau) >= 1.0:
            break
        z, inv = z - rint(z.real), -1.0 / tau  # theta3 is 1-periodic; a small Re z keeps z^2/tau exact
        E += 0.5 * cmath.log(1j / tau) + _mul(_mul(1j * math.pi * z, z), inv)
        z, tau = _mul(-z, inv), inv
    n0 = rint(-z.imag / tau.imag)
    E += 1j * math.pi * n0 * (n0 * tau + 2.0 * z)
    z += n0 * tau
    n, quad, q = _window(tau.imag, budget.tol), 1j * math.pi * tau, cmath.exp(2j * math.pi * tau)
    z *= 2j * math.pi
    if isinstance(z, complex):
        S = 1.0 + 0j
        for r in (_exp(quad + z), _exp(quad - z)):
            S, t = S + r, r
            for _ in range(n - 1):
                t = t * (r := r * q)
                S = S + t
        return E, S
    S, t, scratch = np.ones(z.shape, dtype=complex), np.empty(z.shape, dtype=complex), (n0, np.empty(z.shape))
    for r in (np.add(quad, z), np.subtract(quad, z, out=z)):  # n0's float array is spent: it is scratch
        S += np.exp(r, out=r)
        np.copyto(t, r)
        for _ in range(n - 1):
            S += _imul(t, _imul(r, q, scratch), scratch)
    return E, S


def _theta_value(what, alpha, beta, tau, z, budget, logpref=0.0, invert=True):
    """exp(logpref) * theta_{alpha,beta}(z | tau) = exp(E) * S by _theta_exp, through core._finite_exp naming `what`:
    a Python number takes the scalar route, with no numpy, an array one pass with the window walked in place."""
    if _is_number(z) and _is_number(logpref):
        E, S = _theta_exp(alpha, beta, tau, complex(z), budget, complex(logpref), invert)
    else:
        with _quiet(z):
            E, S = _theta_exp(alpha, beta, tau, z, budget, logpref, invert)
    return _finite_exp(S, E, what)


def riemann_theta(args, z, budget=DEFAULT_BUDGET):
    """theta_{alpha,beta}(z | tau) for scalar or ndarray z."""
    z = _finite(_as_complex(z), "theta series")
    return _theta_value("theta series", args.alpha, args.beta, args.tau, z, budget)


def jacobi_theta3(z, tau, budget=DEFAULT_BUDGET):
    """Jacobi theta3(z | tau), the zero-characteristic series."""
    return riemann_theta(ThetaArgs(0.0, 0.0, tau), z, budget)

