"""Scalar building blocks shared by every module in the package.

Hermite polynomials in the physicists' convention and the unit circle
character m -> exp(2*pi*i*alpha*m).  Also the bilateral series driver of the
mode-sum oracles (the sum paths of K and G): terms are added outward from a
center index until the tails are certified relative to the sum, and a sum
that cancels below its rounding raises instead of returning.

Every module takes numpy as `np` from here, imported lazily: it executes on
first use.  A Python number, a numpy scalar or a 0-d array takes the scalar
route, plain complex/cmath/math; any other ndarray the array route; one formula
serves both.  _as_complex picks the route once per entry point: complex, float
and int by exact type (~0.04 us), other types by the numbers ABCs (~0.8 us each
through ABCMeta's isinstance), and an array by np.ndim.  Only exp and the
reductions dispatch; _mul rounds a product as Python's complex type on both
routes (numpy may fuse its multiply-add), and series are summed left to right
on both, so a scalar value equals its array counterpart to the last bit.

What loads when: this module imports only the standard library, and numpy
lazily as above.  The library's value types (TruncationBudget here,
ThetaArgs, SpaceParams, MembershipResult, the quadrature schemes and the
verify records) are namedtuples validated in __new__, so no module imports
dataclasses (and with it inspect); only theta's shift of a large Re tau
imports fractions.
"""

import cmath
import contextlib
import importlib.util
import math
import numbers
import sys
from collections import namedtuple


def _lazy(name):
    """Module `name`, executed on its first attribute access unless imported already."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class TruncationError(ArithmeticError):
    """A series or refinement loop hit its budget before converging."""


class EvaluationError(ArithmeticError):
    """A user-supplied callable produced a non-finite value at a node."""


class TruncationBudget(namedtuple("TruncationBudget", "tol max_terms")):
    """Truncation policy of every series: tol bounds the tail left out
    relative to sum |term|, and max_terms caps the one-sided terms.  The theta
    window (theta._theta_exp) fixes its width from tol in closed form;
    bilateral_sum stops on it and also raises once rounding, eps * sum |term|,
    exceeds tol relative to the sum."""

    __slots__ = ()

    def __new__(cls, tol=1e-12, max_terms=10000):
        if not (tol > 0.0 and math.isfinite(tol)):
            raise DomainError(f"budget tol must be positive and finite, got {tol}")
        if max_terms < 1:
            raise DomainError(f"budget max_terms must be >= 1, got {max_terms}")
        return super().__new__(cls, tol, max_terms)


DEFAULT_BUDGET = TruncationBudget()
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_COMPLEXES, _REALS = (complex, float, int), (float, int)
_QUIET = contextlib.nullcontext()
_TWO_K = tuple(map(float, range(0, 128, 2)))  # 2.0*k for k < 64, the factors of hermite_poly's recurrence


def _is_number(x, real=False):
    """True if x takes the scalar route: a number (a real one if `real`), not an
    array.  The exact types complex, float and int answer from type(x); only
    other types (numpy scalars, bool, Fraction) ask numbers.Complex or
    numbers.Real."""
    return type(x) in (_REALS if real else _COMPLEXES) or isinstance(x, numbers.Real if real else numbers.Complex)


def _as_complex(z):
    """z as a Python complex (scalar route: a number or a 0-d array) or a complex ndarray (array route)."""
    return complex(z) if _is_number(z) or np.ndim(z) == 0 else np.asarray(z, dtype=complex)


def _quiet(x):
    """numpy's overflow warnings off for an ndarray x, which is checked afterwards."""
    return _QUIET if _is_number(x) else np.errstate(over="ignore", invalid="ignore")


def _exp(x):
    """cmath.exp of a Python complex (np.exp to the last bit; non-finite where
    it overflows, for _finite to report), np.exp of anything else."""
    if not isinstance(x, complex):
        return np.exp(x)
    try:
        return cmath.exp(x)
    except (OverflowError, ValueError):
        return complex(math.inf, math.nan)


def _mul(a, b):
    """a * b rounded as Python's complex product, on either route."""
    product = 1j * a.imag * b
    product += a.real * b
    return product


def _reduce(name, x):
    """np.<name> ("max", "mean") over the entries of x as a float; a Python float is its own."""
    return x if isinstance(x, float) else float(getattr(np, name)(x))


def _finite(vals, what):
    """vals as a complex scalar or complex ndarray; raises OverflowError naming
    `what` if any entry left the double range (inf or nan)."""
    if type(vals) is complex and cmath.isfinite(vals):
        return vals
    scalar = _is_number(vals)
    vals = complex(vals) if scalar else np.asarray(vals, dtype=complex)
    if not (cmath.isfinite(vals) if scalar else np.all(np.isfinite(vals))):
        raise OverflowError(f"{what} overflowed the double range")
    return vals


def hermite_poly(m, x):
    """Physicists' Hermite polynomial H_m(x) by upward recurrence.

    H_0 = 1, H_1 = 2x, H_{m+1} = 2x H_m - 2m H_{m-1}, for every degree m.
    Accepts scalar (a 0-d array too) or ndarray x.  Raises OverflowError if
    the recurrence leaves the double range (large m with large x).
    """
    if type(m) is not int or m < 0:
        if m < 0 or m != int(m):
            raise DomainError(f"Hermite degree must be a nonnegative integer, got {m}")
        m = int(m)
    if scalar := _is_number(x, real=True) or np.ndim(x) == 0:
        out = _hermite(m, float(x), 1.0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
            out = _hermite(m, np.asarray(x, dtype=float), np.ones(np.shape(x)))
    if not (math.isfinite(out) if scalar else np.all(np.isfinite(out))):
        raise OverflowError(f"Hermite recurrence overflowed at degree {m}")
    return out


def _hermite(m, x, h_prev):
    """H_m(x) from H_0 = h_prev on either route; with 2x formed once and each 2k a
    float (from _TWO_K up to its length), a step rounds as 2.0*x*H_k - 2.0*k*H_{k-1}."""
    x2 = h = 2.0 * x
    for k2 in _TWO_K[1:m] if m <= len(_TWO_K) else map(float, range(2, 2 * m, 2)):
        h, h_prev = x2 * h - k2 * h_prev, h
    return h if m else h_prev


def character(alpha, m):
    """Unit circle character chi_alpha(m) = exp(2*pi*i*alpha*m) for integer m.

    The phase alpha*m is reduced mod 1 exactly (alpha is a dyadic rational
    num/den in double precision, so integer arithmetic is lossless, and int/int
    division rounds correctly) before exponentiating; chi(m1 + m2) =
    chi(m1) * chi(m2) then holds to roundoff for arbitrarily large |m|.
    """
    if m != int(m):
        raise DomainError(f"character argument must be an integer, got {m}")
    if not math.isfinite(alpha):
        raise DomainError(f"character exponent must be finite, got {alpha}")
    num, den = float(alpha).as_integer_ratio()
    frac = num * int(m) % den / den
    return cmath.exp(2j * math.pi * frac)


def bilateral_sum(term, center, budget=DEFAULT_BUDGET):
    """Sum term(n) over all integers n, expanding symmetrically from center.

    term(n) may return a complex scalar or an ndarray (one series per entry).
    A side stops once its last two terms are below 0.1 * budget.tol of the
    running sum |term| of every entry and decay by more than 1/2, so the tail
    is below budget.tol * sum |term|.  Raises TruncationError when
    budget.max_terms one-sided terms do not get there, or when the sum cancels:
    sum |term| / |sum term| > budget.tol / eps at some entry.
    """
    center = int(center)
    safety = 0.1 * budget.tol
    done = {+1: False, -1: False}
    prev = {+1: math.inf, -1: math.inf}
    total = _as_complex(term(center))
    # Overflow in a term shows up as inf/nan in the running total, which
    # callers detect and convert to OverflowError; suppress the interim
    # numpy warnings so the raised error is the single signal.
    with _quiet(total):
        # _TINY keeps both ratios defined while every term is exactly 0.
        absum = abs(total) + _TINY
        for k in range(1, budget.max_terms + 1):
            for sign in (+1, -1):
                if done[sign]:
                    continue
                t = _as_complex(term(center + sign * k))
                total = total + t
                mag = abs(t)
                absum = absum + mag
                mag = _reduce("max", mag / absum)
                if mag <= safety and prev[sign] <= safety and (mag < 0.5 * prev[sign] or mag == 0.0):
                    done[sign] = True
                prev[sign] = mag
            if done[+1] and done[-1]:
                factor = _reduce("max", absum / (abs(total) + _TINY))
                if factor > budget.tol / _EPS:
                    raise TruncationError(f"bilateral series cancels: sum |term| / |sum| = {factor:.3e} > tol/eps")
                return total
    last = max(prev[+1], prev[-1])
    raise TruncationError(
        f"bilateral series not certified after {budget.max_terms} one-sided terms;"
        f" last term {last:.3e} of sum |term| vs tol {budget.tol:.3e}"
    )
