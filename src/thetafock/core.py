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
reductions dispatch; _exp rounds a number as np.exp does, _mul rounds a product
as Python's complex type on both routes (numpy may fuse its multiply-add), _imul
in place, and a series adds in one order on both, so a scalar value equals its
array counterpart to the bit, with -0.0 and 0.0 counted as equal: numpy's
complex product can give a zero either sign, by its position in the array.

Overflow: members grow like e^{nu |z|^2 / 2}, so values sit near the edge of
the double range.  The rule lives here: a value kept as scale * e^expo leaves
through _finite_exp, which first moves scale's binary exponent (frexp's) into
expo where Re expo is outside exp's normal range, and a sum through _finite;
either raises OverflowError naming its quantity rather than return inf or nan.
Array work runs under _quiet, the one place that sets numpy's error state.

Arguments: every index, level, lattice step and count goes through _index and
every real parameter through _real, which raise DomainError naming the argument
for a nan, infinite, fractional or out-of-range value.  The theta paths pass
their points through _finite at entry: a nan or infinite point raises the
path's OverflowError before any arithmetic, on both routes.  The modes e_n,
psi_n and psi_{m,n} check an array's points so; a Python number, on which no
arithmetic warns, goes unchecked to _finite_exp, which raises alike.  phi_n
checks a number too, since its exp(-inf + nan*i) would return 0.

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


def _index(value, what="mode index", least=None):
    """value as an int; a nan, infinite or fractional value, or one below `least`, raises DomainError naming `what`."""
    try:
        index = int(value)
    except (OverflowError, ValueError):  # inf, nan
        index = math.nan
    if index != value:
        raise DomainError(f"{what} must be an integer, got {value}")
    if least is not None and index < least:
        raise DomainError(f"{what} must be >= {least}, got {index}")
    return index


def _real(value, what, positive=False):
    """value itself if it is finite (and > 0 if `positive`); otherwise DomainError naming `what`."""
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        raise DomainError(f"{what} must be {'positive and ' if positive else ''}finite, got {value}")
    return value


class TruncationBudget(namedtuple("TruncationBudget", "tol")):
    """Truncation policy of every series: tol bounds the tail left out
    relative to sum |term|, within MAX_TERMS one-sided terms.  The theta
    window (theta._theta_exp) takes its width from tol in closed form and
    walks it by term ratios; bilateral_sum stops on tol and raises once the
    rounding, eps * sum |term|, exceeds tol relative to the sum; and
    bargmann_pointwise doubles its rule to within tol * sum |node term|."""

    __slots__ = ()

    def __new__(cls, tol=1e-12):
        return super().__new__(cls, _real(tol, "budget tol", positive=True))


DEFAULT_BUDGET = TruncationBudget()
MAX_TERMS = 10000  # one-sided terms of any series: the theta window and bilateral_sum raise beyond it
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_COMPLEXES = (complex, float, int)
_QUIET = contextlib.nullcontext()
_TWO_K = tuple(map(float, range(0, 128, 2)))  # 2.0*k for k < 64, the factors of hermite_poly's recurrence
_EXP_EDGE = math.log(sys.float_info.max / 4.0)  # ~708.4, cmath's log(DBL_MAX/4)
_EXP_709 = math.exp(709.0)
_LOG_MIN, _LOG_MAX, _LN2 = math.log(_TINY), math.log(sys.float_info.max), math.log(2.0)  # exp's normal range


def _is_number(x):
    """True if x takes the scalar route: a number, not an array.  The exact types
    complex, float and int answer from type(x); only other types (numpy scalars,
    bool, Fraction) ask numbers.Complex."""
    return type(x) in _COMPLEXES or isinstance(x, numbers.Complex)


def _as_complex(z):
    """z as a Python complex (scalar route: a number or a 0-d array) or a complex ndarray (array route)."""
    return complex(z) if _is_number(z) or np.ndim(z) == 0 else np.asarray(z, dtype=complex)


def _quiet(x):
    """numpy's overflow warnings off for an ndarray x, which is checked afterwards."""
    return _QUIET if _is_number(x) else np.errstate(over="ignore", invalid="ignore")


def _exp(x):
    """exp of a Python complex, as np.exp rounds it (non-finite where it overflows, for _finite to report);
    np.exp of anything else.  Up to _EXP_EDGE that is cmath.exp.  Above it cmath.exp forms exp(x - 1) * e, so
    a number takes the steps of glibc's cexp, which np.exp calls: exp(x) (cos y, sin y), with cos y and sin y
    scaled by exp(709) first where x > 709."""
    if not isinstance(x, complex):
        return np.exp(x)
    try:
        if not x.real > _EXP_EDGE:  # a nan real part too
            return cmath.exp(x)
        t, c, s = x.real, math.cos(x.imag), math.sin(x.imag)
        if t > 709.0:
            t, c, s = t - 709.0, c * _EXP_709, s * _EXP_709
        e = math.exp(t)
        return complex(e * c, e * s)
    except (OverflowError, ValueError):
        return complex(math.inf, math.nan)


def _mul(a, b):
    """a * b rounded as Python's complex product, on either route."""
    product = 1j * a.imag * b
    product += a.real * b
    return product


def _imul(a, b, scratch):
    """a *= b in place, rounded as _mul, in a's float views and the float arrays `scratch`; returns a."""
    (x, y), re, im = scratch, a.real, a.imag
    np.multiply(re, b.imag, out=x), np.multiply(im, b.imag, out=y)
    np.subtract(np.multiply(re, b.real, out=re), y, out=re), np.add(np.multiply(im, b.real, out=im), x, out=im)
    return a


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
    if not (cmath.isfinite(vals) if scalar else np.isfinite(vals).all()):
        raise OverflowError(f"{what} overflowed the double range")
    return vals


def _finite_exp(scale, expo, what):
    """scale * exp(expo) through _finite, by the module's overflow rule; the shift multiplies scale by a power of two,
    exact where the result is normal, and a subnormal scale shifts as the least normal.  A complex scale's product
    rounds as _mul.  An ndarray expo is consumed in place, under _quiet; a number, numpy's too, enters no context."""
    if isinstance(expo, complex):
        if not _LOG_MIN <= expo.real <= _LOG_MAX:  # a nan too
            e = max(math.frexp(max(abs(scale.real), abs(scale.imag)))[1], sys.float_info.min_exp)
            expo, scale = complex(expo.real + e * _LN2, expo.imag), scale * math.ldexp(1.0, -e)
        return _finite(_mul(scale, _exp(expo)) if isinstance(scale, complex) else scale * _exp(expo), what)
    with _quiet(expo):
        r = expo.real.copy()  # contiguous: its min and max cost half the strided view's
        if r.size and not _LOG_MIN <= r.min() <= r.max() <= _LOG_MAX:
            e = np.maximum(np.frexp(np.maximum(abs(scale.real), abs(scale.imag)))[1], sys.float_info.min_exp)
            e = np.where((r < _LOG_MIN) | (r > _LOG_MAX), e, 0)
            expo.real += e * _LN2
            scale = scale * np.ldexp(1.0, -e)
        np.exp(expo, out=expo)
        if np.asarray(scale).dtype.kind == "c":
            return _finite(_imul(expo, scale, (np.empty(expo.shape), np.empty(expo.shape))), what)
        return _finite(np.multiply(scale, expo, out=expo), what)  # scale first: numpy may fuse a complex product


def hermite_poly(m, x):
    """Physicists' Hermite polynomial H_m(x) by upward recurrence.

    H_0 = 1, H_1 = 2x, H_{m+1} = 2x H_m - 2m H_{m-1}, for every degree m.
    Accepts scalar (a 0-d array too) or ndarray x.  Raises OverflowError if
    the recurrence leaves the double range (large m with large x).
    """
    if type(m) is not int or m < 0:
        m = _index(m, "Hermite degree", 0)
    if scalar := _is_number(x) or np.ndim(x) == 0:
        out = _hermite(m, float(x), 1.0)
    else:
        with _quiet(x):  # overflow is raised below
            out = _hermite(m, np.asarray(x, dtype=float), np.ones(np.shape(x)))
    if not (math.isfinite(out) if scalar else np.isfinite(out).all()):
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
    m = _index(m, "character argument")
    num, den = float(_real(alpha, "character exponent")).as_integer_ratio()
    frac = num * m % den / den
    return cmath.exp(2j * math.pi * frac)


def bilateral_sum(term, center, budget=DEFAULT_BUDGET):
    """Sum term(n) over all integers n, expanding symmetrically from center.

    term(n) may return a complex scalar or an ndarray (one series per entry).
    A side stops once its last two terms are below 0.1 * budget.tol of the
    running sum |term| of every entry and decay by more than 1/2, so the tail
    is below budget.tol * sum |term|.  Raises TruncationError when
    MAX_TERMS one-sided terms do not get there, or when the sum cancels:
    sum |term| / |sum term| > budget.tol / eps at some entry.
    """
    center = int(center)
    safety = 0.1 * budget.tol
    done = {+1: False, -1: False}
    prev = {+1: math.inf, -1: math.inf}
    total = _as_complex(term(center))
    with _quiet(total):  # a term that overflowed leaves inf or nan in the total, for the caller's _finite
        # _TINY keeps both ratios defined while every term is exactly 0.
        absum = abs(total) + _TINY
        for k in range(1, MAX_TERMS + 1):
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
        f"bilateral series not certified after {MAX_TERMS} one-sided terms;"
        f" last term {last:.3e} of sum |term| vs tol {budget.tol:.3e}"
    )
