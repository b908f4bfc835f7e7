"""Scalar building blocks shared by every module in the package.

Hermite polynomials in the physicists' convention and the unit circle
character m -> exp(2*pi*i*alpha*m).  Also the bilateral series driver of the
mode-sum oracles (the sum paths of K and G): terms are added outward from a
center index until the tails are certified relative to the sum, and a sum
that cancels below its rounding raises instead of returning.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class TruncationError(ArithmeticError):
    """A series or refinement loop hit its budget before converging."""


class EvaluationError(ArithmeticError):
    """A user-supplied callable produced a non-finite value at a node."""


@dataclass(frozen=True)
class TruncationBudget:
    """Truncation policy of every series: tol bounds the tail left out
    relative to sum |term|, and max_terms caps the one-sided terms.  The theta
    window (theta._theta_exp) fixes its width from tol in closed form;
    bilateral_sum stops on it and also raises once rounding, eps * sum |term|,
    exceeds tol relative to the sum."""

    tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise DomainError(f"budget tol must be positive and finite, got {self.tol}")
        if self.max_terms < 1:
            raise DomainError(f"budget max_terms must be >= 1, got {self.max_terms}")


DEFAULT_BUDGET = TruncationBudget()
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _finite(vals, what):
    """vals as a complex scalar (0-d) or complex ndarray; raises OverflowError
    naming `what` if any entry left the double range (inf or nan)."""
    vals = complex(vals) if np.ndim(vals) == 0 else np.asarray(vals, dtype=complex)
    if not (cmath.isfinite(vals) if isinstance(vals, complex) else np.all(np.isfinite(vals))):
        raise OverflowError(f"{what} overflowed the double range")
    return vals


def hermite_poly(m, x):
    """Physicists' Hermite polynomial H_m(x) by upward recurrence.

    H_0 = 1, H_1 = 2x, H_{m+1} = 2x H_m - 2m H_{m-1}.  Accepts scalar or
    ndarray x.  Raises OverflowError if the recurrence leaves the double
    range (large m with large x).
    """
    if m < 0 or m != int(m):
        raise DomainError(f"Hermite degree must be a nonnegative integer, got {m}")
    m = int(m)
    xs = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xs)
    # Overflow is detected below and raised; silence the interim warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if m == 0:
            out = h_prev
        else:
            h = 2.0 * xs
            for k in range(1, m):
                h, h_prev = 2.0 * xs * h - 2.0 * k * h_prev, h
            out = h
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"Hermite recurrence overflowed at degree {m}")
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def character(alpha, m):
    """Unit circle character chi_alpha(m) = exp(2*pi*i*alpha*m) for integer m.

    The phase alpha*m is reduced mod 1 exactly (alpha is a dyadic rational
    in double precision, so Fraction arithmetic is lossless) before
    exponentiating; chi(m1 + m2) = chi(m1) * chi(m2) then holds to roundoff
    for arbitrarily large |m|.
    """
    if m != int(m):
        raise DomainError(f"character argument must be an integer, got {m}")
    if not math.isfinite(alpha):
        raise DomainError(f"character exponent must be finite, got {alpha}")
    frac = float((Fraction(float(alpha)) * int(m)) % 1)
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
    # Overflow in a term shows up as inf/nan in the running total, which
    # callers detect and convert to OverflowError; suppress the interim
    # numpy warnings so the raised error is the single signal.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.array(term(center), dtype=complex)
        # _TINY keeps both ratios defined while every term is exactly 0.
        absum = np.abs(total) + _TINY
        for k in range(1, budget.max_terms + 1):
            for sign in (+1, -1):
                if done[sign]:
                    continue
                t = np.asarray(term(center + sign * k), dtype=complex)
                total = total + t
                mag = np.abs(t)
                absum = absum + mag
                mag = float(np.max(mag / absum))
                if mag <= safety and prev[sign] <= safety and (mag < 0.5 * prev[sign] or mag == 0.0):
                    done[sign] = True
                prev[sign] = mag
            if done[+1] and done[-1]:
                factor = float(np.max(absum / (np.abs(total) + _TINY)))
                if factor > budget.tol / _EPS:
                    raise TruncationError(f"bilateral series cancels: sum |term| / |sum| = {factor:.3e} > tol/eps")
                return total
    last = max(prev[+1], prev[-1])
    raise TruncationError(
        f"bilateral series not certified after {budget.max_terms} one-sided terms;"
        f" last term {last:.3e} of sum |term| vs tol {budget.tol:.3e}"
    )
