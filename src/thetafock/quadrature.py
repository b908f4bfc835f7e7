"""Weighted inner products on the strip and on the base interval.

Strip inner product for the Gaussian-weighted space on S = [0,1] x R:

    <f, g> = integral over S of f(z) conj(g(z)) exp(-nu*|z|^2) dm(z),

computed as a trapezoid rule in x (spectrally accurate for 1-periodic
integrands) tensored with Gauss-Hermite in y under the substitution
u = sqrt(nu) * (y - y_shift).  The Gauss-Hermite weight exp(-u^2) is
removed analytically, so the node weight is w_x w_u exp(u^2 - nu*|z|^2) /
sqrt(nu).  Its exponent is linear in y and does not overflow, but its exp
underflows to 0 at the outer nodes, where f conj(g) ~ e^{nu |z|^2} may
overflow: inf * 0 = nan.  The rule therefore keeps s = sqrt(node weight), an
x part times a y part (x_points + y_order exps a rule), and sums
(f s) conj(g s): f s ~ f e^{-nu |z|^2 / 2} is finite wherever f is, so a
strip norm of psi_n holds until psi_n itself overflows on the nodes, and a
sum that still leaves the double range raises OverflowError.  The shift
recenters the rule on the Gaussian bump of the integrand; for a pair of
Fourier modes n and m of the space with character alpha the bump sits at
y = -pi*(alpha + (n+m)/2)/nu.  The rule is built once per (nu, scheme) and
kept read-only, so the sums on one scheme share it.  strip_gram builds a
whole Gram matrix on that rule: pairs with equal n + m share one node grid,
on which each mode is evaluated once, so N consecutive indices take 2N - 1
grids, not N^2.

Line inner product on [0, sqrt(2)] is a plain trapezoid rule, spectrally
accurate for the sqrt(2)-periodic functions it is used on.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .core import DomainError, EvaluationError, _finite, _index, _quiet, _real, np

SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=32)
def _hermgauss(order):
    return np.polynomial.hermite.hermgauss(order)


class StripScheme(namedtuple("StripScheme", "x_points y_order y_shift")):
    """Tensor quadrature on the strip: trapezoid nodes in x, Gauss-Hermite
    order in y, and the recentering shift of the y rule."""

    __slots__ = ()

    def __new__(cls, x_points=64, y_order=64, y_shift=0.0):
        x_points, y_order = _index(x_points, "x_points", 4), _index(y_order, "y_order", 8)
        return super().__new__(cls, x_points, y_order, _real(y_shift, "y_shift"))

    @classmethod
    def centered(cls, nu, alpha, n_bar):
        """Scheme recentered on the Gaussian bump of mode index n_bar
        (use the midpoint (n+m)/2 for a pair of modes n, m)."""
        nu = _real(nu, "nu", positive=True)
        return cls(y_shift=-math.pi * (_real(alpha, "alpha") + _real(n_bar, "n_bar")) / nu)

    def doubled(self):
        return StripScheme(2 * self.x_points, 2 * self.y_order, self.y_shift)


class LineScheme(namedtuple("LineScheme", "q_points")):
    """Trapezoid rule with q_points nodes on [0, sqrt(2)]."""

    __slots__ = ()

    def __new__(cls, q_points=256):
        return super().__new__(cls, _index(q_points, "q_points", 4))

    def doubled(self):
        return LineScheme(2 * self.q_points)


def _trapezoid_weights(n, length):
    w = np.full(n, length / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _evaluate_on(f, nodes, label):
    """Evaluate a callable on an ndarray of nodes, falling back to pointwise
    evaluation for scalar-only callables (TypeError or ValueError on an
    array, other than DomainError), and check finiteness."""
    vals = None
    try:
        cand = np.asarray(f(nodes), dtype=complex)
        if cand.shape == nodes.shape:
            vals = cand
    except DomainError:
        raise
    except (TypeError, ValueError):
        vals = None
    if vals is None:
        vals = np.vectorize(f, otypes=[complex])(nodes)
    bad = ~np.isfinite(vals)
    if bad.any():
        where = nodes[bad].ravel()[0]
        raise EvaluationError(f"{label} returned a non-finite value at node {where}")
    return vals


@lru_cache(maxsize=32)
def _strip_rule(nu, scheme):
    """Node grid and root weights s of the strip rule, node weight s^2, as the outer product of an x and a y part;
    built once per (nu, scheme), both read-only, so that no callable can change a later call's rule."""
    _real(nu, "nu", positive=True)
    xs = np.linspace(0.0, 1.0, scheme.x_points)
    u, wu = _hermgauss(scheme.y_order)
    ys = u / math.sqrt(nu) + scheme.y_shift
    # exp(-u^2) of the Gauss-Hermite weight cancels analytically against the substitution
    sx = np.sqrt(_trapezoid_weights(scheme.x_points, 1.0)) * np.exp(-0.5 * nu * xs**2)
    sy = np.sqrt(wu / math.sqrt(nu)) * np.exp(0.5 * (u**2 - nu * ys**2))
    grid, root = xs[:, None] + 1j * ys[None, :], sx[:, None] * sy[None, :]
    grid.flags.writeable = root.flags.writeable = False
    return grid, root


def strip_inner_product(f, g, nu, scheme=StripScheme()):
    """Gaussian-weighted inner product <f, g> on the strip [0,1] x R.

    f and g are callables of a complex argument (vectorized callables are
    evaluated on the full node grid at once).  Conjugate-linear in g.  A norm,
    g is f, evaluates f once.
    """
    grid, root = _strip_rule(nu, scheme)
    fv = _evaluate_on(f, grid, "f")
    gv = fv if g is f else _evaluate_on(g, grid, "g")
    with _quiet(grid):  # a sum that left the double range is raised by _finite
        fs = fv * root
        return _finite(complex(np.sum(fs * np.conj(fs if g is f else gv * root))), "strip inner product")


def strip_gram(modes, nu, alpha):
    """Gram matrix G[i, j] = <f_i, f_j> of modes given as (n, f) pairs, n the
    Fourier index that places the Gaussian bump of f.  Each entry equals, to
    the last bit, strip_inner_product(f_i, f_j, nu, scheme) with the scheme
    StripScheme.centered(nu, alpha, (n_i + n_j)/2) of the pair."""
    ns = [_index(n) for n, _ in modes]
    gram = np.zeros((len(modes), len(modes)), dtype=complex)
    for total in sorted({a + b for a in ns for b in ns}):
        grid, root = _strip_rule(nu, StripScheme.centered(nu, alpha, total / 2.0))
        vals = {i: _evaluate_on(f, grid, f"mode {i}") for i, (n, f) in enumerate(modes) if total - n in ns}
        with _quiet(grid):
            vals = {i: v * root for i, v in vals.items()}
            for i in vals:
                for j in vals:
                    if ns[i] + ns[j] == total:
                        gram[i, j] = np.sum(vals[i] * np.conj(vals[j]))
    return _finite(gram, "strip Gram matrix")


def line_inner_product(phi1, phi2, scheme=LineScheme()):
    """Plain L^2 inner product <phi1, phi2> on the interval [0, sqrt(2)]."""
    qs = np.linspace(0.0, SQRT2, scheme.q_points)
    w = _trapezoid_weights(scheme.q_points, SQRT2)
    v1 = _evaluate_on(phi1, qs, "phi1")
    v2 = _evaluate_on(phi2, qs, "phi2")
    with _quiet(qs):
        return _finite(complex(np.sum(v1 * np.conj(v2) * w)), "line inner product")
