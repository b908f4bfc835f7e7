"""Acceptance suite: every closed-form identity of the package certified
against an independent numerical path.

Each criterion produces one or more cases, and every case has one shape:
the worst deviation over the criterion's samples (0.0 for a perfect match),
against a pinned tolerance.  A case records expected = 0.0, actual = the
worst deviation, and passes when |expected - actual| <= tolerance; a nan
deviation fails it.  Closed forms are checked against quadrature (trapezoid x
Gauss-Hermite on the strip, trapezoid on the line), series against
independent partial summation or recomputation at a tighter budget,
differential identities against Wirtinger finite differences, and the
functional equation that defines the space by evaluating each kind of
member at z and at z + k.

run_acceptance() executes all criteria with their pinned tolerances;
passing an explicit tol replaces every pinned tolerance, which separates
the quadrature-limited cases from the closed-form ones (at 1e-15 only
the exact bookkeeping identities survive).
"""

import math
import time
from collections import namedtuple

from .bargmann import (
    bargmann_kernel_A,
    bargmann_pointwise,
    generating_kernel_G,
    generating_kernel_sum,
    phi_basis,
)
from .core import DomainError, TruncationBudget, _real, np
from .fock import (
    FockElement,
    SpaceParams,
    basis_e,
    basis_psi,
    e_norm,
    pointwise_bound,
    quasiperiod_residual,
    reproducing_kernel,
    theta_member,
    theta_membership,
)
from .landau import (
    SAMPLE_Z,
    LandauElement,
    annihilation_apply,
    basis_psi_mn,
    creation_apply,
    eigen_residual,
)
from .quadrature import LineScheme, StripScheme, line_inner_product, strip_gram, strip_inner_product
from .theta import ThetaArgs, jacobi_theta3, riemann_theta

SEED = 20240815

BASE_PARAMS = SpaceParams(math.pi, 0.3)
SETTINGS = (
    SpaceParams(math.pi, 0.3),
    SpaceParams(1.0, 0.0),
    SpaceParams(2.0, -0.25),
    SpaceParams(0.7, 0.5),
)


class VerifyCase(namedtuple("VerifyCase", "name expected actual tolerance")):
    """One certified quantity: a residual, its ideal value and tolerance."""

    __slots__ = ()

    def __new__(cls, name, expected, actual, tolerance):
        if not tolerance >= 0.0:
            raise DomainError(f"case {name}: tolerance must be >= 0, got {tolerance}")
        return super().__new__(cls, name, expected, actual, tolerance)

    @property
    def passed(self):
        return abs(self.expected - self.actual) <= self.tolerance

    def to_dict(self):
        return {**self._asdict(), "pass": bool(self.passed)}


class VerifyReport(namedtuple("VerifyReport", "suite cases wall_time")):
    """The cases of one suite run, in criterion order, and its wall time in seconds."""

    __slots__ = ()

    def __new__(cls, suite, cases, wall_time):
        return super().__new__(cls, suite, tuple(cases), wall_time)

    @property
    def all_passed(self):
        return all(c.passed for c in self.cases)

    def to_dict(self):
        return {"suite": self.suite, "cases": [c.to_dict() for c in self.cases], "wall_time": self.wall_time}


def _case(name, tolerance, deviations):
    """The case `name`: the worst of its sample deviations, or nan if any is nan."""
    devs = (0.0, *deviations)
    worst = math.nan if any(map(math.isnan, devs)) else max(devs)
    return VerifyCase(name, 0.0, worst, tolerance)


def _rel(value, ref, floor=0.0):
    """|value - ref| scaled by |ref|, or by floor where |ref| is smaller."""
    return abs(value - ref) / max(floor, abs(ref))


def _strip_norm(f, params, n_bar):
    """Quadrature norm of f on the strip, the rule centred on mode index n_bar."""
    scheme = StripScheme.centered(params.nu, params.alpha, n_bar)
    return math.sqrt(strip_inner_product(f, f, params.nu, scheme).real)


def _gram_deviations(modes, params):
    """|<f_i, f_j> - delta_ij| over i <= j for strip_gram's (n, f) modes."""
    rows = strip_gram(modes, params.nu, params.alpha).tolist()
    return (abs(rows[i][j] - float(i == j)) for i in range(len(rows)) for j in range(i, len(rows)))


def criterion_orthonormal_basis():
    """Quadrature Gram matrix of psi_n equals the identity."""
    deviations = (
        dev for p in SETTINGS
        for dev in _gram_deviations([(n, lambda z, n=n, p=p: basis_psi(n, z, p)) for n in range(-4, 5)], p)
    )
    return [_case("01-orthonormal-basis", 1e-8, deviations)]


def criterion_mode_norm():
    """Closed-form ||e_n|| matches the quadrature norm."""
    params = BASE_PARAMS
    deviations = (
        _rel(_strip_norm(lambda z, n=n: basis_e(n, z, params), params, n), e_norm(n, params)) for n in range(-3, 4)
    )
    return [_case("02-mode-norm-closed-form", 1e-8, deviations)]


def _random_elements(rng, params, count, width=3, terms=4):
    """`count` members, each with `terms` normal random psi coefficients on indices -width..width."""
    out = []
    for _ in range(count):
        support = rng.choice(np.arange(-width, width + 1), size=terms, replace=False)
        out.append(FockElement.from_psi_coeffs(params, {int(n): complex(*rng.standard_normal(2)) for n in support}))
    return out


def criterion_parseval():
    """Parseval norm of random finite combinations matches quadrature."""
    rng = np.random.default_rng(SEED)
    params = BASE_PARAMS
    deviations = (_rel(_strip_norm(f.evaluate, params, 0), f.norm()) for f in _random_elements(rng, params, 10))
    return [_case("03-parseval-norm", 1e-6, deviations)]


def criterion_kernel_two_path():
    """Theta closed form of the kernel equals its orthonormal mode sum."""
    params = BASE_PARAMS
    zs = (0.1 - 0.3j, 0.35 - 0.1j, 0.6 + 0.0j, 0.8 + 0.2j, 0.95 + 0.4j)
    ws = (0.05 + 0.35j, 0.3 + 0.1j, 0.55 - 0.05j, 0.75 - 0.25j, 0.9 + 0.15j)
    deviations = (
        _rel(reproducing_kernel(z, w, params, path="sum"), reproducing_kernel(z, w, params, path="theta"))
        for z in zs for w in ws
    )
    return [_case("04-kernel-two-path", 1e-9, deviations)]


def criterion_kernel_reproduces():
    """Pairing a member against K(., w) reproduces its value at w."""
    params = BASE_PARAMS
    elements = (
        FockElement.from_psi_coeffs(params, {0: 1.0}),
        FockElement.from_psi_coeffs(params, {-1: 0.5 + 0.2j, 0: 1.0, 2: -0.3j}),
        FockElement.from_psi_coeffs(params, {-3: 1.0j, 1: 0.7, 3: 0.2 - 0.1j}),
    )
    ws = (0.2 + 0.3j, 0.6 - 0.2j, 0.85 + 0.1j)

    def pairing(elem, w):
        scheme = StripScheme.centered(params.nu, params.alpha, elem.dominant_index() / 2.0)
        return strip_inner_product(elem.evaluate, lambda z: reproducing_kernel(z, w, params), params.nu, scheme)

    return [_case("05-kernel-reproduces", 1e-6, (_rel(pairing(f, w), f.evaluate(w)) for f in elements for w in ws))]


def criterion_growth_bound():
    """|f(z)| never exceeds ||f|| K(z,z)^(1/2) beyond roundoff margin."""
    rng = np.random.default_rng(SEED + 1)

    def margins():
        for params in (BASE_PARAMS, SpaceParams(2.0, -0.25)):
            for elem in _random_elements(rng, params, 10):
                norm = elem.norm()
                for _ in range(5):
                    z = complex(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
                    yield abs(elem.evaluate(z)) / (norm * pointwise_bound(z, params)) - 1.0

    return [_case("06-growth-bound", 1e-9, margins())]


def _law_functions(params):
    """One function of each kind that obeys the space's functional equation: elements built from a_n, from psi_n
    coefficients and from Landau modes, K(., w) on both paths, and a theta member."""
    w = 0.3 - 0.2j
    return (
        FockElement(params, {-1: 0.8 - 0.3j, 0: 1.0, 2: 0.25j}),
        FockElement.from_psi_coeffs(params, {-2: 0.5j, 0: 1.0, 1: 0.3 - 0.4j}),
        LandauElement(params, {(0, 1): 1.0, (2, -1): 0.5j, (3, 0): 0.2}),
        lambda z: reproducing_kernel(z, w, params),
        lambda z: reproducing_kernel(z, w, params, path="sum"),
        theta_member(ThetaArgs(params.alpha, 0.1, 0.2 + 2j * math.pi / params.nu), params),
    )


def criterion_theta_membership():
    """Membership decisions on both sides of Im tau = pi/nu, the closed-form member norm against strip quadrature,
    and the functional equation f(z + k) = chi(k) exp(nu (z + k/2) k) f(z) that every member obeys."""
    expectations = (
        (SpaceParams(math.pi, 0.3), 2.0j, True),
        (SpaceParams(math.pi, 0.3), 1.2j, True),
        (SpaceParams(math.pi, 0.3), 1.0j, False),
        (SpaceParams(math.pi, 0.3), 0.5j, False),
        (SpaceParams(2.0, -0.25), 2.0j, True),
        (SpaceParams(2.0, -0.25), 1.5j, False),
    )
    wrong = sum(theta_membership(ThetaArgs(p.alpha, 0.1, tau), p).in_space != expect for p, tau, expect in expectations)

    params = BASE_PARAMS
    targs = ThetaArgs(params.alpha, 0.1, 2.0j)
    closed = theta_membership(targs, params).norm
    quad = _strip_norm(theta_member(targs, params), params, 0)

    return [
        _case("07-membership-decisions", 0.0, [float(wrong)]),
        _case("07-membership-norm", 1e-6, [_rel(quad, closed)]),
        _case("07-functional-equation", 1e-12, (
            quasiperiod_residual(f, z, k, p)
            for p in SETTINGS for f in _law_functions(p) for z in SAMPLE_Z[::2] for k in (-3, -1, 1, 3)
        )),
    ]


def criterion_transform_transport():
    """The line mode phi_n maps to the space mode psi_n under the transform."""
    params = BASE_PARAMS
    deviations = (
        _rel(bargmann_pointwise(lambda q, n=n: phi_basis(n, q, params.alpha), z, params), basis_psi(n, z, params), 1.0)
        for n in (-2, -1, 0, 1, 3) for z in (0.2 + 0.1j, 0.8 - 0.4j, 0.5 + 1.0j)
    )
    return [_case("08-transform-transport", 1e-8, deviations)]


def criterion_kernel_equals_generating():
    """Periodized Gaussian kernel equals the bilateral generating series."""
    qs = (0.0, 0.35, 0.7, 1.05, 1.4)

    def deviations():
        for params in (BASE_PARAMS, SpaceParams(2.0, -0.25), SpaceParams(math.pi, 0.0)):
            for z in SAMPLE_Z:
                for q in qs:
                    g = generating_kernel_G(z, q, params)
                    yield _rel(bargmann_kernel_A(z, q, params), g)
                    yield _rel(generating_kernel_sum(z, q, params), g)

    return [_case("09-kernel-equals-generating", 1e-9, deviations())]


def criterion_landau_eigenvalues():
    """Finite-difference eigen-equation residuals across the first levels;
    the null space is the level m = 0 of the same sweep."""
    params = BASE_PARAMS
    residuals = {(m, n): eigen_residual(m, n, params, SAMPLE_Z) for m in range(0, 5) for n in range(-2, 3)}
    return [
        _case("10-landau-eigenvalues", 1e-5, residuals.values()),
        _case("10-landau-null-space", 1e-6, (r for (m, _), r in residuals.items() if m == 0)),
    ]


def criterion_ladder():
    """Coefficient-level shifts match the analytic ladder actions."""
    params = BASE_PARAMS

    def coefficient_deviations():  # raised psi_{0,n} against psi_{m,n}, coefficient by coefficient
        for n in (-2, 0, 1):
            elem = LandauElement(params, {(0, n): 1.0})
            for m in range(1, 6):
                elem, want = elem.raised(), {(m, n): 1.0}
                got = elem.coeff_dict()
                yield max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in got.keys() | want.keys())

    def finite_difference_deviations():
        zs = (0.2 + 0.1j, 0.8 - 0.3j, 0.35 + 0.55j)
        for n in (-1, 0, 2):
            for m in range(0, 3):
                for z in zs:
                    up = creation_apply(lambda w: basis_psi_mn(m, n, w, params), z, params)
                    yield _rel(up, -1j * math.sqrt(params.nu * (m + 1)) * basis_psi_mn(m + 1, n, z, params), 1.0)
            for m in range(1, 4):
                for z in zs:
                    down = annihilation_apply(lambda w: basis_psi_mn(m, n, w, params), z)
                    yield _rel(down, 1j * math.sqrt(params.nu * m) * basis_psi_mn(m - 1, n, z, params), 1.0)

    return [
        _case("11-ladder-coefficients", 1e-9, coefficient_deviations()),
        _case("11-ladder-finite-difference", 1e-5, finite_difference_deviations()),
    ]


def criterion_eigenmode_gram():
    """Quadrature Gram matrix of psi_{m,n} equals the identity."""
    params = BASE_PARAMS
    modes = [(n, lambda z, m=m, n=n: basis_psi_mn(m, n, z, params)) for m in range(0, 4) for n in range(-2, 3)]
    return [_case("12-eigenmode-gram", 1e-7, _gram_deviations(modes, params))]


def criterion_theta_integral_identity():
    """Weighted strip integral of the kernel theta against a member theta
    collapses to the member theta at the outer point:

    integral over S of theta_{a,0}(z - conj(w) | 2 i pi/nu)
        * theta_{a,b}(w | tau) * exp((nu/2)(w^2 + conj(w)^2) - nu |w|^2) dm(w)
      = sqrt(pi/(2 nu)) * theta_{a,b}(z | tau).
    """
    nu, alpha, beta = math.pi, 0.3, 0.1
    tau, z = 2.0j, 0.1 + 0.1j
    kernel_args = ThetaArgs(alpha, 0.0, 2j * math.pi / nu)
    member_args = ThetaArgs(alpha, beta, tau)

    def left_part(w):
        return riemann_theta(kernel_args, z - np.conj(w)) * riemann_theta(member_args, w) * np.exp(0.5 * nu * w * w)

    def right_part(w):
        return np.exp(0.5 * nu * w * w)

    scheme = StripScheme.centered(nu, alpha, 0)
    lhs = strip_inner_product(left_part, right_part, nu, scheme)
    rhs = math.sqrt(math.pi / (2.0 * nu)) * riemann_theta(member_args, z)
    return [_case("13-theta-integral-identity", 1e-6, [_rel(lhs, rhs)])]


def criterion_truncation_soundness():
    """Tightening budgets or doubling schemes moves nothing past tolerance."""
    params = BASE_PARAMS
    base = TruncationBudget(tol=1e-12)
    tight = TruncationBudget(tol=1e-13)
    probes = (
        lambda b: jacobi_theta3(0.3 + 0.2j, 2.0j, b),
        lambda b: riemann_theta(ThetaArgs(0.3, 0.7, 1.5j), 0.1 + 0.05j, b),
        lambda b: reproducing_kernel(0.1 + 0.2j, 0.3 - 0.1j, params, b, path="sum"),
        lambda b: theta_membership(ThetaArgs(params.alpha, 0.1, 2.0j), params, b).norm,
    )

    def psi(n):
        return lambda z: basis_psi(n, z, params)

    def phi0(q):
        return phi_basis(0, q, params.alpha)

    def doubling(inner, scheme, tol):
        return abs(inner(scheme) - inner(scheme.doubled())) / tol

    return [
        _case("14-series-tail-soundness", 1.0, (abs(probe(base) - probe(tight)) / base.tol for probe in probes)),
        _case("14-quadrature-doubling", 1.0, (
            doubling(lambda s: strip_inner_product(psi(0), psi(1), params.nu, s),
                     StripScheme.centered(params.nu, params.alpha, 0), 1e-8),
            doubling(lambda s: strip_inner_product(psi(2), psi(2), params.nu, s),
                     StripScheme.centered(params.nu, params.alpha, 2), 1e-8),
            doubling(lambda s: line_inner_product(phi0, phi0, s), LineScheme(), 1e-10),
        )),
    ]


# Every criterion_* function of this module, in definition order: a criterion defined is a criterion run.
CRITERIA = tuple(f for name, f in globals().items() if name.startswith("criterion_"))


def run_acceptance(tol=None):
    """Run all acceptance criteria; tol, when given, replaces every pinned
    tolerance; it must be a finite positive number."""
    if tol is not None:
        _real(tol, "tol", positive=True)
    start = time.perf_counter()
    cases = [case for criterion in CRITERIA for case in criterion()]
    if tol is not None:
        cases = [case._replace(tolerance=float(tol)) for case in cases]
    return VerifyReport("acceptance", cases, time.perf_counter() - start)
