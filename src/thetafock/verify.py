"""Acceptance suite: every closed-form identity of the package certified
against an independent numerical path.

Each criterion produces one or more cases.  A case records the checked
quantity as a residual: expected is the ideal value (always 0.0), actual
is the measured deviation, and the case passes when
|expected - actual| <= tolerance.  Closed forms are checked against
quadrature (trapezoid x Gauss-Hermite on the strip, trapezoid on the
line), series against independent partial summation or recomputation at
a tighter budget, and differential identities against Wirtinger finite
differences.

run_acceptance() executes all criteria with their pinned tolerances;
passing an explicit tol replaces every pinned tolerance, which separates
the quadrature-limited cases from the closed-form ones (at 1e-15 only
the exact bookkeeping identities survive).
"""

import math
import time
from dataclasses import dataclass

from .bargmann import (
    bargmann_kernel_A,
    bargmann_pointwise,
    generating_kernel_G,
    generating_kernel_sum,
    phi_basis,
)
from .core import DomainError, TruncationBudget, np
from .fock import (
    FockElement,
    SpaceParams,
    basis_e,
    basis_psi,
    e_norm,
    membership_log_partial_sums,
    pointwise_bound,
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
from .theta import ThetaArgs, riemann_theta

SEED = 20240815

BASE_PARAMS = SpaceParams(math.pi, 0.3)
SETTINGS = (
    SpaceParams(math.pi, 0.3),
    SpaceParams(1.0, 0.0),
    SpaceParams(2.0, -0.25),
    SpaceParams(0.7, 0.5),
)


@dataclass(frozen=True)
class VerifyCase:
    """One certified quantity: a residual, its ideal value and tolerance."""

    name: str
    expected: float
    actual: float
    tolerance: float

    @property
    def passed(self):
        return abs(self.expected - self.actual) <= self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    cases: tuple
    wall_time: float

    @property
    def all_passed(self):
        return all(c.passed for c in self.cases)

    def to_dict(self):
        return {
            "suite": self.suite,
            "cases": [c.to_dict() for c in self.cases],
            "wall_time": self.wall_time,
        }


def _gram_deviation(modes, params):
    """max over i <= j of |<f_i, f_j> - delta_ij| for strip_gram's (n, f) modes."""
    rows = strip_gram(modes, params.nu, params.alpha).tolist()
    return max(abs(rows[i][j] - float(i == j)) for i in range(len(rows)) for j in range(i, len(rows)))


def criterion_orthonormal_basis():
    """Quadrature Gram matrix of psi_n equals the identity."""
    worst = max(
        _gram_deviation([(n, lambda z, n=n, p=p: basis_psi(n, z, p)) for n in range(-4, 5)], p) for p in SETTINGS
    )
    return [VerifyCase("01-orthonormal-basis", 0.0, worst, 1e-8)]


def criterion_mode_norm():
    """Closed-form ||e_n|| matches the quadrature norm."""
    params = BASE_PARAMS
    worst = 0.0
    for n in range(-3, 4):
        ip = strip_inner_product(
            lambda z: basis_e(n, z, params),
            lambda z: basis_e(n, z, params),
            params.nu,
            StripScheme.centered(params.nu, params.alpha, n),
        )
        closed = e_norm(n, params)
        worst = max(worst, abs(math.sqrt(ip.real) - closed) / closed)
    return [VerifyCase("02-mode-norm-closed-form", 0.0, worst, 1e-8)]


def _random_elements(rng, params, count, width=3, terms=4):
    out = []
    for _ in range(count):
        support = rng.choice(np.arange(-width, width + 1), size=terms, replace=False)
        coeffs = {}
        for n in support:
            re, im = rng.standard_normal(2)
            coeffs[int(n)] = complex(re, im)
        out.append(FockElement.from_psi_coeffs(params, coeffs))
    return out


def criterion_parseval():
    """Parseval norm of random finite combinations matches quadrature."""
    rng = np.random.default_rng(SEED)
    params = BASE_PARAMS
    scheme = StripScheme.centered(params.nu, params.alpha, 0)
    worst = 0.0
    for elem in _random_elements(rng, params, 10):
        quad = math.sqrt(strip_inner_product(elem.evaluate, elem.evaluate, params.nu, scheme).real)
        closed = elem.norm()
        worst = max(worst, abs(quad - closed) / closed)
    return [VerifyCase("03-parseval-norm", 0.0, worst, 1e-6)]


def criterion_kernel_two_path():
    """Theta closed form of the kernel equals its orthonormal mode sum."""
    params = BASE_PARAMS
    zs = (0.1 - 0.3j, 0.35 - 0.1j, 0.6 + 0.0j, 0.8 + 0.2j, 0.95 + 0.4j)
    ws = (0.05 + 0.35j, 0.3 + 0.1j, 0.55 - 0.05j, 0.75 - 0.25j, 0.9 + 0.15j)
    worst = 0.0
    for z in zs:
        for w in ws:
            kt = reproducing_kernel(z, w, params, path="theta")
            ks = reproducing_kernel(z, w, params, path="sum")
            worst = max(worst, abs(kt - ks) / abs(kt))
    return [VerifyCase("04-kernel-two-path", 0.0, worst, 1e-9)]


def criterion_kernel_reproduces():
    """Pairing a member against K(., w) reproduces its value at w."""
    params = BASE_PARAMS
    elements = (
        FockElement.from_psi_coeffs(params, {0: 1.0}),
        FockElement.from_psi_coeffs(params, {-1: 0.5 + 0.2j, 0: 1.0, 2: -0.3j}),
        FockElement.from_psi_coeffs(params, {-3: 1.0j, 1: 0.7, 3: 0.2 - 0.1j}),
    )
    ws = (0.2 + 0.3j, 0.6 - 0.2j, 0.85 + 0.1j)
    worst = 0.0
    for elem in elements:
        scheme = StripScheme.centered(params.nu, params.alpha, elem.dominant_index() / 2.0)
        for w in ws:
            ip = strip_inner_product(
                elem.evaluate, lambda z: reproducing_kernel(z, w, params), params.nu, scheme
            )
            ref = elem.evaluate(w)
            worst = max(worst, abs(ip - ref) / abs(ref))
    return [VerifyCase("05-kernel-reproduces", 0.0, worst, 1e-6)]


def criterion_growth_bound():
    """|f(z)| never exceeds ||f|| K(z,z)^(1/2) beyond roundoff margin."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for params in (BASE_PARAMS, SpaceParams(2.0, -0.25)):
        for elem in _random_elements(rng, params, 10):
            norm = elem.norm()
            for _ in range(5):
                z = complex(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
                margin = abs(elem.evaluate(z)) / (norm * pointwise_bound(z, params)) - 1.0
                worst = max(worst, margin)
    return [VerifyCase("06-growth-bound", 0.0, max(worst, 0.0), 1e-9)]


def criterion_theta_membership():
    """Membership decisions, the member norm, and divergence certification."""
    cases = []
    wrong = 0
    expectations = (
        (SpaceParams(math.pi, 0.3), 2.0j, True),
        (SpaceParams(math.pi, 0.3), 1.2j, True),
        (SpaceParams(math.pi, 0.3), 1.0j, False),
        (SpaceParams(math.pi, 0.3), 0.5j, False),
        (SpaceParams(2.0, -0.25), 2.0j, True),
        (SpaceParams(2.0, -0.25), 1.5j, False),
    )
    for params, tau, expect in expectations:
        result = theta_membership(ThetaArgs(params.alpha, 0.1, tau), params)
        if result.in_space != expect:
            wrong += 1
    cases.append(VerifyCase("07-membership-decisions", 0.0, float(wrong), 0.0))

    params = BASE_PARAMS
    targs = ThetaArgs(params.alpha, 0.1, 2.0j)
    closed = theta_membership(targs, params).norm
    member = theta_member(targs, params)
    scheme = StripScheme.centered(params.nu, params.alpha, 0)
    quad = math.sqrt(strip_inner_product(member, member, params.nu, scheme).real)
    cases.append(VerifyCase("07-membership-norm", 0.0, abs(quad - closed) / closed, 1e-6))

    certified = 0.0
    for tau in (1.0j, 0.5j):
        logs = membership_log_partial_sums(ThetaArgs(params.alpha, 0.1, tau), params)
        if not all(b > a for a, b in zip(logs, logs[1:])):
            certified = 1.0
    cases.append(VerifyCase("07-membership-divergence", 0.0, certified, 0.0))
    return cases


def criterion_transform_transport():
    """The line mode phi_n maps to the space mode psi_n under the transform."""
    params = BASE_PARAMS
    worst = 0.0
    for n in (-2, -1, 0, 1, 3):
        for z in (0.2 + 0.1j, 0.8 - 0.4j, 0.5 + 1.0j):
            value = bargmann_pointwise(lambda q: phi_basis(n, q, params.alpha), z, params)
            ref = basis_psi(n, z, params)
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    return [VerifyCase("08-transform-transport", 0.0, worst, 1e-8)]


def criterion_kernel_equals_generating():
    """Periodized Gaussian kernel equals the bilateral generating series."""
    worst = 0.0
    qs = (0.0, 0.35, 0.7, 1.05, 1.4)
    for params in (BASE_PARAMS, SpaceParams(2.0, -0.25), SpaceParams(math.pi, 0.0)):
        for z in SAMPLE_Z:
            for q in qs:
                g = generating_kernel_G(z, q, params)
                a = bargmann_kernel_A(z, q, params)
                s = generating_kernel_sum(z, q, params)
                worst = max(worst, abs(a - g) / abs(g), abs(s - g) / abs(g))
    return [VerifyCase("09-kernel-equals-generating", 0.0, worst, 1e-9)]


def criterion_landau_eigenvalues():
    """Finite-difference eigen-equation residuals across the first levels."""
    params = BASE_PARAMS
    worst = 0.0
    for m in range(0, 5):
        for n in range(-2, 3):
            worst = max(worst, eigen_residual(m, n, params, SAMPLE_Z))
    null_worst = 0.0
    for n in range(-2, 3):
        null_worst = max(null_worst, eigen_residual(0, n, params, SAMPLE_Z))
    return [
        VerifyCase("10-landau-eigenvalues", 0.0, worst, 1e-5),
        VerifyCase("10-landau-null-space", 0.0, null_worst, 1e-6),
    ]


def criterion_ladder():
    """Coefficient-level shifts match the analytic ladder actions."""
    params = BASE_PARAMS
    worst_coeff = 0.0
    for n in (-2, 0, 1):
        elem = LandauElement(params, {(0, n): 1.0})
        for m in range(1, 6):
            elem = elem.raised()
            for z in SAMPLE_Z:
                ref = basis_psi_mn(m, n, z, params)
                dev = abs(elem.evaluate(z) - ref) / max(1.0, abs(ref))
                worst_coeff = max(worst_coeff, dev)

    worst_fd = 0.0
    for n in (-1, 0, 2):
        for m in range(0, 3):
            for z in (0.2 + 0.1j, 0.8 - 0.3j, 0.35 + 0.55j):
                up = creation_apply(lambda w: basis_psi_mn(m, n, w, params), z, params)
                ref_up = -1j * math.sqrt(params.nu * (m + 1)) * basis_psi_mn(m + 1, n, z, params)
                worst_fd = max(worst_fd, abs(up - ref_up) / max(1.0, abs(ref_up)))
        for m in range(1, 4):
            for z in (0.2 + 0.1j, 0.8 - 0.3j, 0.35 + 0.55j):
                down = annihilation_apply(lambda w: basis_psi_mn(m, n, w, params), z)
                ref_down = 1j * math.sqrt(params.nu * m) * basis_psi_mn(m - 1, n, z, params)
                worst_fd = max(worst_fd, abs(down - ref_down) / max(1.0, abs(ref_down)))
    return [
        VerifyCase("11-ladder-coefficients", 0.0, worst_coeff, 1e-9),
        VerifyCase("11-ladder-finite-difference", 0.0, worst_fd, 1e-5),
    ]


def criterion_eigenmode_gram():
    """Quadrature Gram matrix of psi_{m,n} equals the identity."""
    params = BASE_PARAMS
    modes = [(n, lambda z, m=m, n=n: basis_psi_mn(m, n, z, params)) for m in range(0, 4) for n in range(-2, 3)]
    return [VerifyCase("12-eigenmode-gram", 0.0, _gram_deviation(modes, params), 1e-7)]


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
        return riemann_theta(kernel_args, z - np.conj(w)) * riemann_theta(member_args, w) * np.exp(
            0.5 * nu * w * w
        )

    def right_part(w):
        return np.exp(0.5 * nu * w * w)

    scheme = StripScheme.centered(nu, alpha, 0)
    lhs = strip_inner_product(left_part, right_part, nu, scheme)
    rhs = math.sqrt(math.pi / (2.0 * nu)) * riemann_theta(member_args, z)
    return [VerifyCase("13-theta-integral-identity", 0.0, abs(lhs - rhs) / abs(rhs), 1e-6)]


def criterion_truncation_soundness():
    """Tightening budgets or doubling schemes moves nothing past tolerance."""
    params = BASE_PARAMS
    base = TruncationBudget(tol=1e-12)
    tight = TruncationBudget(tol=1e-13)
    ratios = []

    probes = (
        lambda b: riemann_theta(ThetaArgs(0.0, 0.0, 2.0j), 0.3 + 0.2j, b),
        lambda b: riemann_theta(ThetaArgs(0.3, 0.7, 1.5j), 0.1 + 0.05j, b),
        lambda b: reproducing_kernel(0.1 + 0.2j, 0.3 - 0.1j, params, b, path="sum"),
        lambda b: theta_membership(ThetaArgs(params.alpha, 0.1, 2.0j), params, b).norm,
    )
    for probe in probes:
        ratios.append(abs(probe(base) - probe(tight)) / base.tol)
    series_case = VerifyCase("14-series-tail-soundness", 0.0, max(ratios), 1.0)

    quad_ratios = []
    scheme = StripScheme.centered(params.nu, params.alpha, 0)
    probes_quad = (
        (lambda s: strip_inner_product(
            lambda z: basis_psi(0, z, params), lambda z: basis_psi(1, z, params), params.nu, s
        ), scheme, 1e-8),
        (lambda s: strip_inner_product(
            lambda z: basis_psi(2, z, params), lambda z: basis_psi(2, z, params), params.nu, s
        ), StripScheme.centered(params.nu, params.alpha, 2), 1e-8),
    )
    for probe, sch, tol in probes_quad:
        quad_ratios.append(abs(probe(sch) - probe(sch.doubled())) / tol)
    line = LineScheme()
    lp = lambda s: line_inner_product(
        lambda q: phi_basis(0, q, params.alpha), lambda q: phi_basis(0, q, params.alpha), s
    )
    quad_ratios.append(abs(lp(line) - lp(line.doubled())) / 1e-10)
    quad_case = VerifyCase("14-quadrature-doubling", 0.0, max(quad_ratios), 1.0)
    return [series_case, quad_case]


CRITERIA = (
    criterion_orthonormal_basis,
    criterion_mode_norm,
    criterion_parseval,
    criterion_kernel_two_path,
    criterion_kernel_reproduces,
    criterion_growth_bound,
    criterion_theta_membership,
    criterion_transform_transport,
    criterion_kernel_equals_generating,
    criterion_landau_eigenvalues,
    criterion_ladder,
    criterion_eigenmode_gram,
    criterion_theta_integral_identity,
    criterion_truncation_soundness,
)


def run_acceptance(tol=None):
    """Run all acceptance criteria; tol, when given, replaces every pinned
    tolerance; it must be a finite positive number."""
    if tol is not None and not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    start = time.perf_counter()
    cases = []
    for criterion in CRITERIA:
        cases.extend(criterion())
    if tol is not None:
        cases = [VerifyCase(c.name, c.expected, c.actual, float(tol)) for c in cases]
    wall = time.perf_counter() - start
    return VerifyReport("acceptance", tuple(cases), wall)

