"""Quasi-periodic theta function spaces on the cylinder.

Numerical library for the Gaussian-weighted Hilbert spaces of entire
functions with a lattice quasi-periodicity law: Jacobi/Riemann theta
series, orthonormal bases and reproducing kernels, the Bargmann-style
transform from the line, Landau levels of the associated magnetic
Laplacian, and an acceptance suite certifying every closed-form identity
against independent quadrature and series oracles.
"""

from .core import (
    DEFAULT_BUDGET,
    DomainError,
    EvaluationError,
    TruncationBudget,
    TruncationError,
    bilateral_sum,
    character,
    hermite_poly,
)
from .quadrature import LineScheme, StripScheme, line_inner_product, strip_gram, strip_inner_product
from .theta import (
    ThetaArgs,
    jacobi_theta3,
    riemann_theta,
    theta3_inversion_rhs,
    theta3_periodicity_factor,
)
from .fock import (
    FockElement,
    MembershipResult,
    SpaceParams,
    basis_e,
    basis_psi,
    e_norm,
    membership_log_partial_sums,
    periodic_part,
    pointwise_bound,
    quasiperiod_factor,
    quasiperiod_residual,
    reproducing_kernel,
    theta_member,
    theta_membership,
)
from .bargmann import (
    LineElement,
    bargmann_inverse,
    bargmann_kernel_A,
    bargmann_pointwise,
    bargmann_transform_coeffs,
    generating_kernel_G,
    generating_kernel_sum,
    phi_basis,
)
from .landau import (
    LandauElement,
    annihilation_apply,
    basis_psi_mn,
    creation_apply,
    eigen_residual,
    landau_apply,
)
from .verify import VerifyCase, VerifyReport, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET",
    "DomainError",
    "EvaluationError",
    "FockElement",
    "LandauElement",
    "LineElement",
    "LineScheme",
    "MembershipResult",
    "SpaceParams",
    "StripScheme",
    "ThetaArgs",
    "TruncationBudget",
    "TruncationError",
    "VerifyCase",
    "VerifyReport",
    "annihilation_apply",
    "bargmann_inverse",
    "bargmann_kernel_A",
    "bargmann_pointwise",
    "bargmann_transform_coeffs",
    "basis_e",
    "basis_psi",
    "basis_psi_mn",
    "bilateral_sum",
    "character",
    "creation_apply",
    "e_norm",
    "eigen_residual",
    "generating_kernel_G",
    "generating_kernel_sum",
    "hermite_poly",
    "jacobi_theta3",
    "landau_apply",
    "line_inner_product",
    "membership_log_partial_sums",
    "periodic_part",
    "phi_basis",
    "pointwise_bound",
    "quasiperiod_factor",
    "quasiperiod_residual",
    "reproducing_kernel",
    "riemann_theta",
    "run_acceptance",
    "strip_gram",
    "strip_inner_product",
    "theta3_inversion_rhs",
    "theta3_periodicity_factor",
    "theta_member",
    "theta_membership",
]
