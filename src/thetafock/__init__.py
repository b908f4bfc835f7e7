"""Quasi-periodic theta function spaces on the cylinder.

Numerical library for the Gaussian-weighted Hilbert spaces of entire
functions with a lattice quasi-periodicity law: Jacobi/Riemann theta
series, orthonormal bases and reproducing kernels, the Bargmann-style
transform from the line, Landau levels of the associated magnetic
Laplacian, and an acceptance suite certifying every closed-form identity
against independent quadrature and series oracles.

Importing the package loads none of its modules.  A name exported here, or a
submodule (thetafock.fock, thetafock.cli, ...), is imported on first access
(PEP 562), so a process loads only the modules it uses; numpy in turn loads
on the first array call (see core).
"""

import importlib

__version__ = "0.1.0"

# Each module with the public names it defines; `thetafock.<name>` resolves here.
_EXPORTS = {
    "core": ("DEFAULT_BUDGET", "DomainError", "EvaluationError", "TruncationBudget", "TruncationError",
             "bilateral_sum", "character", "hermite_poly"),
    "quadrature": ("LineScheme", "StripScheme", "line_inner_product", "strip_gram", "strip_inner_product"),
    "theta": ("ThetaArgs", "jacobi_theta3", "riemann_theta"),
    "fock": ("FockElement", "MembershipResult", "SpaceParams", "basis_e", "basis_psi", "e_norm",
             "pointwise_bound", "quasiperiod_factor", "quasiperiod_residual", "reproducing_kernel", "theta_member",
             "theta_membership"),
    "bargmann": ("LineElement", "bargmann_inverse", "bargmann_kernel_A", "bargmann_pointwise",
                 "bargmann_transform_coeffs", "generating_kernel_G", "generating_kernel_sum", "phi_basis"),
    "landau": ("LandauElement", "annihilation_apply", "basis_psi_mn", "creation_apply", "eigen_residual",
               "landau_apply"),
    "verify": ("VerifyCase", "VerifyReport", "run_acceptance"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
