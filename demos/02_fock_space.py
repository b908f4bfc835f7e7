"""The quasi-periodic Fock space on the cylinder.

For nu > 0 and a character exponent alpha in [0, 1), the space consists of
entire functions satisfying the functional equation

    f(z + m) = e^{2 i pi alpha m} * e^{nu (z + m/2) m} * f(z),   m integer,

that are square-integrable against exp(-nu |z|^2) over one period strip
S = [0,1] x R.  This script walks the concrete model: the exponential modes
e_n, their closed-form norms, the orthonormal basis psi_n, Parseval, and the
membership test for theta series.
"""

import numpy as np

from thetafock import (
    FockElement,
    SpaceParams,
    StripScheme,
    ThetaArgs,
    basis_e,
    basis_psi,
    e_norm,
    quasiperiod_residual,
    strip_gram,
    strip_inner_product,
    theta_member,
    theta_membership,
)


def main():
    params = SpaceParams(nu=np.pi, alpha=0.3)
    scheme = StripScheme()

    print("=" * 72)
    print("1. Modes and their exact norms")
    print("=" * 72)
    # e_n(z) = exp((nu/2) z^2 + 2 i pi (alpha+n) z) satisfies the functional
    # equation for every n, and the family is orthogonal on the strip.
    for n in (-1, 0, 2):
        f = lambda z, n=n: basis_e(n, z, params)
        quad = np.sqrt(strip_inner_product(f, f, params.nu, scheme).real)
        exact = e_norm(n, params)
        print(f"n={n:+d}  ||e_n|| quadrature={quad:.12f}  closed form={exact:.12f}")

    print()
    print("=" * 72)
    print("2. Orthonormal basis psi_n = e_n / ||e_n||")
    print("=" * 72)
    # strip_gram centres each pair's rule on its Gaussian bump, at
    # y = -pi*(alpha + (n+m)/2)/nu.
    modes = [(n, lambda z, n=n: basis_psi(n, z, params)) for n in range(-2, 3)]
    gram = strip_gram(modes, params.nu, params.alpha)
    print("max |Gram - Identity| over n,m in [-2,2]:",
          f"{np.max(np.abs(gram - np.eye(5))):.3e}")

    print()
    print("=" * 72)
    print("3. Elements and Parseval")
    print("=" * 72)
    elem = FockElement(params, {-1: 0.8 - 0.3j, 0: 1.0, 2: 0.25j})
    # The squared norm is sum |a_n|^2 ||e_n||^2 -- check it against raw
    # quadrature of |f|^2 over the strip.
    quad = np.sqrt(strip_inner_product(elem.evaluate, elem.evaluate,
                                       params.nu, scheme).real)
    print(f"||f|| coefficient formula = {elem.norm():.12f}")
    print(f"||f|| strip quadrature    = {quad:.12f}")

    res = max(
        quasiperiod_residual(elem.evaluate, z, m, params)
        for z in (0.1 + 0.4j, -0.2 - 0.6j, 0.25j)
        for m in (-2, -1, 1, 2)
    )
    print(f"worst functional-equation residual on a grid: {res:.3e}")

    print()
    print("=" * 72)
    print("4. Which theta series live in the space?")
    print("=" * 72)
    # f(z) = exp((nu/2) z^2) * theta_{alpha,beta}(z | tau) satisfies the
    # functional equation for ANY tau in the upper half plane, but it is
    # square-integrable iff Im tau > pi / nu (= 1 here, since nu = pi).
    for tau in (2j, 1.0001j, 1j, 0.5j):
        targs = ThetaArgs(params.alpha, 0.1, tau)
        result = theta_membership(targs, params)
        label = "IN  " if result.in_space else "OUT "
        norm = f"norm={result.norm:.9f}" if result.in_space else "norm=inf"
        print(f"tau={tau!s:>9}  gap Im(tau)-pi/nu={tau.imag - np.pi/params.nu:+.4f}"
              f"  -> {label} {norm}")

    # A member function really does satisfy the functional equation.
    f = theta_member(ThetaArgs(params.alpha, 0.1, 2j), params)
    print(f"member residual at z=0.2-0.3j, m=2: "
          f"{quasiperiod_residual(f, 0.2 - 0.3j, 2, params):.3e}")


if __name__ == "__main__":
    main()
