"""The Bargmann-style transform between the line and the cylinder space.

L^2 of a circle of circumference sqrt(2), with boundary twist
phi(q + sqrt(2)) = e^{-2 i pi alpha} phi(q), has the orthonormal basis
phi_n(q) = 2^{-1/4} e^{sqrt(2) i pi (alpha+n) q}.  The integral transform

    (B phi)(z) = integral_0^sqrt(2) A(z; q) phi(q) dq

with a theta-kernel A maps phi_n to the cylinder basis psi_n: it is a
unitary map onto the quasi-periodic Fock space, so its inverse takes the
psi-coefficients back to the phi_n.  The kernel has a second formula G as
a basis sum, and A == G is precisely the theta inversion law from demo 01;
pairing a member against G is the inverse again, by quadrature.
"""

import numpy as np

from thetafock import (
    LineElement,
    SpaceParams,
    bargmann_inverse,
    bargmann_kernel_A,
    bargmann_pointwise,
    bargmann_transform_coeffs,
    basis_psi,
    generating_kernel_G,
    generating_kernel_sum,
    StripScheme,
    line_inner_product,
    phi_basis,
    strip_inner_product,
)


def main():
    params = SpaceParams(nu=np.pi, alpha=0.3)

    print("=" * 72)
    print("1. The line-side basis is orthonormal")
    print("=" * 72)
    vals = []
    for n in (-1, 0, 2):
        for m in (-1, 0, 2):
            ip = line_inner_product(
                lambda q, n=n: phi_basis(n, q, params.alpha),
                lambda q, m=m: phi_basis(m, q, params.alpha),
            )
            vals.append(abs(ip - (1.0 if n == m else 0.0)))
    print(f"max |<phi_n, phi_m> - delta| = {max(vals):.3e}")

    print()
    print("=" * 72)
    print("2. The transform carries phi_n to psi_n")
    print("=" * 72)
    for n in (-1, 0, 1):
        worst = 0.0
        for z in (0.2 + 0.1j, 0.6 - 0.3j):
            lhs = bargmann_pointwise(lambda q, n=n: phi_basis(n, q, params.alpha), z, params)
            rhs = basis_psi(n, z, params)
            worst = max(worst, abs(lhs - rhs))
        print(f"n={n:+d}  max |B(phi_n)(z) - psi_n(z)| = {worst:.3e}")

    print()
    print("=" * 72)
    print("3. Coefficient transport and the inverse")
    print("=" * 72)
    # A trig polynomial on the line ...
    line = LineElement(params.alpha, {-1: 0.5, 0: 1.0, 2: -0.25j})
    # ... maps to the cylinder element with the SAME psi-coefficients.
    elem = bargmann_transform_coeffs(line, params.nu)
    print("psi-coefficients of the image:",
          {n: f"{c:.3f}" for n, c in elem.psi_coeffs().items()})

    # Inverse transform: the closed form sum c_n phi_n, and the pairing of the
    # image against the generating kernel, <f, G(., q)> = sum c_n <psi_n, G(., q)>,
    # each term on a strip rule centred on psi_n's bump.
    for q in (0.2, 0.9):
        back = bargmann_inverse(elem, q)
        paired = sum(
            c * strip_inner_product(
                lambda z, n=n: basis_psi(n, z, params),
                lambda z, q=q: generating_kernel_G(z, q, params),
                params.nu,
                StripScheme.centered(params.nu, params.alpha, n),
            )
            for n, c in elem.psi_coeffs().items()
        )
        orig = line.evaluate(q)
        print(f"q={q}:  round trip |B^-1(B phi)(q) - phi(q)| = {abs(back - orig):.3e}"
              f"   |<B phi, G(., q)> - B^-1(B phi)(q)| = {abs(paired - back):.3e}")

    print()
    print("=" * 72)
    print("4. Two kernels, one theta identity")
    print("=" * 72)
    # A(z; q) is an exponential-times-theta in the variable q/sqrt(2) - z;
    # G(z; q) = sum_n psi_n(z) conj(phi_n(q)).  A == G is equivalent to the
    # inversion law theta3(z|tau) = sqrt(i/tau) e^{-i pi z^2/tau} theta3(z/tau|-1/tau).
    worst_ag = worst_gs = 0.0
    for z in (0.2 + 0.1j, 0.7 - 0.2j):
        for q in (0.15, 0.8, 1.3):
            a = bargmann_kernel_A(z, q, params)
            g = generating_kernel_G(z, q, params)
            s = generating_kernel_sum(z, q, params)
            worst_ag = max(worst_ag, abs(a - g) / abs(g))
            worst_gs = max(worst_gs, abs(g - s) / abs(g))
    print(f"max rel |A - G|        = {worst_ag:.3e}   (inversion law)")
    print(f"max rel |G - basis sum| = {worst_gs:.3e}   (series resummation)")


if __name__ == "__main__":
    main()
