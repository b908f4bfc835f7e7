"""Theta series with characteristics on the cylinder.

The building block of the whole library is the bilateral series

    theta_{alpha,beta}(z | tau) = sum_n exp(i*pi*(n+alpha)^2*tau
                                            + 2*i*pi*(n+alpha)*(z+beta)),

summed over all integers n, convergent for Im tau > 0.  This script shows
how to evaluate it, how the truncation budget certifies the tail, and two
classical structure theorems that double as numerical self-tests: the
quasi-periodicity law and the modular inversion law.
"""

import cmath

from thetafock import (
    ThetaArgs,
    TruncationBudget,
    bilateral_sum,
    jacobi_theta3,
    riemann_theta,
)


def direct_theta3(z, tau):
    """theta3(z | tau) summed term by term by bilateral_sum, with none of the engine's reductions."""
    return bilateral_sum(lambda n: cmath.exp(1j * cmath.pi * n * n * tau + 2j * cmath.pi * n * z), 0)


def main():
    print("=" * 72)
    print("1. Evaluating the series")
    print("=" * 72)
    args = ThetaArgs(alpha=0.3, beta=0.1, tau=2j)
    z = 0.25 + 0.4j
    val = riemann_theta(args, z)
    print(f"theta_(0.3,0.1)({z} | 2i) = {val}")

    # The zero-characteristic special case is the classical theta3.
    t3 = jacobi_theta3(0.0, 1j)
    print(f"theta3(0 | i)              = {t3.real:.16f}")
    print("(a fixed point of the inversion law, see section 3)")

    print()
    print("=" * 72)
    print("2. Truncation budgets")
    print("=" * 72)
    # The series is summed symmetrically outward from the peak term; each
    # side stops once two successive terms fall below 0.1 * tol with a
    # certified geometric decay ratio.  Tightening tol changes nothing
    # visible here because the terms decay like exp(-pi*Im(tau)*n^2).
    loose = riemann_theta(args, z, TruncationBudget(tol=1e-8))
    tight = riemann_theta(args, z, TruncationBudget(tol=1e-14))
    print(f"tol=1e-8 : {loose}")
    print(f"tol=1e-14: {tight}")
    print(f"difference: {abs(loose - tight):.3e}  (tail certificate at work)")

    print()
    print("=" * 72)
    print("3. Structure laws as self-tests")
    print("=" * 72)
    # The library applies both laws inside its engine, so each right-hand
    # side below takes theta3 from the direct series instead.
    # Quasi-periodicity: shifting z by l*tau + m multiplies theta3 by an
    # explicit exponential factor (the integer shift m alone is invisible).
    tau = 0.5 + 1.2j
    z0 = 0.2 + 0.3j
    l, m = 2, -1
    factor = cmath.exp(-1j * cmath.pi * l * l * tau - 2j * cmath.pi * l * z0)
    lhs = jacobi_theta3(z0 + l * tau + m, tau)
    rhs = factor * direct_theta3(z0, tau)
    # The factor has modulus ~1e8 here, so compare relatively.
    print(f"shift law   rel.err = {abs(lhs - rhs) / abs(lhs):.3e}   (factor modulus {abs(factor):.2e})")

    # Inversion: theta3(z|tau) = sqrt(i/tau) exp(-i pi z^2/tau) theta3(z/tau | -1/tau).
    # The identity swaps a slowly-converging regime for a fast one, and the
    # library's Bargmann kernel identity in demo 04 is exactly this law in
    # disguise.
    lhs = jacobi_theta3(z0, tau)
    rhs = cmath.sqrt(1j / tau) * cmath.exp(-1j * cmath.pi * z0 * z0 / tau) * direct_theta3(z0 / tau, -1 / tau)
    print(f"inversion   rel.err = {abs(lhs - rhs) / abs(lhs):.3e}")

    # A point where the naive series is at its worst: small Im tau.  The
    # library takes the inversion path there, and the direct series is
    # again the independent side of the law.
    # At z = 0.01 its terms add up without cancelling (sum |t| / |theta3| is
    # 1.02); at z = 0.31 they cancel by 3.6e6, and bilateral_sum refuses to
    # certify the sum.
    slow_tau, z1 = 0.02j, 0.01
    lhs = jacobi_theta3(z1, slow_tau)
    rhs = direct_theta3(z1, slow_tau)
    print(f"inversion at tau=0.02i  rel.err = {abs(lhs - rhs) / abs(lhs):.3e}   (inversion path vs direct series)")
    print(f"  (theta3({z1} | 0.02i) = {lhs:.6e})")


if __name__ == "__main__":
    main()
