"""Eta powers, multiplier systems, and a nonvanishing additive lift.

The story: scalar modular forms enter through powers of the eta function,
computed exactly from the pentagonal-number theorem.  A vector-valued form
can be paired with an eta power only when their multiplier systems agree on
both generators; the compatibility matrix singles out exponent 18 for the
theta vectors and exponent 6 for the distinguished weight-1 vector.  The
lift's Fourier coefficient at the fixture point is Borcherds' divisor sum at
the cusp z = e1, z' = f1/2; the point is primitive, so the sum has only its
n = 1 term, which evaluates to -1: the lift is not identically zero.
"""

from fractions import Fraction

from igusa.lifting import (
    FIXTURE_LAM,
    eta_power,
    fixture_plane,
    fixture_support_families,
    lift_coefficient,
    multiplier_compatibility,
    theta0_checks,
)
from igusa.weil import theta_vector, w0_vector


def main():
    print("=== Eta powers ===")
    for m in (6, 18):
        coeffs = list(eta_power(m, 10)[:8])
        print(f"eta^{m:<2}: leading exponent {Fraction(m, 24)}, "
              f"unit-series coefficients {coeffs}")

    print()
    print("=== Multiplier compatibility matrix ===")
    theta = theta_vector(fixture_plane())
    w0 = w0_vector()
    for label, vector in (("theta", theta), ("w0", w0)):
        for m in (18, 6):
            try:
                report = multiplier_compatibility(vector, m)
                verdict = (f"compatible (weights "
                           f"{report['vector_valued_weight']} -> "
                           f"{report['lift_weight']})")
            except ValueError as err:
                verdict = f"rejected ({err})"
            print(f"  {label:>5} with eta^{m:<2}: {verdict}")

    print()
    print("=== The lift fixture ===")
    families = fixture_support_families()
    print(f"fixture plane: {sorted(fixture_plane())}")
    for family, classes in families.items():
        print(f"  support family {family:>16}: classes {sorted(classes)}")
    coefficient = lift_coefficient(theta, FIXTURE_LAM)
    print(f"leading lift coefficient: {coefficient!r} (nonzero)")

    print()
    print("=== Weight-1 vector identities ===")
    checks = theta0_checks()
    for key, value in checks.items():
        print(f"  {key}: {value!r}")


if __name__ == "__main__":
    main()
