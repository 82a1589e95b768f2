"""Fifteen isotropic planes, fifteen theta vectors, one 5-dimensional space.

The story: each order-4 subgroup on which the quadratic form vanishes
determines a signed indicator vector in the group ring.  All fifteen are
simultaneous eigenvectors of the two generators with eigenvalue -i, they
are negated by the reflections attached to their own norm-1 classes, and
together they span a 5-dimensional isotypic subspace whose character has
Frobenius norm 1 over the full 1440-element symmetry group.
"""

from igusa.exact import CYC_I
from igusa.fqm import isotropic_planes, radical_class
from igusa.weil import (
    ambient_module,
    irreducibility_check,
    theta_span_rank,
    theta_vector,
    theta_vectors,
    weil_generator,
)


def main():
    A = ambient_module()
    planes = isotropic_planes(A)
    kappa = radical_class(A)
    print(f"isotropic planes found: {len(planes)}")
    print(f"radical class: {kappa}")

    plane = planes[0]
    th = theta_vector(plane)
    coefficients = th.dense
    support = [x for x in A.elements() if coefficients[x]]
    print()
    print("=== One theta vector in detail ===")
    print(f"plane classes: {sorted(plane)}")
    print(f"support size: {len(support)} classes, "
          f"coefficients all +1 or -1")
    positives = sum(1 for x in support if coefficients[x] == coefficients[support[0]])
    print(f"split of signs on the support: {positives} and "
          f"{len(support) - positives}")

    S = weil_generator("S")
    T = weil_generator("T")
    minus_i = -CYC_I
    print()
    print("=== Eigenvalue identities (all fifteen) ===")
    all_good = all(
        v.apply(S) == v.scale(minus_i) and v.apply(T) == v.scale(minus_i)
        for v in theta_vectors()
    )
    print(f"rho(S) theta = rho(T) theta = -i theta for all 15: {all_good}")

    print()
    print("=== The span ===")
    print(f"rank of the 15 vectors: {theta_span_rank()}")
    info = irreducibility_check()
    print(f"Frobenius norm of the character: {info['frobenius_norm']!r}")
    print(f"irreducible: {info['is_irreducible']}")
    print(f"central involution acts as -1: "
          f"{info['central_involution_is_minus_one']}")
    print(f"dimension from the identity class: "
          f"{info['identity_character']!r}")


if __name__ == "__main__":
    main()
