"""Restricting special divisors from the rank-6 lattice to a rank-5 member.

The story: a fixed primitive rank-5 sublattice (two hyperbolic pairs of
scale two plus the difference of the root generators) has orthogonal
complement generated by a single norm -4 vector.  Splitting every short
ambient vector r as r1 + (m/2) * complement organizes the divisor
restriction into a three-row case table that stays literally identical as
the enumeration box grows.  On discriminant groups the restriction induces
a correspondence sending each of the 15 ambient isotropic planes to an
order-8 subgroup of the member group, and each such subgroup singles out
7 of the 15 member isotropic lines.
"""

from igusa.fqm import element_types, isotropic_planes, radical_class
from igusa.lattices import ambient_lattice
from igusa.weil import ambient_module
from igusa.restriction import (
    all_v1_images,
    am_census,
    boundary_configuration,
    build_embedding,
    heegner_restriction_cases,
    restriction_module,
    seven_lines,
    v_to_v1,
)


def main():
    print("=== The embedding ===")
    emb = build_embedding()
    N = ambient_lattice()
    names = ("e1", "f1", "e2", "f2", "a1-a2")
    for name, vec in zip(names, emb.member_basis):
        print(f"  member basis {name:>5}: ambient coords "
              f"{tuple(int(c) for c in vec)}")
    comp = emb.complement_generator
    print(f"  complement a1+a2 : ambient coords {tuple(int(c) for c in comp)}"
          f", norm {int(N.norm(comp))}")
    gram = [[int(N.ip(u, v)) for v in emb.member_basis]
            for u in emb.member_basis]
    print("  member Gram matrix:")
    for row in gram:
        print(f"    {row}")
    M = restriction_module()
    print(f"  member discriminant group orders: {M.orders} "
          f"(size {M.size})")

    print()
    print("=== Member discriminant census (classes mod negation) ===")
    for label, count in am_census().items():
        print(f"  value class {label:>3}: {count:2d}")

    print()
    print("=== Restriction case table, stable across boxes ===")
    tables = heegner_restriction_cases(5)["by_box"]
    for bound in (3, 4, 5):
        print(f"box half-width {bound}:")
        for norm in (-4, -2, -6):
            case = tables[bound][norm]
            print(f"  r^2 = {norm}: {case['vectors_in_box']:6d} vectors, "
                  f"{case['relevant']:5d} relevant, m in {case['m_values']}, "
                  f"r1^2 in {case['r1_norms']}, "
                  f"ambient type {case['ambient_types']}, "
                  f"member type {case['beta_types']}, "
                  f"multiplicity {case['hyperplane_multiplicity']}")
    classification_keys = ("m_values", "r1_norms", "ambient_types",
                           "beta_types", "hyperplane_multiplicity")
    stable = all(
        tables[3][norm][key] == tables[b][norm][key]
        for b in (4, 5)
        for norm in (-4, -2, -6)
        for key in classification_keys
    )
    print(f"classification identical across boxes: {stable}")

    print()
    print("=== Plane-to-subgroup correspondence ===")
    A = ambient_module()
    plane = isotropic_planes(A)[0]
    image = v_to_v1(plane)
    labels = element_types(restriction_module())
    print(f"first ambient isotropic plane: {plane}")
    print(f"its order-8 member image: {sorted(image)}")
    print(f"  image class types: {sorted(labels[x] for x in image)}")
    images = all_v1_images()
    print(f"all 15 plane images distinct: {len(set(images.values())) == 15}")

    print()
    print("=== Seven lines through one subgroup ===")
    lines = seven_lines(image)
    kappa_m = radical_class(restriction_module())
    common = tuple(sorted(x for x in image if x and
                          restriction_module().q4[x] == 0))
    print(f"member characteristic class: {kappa_m}")
    print(f"line common to all three weight-one classes: {common}")
    for line in sorted(lines):
        tag = "common" if line == common else ""
        print(f"  line {line} {tag}")
    print(f"total distinguished lines: {len(lines)}")

    print()
    print("=== Boundary configuration of the member group ===")
    for key, value in boundary_configuration().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
