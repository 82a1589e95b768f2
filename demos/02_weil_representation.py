"""The metaplectic action on the 64 discriminant classes, made finite.

The story: the two standard generators act on the group ring of the
discriminant module by a root-of-unity diagonal (T) and a normalized
exponential sum (S).  Because every class is 2-torsion the whole action
factors through a group of only 48 matrices with entries in a fixed
cyclotomic field, so traces, conjugacy classes, and the character-table
decomposition are all exact finite computations.
"""

from igusa.exact import CYC_I
from igusa.weil import (
    character_degrees,
    class_sizes,
    conjugacy_traces,
    decompose_character,
    image_group,
    weil_generator,
)


def main():
    T = weil_generator("T")
    S = weil_generator("S")
    print("=== Generators ===")
    print(f"T is diagonal 64x64; first entries "
          f"{[repr(T.entry(i, i)) for i in range(4)]}")
    print(f"S has constant modulus entries; S[0][0] = {S.entry(0, 0)!r}")
    s2 = S @ S
    print(f"S^2 equals the negation permutation composed with a scalar: "
          f"S^2[0][0] = {s2.entry(0, 0)!r}")

    elements = image_group()
    print()
    print("=== Image group ===")
    print(f"the generated matrix group has exactly {len(elements)} elements")
    # the build certifies that every entry is 0 or a root of unity over the
    # denominator; count the two shapes this takes
    nonzero = [(m.den, int(m.num.any(axis=-1).sum())) for m in elements.values()]
    print(f"  {nonzero.count((1, 64))} monomial matrices over 1 "
          f"(one root of unity in each row and column)")
    print(f"  {nonzero.count((8, 64 * 64))} matrices with every entry a root of unity over 8")

    sizes = class_sizes()
    traces = conjugacy_traces()
    print()
    print("=== Conjugacy classes and traces ===")
    print(f"{len(sizes)} classes, sizes {sizes} (sum {sum(sizes)})")
    for k, (size, trace) in enumerate(zip(sizes, traces)):
        print(f"  class {k}: size {size:2d}, trace {trace!r}")

    print()
    print("=== Decomposition ===")
    degrees = character_degrees()
    multiplicities = decompose_character()
    total = 0
    for i, (deg, mult) in enumerate(zip(degrees, multiplicities)):
        if mult:
            print(f"  character {i + 1} (degree {deg}): multiplicity {mult}")
            total += deg * mult
    print(f"degree check: sum of degree x multiplicity = {total} (= 64)")
    print()
    print(f"for reference, -i in this cyclotomic field prints as "
          f"{-CYC_I!r}")


if __name__ == "__main__":
    main()
