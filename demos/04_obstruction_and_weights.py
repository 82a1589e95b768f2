"""From a 6x6 collapse to the four product weights 4, 10, 30, 48.

The story: the weight-3 dual action only sees the six class types, so the
obstruction space lives inside a 6-dimensional representation.  A standard
dimension count gives 2, and both dimensions are realized by explicit
Eisenstein series whose Fourier coefficients are validated against a
numeric double sum.  Each divisor family is a whole value class, so the
weight of its product is that class's aggregate Eisenstein coefficient.
"""

import math

from igusa.exact import CYC_I, Cyclotomic
from igusa.obstruction import (
    TYPE_ORDER,
    borcherds_weights_table,
    collapsed_rep,
    cusp_dimension,
    dimension_formula_data,
    eisenstein_G3,
    f_tuple,
    numeric_double_sum,
)

EIGHT_I = Cyclotomic(8) * CYC_I


def main():
    rep = collapsed_rep()
    print("=== The collapsed action ===")
    print(f"type order: {TYPE_ORDER}")
    print(f"type sizes: {rep.type_sizes}")
    print("S matrix = -i/8 times:")
    for a in range(6):
        row = [int((rep.S_matrix.entry(a, b) * EIGHT_I).as_rational())
               for b in range(6)]
        print("   ", row)
    print("T diagonal:", [repr(rep.T_matrix.entry(a, a)) for a in range(6)])

    print()
    print("=== Dimension count ===")
    data = dimension_formula_data()
    print(f"collapsed dimension d = {data['d']}")
    print(f"invariant angles: alpha_S = {data['alpha_S']}, "
          f"alpha_ST = {data['alpha_ST']}, alpha_T = {data['alpha_T']}")
    print(f"weight-3 dimension: {data['dimension']}")
    print(f"cusp dimension: {cusp_dimension()} "
          f"(no obstruction to prescribed divisors)")

    print()
    print("=== One Eisenstein series against its oracle ===")
    series = eisenstein_G3(1, 0)
    shown = {str(e): repr(c)
             for e, c in sorted(series.terms.items()) if c}
    print(f"series (1,0) nonzero coefficients: {shown}")
    unit = 1j * (2 * math.pi) ** 3 / 2**7
    symbolic = unit * series.evaluate(math.exp(-math.pi / 2))
    numeric = numeric_double_sum(1, 0, box=800)
    print(f"series value at the imaginary unit: {symbolic:.10f}")
    print(f"numeric double sum:                 {numeric:.10f}")
    print(f"relative gap: {abs(symbolic - numeric) / abs(numeric):.2e}")

    print()
    print("=== Aggregated components ===")
    components = f_tuple()
    for label, comp in components.items():
        text = " + ".join(
            f"({coeff!r}) q^{exp}" for exp, coeff in sorted(comp.terms.items())
        ) or "0"
        print(f"  f[{label:>3}] = {text}")

    print()
    print("=== Product weights ===")
    for name, weight in borcherds_weights_table().items():
        assert weight.denominator == 1
        print(f"  divisor family {name:>5}: weight {int(weight):2d}")


if __name__ == "__main__":
    main()
