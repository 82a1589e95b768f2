"""Fifteen lines, fifteen cubics, and degree-16 curves on a singular quartic.

The story: inside the coordinate-sum-zero hyperplane of projective 5-space,
the quartic cut out by (sum of squares)^2 = 4 * (sum of fourth powers)
is singular exactly along fifteen lines indexed by the pair partitions of
six letters.  The fifteen cubics built from coordinate differences span
only a 5-dimensional space, define a linear system with a rich base locus,
and map the quartic onto a cubic hypersurface; the unique relation among
five basis cubics is computed by exact interpolation.  Finally, the fibre
of the cubic map through a general point is a rational normal curve of
degree 4 through that point and the six base points, given in closed form;
it pulls the quartic back to a degree-16 form, certified exactly.
"""

import math
import random
from fractions import Fraction

from igusa.exact import clear_denominators
from igusa.geometry import (
    PAIR_PARTITIONS,
    boundary_points,
    canonical_polys,
    cubic_base_locus_check,
    cubic_span,
    degree16_check,
    exact_quartic_composition,
    fibre_curve,
    fifteen_cubics,
    fifteen_lines,
    image_cubic_relation,
    image_relation_equivariance,
    incidence_153,
    poly_is_squarefree,
    quartic_point_composition_check,
    s6_equivariance,
    singular_inclusion_check,
)

F = Fraction


def generic_point(seed=42):
    """A random rational point of the coordinate-sum-zero hyperplane with
    six distinct coordinates."""
    rng = random.Random(seed)
    while True:
        first = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
        point = tuple(first) + (-sum(first),)
        if len(set(point)) == 6:
            return point


def poly_to_str(poly, names):
    pieces = []
    for exps, coeff in sorted(poly.terms.items(), reverse=True):
        mono = "*".join(
            f"{names[i]}^{e}" if e > 1 else names[i]
            for i, e in enumerate(exps) if e
        )
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        body = mono if mag == 1 and mono else f"{mag}" + (f"*{mono}" if mono else "")
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def main():
    cubic_sum, quartic = canonical_polys()
    print("=== The quartic and its fifteen singular lines ===")
    on_line, off_line = quartic.evaluate_rows(
        [(1, 1, 1, 1, -2, -2), (1, -1, 0, 0, 0, 0)]).tolist()
    print(f"quartic at (1,1,1,1,-2,-2): {on_line}")
    print(f"quartic at (1,-1,0,0,0,0):  {off_line}")
    print(f"pair partitions of six letters: {len(PAIR_PARTITIONS)}")
    partition, _ = fifteen_lines()[0]
    print(f"first line, partition {partition}: coordinates "
          "(a, a, b, b, -a-b, -a-b)")
    sing = singular_inclusion_check()
    print(f"lines inside the singular locus: {sing['lines_in_singular_locus']}"
          f" (gradient identity: {sing['gradient_identity']}, "
          f"off-line gradient witnesses: {sing['off_line_witnesses']})")

    print()
    print("=== A (15, 3) incidence configuration ===")
    inc = incidence_153()
    print(f"boundary points: {len(boundary_points())}, "
          f"row sums {sorted(set(inc['row_sums']))}, "
          f"column sums {sorted(set(inc['col_sums']))}")
    header = "      " + " ".join(f"{j:2d}" for j in range(15))
    print(header)
    for i, row in enumerate(inc["matrix"]):
        cells = " ".join(" x" if v else " ." for v in row)
        print(f"  p{i:2d} {cells}")

    print()
    print("=== Fifteen cubics spanning a 5-dimensional system ===")
    span = cubic_span()
    print(f"rank of the 15 x 56 coefficient matrix: {span['rank']}")
    print(f"basis partitions: "
          f"{[PAIR_PARTITIONS[i] for i in span['basis_indices']]}")
    locus = cubic_base_locus_check()
    print(f"base locus: {locus['base_lines']} lines and "
          f"{locus['base_points']} points, quartic vanishing to order "
          f"{locus['vanishing_order']} at the points")

    print()
    print("=== Symmetric-group action ===")
    eq = s6_equivariance()
    s1 = eq["s1"]
    moved = sum(1 for idx, (img, _) in enumerate(s1) if img != idx)
    flipped = sum(1 for _, sign in s1 if sign < 0)
    print(f"adjacent transposition s1 permutes the cubics, moving {moved} "
          f"and flipping the sign of {flipped}")

    print()
    print("=== The image cubic ===")
    relation = image_cubic_relation(seed=0)
    names = [f"y{i}" for i in range(5)]
    print("unique cubic relation among the five basis cubics:")
    print(f"  {poly_to_str(relation, names)} = 0")
    signs = image_relation_equivariance(relation)
    print(f"each adjacent transposition rescales it by: "
          f"{sorted(set(signs.values()))} (the sign character)")

    print()
    print("=== The fibre of the cubic map through a point ===")
    point = generic_point()
    print("a generic rational point x on the hyperplane:")
    print(f"  {tuple(str(c) for c in point)}")
    rows = fibre_curve(point)
    x, _ = clear_denominators(point)
    print(f"cleared of denominators: {tuple(x)}")
    print("its fibre R(s)_i = 6 P_i(s) - sum_k P_k(s), with "
          "P_i(s) = prod_{j != i} (x_j - s),")
    print("in the chart t = 1/s, coefficient rows in ascending powers of t:")
    for row in rows:
        print(f"  {row}")
    print("x sits at t = 0 (row -6x), base point k at t = 1/x_k")
    s = 5
    chart = [sum(c * s ** (4 - k) for k, c in enumerate(row))
             for row in rows]
    on_curve = chart + [-sum(chart)]
    factor = -216 * math.prod(v - s for v in x) ** 2
    cubics = fifteen_cubics()
    contracted = all(
        int(c.evaluate_rows([on_curve])[0])
        == factor * int(c.evaluate_rows([x])[0]) for c in cubics)
    print(f"all fifteen cubics at R({s}) are -216 D({s})^2 = {factor} "
          f"times their values at x: {contracted}")
    composed = exact_quartic_composition(rows)
    degree = max(i for i, c in enumerate(composed) if c)
    print(f"exact pullback of the quartic along the curve: "
          f"degree {degree} in the parameter, "
          f"squarefree = {poly_is_squarefree(composed)}")
    check = quartic_point_composition_check()
    print(f"the fibre through a point on the quartic gives an exact root: "
          f"constant term zero = {check['constant_term_exact_zero']}, "
          f"degree-16 term nonzero = {check['leading_term_nonzero']}")
    print(f"a float composition of that curve's rows misses the exact form "
          f"by {check['witness_residual']:.3e} (bound {check['bound']:.0e})")

    print()
    print("=== Degree-16 certification over random configurations ===")
    result = degree16_check(trials=20, seed=0)
    print(f"  trials: {result['trials']}, successes: {result['successes']} "
          f"(rate {result['success_rate']:.2f})")
    print(f"  discarded trials: {len(result['discarded'])}, redrawn "
          f"candidate points: {sum(result['rejected_draws'].values())}")
    print(f"  worst float composition residual: "
          f"{result['worst_composition_residual']:.3e}")


if __name__ == "__main__":
    main()
