"""Lines, cubics, symmetry, and rational-curve interpolation on the quartic."""

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, prod

import numpy as np
import pytest

import igusa.exact as exact
import igusa.geometry as geometry
from igusa.exact import integer_echelon
from igusa.geometry import (
    PAIR_PARTITIONS,
    MultiPoly,
    base_lines,
    base_points,
    boundary_points,
    canonical_polys,
    cubic_base_locus_check,
    cubic_span,
    degree16_check,
    evaluate_polys,
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

from helpers import run_demo

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except Exception:  # pragma: no cover
    HAVE_HYPOTHESIS = False

F = Fraction


def reference_evaluate(poly, point):
    """The value at a point of ints or Fractions, term by term in Python
    arithmetic."""
    total = 0
    for exps, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(point, exps):
            term *= v**e
        total += term
    return total


def fibre_nodes(x):
    """The parameters (p, r) of the seven points on the fibre curve through
    a cleared point x: x at t = 0, base point k at t = 1 / x_k."""
    return ((0, 1), *((1, v) for v in x))


def on_line(partition, point):
    """Whether a point lies on the singular line of a pair partition, one
    coordinate pair at a time."""
    return all(point[i] == point[j] for i, j in partition) and sum(point) == 0


def distinct_draws(count, seed=0):
    """Cleared seeded hyperplane points with six distinct coordinates."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        x = geometry._random_hyperplane_point(rng)
        if len(set(x)) == 6:
            draws.append(x)
    return draws


def test_hyperplane_draw_is_the_cleared_fraction_draw():
    # the integer draw takes the same (n, q) pairs from the generator as
    # five Fractions n / q and clears them over their least denominator
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            head = [F(ref.randint(-9, 9), ref.randint(1, 4)) for _ in range(5)]
            expected, _ = exact.clear_denominators(head + [-sum(head)])
            assert geometry._random_hyperplane_point(rng) == expected
        assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# Polynomials and points
# ---------------------------------------------------------------------------


def test_multipoly_arithmetic_and_calculus():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) ** 2 - (x**2 + 2 * x * y + y**2)
    assert not p
    q = x**3 - 3 * x * y
    assert all(type(c) is int for c in q.terms.values())
    assert q.degree() == 3
    assert q.evaluate_rows([[2, 5]]).tolist() == [8 - 30]
    assert q.partial(0) == 3 * x**2 - 3 * y
    assert q.partial(1) == -3 * x
    # composition: substitute x -> t, y -> t^2 in one variable
    t = MultiPoly.variable(1, 0)
    comp = q.compose([t, t * t])
    assert comp == t**3 - 3 * t**3 == -2 * t**3


def test_multipoly_rejects_mixed_variable_counts():
    a = MultiPoly.variable(2, 0)
    b = MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        _ = a + b


def test_constructor_validates_and_normalizes_its_input():
    for exps in ((1,), (1, 0, 0), (1, -1)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(2, {exps: 1})
    assert MultiPoly(2, {(1, 0): 0, (0, 1): 0}).terms == {}
    p = MultiPoly(2, {(1, 0): np.int64(2), (0, 1): -1, (1, 1): 3})
    assert p.terms == {(1, 0): 2, (0, 1): -1, (1, 1): 3}
    assert all(type(c) is int for c in p.terms.values())
    # coefficients are integers only, in the constructor and the operations
    for coeff in (F(4, 2), F(1, 2), 0.0, 2.0):
        with pytest.raises(TypeError):
            MultiPoly(2, {(1, 0): coeff})
        with pytest.raises(TypeError):
            MultiPoly.constant(2, coeff)
    x = MultiPoly.variable(2, 0)
    with pytest.raises(TypeError):
        x * F(1, 2)
    with pytest.raises(TypeError):
        F(1, 2) * x
    # the operations drop zero terms through the trusted constructor
    assert (x * 2 - 2 * x).terms == {}
    assert (x - x).terms == {}
    assert (3 * x).partial(0).terms == {(0, 0): 3}
    assert MultiPoly.constant(2, 0).terms == {}


def test_power_has_no_spare_squaring(monkeypatch):
    x = MultiPoly.variable(1, 0)
    calls = 0
    original = MultiPoly.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    for n, expected in zip(range(1, 9), (0, 1, 2, 2, 3, 3, 4, 3)):
        calls = 0
        assert (x**n).terms == {(n,): 1}
        # floor(log2 n) squarings and one product per further set bit
        assert calls == expected == n.bit_length() + bin(n).count("1") - 2, n
    assert (x**0).terms == {(0,): 1}


def test_batched_evaluation_stays_exact_past_int64():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    big = 3037000499  # big**2 < 2**63 < 2 * big**2
    cases = [
        (3 * x**5 * y - y**6, [[2**13, 1], [-(2**13), 3], [1, 2**11]]),
        (x**2 + y**2, [[big, big], [big, -big]]),
    ]
    for poly, rows in cases:
        values = poly.evaluate_rows(np.array(rows, dtype=np.int64))
        assert values.dtype == object
        assert list(values) == [reference_evaluate(poly, row) for row in rows]
        assert max(abs(v) for v in values) >= 2**63
    # rows of Python integers beyond int64 evaluate in Python integers too
    rows = [[2**70, -3], [5, 2**64]]
    values = (3 * x**5 * y - y**6).evaluate_rows(rows)
    assert values.dtype == object
    assert list(values) == [reference_evaluate(3 * x**5 * y - y**6, row)
                            for row in rows]
    # small values stay in int64
    values = (x**2 - 3 * y).evaluate_rows(np.array([[1, 2], [-3, 4]]))
    assert values.dtype == np.int64 and list(values) == [-5, -3]
    with pytest.raises(TypeError):
        x.evaluate_rows(np.array([[0.5, 1.0]]))
    with pytest.raises(TypeError):  # no non-integer coefficient to evaluate
        x * F(1, 2)
    with pytest.raises(ValueError):
        x.evaluate_rows(np.array([[1, 2, 3]]))


def test_evaluation_switches_to_python_integers_at_the_largest_bound():
    # one dtype serves every polynomial: the largest overflow bound, 3 top^2
    # of the first polynomial, decides between int64 and Python integers,
    # and every side returns the exact integers
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    polys = [x**2 - y**2 + x * y, x**2, 3 * y - 1]
    edge = isqrt((2**63 - 1) // 3)
    for top, dtype in ((edge, np.int64), (edge + 1, object)):
        rows = [[top, top - 1], [-top, top], [1, -top]]
        values = evaluate_polys(polys, rows)
        assert values.shape == (3, 3) and values.dtype == dtype
        assert values.tolist() == [[reference_evaluate(p, r) for p in polys]
                                   for r in rows]


def test_evaluate_polys_is_one_column_per_polynomial():
    # the many-polynomial kernel agrees column by column with
    # `evaluate_rows`, shared monomials, constants and zero polynomials
    # included
    _, quartic = canonical_polys()
    polys = [quartic, MultiPoly.zero(6), MultiPoly.constant(6, -7)]
    polys += [quartic.partial(i) for i in range(6)] + list(fifteen_cubics())
    rows = [[1, 1, 1, 1, -2, -2], [3, -1, 0, 4, -5, -1], [0] * 6]
    values = evaluate_polys(polys, rows)
    assert values.shape == (3, len(polys))
    for column, poly in zip(values.T, polys):
        assert column.tolist() == poly.evaluate_rows(rows).tolist()
        assert column.tolist() == [reference_evaluate(poly, r) for r in rows]
    with pytest.raises(ValueError):  # the polynomials share their variables
        evaluate_polys([quartic, MultiPoly.variable(2, 0)], rows)


def test_canonical_values_at_reference_points():
    cubes, quartic = canonical_polys()
    assert {sum(e) for e in quartic.terms} == {4} == {quartic.degree()}
    assert {sum(e) for e in cubes.terms} == {3} == {cubes.degree()}
    rows = [(1, 1, 1, 1, -2, -2), (1, -1, 0, 0, 0, 0)]
    assert quartic.evaluate_rows(rows).tolist() == [0, -4]
    assert cubes.evaluate_rows(rows[1:]).tolist() == [0]


# ---------------------------------------------------------------------------
# Fifteen lines, fifteen points, (15)_3 incidence
# ---------------------------------------------------------------------------


def test_fifteen_lines_partitions_and_membership():
    lines = fifteen_lines()
    assert len(lines) == 15
    assert [part for part, _ in lines] == list(PAIR_PARTITIONS)
    # every partition pairs up all six indices, pairs sorted by minimum
    for part, coeffs in lines:
        flat = sorted(i for pair in part for i in pair)
        assert flat == list(range(6))
        # (1, 0) on the first pair, (0, 1) on the second, (-1, -1) on the
        # third: the shape of a base line's coefficients
        for pair, weight in zip(part, ((1, 0), (0, 1), (-1, -1))):
            assert [coeffs[i] for i in pair] == [weight, weight]
    assert all(len(coeffs) == 6 for _, coeffs in base_lines())
    # the line of the partition {0,1}{2,3}{4,5} carries these three points
    target = ((0, 1), (2, 3), (4, 5))
    points = [(1, 1, 1, 1, -2, -2), (1, 1, -2, -2, 1, 1),
              (-2, -2, 1, 1, 1, 1), (1, 1, 1, -2, 1, -2)]
    assert geometry._on_lines(points, [target])[:, 0].tolist() == [
        True, True, True, False]


def test_on_lines_matches_the_pair_test_on_the_witness_box():
    # every point of the singular-gradient search box against every line,
    # one partition pair at a time
    head = np.indices((5,) * 5).reshape(5, -1).T - 2
    box = np.column_stack([head, -head.sum(axis=1)])
    assert box.shape == (3125, 6)
    matrix = geometry._on_lines(box, PAIR_PARTITIONS)
    assert matrix.shape == (3125, 15) and matrix.dtype == bool
    assert matrix.tolist() == [[on_line(part, row) for part in PAIR_PARTITIONS]
                               for row in box.tolist()]
    assert 0 < matrix.sum() < 3125


def test_generic_pair_equal_family_misses_quartic():
    # coordinates (a, a, b, b, a+b, -3a-3b) satisfy the hyperplane but the
    # quartic does not vanish identically on the family -- the specific
    # (-1,-1) weight on the third pair is essential
    _, quartic = canonical_polys()
    pa = MultiPoly.variable(2, 0)
    pb = MultiPoly.variable(2, 1)
    subs = [pa, pa, pb, pb, pa + pb, -3 * pa - 3 * pb]
    total = MultiPoly.zero(2)
    for s in subs:
        total = total + s
    assert not total
    assert quartic.compose(subs)  # nonzero restriction


def test_boundary_points_and_incidence():
    points = boundary_points()
    assert len(points) == 15
    assert sorted(points) == sorted(
        tuple(-2 if i in low else 1 for i in range(6))
        for low in combinations(range(6), 2))
    data = incidence_153()
    assert data["row_sums"] == (3,) * 15
    assert data["col_sums"] == (3,) * 15
    # a point with -2 entries at positions {4,5} lies exactly on the lines
    # whose partition contains the pair (4,5)
    p = (1, 1, 1, 1, -2, -2)
    row = data["matrix"][data["points"].index(p)]
    expect = tuple(1 if (4, 5) in part else 0 for part in PAIR_PARTITIONS)
    assert row == expect
    assert sum(row) == 3
    assert data["matrix"] == tuple(
        tuple(int(on_line(part, point)) for part in data["lines"])
        for point in data["points"])
    assert all(type(v) is int for row in data["matrix"] for v in row)
    # a rescaled point (2:2:-1:-1:-1:-1) equals (-2,-2,1,1,1,1) projectively
    q = (2, 2, -1, -1, -1, -1)
    row_q = geometry._on_lines([q], PAIR_PARTITIONS)[0].tolist()
    expect_q = [(0, 1) in part for part in PAIR_PARTITIONS]
    assert row_q == expect_q


def test_singular_gradient_witnesses_are_pinned():
    report = singular_inclusion_check()
    assert report["off_line_witnesses"] == 180 == len(report["witnesses"])
    # the scalar search over the same box, in itertools.product order
    _, quartic = canonical_polys()
    grad = [quartic.partial(i) for i in range(6)]
    expected = []
    for head in product(range(-2, 3), repeat=5):
        coords = head + (-sum(head),)
        if not any(coords) or reference_evaluate(quartic, coords) != 0:
            continue
        if not any(on_line(part, coords) for part in PAIR_PARTITIONS):
            expected.append(coords)
    assert list(report["witnesses"]) == expected
    for coords in report["witnesses"]:
        assert all(type(c) is int for c in coords) and sum(coords) == 0
        assert reference_evaluate(quartic, coords) == 0
        assert not any(on_line(part, coords) for part in PAIR_PARTITIONS)
        assert len({reference_evaluate(g, coords) for g in grad}) > 1


def test_singular_locus_contains_all_lines():
    report = singular_inclusion_check()
    assert report["lines_in_singular_locus"] == 15
    assert report["gradient_identity"] == "symbolic"
    assert report["off_line_witnesses"] >= 1
    # independent spot check: the gradient at a smooth quartic point is not
    # proportional to the hyperplane normal (all-equal vector)
    _, quartic = canonical_polys()
    grads = [
        quartic.partial(i).evaluate_rows([[2, 1, 1, -1, -1, -2]])[0]
        for i in range(6)
    ]
    assert grads == [-32, 32, 32, -32, -32, 32]
    assert len(set(grads)) > 1


def test_line_parameters_prove_identities_up_to_degree_four():
    # a nonzero binary form of degree d has at most d zeros on P^1, so d + 1
    # pairwise non-proportional parameter pairs decide an identity
    pairs = geometry.LINE_PARAMETERS
    assert len(pairs) == 5
    for (a, b), (c, d) in combinations(pairs, 2):
        assert a * d - b * c != 0
    lines = [coeffs for _, coeffs in fifteen_lines()[:2]]
    for degree in (3, 4):
        points = geometry._line_points(lines, degree)
        assert points.shape == (2 * (degree + 1), 6)
        assert points.tolist() == [
            [ca * a + cb * b for ca, cb in line]
            for line in lines for a, b in pairs[: degree + 1]]
    # five pairs decide nothing of degree five: no under-certified points
    with pytest.raises(ValueError, match="degree 5"):
        geometry._line_points(lines, 5)


# a set of pairs that meets every pair partition but TARGET: the product of
# its coordinate differences vanishes on the other fourteen lines
TARGET = ((0, 1), (2, 3), (4, 5))
HITTING = [(0, 2), (0, 3), (0, 4), (0, 5), (2, 4), (2, 5)]


def difference_product(power):
    xs = [MultiPoly.variable(6, i) for i in range(6)]
    poly = MultiPoly.constant(6, 1)
    for i, j in HITTING:
        poly = poly * (xs[i] - xs[j]) ** power
    return poly


def test_hitting_set_misses_only_the_target_partition():
    assert [p for p in PAIR_PARTITIONS if not set(p) & set(HITTING)] == [
        TARGET]


def test_fifteen_lines_catch_a_quartic_off_one_line(monkeypatch):
    cubes, quartic = canonical_polys()
    monkeypatch.setattr(geometry, "canonical_polys",
                        lambda: (cubes, quartic + difference_product(1)))
    fifteen_lines.cache_clear()
    try:
        with pytest.raises(AssertionError,
                           match=re.escape(f"line {TARGET} is not on")):
            fifteen_lines()
    finally:
        fifteen_lines.cache_clear()


def test_singular_check_catches_a_gradient_bent_on_one_line(monkeypatch):
    # the squared differences vanish to order two on fourteen lines, so
    # the mutant's gradient stays proportional there and bends on TARGET
    cubes, quartic = canonical_polys()
    mutant = quartic + difference_product(2)
    grad = [mutant.partial(i) for i in range(6)]
    lines = fifteen_lines()
    params = [(1, k) for k in range(12)]  # more than the degree 11 of grad
    for part, coeffs in lines:
        values = evaluate_polys(grad, [[ca * a + cb * b for ca, cb in coeffs]
                                       for a, b in params])
        bent = (values != values[:, :1]).any()
        assert bent == (part == TARGET)
    monkeypatch.setattr(geometry, "canonical_polys", lambda: (cubes, mutant))
    with pytest.raises(ValueError, match=re.escape(f"all-ones on {TARGET}")):
        singular_inclusion_check()


# ---------------------------------------------------------------------------
# The fifteen cubics and their five-dimensional span
# ---------------------------------------------------------------------------


def test_cubic_sign_convention_matches_manual_product():
    cubics = fifteen_cubics()
    idx = PAIR_PARTITIONS.index(((0, 1), (2, 3), (4, 5)))
    xs = [MultiPoly.variable(6, i) for i in range(6)]
    manual = (xs[0] - xs[1]) * (xs[2] - xs[3]) * (xs[4] - xs[5])
    assert cubics[idx] == manual


def test_cubic_span_rank_and_expansions():
    span = cubic_span()
    assert span["rank"] == 5
    assert len(span["basis_indices"]) == 5
    assert len(span["monomials"]) == 56
    basis_vectors = [span["vectors"][i] for i in span["basis_indices"]]
    for vec, expansion in zip(span["vectors"], span["expansions"]):
        rebuilt = [
            sum(c * bv[k] for c, bv in zip(expansion, basis_vectors))
            for k in range(56)
        ]
        assert tuple(rebuilt) == vec
    # basis cubics expand as the standard unit vectors
    for pos, i in enumerate(span["basis_indices"]):
        expansion = span["expansions"][i]
        assert expansion[pos] == 1
        assert all(c == 0 for k, c in enumerate(expansion) if k != pos)
    # the pivot columns: each basis cubic is independent of all before it
    assert span["basis_indices"] == (0, 1, 3, 4, 7)


def test_cubic_span_expansions_match_reference():
    # the expansions read off the one elimination against a Fraction
    # Gauss-Jordan solve of each cubic in the basis
    span = cubic_span()
    basis = [span["vectors"][i] for i in span["basis_indices"]]
    assert span["expansions"] == tuple(
        reference_solve(basis, vec) for vec in span["vectors"])
    assert all(type(c) is int for row in span["expansions"] for c in row)


def test_cubic_span_certificate_catches_a_corrupted_expansion(monkeypatch):
    # adding the pivot entry to one non-pivot entry of the reduced matrix
    # moves one expansion coefficient by 1 and keeps the division exact, so
    # only the product certificate can catch it
    def corrupted(rows, width=None):
        reduced, pivots = integer_echelon(rows, width)
        p, col = pivots[0]
        reduced[p][2] += reduced[p][col]
        return reduced, pivots

    monkeypatch.setattr(geometry, "integer_echelon", corrupted)
    cubic_span.cache_clear()
    try:
        with pytest.raises(ValueError, match="do not rebuild the cubics"):
            cubic_span()
    finally:
        cubic_span.cache_clear()


def test_cubic_base_locus():
    report = cubic_base_locus_check()
    assert report == {
        "base_lines": 15,
        "base_points": 6,
        "vanishing_order": 2,
    }
    assert len(base_lines()) == 15
    # the base points avoid the quartic with a uniform exact value on the
    # integer representative (one -5 among five 1s)
    _, quartic = canonical_polys()
    points = base_points()
    assert points == tuple(tuple(-5 if j == i else 1 for j in range(6))
                           for i in range(6))
    assert quartic.evaluate_rows(points).tolist() == [-1620] * 6


def test_base_locus_needs_every_parameter_point(monkeypatch):
    # a cubic that vanishes at three of the four parameter points of one
    # base line but not identically: on the line (0, 1, 2, 3), x_0 = a and
    # x_4 = b, and b_k x_0 - a_k x_4 vanishes at the pair (a_k, b_k)
    four, coeffs = base_lines()[0]
    assert four == (0, 1, 2, 3)
    xs = [MultiPoly.variable(6, i) for i in range(6)]
    planted = MultiPoly.constant(6, 1)
    for a, b in geometry.LINE_PARAMETERS[:3]:
        planted = planted * (b * xs[0] - a * xs[4])
    values = planted.evaluate_rows(geometry._line_points([coeffs], 3))
    assert values[:3].tolist() == [0, 0, 0] and values[3] != 0
    monkeypatch.setattr(geometry, "base_lines", lambda: ((four, coeffs),))
    monkeypatch.setattr(geometry, "fifteen_cubics", lambda: (planted,))
    with pytest.raises(ValueError, match=re.escape(f"base line {four}")):
        cubic_base_locus_check()


# ---------------------------------------------------------------------------
# Symmetric-group equivariance
# ---------------------------------------------------------------------------


def test_s6_tables_match_direct_substitution():
    tables = s6_equivariance()
    assert set(tables) == {"s1", "s2", "s3", "s4", "s5"}
    cubics = fifteen_cubics()
    # recompute the s1 = (0 1) column for the cubic of {0,1}{2,3}{4,5}
    idx = PAIR_PARTITIONS.index(((0, 1), (2, 3), (4, 5)))
    perm = [1, 0, 2, 3, 4, 5]
    moved = geometry._apply_permutation(cubics[idx], perm)
    target, sign = tables["s1"][idx]
    assert target == idx  # the partition is fixed by swapping 0 and 1
    assert sign == -1  # but the first factor changes sign
    assert moved == -cubics[idx]
    # a transposition moving the partition: s2 = (1 2) on {0,1}{2,3}{4,5}
    target2, sign2 = tables["s2"][idx]
    assert PAIR_PARTITIONS[target2] == ((0, 2), (1, 3), (4, 5))
    moved2 = geometry._apply_permutation(cubics[idx], [0, 2, 1, 3, 4, 5])
    assert moved2 == sign2 * cubics[target2]


def test_s6_signed_action_is_faithful_on_signs():
    tables = s6_equivariance()
    for name, table in tables.items():
        signs = {sign for _, sign in table}
        assert signs == {1, -1}, f"{name} should mix both signs"
        targets = sorted(t for t, _ in table)
        assert targets == list(range(15))  # a genuine permutation


# ---------------------------------------------------------------------------
# The image cubic relation
# ---------------------------------------------------------------------------


def test_image_cubic_relation_is_exact_and_stable():
    relation = image_cubic_relation(seed=0)
    assert relation.nvars == 5
    assert relation.degree() == 3
    coeffs = list(relation.terms.values())
    assert all(c.denominator == 1 for c in coeffs)
    from math import gcd

    g = 0
    for c in coeffs:
        g = gcd(g, abs(int(c)))
    assert g == 1  # primitive integer coefficients
    # exact vanishing on fresh sample points, independent of the solver
    rng = random.Random(987)
    span = cubic_span()
    cubics = fifteen_cubics()
    for _ in range(10):
        head = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
        point = list(head) + [-sum(head)]
        ys = [reference_evaluate(cubics[i], point)
              for i in span["basis_indices"]]
        assert reference_evaluate(relation, ys) == 0
    # a different seed recovers the same primitive relation up to sign
    other = image_cubic_relation(seed=9)
    assert other == relation or other == -relation


def test_image_cubic_relation_is_certified_without_elimination(monkeypatch):
    # the modular rank bound and the exact kernel check decide the sample
    # matrix; the integer elimination is only a fallback
    calls = []
    fallback = exact.integer_echelon

    def counted(*args, **kwargs):
        calls.append(args)
        return fallback(*args, **kwargs)

    monkeypatch.setattr(exact, "integer_echelon", counted)
    relation = image_cubic_relation(seed=0)
    assert calls == []
    assert relation.terms == {
        (0, 1, 1, 0, 1): -1, (0, 1, 1, 1, 0): 1, (1, 0, 0, 1, 1): 1,
        (1, 0, 1, 1, 0): -1, (1, 1, 0, 1, 0): -1, (2, 0, 0, 1, 0): 1,
    }


def test_image_cubic_relation_reports_its_nullity(monkeypatch):
    # one repeated sample point leaves rank 1 (nullity 34); samples off the
    # image of the cubics leave no relation (nullity 0)
    point = distinct_draws(1)[0]
    monkeypatch.setattr(geometry, "_random_hyperplane_point",
                        lambda rng: point)
    with pytest.raises(ValueError, match=re.escape(
            "cubic-relation nullity is 34, expected exactly 1")):
        image_cubic_relation()
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    monkeypatch.setattr(geometry, "_image_values", lambda points: rng.integers(
        -50, 50, size=(len(points), 5)))
    with pytest.raises(ValueError, match=re.escape(
            "cubic-relation nullity is 0, expected exactly 1")):
        image_cubic_relation()


def test_image_relation_equivariance_signs():
    relation = image_cubic_relation(seed=0)
    outcomes = image_relation_equivariance(relation)
    assert set(outcomes) == {"s1", "s2", "s3", "s4", "s5"}
    assert set(outcomes.values()) <= {1, -1}


# ---------------------------------------------------------------------------
# The fibre curve of the cubic map
# ---------------------------------------------------------------------------


def curve_value(curve, p, r):
    """The six integer coordinates of the curve at t = p / r, times r^4."""
    chart = [sum(c * p**k * r**(4 - k) for k, c in enumerate(row))
             for row in curve]
    return chart + [-sum(chart)]


def symbolic_fibre():
    """R_i = 6 P_i - sum_k P_k and D = prod_j (x_j - s) as polynomials in
    (x_1, ..., x_6, s), P_i = prod_{j != i} (x_j - s)."""
    xs = [MultiPoly.variable(7, i) for i in range(7)]
    s = xs.pop()
    products = []
    for i in range(6):
        poly = MultiPoly.constant(7, 1)
        for j in range(6):
            if j != i:
                poly = poly * (xs[j] - s)
        products.append(poly)
    total = MultiPoly.zero(7)
    for poly in products:
        total = total + poly
    D = products[0] * (xs[0] - s)
    return xs, s, [6 * poly - total for poly in products], D


def test_fibre_curve_contracts_pair_differences():
    # (R_a - R_b)(x_a - s)(x_b - s) = 6 D(s)(x_b - x_a) identically, for
    # all 15 pairs; each pair partition uses every index once, so every
    # cubic is -216 D^2 times its value at x along the curve
    xs, s, R, D = symbolic_fibre()
    for a, b in combinations(range(6), 2):
        assert (R[a] - R[b]) * (xs[a] - s) * (xs[b] - s) == \
            6 * D * (xs[b] - xs[a])
    # the rows of fibre_curve are the coefficients of R at x, reversed
    coeffs = [[MultiPoly(6, {e[:6]: c for e, c in r.terms.items()
                             if e[6] == m}) for m in range(6)] for r in R]
    cubics = fifteen_cubics()
    for x in distinct_draws(10):
        curve = fibre_curve(x)
        values = [[int(c.evaluate_rows([x])[0]) for c in row]
                  for row in coeffs]
        assert all(row[5] == 0 for row in values)
        assert curve == tuple(tuple(row[4::-1]) for row in values[:5])
        phi = [int(cubic.evaluate_rows([x])[0]) for cubic in cubics]
        for s0 in (-3, 2, 11):
            y = curve_value(curve, 1, s0)  # R_x(s0)
            d = prod(v - s0 for v in x)
            assert [cubic.evaluate_rows([y])[0] for cubic in cubics] == \
                [-216 * d * d * v for v in phi]


def test_fibre_curve_meets_x_and_the_base_points():
    for x in distinct_draws(20, seed=1):
        curve = fibre_curve(x)
        assert len(curve) == 5 and all(len(row) == 5 for row in curve)
        assert all(type(v) is int for row in curve for v in row)
        # x at t = 0, with row -6x; base point k at t = 1 / x_k, infinity
        # when x_k = 0; exactly, on the integer rows
        assert curve_value(curve, 0, 1) == [-6 * v for v in x]
        for (p, r), point in zip(fibre_nodes(x)[1:], base_points()):
            value = curve_value(curve, p, r)
            lam = F(value[0], point[0])
            assert lam and value == [lam * c for c in point]
        assert any(row[4] for row in curve)  # genuine degree four
    assert any(0 in x for x in distinct_draws(20, seed=1))


def test_fibre_curve_rejects_bad_inputs():
    with pytest.raises(ValueError, match="repeated coordinate"):
        fibre_curve((3, 3, -1, 0, -2, -3))
    with pytest.raises(ValueError, match="hyperplane"):
        fibre_curve((1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError, match="hyperplane"):
        fibre_curve((1, -1, 2, -2, 0))
    # a float is no exact input, whatever its binary value
    with pytest.raises(TypeError, match=re.escape("0.1 is not an exact")):
        fibre_curve((0.1, 0.2, 0.3, 0.4, 0.5, -1.5))
    # rational points are cleared of denominators first
    assert fibre_curve((F(1, 2), F(-1, 3), 2, 1, F(-7, 6), F(-2))) == \
        fibre_curve((3, -2, 12, 6, -7, -12))


def test_fibre_is_rebuilt_from_its_image():
    # converse: phi(y) at a point y = R_x(s0) of the fibre fixes the six
    # coordinates up to a Mobius map, through the cross-ratios
    #   phi_{1k|02|ef} / phi_{0k|12|ef} = m(x_k),
    # m sending x_0, x_1, x_2 to infinity, 0, 1.  The images of
    # (infinity, 0, 1, m(x_3), m(x_4), m(x_5)) under z -> 1 / (z - c),
    # moved to coordinate sum zero, are the points R_x(s) with m(s) = c
    index = {frozenset(map(frozenset, p)): i
             for i, p in enumerate(PAIR_PARTITIONS)}
    cubics = fifteen_cubics()
    for x in distinct_draws(6, seed=2):
        curve = fibre_curve(x)
        y = curve_value(curve, 1, 13)
        phi = [int(cubic.evaluate_rows([y])[0]) for cubic in cubics]
        assert all(phi)  # so no point of the fibre repeats a coordinate
        w = [None, F(0), F(1)]
        for k in range(3, 6):
            e, f = sorted(set(range(6)) - {0, 1, 2, k})
            num = index[frozenset(map(frozenset, ((1, k), (0, 2), (e, f))))]
            den = index[frozenset(map(frozenset, ((0, k), (1, 2), (e, f))))]
            w.append(F(phi[num], phi[den]))

        def m(z):
            return F((z - x[1]) * (x[2] - x[0]), (z - x[0]) * (x[2] - x[1]))

        assert w[1:] == [m(v) for v in x[1:]]
        for s0 in (-20, 1, 13, 40):
            if s0 in x:
                continue
            c = m(s0)
            v = [F(0)] + [1 / (z - c) for z in w[1:]]
            mean = sum(v) / 6
            rebuilt = [z - mean for z in v]
            target = curve_value(curve, 1, s0)
            lam = F(target[0]) / rebuilt[0]
            assert lam and target == [lam * z for z in rebuilt]


def reference_inverse(matrix):
    """Inverse of a square rational matrix over Fractions, or None."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = reference_gauss_jordan(aug, width=n)
    return None if len(pivots) < n else [reduced[p][n:] for p, _ in pivots]


def dependent(subset) -> ValueError:
    """The frame construction's failure for a 5-subset of its seven points
    that does not span the hyperplane."""
    return ValueError(f"points {tuple(sorted(subset))} do not span the "
                      "hyperplane")


def reference_frame_curve(points):
    """The frame construction over Fractions, step by step: M, d, M D and
    its inverse, q, the gauge rho, the y-rows and x = (M D) y."""
    charts = [tuple(F(c) for c in p[:5]) for p in points]
    frame = range(1, 6)
    M = [[charts[1 + j][i] for j in range(5)] for i in range(5)]
    Minv = reference_inverse(M)
    if Minv is None:
        raise dependent(frame)
    d = [sum(Minv[i][j] * charts[6][j] for j in range(5)) for i in range(5)]
    for i, v in enumerate(d):
        if v == 0:
            raise dependent({6, *frame} - {1 + i})
    MD = [[M[i][j] * d[j] for j in range(5)] for i in range(5)]
    T = reference_inverse(MD)
    q = [sum(T[i][j] * charts[0][j] for j in range(5)) for i in range(5)]
    for i, v in enumerate(q):
        if v == 0:
            raise dependent({0, *frame} - {1 + i})
    for i, j in combinations(range(5), 2):
        if q[i] == q[j]:
            raise dependent({0, 6, *frame} - {1 + i, 1 + j})
    rho = next(cand for cand in (F(1), F(2), F(1, 2), F(3), F(1, 3), F(5),
                                 F(2, 5))
               if all(cand * v != 1 for v in q))
    q = [rho * v for v in q]
    a = [1 / (1 - v) for v in q]
    y_rows = []
    for i in range(5):
        poly = [-q[i] * a[i]]
        for j in range(5):
            if j != i:  # times (t - a_j)
                poly = [(poly[k - 1] if k else F(0))
                        - a[j] * (poly[k] if k < len(poly) else F(0))
                        for k in range(len(poly) + 1)]
        y_rows.append(poly)
    x_rows = [[sum(MD[i][j] * y_rows[j][k] for j in range(5))
               for k in range(5)] for i in range(5)]
    return tuple(tuple(row) for row in x_rows), (F(0),) + tuple(a) + (F(1),)


def outcome(build, *args):
    """What a construction returns, or the type and message it raises."""
    try:
        return build(*args)
    except ValueError as err:
        return ValueError, str(err)


def test_fibre_curve_matches_the_frame_reference():
    # the Fraction frame construction through a draw x and the six base
    # points fails exactly when x repeats a coordinate x_e = x_f, naming the
    # 5-subset of x and the base points other than e and f; otherwise the
    # Fraction gauge transport that sends three fibre nodes with finite
    # parameters to the frame's parameters of the same points carries every
    # node to its frame parameter and the fibre curve's form to the frame
    # curve's, exactly
    rng = random.Random(11)
    bases = list(base_points())
    charts = [b[:5] for b in bases]
    curves = 0
    for _ in range(60):
        x = geometry._random_hyperplane_point(rng)
        expected = outcome(reference_frame_curve, [x, *bases])
        if len(set(x)) < 6:
            with pytest.raises(ValueError, match="repeated coordinate"):
                fibre_curve(x)
            equal = [(e, f) for e, f in combinations(range(6), 2)
                     if x[e] == x[f]]
            assert expected[0] is ValueError
            assert expected[1] in {
                str(dependent({0, *(1 + k for k in range(6) if k not in ef)}))
                for ef in equal}
            continue
        coeffs, parameters = expected
        curve, nodes = fibre_curve(x), fibre_nodes(x)
        finite = [k for k, (_, r) in enumerate(nodes) if r][:3]
        (rows, params), _ = reference_gauge_transport(
            curve, nodes, [x[:5], *charts], finite,
            [parameters[k] for k in finite])
        assert params == parameters
        assert exact_quartic_composition(integer_rows(rows)) == \
            exact_quartic_composition(integer_rows(coeffs))
        curves += 1
    assert 30 < curves < 60


def reference_mobius_through(pairs):
    """2x2 rational matrix of the Mobius map sending three source values to
    three targets."""
    (s0, t0), (s1, t1), (s2, t2) = [(F(a), F(b)) for a, b in pairs]

    def basis(z0, z1, z2):
        # sends z0, z1, z2 to 0, 1, infinity
        return ((z1 - z2, -z0 * (z1 - z2)), (z1 - z0, -z2 * (z1 - z0)))

    src = basis(s0, s1, s2)
    (a, b), (c, d) = basis(t0, t1, t2)
    inv = ((d, -b), (-c, a))
    m = tuple(
        tuple(sum(inv[i][k] * src[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
        raise ValueError("gauge triple is degenerate")
    return m


def reference_gauge_transport(curve, nodes, charts, sources, targets):
    """The transport over Fractions of a curve's integer rows by the Mobius
    map sending the finite parameters of the three source nodes to the target
    values: expand (gamma s + delta)^4 x(...) term by term, carry every
    node (p, r) to (m00 p + m01 r) / (m10 p + m11 r), then normalize by
    the first scale and verify."""
    mob = reference_mobius_through(
        [(F(*nodes[k]), t) for k, t in zip(sources, targets)])
    (m00, m01), (m10, m11) = mob
    params = []
    for p, r in nodes:
        den = m10 * p + m11 * r
        if den == 0:
            raise ValueError("a parameter is transported to infinity")
        params.append((m00 * p + m01 * r) / den)
    alpha, beta, gamma, delta = m11, -m01, -m10, m00
    rows = []
    for row in curve:
        acc = [F(0)] * 5
        for k in range(5):
            term = [F(1)]
            for _ in range(k):
                term = geometry._conv(term, [beta, alpha])
            for _ in range(4 - k):
                term = geometry._conv(term, [delta, gamma])
            for j, c in enumerate(term):
                acc[j] += row[k] * c
        rows.append(acc)
    scales = []
    for t, chart in zip(params, charts):
        value = [sum(rows[i][k] * t**k for k in range(5)) for i in range(5)]
        k = max(range(5), key=lambda i: abs(chart[i]))
        scales.append(value[k] / chart[k])
    if scales[0] == 0:
        raise ValueError("degenerate gauge normalization")
    rows = [[c / scales[0] for c in row] for row in rows]
    scales = [s / scales[0] for s in scales]
    for t, chart, lam in zip(params, charts, scales):
        for i in range(5):
            assert sum(rows[i][k] * t**k for k in range(5)) == lam * chart[i]
    return (tuple(tuple(r) for r in rows), tuple(params)), tuple(scales)


def integer_rows(coeffs):
    """Five Fraction coefficient rows cleared to integer rows over one
    denominator."""
    flat, _ = exact.clear_denominators([c for row in coeffs for c in row])
    return tuple(tuple(flat[k:k + 5]) for k in range(0, 25, 5))


# ---------------------------------------------------------------------------
# Degree-16 composition
# ---------------------------------------------------------------------------


def test_exact_composition_degree_and_squarefree_tools():
    curve = fibre_curve(distinct_draws(1)[0])
    poly = exact_quartic_composition(curve)
    assert len(poly) == 17
    assert poly[16] != 0
    assert poly_is_squarefree(poly)
    # integers with no content, a positive multiple of the composition
    # over Fractions
    assert all(type(c) is int for c in poly) and gcd(*poly) == 1
    rows = [list(map(F, r)) for r in curve]
    rows.append([-sum(col) for col in zip(*rows)])
    squares = [geometry._conv(r, r) for r in rows]
    s2 = [sum(col) for col in zip(*squares)]
    s4 = [sum(col) for col in zip(*(geometry._conv(q, q) for q in squares))]
    reference = [a - 4 * b for a, b in zip(geometry._conv(s2, s2), s4)]
    ratio = reference[16] / poly[16]
    assert ratio > 0
    assert reference == [ratio * c for c in poly]
    # squarefree detector: controls with known root structure
    assert poly_is_squarefree([F(2), F(-3), F(1)])  # (t-1)(t-2)
    assert not poly_is_squarefree([F(1), F(-2), F(1)])  # (t-1)^2
    assert not poly_is_squarefree([F(0)])


def test_on_quartic_witness_composition():
    report = quartic_point_composition_check()
    assert report["constant_term_exact_zero"] is True
    assert report["leading_term_nonzero"] is True
    assert report["witness_residual"] <= report["bound"]
    # the witness and the degree-16 trials read one residual tolerance
    assert report["bound"] == degree16_check(trials=1)["residual_tol"] == 1e-9


def test_witness_is_a_tangency():
    # the report's witness is a double root of its composition
    poly = exact_quartic_composition(fibre_curve((-8, -7, 0, 3, 5, 7)))
    assert poly[0] == poly[1] == 0 and poly[2] != 0


def test_small_quartic_points_are_all_tangencies():
    # every quartic point with distinct coordinates and x1..x5 in [-6, 6],
    # each of the form (a, b, c, -a, -b, -c); the composition depends only
    # on the coordinates as a set
    r = np.arange(-6, 7)
    x5 = np.stack(np.meshgrid(*[r] * 5, indexing="ij"), -1).reshape(-1, 5)
    x = np.hstack([x5, -x5.sum(axis=1, keepdims=True)])
    on = x[((x**2).sum(axis=1)) ** 2 == 4 * (x**4).sum(axis=1)]
    points = {tuple(sorted(row)) for row in on.tolist() if len(set(row)) == 6}
    assert len(points) == 6 and all(p == tuple(-v for v in p[::-1]) for p in points)
    for point in sorted(points):
        poly = exact_quartic_composition(fibre_curve(point))
        assert poly[0] == poly[1] == 0, point


def test_quartic_point_with_a_simple_root():
    # outside [-6, 6] the fibre curve can cross the quartic transversally
    point = (-11, -10, -6, 1, 11, 15)
    _, quartic = canonical_polys()
    assert quartic.evaluate_rows([point])[0] == 0
    poly = exact_quartic_composition(fibre_curve(point))
    assert poly[0] == 0 and poly[1] == -120 and poly[16] != 0
    assert poly_is_squarefree(list(poly))


def test_witness_float_composition_is_independent(monkeypatch):
    # the float composition is built from the curve's rows, not from the
    # exact form, so an exact form wrong in one coefficient fails the check
    original = geometry.exact_quartic_composition

    def corrupted(curve):
        form = list(original(curve))
        form[8] *= 2
        return tuple(form)

    monkeypatch.setattr(geometry, "exact_quartic_composition", corrupted)
    with pytest.raises(ValueError, match="float composition misses"):
        quartic_point_composition_check()


def test_float_roots_map_to_distinct_quartic_points(monkeypatch):
    # the 16 float roots of the first seed-0 trial, mapped through its
    # curve, lie on the quartic and are pairwise distinct points of P^4
    curves = []
    monkeypatch.setattr(geometry, "fibre_curve",
                        lambda x: curves.append(fibre_curve(x)) or curves[-1])
    degree16_check(trials=1, seed=0)
    curve, = curves
    form = exact_quartic_composition(curve)
    cmax = max(map(abs, form))
    poly = np.poly1d([c / cmax for c in form[::-1]])
    roots = poly.roots
    for _ in range(3):  # Newton steps, as degree16_check polishes
        roots = roots - poly(roots) / poly.deriv()(roots)
    assert len(roots) == 16
    chart = np.vander(roots, 5, increasing=True) @ np.array(curve, float).T
    points = np.column_stack([chart, -chart.sum(axis=1)])
    sizes = np.sum(np.abs(points) ** 2, axis=1)
    values = np.sum(points**2, axis=1) ** 2 - 4 * np.sum(points**4, axis=1)
    assert np.max(np.abs(values) / sizes**2) < 1e-9
    # |cos| of the angle between the lines through two points
    unit = points / np.sqrt(sizes)[:, None]
    overlap = np.abs(unit.conj() @ unit.T)
    np.fill_diagonal(overlap, 0)
    assert np.max(overlap) < 1 - 1e-6


DEGREE16_CAUSES = {
    "no_generic_point",
    "composition_residual",
    "repeated_roots_exact",
    "root_clustering",
}


@pytest.mark.parametrize("seed", [0, 3])
def test_degree16_counts_sixteen_distinct_roots(seed):
    trials = 20
    report = degree16_check(trials=trials, seed=seed)
    assert report["trials"] == trials
    assert report["success_rate"] >= 0.95
    assert report["residual_tol"] == 1e-9
    assert report["separation_tol"] == 1e-6
    assert 0 < report["worst_composition_residual"] <= 1e-9
    for trial, cause in report["discarded"]:
        assert 0 <= trial < trials
        assert cause in DEGREE16_CAUSES


def _dependent_subsets(points):
    """Every 5-subset of the points whose charts have rank below 5."""
    charts = [[F(c) for c in p[:5]] for p in points]
    return [
        subset for subset in combinations(range(len(points)), 5)
        if len(integer_echelon([charts[i] for i in subset])[1]) < 5
    ]


def test_degree16_rejects_exactly_the_draws_with_a_dependent_subset(
        monkeypatch):
    # differential: which draws get a fibre curve, against a brute-force
    # rank count over all 21 five-point subsets of the draw and the six base
    # points; the draws are used in the order they are drawn, so the used
    # ones are the first rejected-plus-built of them
    drawn, built = [], []
    draw = geometry._random_hyperplane_point
    monkeypatch.setattr(geometry, "_random_hyperplane_point",
                        lambda rng: drawn.append(draw(rng)) or drawn[-1])
    monkeypatch.setattr(geometry, "fibre_curve",
                        lambda x: built.append(x) or fibre_curve(x))
    trials = 40
    report = degree16_check(trials=trials, seed=0)
    assert report["rejected_draws"]["on_quartic"] == 0
    rejected = report["rejected_draws"]["repeated_coordinate"]
    assert rejected > 0
    used = drawn[:rejected + len(built)]
    assert built == [x for x in used if len(set(x)) == 6]
    bases = list(base_points())
    for x in used:
        assert (x in built) == (not _dependent_subsets([x, *bases]))
    # one construction per accepted draw, each reused for its trial
    no_point = [c for _, c in report["discarded"]].count("no_generic_point")
    assert len(built) == trials - no_point


def test_degree16_files_only_repeated_coordinates_as_such(monkeypatch):
    # a draw with a repeated coordinate is rejected before any curve is
    # built; any other failure of the construction propagates
    def broken(x):
        assert len(set(x)) == 6
        raise ValueError("broken construction")

    monkeypatch.setattr(geometry, "fibre_curve", broken)
    with pytest.raises(ValueError, match="broken construction"):
        degree16_check(trials=1, seed=0)


def test_degree16_rejects_empty_trial_budget():
    with pytest.raises(ValueError):
        degree16_check(trials=0)


def counted_remainder_sequence(monkeypatch):
    """Count the runs of the integer remainder sequence behind the modular
    squarefree certificate."""
    calls = []
    original = geometry._prs_is_squarefree

    def counted(a):
        calls.append(tuple(a))
        return original(a)

    monkeypatch.setattr(geometry, "_prs_is_squarefree", counted)
    return calls


def test_squarefree_certificate_falls_back_exactly(monkeypatch):
    p = exact.KERNEL_PRIME
    calls = counted_remainder_sequence(monkeypatch)
    # t (t - p) is t^2 modulo p: the certificate fails, the fallback decides
    assert poly_is_squarefree([0, -p, 1])
    assert len(calls) == 1
    # p t^2 - 1: p divides the leading coefficient, the certificate is
    # skipped
    assert poly_is_squarefree([-1, 0, p])
    assert len(calls) == 2
    assert not poly_is_squarefree([p * p, -2 * p, 1])  # (t - p)^2
    assert len(calls) == 3
    # certified without the fallback: (t - 1)(t - 2), and as Fractions
    assert poly_is_squarefree([2, -3, 1])
    assert poly_is_squarefree([F(2, 3), F(-1), F(1, 3)])
    assert len(calls) == 3


# the composition of seed 4's trial 7 has degree 14, a double root at
# infinity, so its degree decides it without the remainder sequence
@pytest.mark.parametrize("seed, runs", [(0, 0), (4, 0)])
def test_degree16_runs_the_remainder_sequence_only_on_repeated_roots(
        monkeypatch, seed, runs):
    calls = counted_remainder_sequence(monkeypatch)
    report = degree16_check(trials=40, seed=seed)
    assert len(calls) == runs
    assert report["discarded"] == DEGREE16_OUTCOMES_40[seed][1]


def fed_form(monkeypatch, form):
    """Feed one integer form to every trial of degree16_check in place of
    the composition of its curve; the float composition oracle, which would
    tell the two apart, is switched off."""
    monkeypatch.setattr(geometry, "exact_quartic_composition",
                        lambda curve: form)
    monkeypatch.setattr(geometry, "_float_composition_residual",
                        lambda curve, form: 0.0)


@pytest.mark.parametrize("form, cause, runs", [
    # t^15 - 2: a simple root at infinity and 15 distinct finite roots
    ((-2,) + (0,) * 14 + (1, 0), None, 0),
    # t^14 - 2: squarefree, but a double root at infinity; the degree
    # decides without the squarefree test
    ((-2,) + (0,) * 13 + (1, 0, 0), "repeated_roots_exact", 0),
    # (t - 1)^2 (t^14 - 2): a finite double root, which the modular
    # certificate cannot exclude, so the remainder sequence decides
    (tuple(geometry._conv([1, -2, 1], [-2] + [0] * 13 + [1])),
     "repeated_roots_exact", 1),
], ids=["degree-15", "degree-14", "finite-double-root"])
def test_degree16_certifies_the_binary_form(monkeypatch, form, cause, runs):
    fed_form(monkeypatch, form)
    calls = counted_remainder_sequence(monkeypatch)
    if cause is None:
        report = degree16_check(trials=1, seed=0)
        assert (report["successes"], report["discarded"]) == (1, ())
    else:
        with pytest.raises(ValueError, match=re.escape(f"((0, '{cause}'),)")):
            degree16_check(trials=1, seed=0)
    assert len(calls) == runs


def test_degree16_discards_a_form_the_float_composition_misses(monkeypatch):
    # the float composition of each trial is built from its curve's rows,
    # so an exact form moved in one coefficient discards every trial
    original = geometry.exact_quartic_composition

    def corrupted(curve):
        form = list(original(curve))
        form[8] += max(map(abs, form))
        return tuple(form)

    monkeypatch.setattr(geometry, "exact_quartic_composition", corrupted)
    causes = re.escape(str(tuple((t, "composition_residual")
                                 for t in range(3))))
    with pytest.raises(ValueError, match=causes):
        degree16_check(trials=3, seed=0)


# (successes, discarded, repeated_coordinate rejections) of
# degree16_check(trials=40, seed=s) for s = 0..11
DEGREE16_OUTCOMES_40 = [
    (40, (), 20),
    (40, (), 17),
    (40, (), 20),
    (40, (), 19),
    (39, ((7, "repeated_roots_exact"),), 14),
    (40, (), 23),
    (40, (), 12),
    (40, (), 17),
    (40, (), 14),
    (40, (), 11),
    (40, (), 13),
    (40, (), 12),
]


def reference_separation(form):
    """The root oracle one form at a time: `np.poly1d` roots, three Newton
    steps where |f'| > 1e-14, and the least distance between two roots."""
    cmax = max(map(abs, form))
    poly = np.poly1d([c / cmax for c in form[::-1]])
    roots = poly.roots
    derivative = np.polyder(poly)
    for _ in range(3):
        vals, dvals = poly(roots), derivative(roots)
        ok = np.abs(dvals) > 1e-14
        roots[ok] = roots[ok] - vals[ok] / dvals[ok]
    return np.min(np.abs(roots[:, None] - roots[None, :])
                  + np.eye(len(roots)) * 1e9)


def test_batched_root_oracle_matches_the_per_form_reference(monkeypatch):
    forms = []
    batched = geometry._root_separations
    monkeypatch.setattr(geometry, "_root_separations",
                        lambda batch: forms.extend(batch) or batched(batch))
    seeds = range(len(DEGREE16_OUTCOMES_40))
    reports = [degree16_check(trials=40, seed=s) for s in seeds]
    monkeypatch.setattr(geometry, "_root_separations", lambda batch: np.array(
        [reference_separation(form) for form in batch]))
    for seed, report in zip(seeds, reports):
        reference = degree16_check(trials=40, seed=seed)
        assert (reference["successes"], reference["discarded"]) == (
            report["successes"], report["discarded"])
    # the same float operations entry by entry, a degree-15 form among the
    # degree-16 ones: the separations agree bit for bit
    forms.append((-2,) + (0,) * 14 + (1, 0))
    assert len(forms) > 400
    assert batched(forms).tolist() == [reference_separation(f) for f in forms]


def test_degree16_lists_root_clustering_in_trial_order(monkeypatch):
    # trial 0 has two roots 1e-7 apart, caught only by the float oracle
    # after the last trial; trial 1 has a double root at infinity
    n = 10**7
    clustered = geometry._conv([n * n + n, -2 * n * n - n, n * n],
                               [-2] + [0] * 13 + [1])
    forms = iter([tuple(clustered), (-2,) + (0,) * 13 + (1, 0, 0)])
    monkeypatch.setattr(geometry, "exact_quartic_composition",
                        lambda curve: next(forms))
    monkeypatch.setattr(geometry, "_float_composition_residual",
                        lambda curve, form: 0.0)
    assert poly_is_squarefree(clustered)
    with pytest.raises(ValueError, match=re.escape(
            "((0, 'root_clustering'), (1, 'repeated_roots_exact'))")):
        degree16_check(trials=2, seed=0)


def test_degree16_sampled_outcomes_are_pinned():
    for seed, (successes, discarded, repeated) in enumerate(
            DEGREE16_OUTCOMES_40):
        report = degree16_check(trials=40, seed=seed)
        assert (report["successes"], report["discarded"],
                report["rejected_draws"]) == (
            successes, discarded,
            {"on_quartic": 0, "repeated_coordinate": repeated})


# ---------------------------------------------------------------------------
# Integer kernels against Fraction references
# ---------------------------------------------------------------------------


def reference_gauss_jordan(rows, width=None):
    """Gauss-Jordan over Fractions, pivoting on the first unused row with a
    nonzero entry: (reduced rows, (row, column) pivots)."""
    mat = [[F(v) for v in row] for row in rows]
    used = [False] * len(mat)
    pivots = []
    for col in range(len(mat[0]) if width is None else width):
        p = next((i for i, row in enumerate(mat) if row[col] and not used[i]),
                 None)
        if p is None:
            continue
        used[p] = True
        pivots.append((p, col))
        inv = 1 / mat[p][col]
        mat[p] = [v * inv for v in mat[p]]
        for i in range(len(mat)):
            if i != p and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[p])]
    return mat, pivots


def reference_solve(basis, target):
    """Coefficients of target in the basis rows, or None when the basis is
    dependent or the target lies outside the span."""
    k = len(basis)
    rows = [[v[i] for v in basis] + [t] for i, t in enumerate(target)]
    red, pivots = reference_gauss_jordan(rows, width=k)
    used = {p for p, _ in pivots}
    if len(pivots) != k or any(red[i][k] for i in range(len(red))
                               if i not in used):
        return None
    return tuple(red[p][k] for p, _ in pivots)


def proportional(u, v) -> bool:
    """Whether u is a nonzero rational multiple of v, or both are zero."""
    if [bool(a) for a in u] != [bool(b) for b in v]:
        return False
    i = next((i for i, a in enumerate(u) if a), None)
    return i is None or all(F(a) * v[i] == F(b) * u[i] for a, b in zip(u, v))


def test_reference_kernels_on_a_fixed_case():
    rows = [[F(1, 2), 1, 0], [1, 2, 0], [0, F(1, 3), 1]]
    reduced, pivots = integer_echelon(rows)
    assert pivots == [(0, 0), (2, 1)]
    assert reduced[1] == [0, 0, 0]
    basis = [[1, 0, 1], [0, 1, 1]]
    assert reference_solve(basis, [2, 3, 5]) == (2, 3)
    assert reference_solve(basis, [F(1, 2), -1, F(-1, 2)]) == (F(1, 2), -1)
    # a target outside the span, and a dependent basis, have no solution
    assert reference_solve(basis, [2, 3, 4]) is None
    assert reference_solve([[1, 0, 1], [2, 0, 2]], [1, 0, 1]) is None


if HAVE_HYPOTHESIS:
    rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)

    @st.composite
    def rational_matrices(draw):
        """Small rational matrices; some rows are forced to be rational
        combinations of the rows above them."""
        nrows = draw(st.integers(1, 6))
        ncols = draw(st.integers(1, 6))
        rows = []
        for i in range(nrows):
            if i and draw(st.integers(0, 3)) == 0:
                coeffs = draw(st.lists(rationals, min_size=i, max_size=i))
                rows.append([sum(c * row[k] for c, row in zip(coeffs, rows))
                             for k in range(ncols)])
            else:
                rows.append(draw(st.lists(rationals, min_size=ncols,
                                          max_size=ncols)))
        return rows

    @given(rational_matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_integer_echelon_matches_fraction_gauss_jordan(rows, data):
        width = data.draw(st.integers(0, len(rows[0])))
        reduced, pivots = integer_echelon(rows, width=width)
        expected, expected_pivots = reference_gauss_jordan(rows, width=width)
        assert pivots == expected_pivots
        assert all(type(v) is int for row in reduced for v in row)
        for row, ref in zip(reduced, expected):
            assert proportional(row, ref)
        # the input is left unchanged
        assert rows == [[F(v) for v in row] for row in rows]

    @given(st.lists(rationals, max_size=7),
           st.lists(st.integers(0, 6), max_size=3), rationals.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_squarefree_on_products_of_linear_factors(roots, repeats, scale):
        # c * prod (t - r) over the roots, some of them taken again
        factors = roots + [roots[k % len(roots)] for k in repeats if roots]
        poly = [scale]
        for r in factors:  # multiply by (t - r), ascending coefficients
            poly = [-r * poly[0]] + [
                a - r * b for a, b in zip(poly[:-1], poly[1:])
            ] + [poly[-1]]
        assert poly_is_squarefree(poly) == (len(set(factors)) == len(factors))

    @st.composite
    def polynomials_and_points(draw):
        nvars = draw(st.integers(1, 4))
        exps = st.tuples(*[st.integers(0, 3)] * nvars)
        terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=8))
        point = draw(st.lists(st.integers(-9, 9),
                              min_size=nvars, max_size=nvars))
        return MultiPoly(nvars, terms), terms, point

    @given(polynomials_and_points())
    @settings(max_examples=80, deadline=None)
    def test_evaluate_matches_fraction_reference(case):
        poly, terms, point = case
        expected = F(0)
        for exps, coeff in terms.items():
            term = F(coeff)
            for v, e in zip(point, exps):
                term *= F(v) ** e
            expected += term
        value = poly.evaluate_rows(np.array([point])).tolist()
        assert value == [expected]


    def reference_compose(poly, substitutions):
        """Term by term: each coefficient times the substitutions multiplied
        out one factor at a time, summed."""
        nout = substitutions[0].nvars
        total = MultiPoly.zero(nout)
        for exps, coeff in poly.terms.items():
            term = MultiPoly.constant(nout, coeff)
            for sub, e in zip(substitutions, exps):
                for _ in range(e):
                    term = term * sub
            total = total + term
        return total

    @st.composite
    def small_polys(draw, nvars, max_exp):
        """A zero, a constant or a general polynomial."""
        coeffs = st.integers(-9, 9)
        kind = draw(st.sampled_from(("zero", "constant", "general")))
        if kind == "zero":
            return MultiPoly(nvars, {})
        if kind == "constant":
            return MultiPoly(nvars, {(0,) * nvars: draw(coeffs)})
        exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
        return MultiPoly(nvars, draw(st.dictionaries(exps, coeffs,
                                                     max_size=6)))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_compose_matches_term_by_term_reference(data):
        nvars = data.draw(st.integers(1, 3))
        nout = data.draw(st.integers(1, 3))
        poly = data.draw(small_polys(nvars, 3))
        subs = [data.draw(small_polys(nout, 2)) for _ in range(nvars)]
        composed = poly.compose(subs)
        assert composed == reference_compose(poly, subs)
        assert composed.nvars == nout
        assert all(type(c) is int for c in composed.terms.values())

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_batched_evaluation_matches_scalar_evaluate(data):
        nvars = data.draw(st.integers(1, 4))
        poly = data.draw(small_polys(nvars, 4))
        rows = data.draw(st.lists(
            st.lists(st.integers(-50, 50), min_size=nvars, max_size=nvars),
            max_size=6))
        points = np.array(rows, dtype=np.int64).reshape(len(rows), nvars)
        values = poly.evaluate_rows(points)
        assert values.shape == (len(rows),)
        assert list(values) == [reference_evaluate(poly, row) for row in rows]


def test_evaluate_rejects_non_rational_inputs():
    # only integer rows evaluate: floats and complex numbers are refused,
    # and so are Fractions, which are cleared of denominators first
    _, quartic = canonical_polys()
    for row in ([1.0, -1, 0, 0, 0, 0], [1j, -1, 0, 0, 0, 0],
                [F(1, 2), F(-1, 2), 0, 0, 0, 0]):
        with pytest.raises(TypeError):
            quartic.evaluate_rows([row])


def test_quartic_geometry_demo_runs():
    out = run_demo("07_quartic_geometry.py")
    assert "quartic at (1,-1,0,0,0,0):  -4\n" in out
