"""Tests for lattice construction, signatures, Smith normal form, and
discriminant modules."""

import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from igusa.fqm import find_isomorphism, direct_sum as fqm_direct_sum
from igusa.lattices import (
    Lattice,
    ambient_lattice,
    determinant,
    direct_sum,
    discriminant_module,
    restriction_lattice,
    signature,
    smith_normal_form,
    standard,
)


def leibniz_determinant(gram):
    """The determinant as the signed sum over all permutations."""
    total = 0
    for perm in permutations(range(len(gram))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= gram[i][j]
        total += term
    return total


def test_determinant_matches_the_leibniz_formula():
    # seeded symmetric Gram matrices of rank 1 to 5, many of them singular,
    # and the package's lattices: the product of the reduction's pivots
    rng = random.Random(7)
    grams = [standard(name).gram for name in ("U", "A1", "A2", "D4")]
    grams += [ambient_lattice().gram, restriction_lattice().gram]
    for n in range(1, 6):
        for _ in range(40):
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.choice(
                        [0, 0, rng.randint(-4, 4)])
            grams.append(gram)
    singular = 0
    for gram in grams:
        expected = leibniz_determinant(gram)
        assert determinant(Lattice(gram)) == expected
        singular += expected == 0
    assert 0 < singular < len(grams)


def test_standard_gram_matrices():
    assert standard("U", 2).gram == ((0, 2), (2, 0))
    assert standard("U").gram == ((0, 1), (1, 0))
    assert standard("A1").gram == ((-2,),)
    assert standard("A1", 2).gram == ((-4,),)
    a2 = standard("A2").gram
    assert a2 == ((-2, 1), (1, -2))
    e8 = standard("E8")
    assert e8.rank == 8
    assert determinant(e8) == 1
    assert signature(e8) == (0, 8)
    d4 = standard("D4")
    assert abs(determinant(d4)) == 4


def test_standard_scale_must_stay_integral():
    with pytest.raises(ValueError):
        standard("U", Fraction(1, 2))
    # half-scaling U(2) is fine: gram entries 2 * 1/2 = 1
    assert standard("U", 1).gram == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        standard("A1", Fraction(1, 3))
    with pytest.raises(ValueError):
        standard("Q7")


@pytest.mark.parametrize("scale", [2.0, np.float64(0.5), Decimal("2")],
                         ids=["float", "float64", "decimal"])
def test_standard_scale_must_be_exact(scale):
    # 2.0 would pass by its binary value and give U(2)
    with pytest.raises(TypeError, match=re.escape(f"{scale!r} is not an exact rational")):
        standard("U", scale)


def test_standard_scale_accepts_exact_values():
    assert standard("U", np.int64(2)).gram == standard("U", 2).gram == ((0, 2), (2, 0))
    assert standard("A1", Fraction(1, 2)).gram == ((-1,),)


def test_direct_sum_and_signatures():
    N = ambient_lattice()
    assert signature(N) == (2, 4)
    assert abs(determinant(N)) == 64
    assert N.labels == ("e1", "f1", "e2", "f2", "a1", "a2")

    M = restriction_lattice()
    assert signature(M) == (2, 3)
    assert abs(determinant(M)) == 64
    assert M.labels == ("e1", "f1", "e2", "f2", "a")

    assert signature(standard("A1")) == (0, 1)
    with pytest.raises(ValueError):
        direct_sum([])


def test_signature_rejects_singular():
    with pytest.raises(ValueError):
        signature(Lattice([[0, 0], [0, 2]]))
    with pytest.raises(ValueError):
        signature(Lattice([[1, 1], [1, 1]]))


def test_signature_zero_diagonal_block():
    # hyperbolic plane: all-zero diagonal exercises the off-diagonal pivot path
    assert signature(standard("U")) == (1, 1)
    assert signature(standard("U", 2)) == (1, 1)


def test_inner_products():
    N = ambient_lattice()
    e1 = N.vector(e1=1)
    f1 = N.vector(f1=1)
    a1 = N.vector(a1=1)
    assert N.ip(e1, f1) == 2
    assert N.norm(e1) == 0
    assert N.norm(a1) == -2
    v = N.vector(e2=Fraction(1, 2), f2=1, a1=Fraction(1, 2))
    assert N.norm(v) == Fraction(3, 2)


def test_vector_coefficients_must_be_exact():
    N = ambient_lattice()
    for value in (0.1, np.float64(0.5), Decimal("0.5")):
        with pytest.raises(TypeError, match=re.escape(f"{value!r} is not")):
            N.vector(e1=value)
    v = N.vector(e1=np.int64(3), a1=Fraction(1, 2))
    assert v == N.vector(e1=3, a1=Fraction(1, 2))
    assert all(type(c) is Fraction for c in v)


def test_inner_product_matches_the_fraction_sum():
    # the rational bilinear sum that the integer path replaces
    rng = random.Random(7)
    for L in (ambient_lattice(), restriction_lattice(), standard("E8", 2)):
        n = L.rank
        for _ in range(40):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            y = [rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)])
                 for _ in range(n)]
            expected = sum(
                x[i] * L.gram[i][j] * Fraction(y[j]) for i in range(n) for j in range(n)
            )
            value = L.ip(x, y)
            assert type(value) is Fraction and value == expected
            assert L.norm(x) == L.ip(x, x)
    with pytest.raises(ValueError, match="length"):
        ambient_lattice().ip((1, 2), (1, 2))


def test_class_of_vector_agrees_with_rational_dual_membership():
    # a vector is in the dual exactly when G x is integral; its class then
    # depends only on x modulo the lattice
    rng = random.Random(11)
    for L in (ambient_lattice(), restriction_lattice()):
        A = discriminant_module(L)
        n = L.rank
        for _ in range(60):
            x = [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))) for _ in range(n)]
            k = [sum(L.gram[i][j] * x[j] for j in range(n)) for i in range(n)]
            if all(v.denominator == 1 for v in k):
                shifted = [c + rng.randint(-2, 2) for c in x]
                assert A.class_of_vector(x) == A.class_of_vector(shifted)
                assert A.class_of_vector(A.lift_vector(A.class_of_vector(x))) == (
                    A.class_of_vector(x)
                )
            else:
                with pytest.raises(ValueError, match="not in the dual lattice"):
                    A.class_of_vector(x)
        with pytest.raises(ValueError, match="length"):
            A.class_of_vector((0,) * (n - 1))


def test_smith_normal_form_identity_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        u, d, v = smith_normal_form(mat)
        # U @ mat @ V == D is verified inside; check divisibility and shape here
        diag = [d[i][i] for i in range(min(n, m))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert all(x >= 0 for x in diag)
        # unimodularity
        assert abs(_int_det(u)) == 1
        assert abs(_int_det(v)) == 1


def _int_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return int(det)


def test_discriminant_group_shapes():
    AN = discriminant_module(ambient_lattice())
    assert AN.orders == (2, 2, 2, 2, 2, 2)
    assert AN.size == 64

    AM = discriminant_module(restriction_lattice())
    assert sorted(AM.orders) == [2, 2, 2, 2, 4]
    assert AM.size == 64

    AU = discriminant_module(standard("U"))
    assert AU.size == 1

    with pytest.raises(ValueError):
        discriminant_module(Lattice([[1]]))  # odd lattice


def test_discriminant_order_matches_det():
    for L in (
        standard("U", 2),
        standard("A1"),
        standard("A1", 2),
        ambient_lattice(),
        restriction_lattice(),
        standard("E8"),
        standard("D4"),
    ):
        assert discriminant_module(L).size == abs(determinant(L))


def test_u2_discriminant_values():
    A = discriminant_module(standard("U", 2))
    qs = sorted(A.q(x) for x in A.elements())
    assert qs == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


def test_a1_discriminant_value():
    A = discriminant_module(standard("A1"))
    assert A.size == 2
    # q = -1/2 mod 2, canonically 3/2
    assert A.q(1) == Fraction(3, 2)
    assert (A.q(1) + Fraction(1, 2)) % 2 == 0


def test_discriminant_of_direct_sum_is_direct_sum():
    u2 = standard("U", 2)
    a1 = standard("A1")
    a12 = standard("A1", 2)
    combos = [
        ([u2, a1], None),
        ([a1, a12], None),
        ([u2, u2, a1], None),
    ]
    for parts, _ in combos:
        A_sum = discriminant_module(direct_sum(parts))
        A_parts = fqm_direct_sum(*[discriminant_module(p) for p in parts])
        assert find_isomorphism(A_sum, A_parts) is not None


def test_class_of_vector_round_trip():
    N = ambient_lattice()
    AN = discriminant_module(N)
    for x in AN.elements():
        lift = AN.lift_vector(x)
        assert AN.class_of_vector(lift) == x
        # shifting by a lattice vector does not change the class
        shifted = tuple(c + 1 for c in lift)
        assert AN.class_of_vector(shifted) == x
    with pytest.raises(ValueError):
        AN.class_of_vector([Fraction(1, 3)] * 6)


def test_kappa_vectors():
    N = ambient_lattice()
    AN = discriminant_module(N)
    from igusa.fqm import radical_class

    kappa = radical_class(AN)
    assert AN.class_of_vector(N.vector(a1=Fraction(1, 2), a2=Fraction(1, 2))) == kappa

    M = restriction_lattice()
    AM = discriminant_module(M)
    kappa_m = radical_class(AM)
    assert AM.class_of_vector(M.vector(a=Fraction(1, 2))) == kappa_m
