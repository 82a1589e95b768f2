"""Tests for the exact arithmetic kernel: cyclotomic numbers, fractional-exponent
series, and packed cyclotomic matrices."""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import igusa.exact as exact
from igusa.exact import (
    CYC_I,
    CYC_ONE,
    CYC_ZERO,
    Cyclotomic,
    CycArray,
    CycMatrix,
    KERNEL_PRIME,
    QSeries,
    eigenphase_sum,
    integer_echelon,
    kernel_vector,
    matrix_eigenphase_multiplicities,
    packed_sum,
)

from helpers import inverse_by_products, reference_apply

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except Exception:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# Cyclotomic basics
# ---------------------------------------------------------------------------


def test_roots_of_unity_fixed_points():
    z = Cyclotomic.root(1)
    assert z**24 == CYC_ONE
    assert z**12 == -CYC_ONE
    assert Cyclotomic.root(0) == CYC_ONE
    assert Cyclotomic.root(6) == CYC_I
    assert CYC_I * CYC_I == -CYC_ONE
    # primitive cube root of unity
    w = Cyclotomic.e(Fraction(1, 3))
    assert w**3 == CYC_ONE
    assert w != CYC_ONE
    assert (w**2 + w + 1) == CYC_ZERO


def test_e_and_e_half():
    # e(t) = exp(2*pi*i*t) for 24*t integral
    assert Cyclotomic.e(Fraction(1, 4)) == CYC_I
    assert Cyclotomic.e(Fraction(1, 2)) == -CYC_ONE
    assert Cyclotomic.e_half(Fraction(3, 2)) == -CYC_I
    assert Cyclotomic.e_half(Fraction(1, 2)) == CYC_I
    with pytest.raises(ValueError):
        Cyclotomic.e(Fraction(1, 5))
    with pytest.raises(ValueError):
        Cyclotomic.e(Fraction(1, 48))


def test_rational_detection():
    x = Cyclotomic(Fraction(3, 7))
    assert x.is_rational
    assert x.as_rational() == Fraction(3, 7)
    assert not CYC_I.is_rational
    with pytest.raises(ValueError):
        CYC_I.as_rational()


NOT_EXACT = [0.1, np.float64(0.5), Decimal("0.5")]


@pytest.mark.parametrize("value", NOT_EXACT, ids=["float", "float64", "decimal"])
def test_exact_inputs_refuse_non_rational_values(value):
    # a float or a Decimal would be read by its binary or decimal value
    named = re.escape(f"{value!r} is not an exact rational")
    with pytest.raises(TypeError, match=named):
        exact.clear_denominators([value, 1])
    with pytest.raises(TypeError, match=named):
        Cyclotomic(value)
    with pytest.raises(TypeError, match=named):
        Cyclotomic([1, value] + [0] * 6)


@pytest.mark.parametrize("value", NOT_EXACT, ids=["float", "float64", "decimal"])
def test_phases_and_series_refuse_non_rational_values(value):
    # e(0.25) would be i and e(0.1) a conductor error on the binary value
    named = re.escape(f"{value!r} is not an exact rational")
    refused = [
        lambda: Cyclotomic.e(value),
        lambda: Cyclotomic.e_half(value),
        lambda: QSeries({value: 1}, 2),
        lambda: QSeries({}, value),
        lambda: QSeries({0: 1}, 2).coefficient(value),
    ]
    for call in refused:
        with pytest.raises(TypeError, match=named):
            call()


def test_phases_and_series_accept_exact_values():
    assert Cyclotomic.e(Fraction(1, 4)) == Cyclotomic.e(np.int64(1) * Fraction(1, 4)) == CYC_I
    assert Cyclotomic.e(np.int64(1)) == CYC_ONE
    # e^(pi i q) halves q exactly: 1/2 for q = 1, and 1/24 for q = 1/12
    assert Cyclotomic.e_half(1) == Cyclotomic.e_half(np.int64(1)) == -CYC_ONE
    assert Cyclotomic.e_half(Fraction(1, 12)) == Cyclotomic.root(1)
    series = QSeries({np.int64(1): 2, Fraction(1, 4): 1}, np.int64(2))
    assert series == QSeries({1: 2, Fraction(1, 4): 1}, 2)
    assert series.truncation == 2 and type(series.truncation) is Fraction
    assert series.coefficient(np.int64(1)) == Cyclotomic(2)


def test_exact_inputs_accept_numpy_integers():
    ints, den = exact.clear_denominators([np.int64(3), Fraction(1, 2)])
    assert (ints, den) == ([6, 1], 2) and all(type(v) is int for v in ints)
    assert Cyclotomic(np.int64(3)) == Cyclotomic(3)
    assert Cyclotomic([np.int64(3)] + [0] * 7) == Cyclotomic(3)


def test_inverse_and_conjugate():
    z = Cyclotomic.root(1)
    x = 3 * z**5 - Fraction(1, 2) * z**2 + 7
    assert x * x.inverse() == CYC_ONE
    # conjugation is a ring homomorphism and an involution
    y = z**3 + 2
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    # |i|^2 = 1
    assert CYC_I * CYC_I.conjugate() == CYC_ONE
    with pytest.raises(ZeroDivisionError):
        CYC_ZERO.inverse()


def reference_inverse(x: Cyclotomic) -> Cyclotomic:
    """Inverse by the 8x8 Gauss-Jordan solve of (multiplication by x) v = 1
    over the rationals, independent of the Galois-conjugate product."""
    n = 8
    cols = [(x * Cyclotomic.root(j)).coefficients for j in range(n)]
    aug = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return Cyclotomic([aug[i][n] for i in range(n)])


def test_inverse_matches_the_gauss_jordan_reference():
    z = Cyclotomic.root(1)
    cases = [z, CYC_I, Cyclotomic(Fraction(-3, 7)), 1 + z**4, z**2 - z**10 + 5,
             3 * z**5 - Fraction(1, 2) * z**2 + 7]
    for x in cases:
        assert x.inverse() == reference_inverse(x)
        assert x * x.inverse() == CYC_ONE
    # the Galois maps zeta -> zeta^k are ring automorphisms; k = -1 conjugates
    x, y = cases[-1], cases[-2]
    for k in (5, 7, 11, 13, 17, 19, 23):
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    assert x.galois(-1) == x.conjugate() and x.galois(1) == x


def test_to_complex_agrees_with_cmath():
    import cmath

    for k in range(24):
        approx = Cyclotomic.root(k).to_complex()
        exact = cmath.exp(2j * cmath.pi * k / 24)
        assert abs(approx - exact) < 1e-12


if HAVE_HYPOTHESIS:
    small_rationals = st.fractions(
        min_value=-4, max_value=4, max_denominator=8
    )

    @st.composite
    def cyclotomics(draw):
        coeffs = draw(
            st.lists(small_rationals, min_size=8, max_size=8)
        )
        return Cyclotomic(tuple(coeffs))

    @given(cyclotomics(), cyclotomics(), cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_inverse(x):
        if x == CYC_ZERO:
            return
        assert x * x.inverse() == CYC_ONE

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_inverse_agrees_with_gauss_jordan(x):
        if not x:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        assert x.inverse() == reference_inverse(x)


# ---------------------------------------------------------------------------
# The integer scalar against the Fraction-tuple reference
# ---------------------------------------------------------------------------

_REF_BASIS = [Cyclotomic.root(k).coefficients for k in range(24)]


class FractionCyclotomic:
    """The conductor-24 scalar as a tuple of 8 Fractions in the power basis,
    with schoolbook arithmetic: the reference for the integer packing."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        self._c = tuple(Fraction(v) for v in coeffs)

    def __eq__(self, other):
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __bool__(self):
        return any(self._c)

    def __neg__(self):
        return FractionCyclotomic(-v for v in self._c)

    def __add__(self, other):
        return FractionCyclotomic(a + b for a, b in zip(self._c, other._c))

    def __sub__(self, other):
        return FractionCyclotomic(a - b for a, b in zip(self._c, other._c))

    def __mul__(self, other):
        acc = [Fraction(0)] * 8
        for i, a in enumerate(self._c):
            for j, b in enumerate(other._c):
                if a and b:
                    for k, c in enumerate(_REF_BASIS[i + j]):
                        acc[k] += a * b * c
        return FractionCyclotomic(acc)

    def galois(self, k):
        acc = [Fraction(0)] * 8
        for j, a in enumerate(self._c):
            for i, c in enumerate(_REF_BASIS[(j * k) % 24]):
                acc[i] += a * c
        return FractionCyclotomic(acc)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("cyclotomic inverse of zero")
        cofactor = FractionCyclotomic([1] + [0] * 7)
        for k in (5, 7, 11, 13, 17, 19, 23):
            cofactor = cofactor * self.galois(k)
        norm = (self * cofactor)._c[0]
        return FractionCyclotomic(v / norm for v in cofactor._c)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionCyclotomic([1] + [0] * 7)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        if not any(self._c[1:]):
            return f"Cyc({self._c[0]})"
        parts = [f"{a}*z^{k}" if k else f"{a}" for k, a in enumerate(self._c) if a]
        return "Cyc(" + " + ".join(parts) + ")"


def _agrees(x: Cyclotomic, ref: FractionCyclotomic) -> bool:
    return (x.coefficients == ref._c and repr(x) == repr(ref)
            and x == Cyclotomic(ref._c) and hash(x) == hash(Cyclotomic(ref._c)))


def test_integer_scalar_keeps_lowest_terms():
    x = Cyclotomic([Fraction(2, 6), Fraction(4, 6), 0, 0, 0, 0, 0, Fraction(-8, 3)])
    assert (x._num, x._den) == ((1, 2, 0, 0, 0, 0, 0, -8), 3)
    assert x == x + 0 and hash(x) == hash(x * 1)
    assert (x - x)._num == (0,) * 8 and (x - x)._den == 1
    assert Cyclotomic(Fraction(6, 4)) == Fraction(3, 2) and Cyclotomic(7) == 7
    assert Cyclotomic(Fraction(6, 4)) != Fraction(3, 4) and CYC_I != 0
    big = Cyclotomic([2**64, 0, 0, 0, 0, 0, 0, 2**65])
    assert big.coefficients[7] == 2**65 and (big * big.inverse()) == CYC_ONE
    with pytest.raises(ValueError):
        Cyclotomic([1, 2, 3])


def test_rational_value_hashes_as_the_equal_number():
    # equal values must hash alike, so a Cyclotomic finds the equal int or
    # Fraction in a set or dict, and the other way round
    modulus = sys.hash_info.modulus
    for value in (0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 7), Fraction(2**80 + 1, 999),
                  Fraction(-1, modulus), Fraction(5, 2 * modulus)):
        assert Cyclotomic(value) == value and hash(Cyclotomic(value)) == hash(value)
    assert 1 in {Cyclotomic(1)} and Cyclotomic(1) in {1}
    assert Fraction(1, 2) in {Cyclotomic(Fraction(1, 2))}
    assert {Cyclotomic(3): "x"}[3] == "x"
    assert CYC_I not in {0, 1} and hash(CYC_I) == hash(Cyclotomic.root(6))


def test_integer_scalar_arithmetic_builds_no_fraction():
    import cProfile
    import pstats

    z = Cyclotomic.root(1)
    xs = [3 * z**5 - Fraction(1, 2) * z**2 + 7, Cyclotomic(Fraction(-3, 7)), z**2 - z**10 + 5,
          Cyclotomic([Fraction(2**70, 9), 0, 1, 0, 0, Fraction(5, 6), 0, -1]), CYC_I]
    profile = cProfile.Profile()
    profile.enable()
    for x in xs:
        for y in xs:
            _ = (x * y, x + y, x - y, x / y, -x, x * 3, 2 - x, x == y, hash(x))
        for k in (5, 7, 11, 13, 17, 19, 23):
            _ = x.galois(k)
        _ = (x.inverse(), x**3, x**-2, x.conjugate(), x.is_rational)
    profile.disable()
    called = {f"{path.rsplit('/', 1)[-1]}:{name}"
              for path, _, name in pstats.Stats(profile).stats}
    assert "fractions.py:__new__" not in called


if HAVE_HYPOTHESIS:
    scalar_coordinates = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 1000)),
    )
    scalar_pairs = st.lists(scalar_coordinates, min_size=8, max_size=8).map(
        lambda cs: (Cyclotomic(cs), FractionCyclotomic(cs)))
    zero_pair = st.just((CYC_ZERO, FractionCyclotomic([0] * 8)))

    @given(scalar_pairs, st.one_of(zero_pair, scalar_pairs), st.sampled_from([1, 5, 7, 11, 13, 17, 19, 23, -1]),
           st.integers(min_value=-2, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_integer_scalar_matches_the_fraction_reference(a, b, k, n):
        (x, rx), (y, ry) = a, b
        assert _agrees(x, rx) and _agrees(y, ry)
        assert _agrees(x + y, rx + ry) and _agrees(x - y, rx - ry)
        assert _agrees(x * y, rx * ry) and _agrees(-x, -rx)
        assert _agrees(x.galois(k), rx.galois(k))
        assert (x == y) == (rx == ry) and (x == x * 1) and hash(x) == hash(x * 1)
        if not ry:
            with pytest.raises(ZeroDivisionError):
                y.inverse()
            with pytest.raises(ZeroDivisionError):
                x / y
            return
        assert _agrees(y.inverse(), ry.inverse()) and _agrees(x / y, rx / ry)
        assert _agrees(y**n, ry**n)


# ---------------------------------------------------------------------------
# QSeries
# ---------------------------------------------------------------------------


def test_exponent_denominator_guard():
    with pytest.raises(ValueError):
        QSeries({Fraction(1, 3): 1}, Fraction(2))


def test_evaluate_matches_terms():
    s = QSeries({Fraction(1, 4): 1}, Fraction(2)) + 5 * QSeries(
        {Fraction(1): 1}, Fraction(2)
    )
    val = s.evaluate(0.1 + 0j)  # argument is q^{1/4}
    assert abs(val - (0.1 + 5 * 0.1**4)) < 1e-12


# ---------------------------------------------------------------------------
# CycMatrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "den", [1, 2, 2**20, 2**62, 3 * 2**5, 3 * 2**61, 7, 45, 2**63 - 1, 3 * 2**63]
)
def test_cycarray_lowest_terms_match_math_gcd(den):
    rng = np.random.default_rng(den % 1000)
    extremes = [0, 1, -1, np.iinfo(np.int64).max, -np.iinfo(np.int64).max,
                np.iinfo(np.int64).min]
    for trial in range(60):
        shape = (int(rng.integers(0, 4)), 8)
        scale = int(rng.choice([1, 2, 3, 6, 2**10, 3 * 2**40, 45]))
        num = rng.integers(-40, 41, size=shape) * scale
        if trial % 3 == 1 and num.size:
            num.flat[rng.integers(num.size)] = rng.choice(extremes)
        elif trial % 3 == 2:
            num[:] = 0
        g = math.gcd(den, *num.ravel().tolist())
        arr = CycArray(num, den)
        assert arr.den == den // g, (num, den)
        assert arr.num.dtype == np.int64
        assert arr.num.tolist() == [[v // g for v in row] for row in num.tolist()]


def test_cycarray_difference_to_zero_past_int64_denominators():
    a = CycArray(np.array([[1, 0, 0, 0, 0, 0, 0, 6]]), 3 * 2**63)
    zero = a - a
    assert zero.den == 1 and zero.num.dtype == np.int64 and not zero.num.any()


def _diag(entries):
    return CycMatrix.diagonal([Cyclotomic.coerce(e) for e in entries])


def test_matrix_product_full_reduction():
    z7 = Cyclotomic.root(7)
    m = CycMatrix.from_rows([[z7]])
    sq = m @ m
    assert sq.entry(0, 0) == Cyclotomic.root(14)
    assert m.scale(z7).entry(0, 0) == Cyclotomic.root(14)


def test_matrix_arithmetic_does_not_wrap_past_int64():
    # every entry 3^20/7: the cube has entries 16 * 3^60 / 343, far past 2^63
    m = CycMatrix.from_rows([[Fraction(3**20, 7)] * 4] * 4)
    cube = m @ m @ m
    expected = Fraction(678258532403459256228710931216, 343)
    assert expected == Fraction(16 * 3**60, 343)
    assert all(cube.entry(i, j).as_rational() == expected
               for i in range(4) for j in range(4))
    regrouped = m @ (m @ m)
    assert regrouped.num.dtype == object
    assert regrouped == cube and hash(regrouped) == hash(cube)
    square = m @ m
    assert (square + square).entry(0, 0).as_rational() == Fraction(8 * 3**40, 49)
    assert square.scale(2) == square + square
    # traces and conjugates of entries near 2^62 do not wrap either
    big = CycMatrix.diagonal([2**62, 2**62])
    assert big.trace().as_rational() == 2**63
    column_sums = packed_sum(CycMatrix.from_rows([[2**62] * 2] * 2).num)
    assert column_sums[:, 0].tolist() == [2**63, 2**63]
    x = Cyclotomic([Fraction(2**62), 0, 0, 0, Fraction(2**62), 0, 0, 0])
    assert CycMatrix.from_rows([[x]]).conjugate().entry(0, 0) == x.conjugate()
    # a zero factor gives zero whatever the size of the other
    zero = CycMatrix.identity(4).scale(0)
    assert cube @ zero == zero and cube.scale(0) == zero
    # results that fit again come back as int64
    assert (square - square).num.dtype == np.int64
    assert square.scale(Fraction(1, 3**40)).num.dtype == np.int64


@pytest.fixture
def rungs(monkeypatch):
    """The dtypes `_packed_product` computes in, in call order."""
    seen = []
    choose = exact._product_dtype

    def spy(a, b, terms, mul):
        dtype = choose(a, b, terms, mul)
        seen.append(np.dtype(dtype))
        return dtype

    monkeypatch.setattr(exact, "_product_dtype", spy)
    return seen


def reference_matmul(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    """a @ b column by column through `reference_apply`."""
    columns = [reference_apply(a, [b.entry(k, j) for k in range(b.n)]) for j in range(b.n)]
    return CycMatrix.from_rows([list(row) for row in zip(*columns)])


def random_matrix(rng, n: int, magnitude: int) -> CycMatrix:
    """Random numerators of absolute value at most magnitude, which one of
    them reaches, over the denominator 3."""
    num = rng.integers(-magnitude, magnitude, size=(n, n, 8), endpoint=True)
    num[0, 0, 0] = magnitude
    return CycMatrix(num, 3)


# magnitudes whose product bound M^2 * n * _PRODUCT_SPREAD (n = 4) lies
# below 2^53, just above it, and past 2^63; _M53 is the least odd M with
# bound - M > 2^53
_N = 4
_M53 = math.isqrt(2**53 // (_N * exact._PRODUCT_SPREAD)) | 1
while _M53**2 * _N * exact._PRODUCT_SPREAD - _M53 <= 2**53:
    _M53 += 2
RUNG_CASES = [(1000, np.float64), (_M53, np.int64), (2**40, object)]


@pytest.mark.parametrize("magnitude, rung", RUNG_CASES)
def test_matrix_products_match_the_scalar_reference_on_every_rung(magnitude, rung, rungs):
    rng = np.random.default_rng(magnitude)
    a, b = random_matrix(rng, _N, magnitude), random_matrix(rng, _N, magnitude)
    assert np.abs(a.num).max() == magnitude == np.abs(b.num).max()
    bound = magnitude**2 * _N * exact._PRODUCT_SPREAD
    assert (bound < 2**53) == (rung is np.float64) and (bound < 2**63) == (rung is not object)
    expected = reference_matmul(a, b)
    vec = CycArray(b.num[:, 0], b.den)
    packed = exact._packed_product(a.num, b.num, (_N, _N), _N, np.matmul)
    assert packed.dtype == (object if rung is object else np.int64)
    assert CycMatrix(packed, a.den * b.den) == expected
    rungs.clear()
    assert a @ b == expected
    assert a.apply(vec) == CycArray(expected.num[:, 0], expected.den)
    assert rungs == [np.dtype(rung)] * 2


def test_float64_would_round_just_past_the_bound(monkeypatch, rungs):
    # with every numerator M, component 4 of each entry of a @ b collects
    # all n * _PRODUCT_SPREAD products M^2 (z^4 and z^8 = z^4 - 1 both land
    # on it with coefficient 1), so it meets the bound; one numerator M - 1
    # in b makes column 0 odd and above 2^53, where float64 rounds
    a = CycMatrix(np.full((_N, _N, 8), _M53), 1)
    num = np.full((_N, _N, 8), _M53)
    num[0, 0, 0] -= 1
    b = CycMatrix(num, 1)
    bound = _M53**2 * _N * exact._PRODUCT_SPREAD
    expected = reference_matmul(a, b)
    assert expected.num[:, 0, 4].tolist() == [bound - _M53] * _N
    assert bound - _M53 > 2**53 and (bound - _M53) % 2 == 1
    assert float(bound - _M53) != bound - _M53
    assert a @ b == expected and rungs == [np.dtype(np.int64)]
    monkeypatch.setattr(exact, "_product_dtype", lambda *args: np.float64)
    assert a @ b != expected


def component_major(num: np.ndarray) -> np.ndarray:
    """The same numerators laid out component by component in memory, as
    `_packed_product` returns them: a non-contiguous view of shape (..., 8)."""
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(num, -1, 0)), 0, -1)
    assert np.array_equal(view, num) and not view.flags.c_contiguous
    return view


def test_broadcast_product_matches_the_entrywise_reference():
    # a product with a diagonal matrix: one row broadcast over the rows of
    # a matrix, so column j is scaled by the row's entry j
    rng = np.random.default_rng(3)
    a = random_matrix(rng, _N, 50)
    row = rng.integers(-50, 50, size=(1, _N, 8), endpoint=True)
    scale = CycArray(row[0])
    expected = CycMatrix.from_rows(
        [[a.entry(i, j) * scale.entry(j) for j in range(_N)] for i in range(_N)])
    for num in (a.num, component_major(a.num)):
        assert CycMatrix(exact._packed_product(num, row, (_N, _N)), a.den) == expected


@pytest.mark.parametrize("magnitude, rung", [(1000, np.float64), (2**40, object)])
def test_class_axis_contraction_matches_the_scalar_sum(magnitude, rung, rungs):
    # the contraction of `isotypic_projector`: weights (classes,) against
    # class sums (classes, n, n), one matmul of a (1, classes) row
    classes, n = 5, 3
    rng = np.random.default_rng(magnitude + 1)
    sums = rng.integers(-magnitude, magnitude, size=(classes, n, n, 8), endpoint=True)
    weights = rng.integers(-magnitude, magnitude, size=(classes, 8), endpoint=True)
    packed = exact._packed_product(weights[None], sums.reshape(classes, n * n, 8),
                                   (1, n * n), classes, np.matmul)
    assert rungs == [np.dtype(rung)]
    w, s = CycArray(weights), CycArray(sums)
    expected = [[sum((w.entry(c) * s.entry(c, i, j) for c in range(classes)), CYC_ZERO)
                 for j in range(n)] for i in range(n)]
    assert CycMatrix(packed.reshape(n, n, 8)) == CycMatrix.from_rows(expected)


def test_products_of_non_contiguous_operands_match_the_scalar_reference():
    rng = np.random.default_rng(11)
    a, b = random_matrix(rng, _N, 30), random_matrix(rng, _N, 30)
    # the transposed character table of `verify_character_table`
    transposed = CycMatrix(a.num.transpose(1, 0, 2), a.den, False)
    assert not transposed.num.flags.c_contiguous
    assert transposed @ b == reference_matmul(transposed, b)
    major = CycMatrix(component_major(b.num), b.den)
    assert transposed @ major == reference_matmul(transposed, b)
    assert major @ major == reference_matmul(b, b)
    column = CycArray(component_major(a.num)[:, 1], a.den)
    assert b.apply(column) == CycArray.from_values(
        reference_apply(b, [a.entry(i, 1) for i in range(_N)]))


def _holding_int64_min() -> CycArray:
    """The vector [-2^63, 1], packed in int64."""
    num = np.zeros((2, 8), dtype=np.int64)
    num[:, 0] = [-2**63, 1]
    return CycArray(num)


def test_square_of_int64_min_does_not_wrap():
    m = CycMatrix(np.array([[[-2**63, 0, 0, 0, 0, 0, 0, 0]]]))
    assert m.num.dtype == np.int64
    assert (m @ m).entry(0, 0) == Cyclotomic(2**126)


def test_sum_holding_int64_min_does_not_wrap():
    v = _holding_int64_min()
    assert [(v + v).entry(i) for i in range(2)] == [Cyclotomic(-2**64), Cyclotomic(2)]


def test_negation_of_int64_min_does_not_wrap():
    v = _holding_int64_min()
    assert [(-v).entry(i) for i in range(2)] == [Cyclotomic(2**63), Cyclotomic(-1)]


def test_negative_denominator_with_int64_min_does_not_wrap():
    flipped = CycArray(_holding_int64_min().num, -1)
    assert flipped.den == 1
    assert [flipped.entry(i) for i in range(2)] == [Cyclotomic(2**63), Cyclotomic(-1)]


def test_matrix_order():
    s = CycMatrix.from_rows(
        [[CYC_ZERO, -CYC_ONE], [CYC_ONE, CYC_ZERO]]
    )
    square = s @ s
    assert square.entry(0, 0) == -CYC_ONE
    assert not s.is_identity() and not square.is_identity()
    assert not (square @ s).is_identity() and (square @ square).is_identity()
    assert matrix_eigenphase_multiplicities(s) == [(Fraction(1, 4), 1), (Fraction(3, 4), 1)]


def test_eigenphase_multiplicities_identity():
    m = CycMatrix.identity(6)
    assert matrix_eigenphase_multiplicities(m) == [(Fraction(0), 6)]
    assert matrix_eigenphase_multiplicities(-m) == [(Fraction(1, 2), 6)]


def test_eigenphase_multiplicities_mixed_diagonal():
    m = _diag([1, 1, -1, -1, CYC_I, -CYC_I])
    mults = matrix_eigenphase_multiplicities(m)
    assert mults == [
        (Fraction(0), 2),
        (Fraction(1, 4), 1),
        (Fraction(1, 2), 2),
        (Fraction(3, 4), 1),
    ]
    assert sum(m for _, m in mults) == 6
    # phase sum: 0*2 + 1/4 + 1/2*2 + 3/4 = 2
    assert eigenphase_sum(m) == Fraction(2)


def test_eigenphase_reconstructs_trace():
    m = _diag([CYC_I, CYC_I, -1, Cyclotomic.root(8)])
    mults = matrix_eigenphase_multiplicities(m)
    total = CYC_ZERO
    for phase, mult in mults:
        total = total + mult * Cyclotomic.e(phase)
    assert total == m.trace()


def permutation_matrix(perm) -> CycMatrix:
    """The matrix sending basis vector j to basis vector perm[j]."""
    n = len(perm)
    return CycMatrix.from_rows([[int(perm[j] == i) for j in range(n)] for i in range(n)])


def test_eigenphase_rejects_infinite_order():
    m = CycMatrix.from_rows(
        [[CYC_ONE, CYC_ONE], [CYC_ZERO, CYC_ONE]]
    )  # unipotent, infinite order
    with pytest.raises(ValueError, match="no usable finite order"):
        matrix_eigenphase_multiplicities(m)


def test_eigenphase_rejects_an_order_prime_to_24():
    # a 5-cycle has order 5, which does not divide 24
    five_cycle = permutation_matrix([1, 2, 3, 4, 0])
    assert not five_cycle.is_identity()
    with pytest.raises(ValueError, match="no usable finite order"):
        matrix_eigenphase_multiplicities(five_cycle)


@pytest.mark.parametrize("a", [
    _diag([Cyclotomic.root(1), CYC_I, -1, 1, Cyclotomic.root(8), Cyclotomic.root(21)]),
    _diag([1, 1, -1]),
    permutation_matrix([1, 2, 3, 4, 5, 0]),
    permutation_matrix([1, 2, 3, 4, 5, 0]).scale(CYC_I),
], ids=["diagonal-order-24", "diagonal-signs", "6-cycle", "i-times-6-cycle"])
def test_inverse_phases_are_read_off_the_phases(a):
    # A^-1 has the phase 1 - phi for every nonzero phase phi of A, 0 for 0
    inverse = inverse_by_products(a)
    assert (inverse @ a).is_identity()
    from_phases = sum(((1 - phase) * mult for phase, mult in
                       matrix_eigenphase_multiplicities(a) if phase), Fraction(0))
    assert from_phases == eigenphase_sum(inverse)


def test_matrix_conjugate_and_trace():
    m = CycMatrix.from_rows([[CYC_I, CYC_ONE], [CYC_ZERO, -CYC_I]])
    assert m.trace() == CYC_ZERO
    c = m.conjugate()
    assert c.entry(0, 0) == -CYC_I
    assert c.entry(1, 1) == CYC_I


def test_apply_vector():
    s = CycMatrix.from_rows([[CYC_ZERO, -CYC_ONE], [CYC_ONE, CYC_ZERO]])
    out = s.apply(CycArray.from_values([CYC_ONE, CYC_ZERO]))
    assert out == CycArray.from_values([CYC_ZERO, CYC_ONE])
    assert [out.entry(i) for i in range(2)] == [CYC_ZERO, CYC_ONE]
    with pytest.raises(ValueError):
        s.apply(CycArray.from_values([CYC_ONE]))


if HAVE_HYPOTHESIS:

    @st.composite
    def matrix_and_vector(draw):
        n = draw(st.integers(min_value=1, max_value=4))
        entries = st.one_of(st.just(CYC_ZERO), cyclotomics())
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
        vec = [draw(entries) for _ in range(n)]
        return CycMatrix.from_rows(rows), vec

    @given(matrix_and_vector())
    @settings(max_examples=40, deadline=None)
    def test_packed_apply_matches_the_fraction_reference(case):
        matrix, vec = case
        out = matrix.apply(CycArray.from_values(vec))
        expected = reference_apply(matrix, vec)
        assert [out.entry(i) for i in range(matrix.n)] == expected
        assert out == CycArray.from_values(expected)
        assert hash(out) == hash(CycArray.from_values(expected))


# ---------------------------------------------------------------------------
# The certified integer kernel, against integer_echelon
# ---------------------------------------------------------------------------


def reference_kernel(rows):
    """The primitive kernel vector of a nullity-1 matrix with its last
    nonzero entry positive, read off `integer_echelon` over Fractions; the
    nullity itself for any other nullity."""
    reduced, pivots = integer_echelon(rows)
    width = len(rows[0])
    pivot_cols = {col for _, col in pivots}
    free = [c for c in range(width) if c not in pivot_cols]
    if len(free) != 1:
        return len(free)
    vec = [Fraction(0)] * width
    vec[free[0]] = Fraction(1)
    for p, col in pivots:
        vec[col] = Fraction(-reduced[p][free[0]], reduced[p][col])
    den = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = math.gcd(*ints)
    sign = 1 if [v for v in ints if v][-1] > 0 else -1
    return [sign * v // g for v in ints]


def kernel_outcome(rows):
    try:
        return kernel_vector(rows)
    except ValueError as err:
        return str(err)


def expected_outcome(rows):
    expected = reference_kernel(rows)
    if isinstance(expected, int):
        return f"nullity is {expected}, expected exactly 1"
    return expected


@pytest.fixture
def fallbacks(monkeypatch):
    """Records every call of the integer elimination inside `exact`."""
    calls = []
    original = exact.integer_echelon

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(exact, "integer_echelon", counted)
    return calls


def test_kernel_vector_certifies_without_elimination(fallbacks):
    rows = [[2, 1, 0, -3], [1, 0, 1, 1], [0, 5, -1, 2]]
    assert kernel_vector(rows) == reference_kernel(rows)
    assert kernel_vector([[1, 1]]) == [-1, 1]  # last nonzero entry positive
    assert kernel_vector([[3, 0, 0], [0, 0, 2**80]]) == [0, 1, 0]
    assert fallbacks == []


def test_kernel_vector_falls_back_when_the_certificate_fails(fallbacks):
    p = KERNEL_PRIME
    # nullity 2 modulo p, 1 over the rationals: the rational answer
    assert kernel_vector([[1, 0, 0], [0, p, 0]]) == [0, 0, 1]
    assert kernel_vector([[1, 0, 0], [2, 1, p + 1]]) == [0, -p - 1, 1]
    # nullity 1 modulo p, 0 over the rationals: the exact check refuses
    assert kernel_outcome([[1, 0], [0, p]]) == (
        "nullity is 0, expected exactly 1")
    # a kernel vector too large for rational reconstruction
    assert kernel_vector([[1, -(2**40 + 1)]]) == [2**40 + 1, 1]
    # nullity 2 over the rationals as well
    assert kernel_outcome([[1, 2, 3]]) == "nullity is 2, expected exactly 1"
    assert len(fallbacks) == 5


if HAVE_HYPOTHESIS:

    @st.composite
    def planted_kernel_matrices(draw):
        """Integer matrices with entries up to 2^70 and nullity 0, 1 or 2
        planted: either every row is orthogonal to that many small kernel
        vectors (which the certificate reconstructs), or every row is a
        small combination of width - nullity random rows (whose kernel is
        too large to reconstruct).  One row may be multiplied by the modulus
        of the certificate."""
        nullity = draw(st.integers(0, 2))
        width = draw(st.integers(nullity + 1, 7))
        rank = width - nullity
        entries = st.integers(-2**70, 2**70) | st.integers(-9, 9)
        nrows = draw(st.integers(rank, rank + 3))
        if draw(st.booleans()):
            # kernel vectors (w_i, e_i), w_i small: the last nullity
            # entries of a row are fixed by its first rank entries
            kernel = [draw(st.lists(st.integers(-5, 5), min_size=rank,
                                    max_size=rank)) for _ in range(nullity)]
            rows = []
            for _ in range(nrows):
                head = draw(st.lists(entries, min_size=rank, max_size=rank))
                rows.append(head + [-sum(a * b for a, b in zip(head, w))
                                    for w in kernel])
        else:
            basis = [draw(st.lists(entries, min_size=width, max_size=width))
                     for _ in range(rank)]
            rows = []
            for _ in range(nrows):
                coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank,
                                       max_size=rank))
                rows.append([sum(c * b[k] for c, b in zip(coeffs, basis))
                             for k in range(width)])
        if draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = [KERNEL_PRIME * v for v in rows[i]]
        return rows

    @given(planted_kernel_matrices())
    @settings(max_examples=150, deadline=None)
    def test_kernel_vector_matches_integer_echelon(rows):
        assert kernel_outcome(rows) == expected_outcome(rows)
