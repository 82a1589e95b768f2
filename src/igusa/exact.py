"""Exact arithmetic kernels: rationals, the conductor-24 cyclotomic field,
truncated q-series with quarter-integer exponents, and exact matrices over
the cyclotomic field with eigenphase extraction for finite-order matrices.

Everything here is immutable and pure.  Floating point appears in two
roles only: the explicit complex embeddings used by numeric cross-checks,
and float64 as the carrier of exact integer matrix products, used only
where every partial sum is proven to be an integer below 2^53 (see
`_product_dtype`), so BLAS computes them without rounding.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction, "Cyclotomic"]

# Power basis 1, z, ..., z^7 of Q(z), z a primitive 24th root of unity,
# reduced modulo the 24th cyclotomic polynomial x^8 - x^4 + 1.
_DEGREE = 8
_CONDUCTOR = 24


# integer coefficient vectors of z^k for k = 0..23: the basis vectors, then
# z^k = z^(k-4) - z^(k-8), since z^8 = z^4 - 1
_ZPOW = [tuple(int(i == k) for i in range(_DEGREE)) for k in range(_DEGREE)]
for _k in range(_DEGREE, _CONDUCTOR):
    _ZPOW.append(tuple(a - b for a, b in zip(_ZPOW[_k - 4], _ZPOW[_k - 8])))
_ZPOW_PACKED = np.array(_ZPOW, dtype=np.int64)
# z^(i+j) for i, j < 8 never exceeds exponent 14
_PRODUCT_BASIS = [_ZPOW[k] for k in range(15)]
# the nonzero (component, coefficient) pairs of each z^(i+j); every
# coefficient is 1 or -1
_PRODUCT_TERMS = [[(k, c) for k, c in enumerate(row) if c] for row in _PRODUCT_BASIS]
_ZETA_COMPLEX = [cmath.exp(2j * cmath.pi * k / _CONDUCTOR) for k in range(_CONDUCTOR)]

# For any output component k, the sum of |coefficient of z^k in z^(c+d)|
# over all component pairs (c, d): a packed product entry is at most this
# times the entry count n times the largest input magnitudes.
_PRODUCT_SPREAD = max(
    sum(abs(_PRODUCT_BASIS[c + d][k]) for c in range(_DEGREE) for d in range(_DEGREE))
    for k in range(_DEGREE)
)
_INT64_LIMIT = 2**63
# every integer of magnitude below 2^53 is a float64
_FLOAT64_EXACT_LIMIT = 2**53


def _max_abs(num: np.ndarray) -> int:
    # in Python integers: np.abs would copy num and map -2^63 to itself
    return max(int(num.max()), -int(num.min())) if num.size else 0


def _packed_dtype(bound: int, *operands: np.ndarray):
    """int64 when no intermediate can reach the bound's magnitude and no
    operand already holds Python integers; else dtype object, so packed
    arithmetic never wraps."""
    if bound < _INT64_LIMIT and all(a.dtype != object for a in operands):
        return np.int64
    return object


def _negated(num: np.ndarray) -> np.ndarray:
    """-num, in Python integers when num holds -2^63 (-(-2^63) wraps)."""
    return -num.astype(_packed_dtype(_max_abs(num), num), copy=False)


def packed_sum(num: np.ndarray) -> np.ndarray:
    """Sum of packed numerators along the first axis, in Python integers
    wherever the sum could leave int64."""
    bound = _max_abs(num) * len(num)
    return num.astype(_packed_dtype(bound, num), copy=False).sum(axis=0)


def packed_roots(k) -> np.ndarray:
    """Packed numerators of zeta^k for an integer array k, shape k.shape + (8,)."""
    return _ZPOW_PACKED[np.asarray(k) % _CONDUCTOR]


def _product_dtype(a: np.ndarray, b: np.ndarray, terms: int, mul):
    """The arithmetic of `_packed_product`.  Every partial sum of a product
    entry, in any order, is at most B = max|a| * max|b| * terms *
    _PRODUCT_SPREAD in magnitude.  float64 when ``mul`` is np.matmul, no
    operand holds Python integers and B < 2^53: every partial sum is then an
    integer that float64 represents exactly, so BLAS returns the exact
    product whatever its summation order.  Else int64 when B < 2^63; else
    Python integers (dtype object)."""
    bound = _max_abs(a) * _max_abs(b) * terms * _PRODUCT_SPREAD
    dtype = _packed_dtype(bound, a, b)
    if mul is np.matmul and dtype is np.int64 and bound < _FLOAT64_EXACT_LIMIT:
        return np.float64
    return dtype


def _packed_product(a: np.ndarray, b: np.ndarray, shape, terms: int = 1,
                    mul=np.multiply) -> np.ndarray:
    """Numerators of the product of two packed arrays, of shape shape + (8,).

    Each nonzero component c of a and d of b is gathered once into a
    contiguous plane; ``mul`` combines two planes, adding at most ``terms``
    products into one entry, into component k of an (8,) + shape array for
    each zeta^k of zeta^(c + d), and the component axis is moved last once
    at the end (a view: the result is component-major in memory).  The
    products run in float64 only for np.matmul with
    max|a| * max|b| * terms * _PRODUCT_SPREAD < 2^53, which bounds every
    partial sum to an integer below 2^53, and the result is cast back to
    int64 once; else in int64 or Python integers (see `_product_dtype`).
    """
    dtype = _product_dtype(a, b, terms, mul)
    b_planes = [(d, np.asarray(b[..., d], dtype=dtype, order="C")) for d in _components(b)]
    out = np.zeros((_DEGREE, *shape), dtype=dtype)
    for c in _components(a):
        ac = np.asarray(a[..., c], dtype=dtype, order="C")
        for d, bd in b_planes:
            prod = mul(ac, bd)
            for k, coeff in _PRODUCT_TERMS[c + d]:
                if coeff > 0:
                    out[k] += prod
                else:
                    out[k] -= prod
    out = np.moveaxis(out, 0, -1)
    return out.astype(np.int64) if dtype is np.float64 else out


def _components(num: np.ndarray) -> np.ndarray:
    """The components k with a nonzero entry num[..., k]: numpy reduces
    over many short rows slowly, so rows of one matrix row each go first
    in a row-major array (a component-major one reduces as it is)."""
    if num.ndim > 2 and num.size and num.flags.c_contiguous:
        num = num.reshape(-1, num.shape[-2] * _DEGREE).any(axis=0)
    return np.flatnonzero(num.reshape(-1, _DEGREE).any(axis=0))


def _mul_num(a: tuple, b: tuple) -> tuple:
    """Numerators of the product of two numerator tuples, over the integers."""
    p = [0] * (2 * _DEGREE - 1)
    b_terms = [(j, v) for j, v in enumerate(b) if v]
    for i, u in enumerate(a):
        if u:
            for j, v in b_terms:
                p[i + j] += u * v
    for k in range(2 * _DEGREE - 2, _DEGREE - 1, -1):  # z^k = z^(k-4) - z^(k-8)
        if p[k]:
            p[k - 4] += p[k]
            p[k - 8] -= p[k]
    return tuple(p[:_DEGREE])


# _GALOIS[k][j]: the nonzero (index, coefficient) pairs of z^(jk) in the basis
_GALOIS = [[[(i, c) for i, c in enumerate(_ZPOW[(j * k) % _CONDUCTOR]) if c]
            for j in range(_DEGREE)] for k in range(_CONDUCTOR)]


def _galois_num(a: tuple, k: int) -> tuple:
    """Numerators of the image of a numerator tuple under zeta -> zeta^k."""
    acc = [0] * _DEGREE
    for j, v in enumerate(a):
        if v:
            for i, c in _GALOIS[k % _CONDUCTOR][j]:
                acc[i] += c * v
    return tuple(acc)


def _rational(value):
    """An exact rational input as an int or a Fraction: other
    `numbers.Rational` values, numpy integers among them, become Fractions
    of Python ints, and anything else, a float or a Decimal included, raises
    TypeError rather than being read by its binary or decimal expansion."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"{value!r} is not an exact rational")


class Cyclotomic:
    """An element of the degree-8 field generated by a primitive 24th root of
    unity: 8 integer numerators in the power basis over one positive
    denominator, in lowest terms (the packing of ``CycArray``), so equal
    numbers have equal packings.

    The imaginary unit is ``Cyclotomic.root(6)``; every 8th and 12th root of
    unity is representable. Larger conductors are rejected at construction.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: Union[int, Fraction, Sequence[Fraction]] = 0):
        if isinstance(value, (int, Fraction)):
            c = [value]
        elif isinstance(value, numbers.Number):
            c = [_rational(value)]
        else:
            c = [v if isinstance(v, (int, Fraction)) else _rational(v) for v in value]
            if len(c) != _DEGREE:
                raise ValueError(f"need {_DEGREE} coordinates, got {len(c)}")
        den = math.lcm(*(v.denominator for v in c))
        num = [v.numerator * (den // v.denominator) for v in c]
        self._set(tuple(num + [0] * (_DEGREE - len(num))), den)

    def _set(self, num: tuple, den: int) -> None:
        g = math.gcd(den, *num)
        self._num = tuple(v // g for v in num) if g > 1 else num
        self._den = den // g

    @classmethod
    def _packed(cls, num: tuple, den: int) -> "Cyclotomic":
        """sum_k num[k] zeta^k / den for integers num and den > 0."""
        out = object.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def root(cls, k: int) -> "Cyclotomic":
        """zeta^k for the fixed primitive 24th root of unity zeta."""
        return cls(_ZPOW[k % _CONDUCTOR])

    @classmethod
    def e(cls, t: Fraction) -> "Cyclotomic":
        """e^(2 pi i t) for rational t with 24t integral; a float raises
        TypeError."""
        t = Fraction(_rational(t))
        k = t * _CONDUCTOR
        if k.denominator != 1:
            raise ValueError(f"e^(2 pi i {t}) is outside the conductor-24 field")
        return cls.root(int(k))

    @staticmethod
    def coerce(value: "Scalar") -> "Cyclotomic":
        out = _coerce(value)
        if out is None:
            raise TypeError(f"cannot coerce {value!r} to Cyclotomic")
        return out

    @classmethod
    def e_half(cls, q: Fraction) -> "Cyclotomic":
        """e^(pi i q) for rational q with 12q integral; a float raises
        TypeError."""
        return cls.e(Fraction(_rational(q), 2))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclotomic):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return (self.is_rational and self._num[0] == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if not self.is_rational:
            return hash((self._num, self._den))
        # a rational hashes as the equal int or Fraction (the rule for numeric
        # types in the Python documentation) without building one
        n, d, p = self._num[0], self._den, sys.hash_info.modulus
        value = hash(abs(n) * pow(d, -1, p)) if d % p else sys.hash_info.inf
        return hash(value if n >= 0 else -value)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._packed(tuple(-v for v in self._num), self._den)

    def __add__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        den = da * db // math.gcd(da, db)
        fa, fb = den // da, den // db
        return Cyclotomic._packed(
            tuple(a * fa + b * fb for a, b in zip(self._num, other._num)), den)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic._packed(_mul_num(self._num, other._num),
                                  self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic inverse of zero")
        # x^-1 = prod_{sigma != 1} sigma(x) / N(x) over the Galois group
        # (Z/24)^*, generated by 5, 7 and 13: with y1 = x sigma_5(x) and
        # y2 = y1 sigma_7(y1), N(x) = y2 sigma_13(y2) > 0 (no real places)
        x = self._num
        c5 = _galois_num(x, 5)
        y1 = _mul_num(x, c5)
        c7 = _galois_num(y1, 7)
        y2 = _mul_num(y1, c7)
        c13 = _galois_num(y2, 13)
        norm = _mul_num(y2, c13)[0]
        cofactor = _mul_num(_mul_num(c5, c7), c13)
        return Cyclotomic._packed(tuple(self._den * v for v in cofactor), norm)

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "Cyclotomic":
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        out = CYC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def galois(self, k: int) -> "Cyclotomic":
        """The field automorphism zeta -> zeta^k, for k prime to 24."""
        return Cyclotomic._packed(_galois_num(self._num, k), self._den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the field automorphism zeta -> zeta^-1."""
        return self.galois(-1)

    @property
    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def to_complex(self) -> complex:
        return sum((a / self._den) * _ZETA_COMPLEX[k] for k, a in enumerate(self._num) if a)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"Cyc({self.as_rational()})"
        parts = [f"{a}*z^{k}" if k else f"{a}" for k, a in enumerate(self.coefficients) if a]
        return "Cyc(" + " + ".join(parts) + ")"


def _coerce(value: Scalar) -> Union[Cyclotomic, None]:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic(value)
    return None


CYC_ZERO = Cyclotomic(0)
CYC_ONE = Cyclotomic(1)
CYC_I = Cyclotomic.root(6)


_EXP_DEN = 4  # q-series exponents live in (1/4)Z


class QSeries:
    """Truncated series in q with exponents in (1/4)Z and cyclotomic
    coefficients. Exponents >= truncation are unknown, not zero.  Exponents
    and truncation are exact rationals: a float raises TypeError."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation):
        self.truncation = Fraction(_rational(truncation))
        clean: dict[Fraction, Cyclotomic] = {}
        for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
            expo = Fraction(_rational(expo))
            if _EXP_DEN % expo.denominator != 0:
                raise ValueError(f"exponent {expo} not in (1/{_EXP_DEN})Z")
            if expo >= self.truncation:
                continue
            coeff = coeff if isinstance(coeff, Cyclotomic) else Cyclotomic(coeff)
            if coeff:
                clean[expo] = clean.get(expo, CYC_ZERO) + coeff
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    @classmethod
    def zero(cls, truncation) -> "QSeries":
        return cls({}, truncation)

    def coefficient(self, exponent) -> Cyclotomic:
        expo = Fraction(_rational(exponent))
        if expo >= self.truncation:
            raise ValueError(f"coefficient at {expo} is beyond truncation {self.truncation}")
        return self.terms.get(expo, CYC_ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.terms == other.terms and self.truncation == other.truncation

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, CYC_ZERO) + c
        return QSeries(acc, trunc)

    def __mul__(self, other) -> "QSeries":
        """The series times a scalar; series are never multiplied together."""
        factor = _coerce(other)
        if factor is None:
            return NotImplemented
        return QSeries({e: c * factor for e, c in self.terms.items()}, self.truncation)

    __rmul__ = __mul__

    def evaluate(self, q_quarter: complex) -> complex:
        """Numeric value with q^(1/4) = q_quarter; used only by oracles."""
        return sum(c.to_complex() * q_quarter ** int(e * 4) for e, c in self.terms.items())

    def __repr__(self) -> str:
        body = " + ".join(f"({c!r})q^{e}" for e, c in sorted(self.terms.items()))
        return f"QSeries({body or '0'}; O(q^{self.truncation}))"


def _entry(components: np.ndarray, den: int) -> Cyclotomic:
    return Cyclotomic._packed(tuple(components.tolist()), den)


def _pack(values: Sequence[Scalar]) -> tuple[np.ndarray, int]:
    """Integer numerators (dtype object, shape (len, 8)) of a flat sequence
    of scalars over their least common denominator."""
    cycs = [Cyclotomic.coerce(v) for v in values]
    den = math.lcm(1, *(c._den for c in cycs))
    num = np.array([[v * (den // c._den) for v in c._num] for c in cycs], dtype=object)
    return num.reshape(len(cycs), _DEGREE), den


class CycArray:
    """Exact array over the conductor-24 field, packed as an integer
    component array with a single positive denominator.

    num has shape (..., 8); entry idx is sum_k num[idx][k] zeta^k / den, in
    lowest terms, so equal arrays have equal packings.  Numerators are int64
    while they fit and Python integers (dtype object) once they do not; sums
    and products check a magnitude bound first.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int = 1, _normalize: bool = True):
        num = np.asarray(num)
        if num.dtype != object:
            num = num.astype(np.int64, copy=False)
        if num.ndim == 0 or num.shape[-1] != _DEGREE:
            raise ValueError(f"bad packed shape {num.shape}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = _negated(num), -den
        if _normalize and den > 1:
            # np.gcd ignores signs, so no |num| copy is made; a gcd of -2^63
            # (every entry 0 or -2^63) comes back negative and math.gcd fixes it
            g = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
            if g > 1:
                # a g of 2^63 or more (den >= 2^63) does not fit an int64 //
                num = (num if g < _INT64_LIMIT else num.astype(object)) // g
                den //= g
        if num.dtype == object and _max_abs(num) < _INT64_LIMIT:
            num = num.astype(np.int64)
        self.num = num
        self.num.setflags(write=False)
        self.den = den

    @staticmethod
    def from_values(values: Sequence[Scalar]) -> "CycArray":
        """The one-dimensional array of the given scalars."""
        return CycArray(*_pack(values))

    def _like(self, num: np.ndarray, den: int, normalize: bool = True) -> "CycArray":
        """An array of the same kind as this one with the given packing."""
        return type(self)(num, den, normalize)

    def entry(self, *index: int) -> Cyclotomic:
        return _entry(self.num[index], self.den)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.num, other.num)

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self) -> bytes:
        if self.num.dtype == object or self.den >= _INT64_LIMIT:
            # a last byte 0xff never ends a denominator below 2^63
            return b"\xff" * 8 + repr((self.den, self.num.tolist())).encode()
        return self.den.to_bytes(8, "little") + self.num.tobytes()

    def __neg__(self) -> "CycArray":
        return self._like(_negated(self.num), self.den, False)

    def __add__(self, other: "CycArray") -> "CycArray":
        if type(other) is not type(self):
            return NotImplemented
        den = self.den * other.den // math.gcd(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        dtype = _packed_dtype(
            _max_abs(self.num) * fa + _max_abs(other.num) * fb, self.num, other.num
        )
        return self._like(
            self.num.astype(dtype, copy=False) * fa
            + other.num.astype(dtype, copy=False) * fb,
            den,
        )

    def __sub__(self, other: "CycArray") -> "CycArray":
        return self + (-other)

    def scale(self, factor: Scalar) -> "CycArray":
        f = CycArray.from_values([factor])
        prod = _packed_product(f.num[0], self.num, self.num.shape[:-1])
        return self._like(prod, self.den * f.den)

    def conjugate(self) -> "CycArray":
        """Entrywise complex conjugation, zeta -> zeta^-1."""
        conj = packed_roots(-np.arange(_DEGREE))  # row k = image of zeta^k
        bound = _max_abs(self.num) * int(np.abs(conj).sum(axis=0).max())
        num = self.num.astype(_packed_dtype(bound, self.num), copy=False)
        return self._like(np.tensordot(num, conj, axes=([-1], [0])), self.den)


class CycMatrix(CycArray):
    """Exact square matrix over the conductor-24 field: a CycArray whose
    num has shape (n, n, 8)."""

    __slots__ = ("n",)

    def __init__(self, num: np.ndarray, den: int = 1, _normalize: bool = True):
        super().__init__(num, den, _normalize)
        if self.num.ndim != 3 or self.num.shape[0] != self.num.shape[1]:
            raise ValueError(f"bad packed shape {self.num.shape}")
        self.n = self.num.shape[0]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "CycMatrix":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        num, den = _pack([v for row in rows for v in row])
        return cls(num.reshape(n, n, _DEGREE), den)

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        num = np.zeros((n, n, _DEGREE), dtype=np.int64)
        num[np.arange(n), np.arange(n), 0] = 1
        return cls(num, 1, _normalize=False)

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "CycMatrix":
        n = len(values)
        rows = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cls.from_rows(rows)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        prod = _packed_product(self.num, other.num, (self.n, self.n), self.n, np.matmul)
        return CycMatrix(prod, self.den * other.den)

    def apply(self, vec: CycArray) -> CycArray:
        """The product with a column vector packed in shape (n, 8), returned
        as an array of the vector's own kind."""
        if vec.num.shape != (self.n, _DEGREE):
            raise ValueError("dimension mismatch")
        prod = _packed_product(self.num, vec.num, (self.n,), self.n, np.matmul)
        return vec._like(prod, self.den * vec.den)

    def trace(self) -> Cyclotomic:
        return _entry(packed_sum(self.num[np.arange(self.n), np.arange(self.n)]), self.den)

    def is_identity(self) -> bool:
        return self == CycMatrix.identity(self.n)


def matrix_eigenphase_multiplicities(a: CycMatrix) -> list[tuple[Fraction, int]]:
    """Eigenvalue phases of a finite-order exact matrix.

    One pass over the powers collects the traces of I, A, A^2, ... until a
    power is the identity, which gives the order n (checked up to A^24),
    then the multiplicity of e^(2 pi i j/n) is exactly
    (1/n) sum_t zeta_n^(-jt) tr(A^t).
    """
    traces = [Cyclotomic(a.n)]  # tr(I)
    power = a
    while not power.is_identity() and len(traces) < _CONDUCTOR:
        traces.append(power.trace())
        power = power @ a
    n = len(traces)
    if not power.is_identity() or _CONDUCTOR % n != 0:
        raise ValueError("matrix has no usable finite order <= 24")
    out = []
    total = 0
    for j in range(n):
        s = CYC_ZERO
        for t in range(n):
            s = s + Cyclotomic.root((-(_CONDUCTOR // n) * j * t) % _CONDUCTOR) * traces[t]
        mult = (s / n).as_rational()
        if mult.denominator != 1 or mult < 0:
            raise ValueError(f"non-integer multiplicity {mult} at phase {j}/{n}")
        if mult:
            out.append((Fraction(j, n), int(mult)))
            total += int(mult)
    if total != a.n:
        raise ValueError("eigenphase multiplicities do not sum to the dimension")
    return out


def eigenphase_sum(a: CycMatrix) -> Fraction:
    """Sum of eigenvalue phases in [0, 1), exact."""
    return sum((Fraction(phase) * mult for phase, mult in
                matrix_eigenphase_multiplicities(a)), Fraction(0))


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """Integers X and the least positive denominator d with values == X / d;
    TypeError on a value that is not an exact rational."""
    values = [v if isinstance(v, (int, Fraction)) else _rational(v) for v in values]
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def integer_echelon(rows: Sequence[Sequence], width: int = None):
    """Gauss-Jordan reduction of a rational matrix (int or Fraction entries)
    by fraction-free elimination over the integers.

    Every row is scaled to a primitive integer row and kept primitive after
    each update, so each reduced row is a nonzero rational multiple of the
    row that Gauss-Jordan over the rationals gives.  Columns are scanned in
    order, the first ``width`` of them (default: all); each pivots on the
    first row not yet used with a nonzero entry there, which is then cleared
    from every other row.  Returns (reduced rows, pivots), the pivots being
    (row, column) pairs in column order.  Input unchanged.
    """
    mat = []
    for row in rows:
        mat.append(_primitive(clear_denominators(row)[0]))
    if not mat:
        return [], []
    used = [False] * len(mat)
    pivots = []
    for col in range(len(mat[0]) if width is None else width):
        p = next((i for i, row in enumerate(mat) if row[col] and not used[i]), None)
        if p is None:
            continue
        used[p] = True
        pivots.append((p, col))
        prow = mat[p]
        a = prow[col]
        for i, row in enumerate(mat):
            b = row[col]
            if b and i != p:
                g = math.gcd(a, b)
                fa, fb = a // g, b // g
                mat[i] = _primitive([fa * x - fb * y for x, y in zip(row, prow)])
        if len(pivots) == len(mat):
            break
    return mat, pivots


# A Mersenne prime: the modular elimination of `kernel_vector` runs in it.
KERNEL_PRIME = 2**61 - 1


def _modular_kernel(rows: Sequence[Sequence[int]], p: int):
    """The kernel vector modulo p of an integer matrix whose nullity modulo
    p is exactly 1, scaled so its free coordinate is 1; None when the
    nullity modulo p is any other number."""
    mat = [[v % p for v in row] for row in rows]
    width = len(mat[0])
    pivots = []
    free = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            free.append(col)
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        # every entry of the pivot row left of col is zero
        inv = pow(mat[r][col], -1, p)
        prow = [v * inv % p for v in mat[r][col:]]
        mat[r][col:] = prow
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                row[col:] = [(v - f * w) % p for v, w in zip(row[col:], prow)]
        pivots.append(col)
    if len(free) != 1:
        return None
    (fc,) = free
    vec = [0] * width
    vec[fc] = 1
    for r, col in enumerate(pivots):
        vec[col] = -mat[r][fc] % p
    return vec


def _rational_reconstruction(a: int, p: int) -> tuple:
    """(n, d), d nonzero, with n = a d mod p and |n| at most sqrt(p/2): the
    half extended Euclidean algorithm.  When a comes from a rational with
    numerator and denominator at most sqrt(p/2), n / d is that rational;
    otherwise n / d is only a candidate, which the caller checks."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return r1, s1


def _echelon_kernel(reduced: Sequence[Sequence[int]], pivots, width: int) -> dict:
    """The kernel basis read off `integer_echelon` output over all ``width``
    columns: each free column, in order, mapped to an integer vector that is
    positive there and zero at the other free columns (the reduced row
    echelon kernel basis, each vector scaled to integers)."""
    pivot_cols = {col for _, col in pivots}
    scale = math.lcm(*(reduced[p][col] for p, col in pivots))
    basis = {}
    for fc in range(width):
        if fc in pivot_cols:
            continue
        vec = basis[fc] = [0] * width
        vec[fc] = scale
        for p, col in pivots:
            vec[col] = -reduced[p][fc] * (scale // reduced[p][col])
    return basis


def kernel_vector(rows: Sequence[Sequence[int]]) -> list[int]:
    """The unique primitive integer vector v with rows . v = 0 and its last
    nonzero entry positive, for an integer matrix of nullity exactly 1 over
    the rationals; raises ValueError naming the nullity otherwise.

    The certificate: nullity 1 modulo KERNEL_PRIME bounds the rational rank
    below by width - 1; the modular kernel vector is lifted by rational
    reconstruction and checked exactly against every row, which bounds the
    rank above by width - 1.  When either half fails (the matrix has
    another nullity, is singular modulo the prime only, or has a kernel
    vector too large to reconstruct), `integer_echelon` decides."""
    vec = _modular_kernel(rows, KERNEL_PRIME)
    if vec is not None:
        pairs = [_rational_reconstruction(v, KERNEL_PRIME) for v in vec]
        den = math.lcm(*(d for _, d in pairs))
        vec = [n * (den // d) for n, d in pairs]
        if any(sum(map(mul, row, vec)) for row in rows):
            vec = None
    if vec is None:
        kernel = _echelon_kernel(*integer_echelon(rows), len(rows[0]))
        if len(kernel) != 1:
            raise ValueError(f"nullity is {len(kernel)}, expected exactly 1")
        (vec,) = kernel.values()
    g = math.gcd(*vec)
    if next(v for v in reversed(vec) if v) < 0:
        g = -g
    return [v // g for v in vec]

