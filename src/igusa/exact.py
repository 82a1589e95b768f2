"""Exact arithmetic kernels: rationals, the conductor-24 cyclotomic field,
truncated q-series with quarter-integer exponents, and exact matrices over
the cyclotomic field with eigenphase extraction for finite-order matrices.

Everything here is immutable and pure; nothing uses floating point except
the explicit complex embeddings used by numeric cross-checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Rational = Fraction

Scalar = Union[int, Fraction, "Cyclotomic"]

# Power basis 1, z, ..., z^7 of Q(z), z a primitive 24th root of unity,
# reduced modulo the 24th cyclotomic polynomial x^8 - x^4 + 1.
_DEGREE = 8
_CONDUCTOR = 24


def _zeta_power_table() -> list[tuple[int, ...]]:
    # integer coefficient vectors of z^k for k = 0..23; x^8 = x^4 - 1
    table: list[list[int]] = [[0] * _DEGREE for _ in range(_CONDUCTOR)]
    table[0][0] = 1
    for k in range(1, _CONDUCTOR):
        prev = table[k - 1]
        cur = [0] * (_DEGREE + 1)
        for idx in range(_DEGREE):
            cur[idx + 1] = prev[idx]
        if cur[_DEGREE]:
            c = cur[_DEGREE]
            cur[_DEGREE] = 0
            cur[4] += c
            cur[0] -= c
        table[k] = cur[:_DEGREE]
    return [tuple(row) for row in table]


_ZPOW = _zeta_power_table()
_ZPOW_PACKED = np.array(_ZPOW, dtype=np.int64)
# z^(i+j) for i, j < 8 never exceeds exponent 14
_PRODUCT_BASIS = [_ZPOW[k] for k in range(15)]
_ZETA_COMPLEX = [cmath.exp(2j * cmath.pi * k / _CONDUCTOR) for k in range(_CONDUCTOR)]

# For any output component k, the sum of |coefficient of z^k in z^(c+d)|
# over all component pairs (c, d): a packed product entry is at most this
# times the entry count n times the largest input magnitudes.
_PRODUCT_SPREAD = max(
    sum(abs(_PRODUCT_BASIS[c + d][k]) for c in range(_DEGREE) for d in range(_DEGREE))
    for k in range(_DEGREE)
)
_INT64_LIMIT = 2**63


def _max_abs(num: np.ndarray) -> int:
    return int(np.abs(num).max()) if num.size else 0


def _packed_dtype(bound: int, *operands: np.ndarray):
    """int64 when no intermediate can reach the bound's magnitude and no
    operand already holds Python integers; else dtype object, so packed
    arithmetic never wraps."""
    if bound < _INT64_LIMIT and all(a.dtype != object for a in operands):
        return np.int64
    return object


def packed_sum(num: np.ndarray) -> np.ndarray:
    """Sum of packed numerators along the first axis, in Python integers
    wherever the sum could leave int64."""
    bound = _max_abs(num) * len(num)
    return num.astype(_packed_dtype(bound, num), copy=False).sum(axis=0)


def packed_roots(k) -> np.ndarray:
    """Packed numerators of zeta^k for an integer array k, shape k.shape + (8,)."""
    return _ZPOW_PACKED[np.asarray(k) % _CONDUCTOR]


def _packed_product(a: np.ndarray, b: np.ndarray, shape, terms: int = 1,
                    mul=np.multiply) -> np.ndarray:
    """Numerators of the product of two packed arrays, of shape shape + (8,).

    Component c of a and component d of b are combined by ``mul``, which adds
    at most ``terms`` products into one entry, and land on zeta^(c + d) in
    the power basis.  The result is in Python integers wherever an entry
    could leave int64.
    """
    dtype = _packed_dtype(_max_abs(a) * _max_abs(b) * terms * _PRODUCT_SPREAD, a, b)
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    out = np.zeros(tuple(shape) + (_DEGREE,), dtype=dtype)
    b_components = [d for d in range(_DEGREE) if b[..., d].any()]
    for c in range(_DEGREE):
        ac = a[..., c]
        if not ac.any():
            continue
        for d in b_components:
            prod = mul(ac, b[..., d])
            for k, coeff in enumerate(_PRODUCT_BASIS[c + d]):
                if coeff:
                    out[..., k] += coeff * prod
    return out


class Cyclotomic:
    """An element of the degree-8 field generated by a primitive 24th root of
    unity, stored as 8 rational coordinates in the power basis.

    The imaginary unit is ``Cyclotomic.root(6)``; every 8th and 12th root of
    unity is representable. Larger conductors are rejected at construction.
    """

    __slots__ = ("_c",)

    def __init__(self, value: Union[int, Fraction, Sequence[Fraction]] = 0):
        if isinstance(value, (int, Fraction)):
            c = [Fraction(value)] + [Fraction(0)] * (_DEGREE - 1)
        else:
            c = [Fraction(v) for v in value]
            if len(c) != _DEGREE:
                raise ValueError(f"need {_DEGREE} coordinates, got {len(c)}")
        self._c = tuple(c)

    @classmethod
    def root(cls, k: int) -> "Cyclotomic":
        """zeta^k for the fixed primitive 24th root of unity zeta."""
        return cls(_ZPOW[k % _CONDUCTOR])

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "Cyclotomic":
        """e^(2 pi i power/order); requires order dividing 24."""
        if order <= 0 or _CONDUCTOR % order != 0:
            raise ValueError(f"order {order} does not divide {_CONDUCTOR}")
        return cls.root((_CONDUCTOR // order) * power)

    @classmethod
    def e(cls, t: Fraction) -> "Cyclotomic":
        """e^(2 pi i t) for rational t with 24t integral."""
        t = Fraction(t)
        k = t * _CONDUCTOR
        if k.denominator != 1:
            raise ValueError(f"e^(2 pi i {t}) is outside the conductor-24 field")
        return cls.root(int(k))

    @classmethod
    def from_rational(cls, value: Union[int, Fraction]) -> "Cyclotomic":
        return cls(value)

    @staticmethod
    def coerce(value: "Scalar") -> "Cyclotomic":
        out = _coerce(value)
        if out is None:
            raise TypeError(f"cannot coerce {value!r} to Cyclotomic")
        return out

    @classmethod
    def e_half(cls, q: Fraction) -> "Cyclotomic":
        """e^(pi i q) for rational q with 12q integral."""
        return cls.e(Fraction(q) / 2)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._c

    def __bool__(self) -> bool:
        return any(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclotomic):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self._c[0] == other and not any(self._c[1:])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic([-v for v in self._c])

    def __add__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic([a + b for a, b in zip(self._c, other._c)])

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic([a - b for a, b in zip(self._c, other._c)])

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = [Fraction(0)] * _DEGREE
        for i, a in enumerate(self._c):
            if not a:
                continue
            for j, b in enumerate(other._c):
                if not b:
                    continue
                ab = a * b
                basis = _PRODUCT_BASIS[i + j]
                for k in range(_DEGREE):
                    if basis[k]:
                        acc[k] += ab * basis[k]
        return Cyclotomic(acc)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic inverse of zero")
        # x^-1 = prod_{sigma != 1} sigma(x) / N(x) over the Galois group (Z/24)^*
        cofactor = CYC_ONE
        for k in (5, 7, 11, 13, 17, 19, 23):
            cofactor = cofactor * self.galois(k)
        return cofactor * (1 / (self * cofactor).as_rational())

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
        out = Cyclotomic(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def galois(self, k: int) -> "Cyclotomic":
        """The field automorphism zeta -> zeta^k, for k prime to 24."""
        acc = [Fraction(0)] * _DEGREE
        for j, a in enumerate(self._c):
            if not a:
                continue
            basis = _ZPOW[(j * k) % _CONDUCTOR]
            for i in range(_DEGREE):
                if basis[i]:
                    acc[i] += a * basis[i]
        return Cyclotomic(acc)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the field automorphism zeta -> zeta^-1."""
        return self.galois(-1)

    @property
    def is_rational(self) -> bool:
        return not any(self._c[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self._c[0]

    def to_complex(self) -> complex:
        return sum(float(a) * _ZETA_COMPLEX[k] for k, a in enumerate(self._c) if a)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"Cyc({self._c[0]})"
        parts = [f"{a}*z^{k}" if k else f"{a}" for k, a in enumerate(self._c) if a]
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


def cyclotomic_root(k: int) -> Cyclotomic:
    """zeta^k in canonical form; cyclotomic_root(6) squares to -1."""
    return Cyclotomic.root(k)


_EXP_DEN = 4  # q-series exponents live in (1/4)Z


class QSeries:
    """Truncated series in q with exponents in (1/4)Z and cyclotomic
    coefficients. Exponents >= truncation are unknown, not zero."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation):
        self.truncation = Fraction(truncation)
        clean: dict[Fraction, Cyclotomic] = {}
        for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
            expo = Fraction(expo)
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

    @classmethod
    def one(cls, truncation) -> "QSeries":
        return cls({Fraction(0): CYC_ONE}, truncation)

    @classmethod
    def monomial(cls, exponent, coeff=1, truncation=None) -> "QSeries":
        if truncation is None:
            raise ValueError("monomial needs an explicit truncation")
        return cls({Fraction(exponent): coeff}, truncation)

    def coefficient(self, exponent) -> Cyclotomic:
        expo = Fraction(exponent)
        if expo >= self.truncation:
            raise ValueError(f"coefficient at {expo} is beyond truncation {self.truncation}")
        return self.terms.get(expo, CYC_ZERO)

    @property
    def leading_exponent(self) -> Fraction:
        # for an all-zero prefix the first unknown exponent is the truncation
        return min(self.terms) if self.terms else self.truncation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.terms == other.terms and self.truncation == other.truncation

    def __hash__(self) -> int:
        return hash((frozenset(self.terms.items()), self.truncation))

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.terms.items()}, self.truncation)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, CYC_ZERO) + c
        return QSeries(acc, trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, factor: Scalar) -> "QSeries":
        factor = _coerce(factor)
        return QSeries({e: c * factor for e, c in self.terms.items()}, self.truncation)

    def shift(self, exponent) -> "QSeries":
        """Multiply by the monomial q^exponent."""
        s = Fraction(exponent)
        return QSeries({e + s: c for e, c in self.terms.items()}, self.truncation + s)

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            factor = _coerce(other)
            if factor is None:
                return NotImplemented
            return self.scale(factor)
        trunc = min(self.truncation + other.leading_exponent,
                    other.truncation + self.leading_exponent)
        acc: dict[Fraction, Cyclotomic] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                if e >= trunc:
                    continue
                acc[e] = acc.get(e, CYC_ZERO) + ca * cb
        return QSeries(acc, trunc)

    def __rmul__(self, other) -> "QSeries":
        factor = _coerce(other)
        if factor is None:
            return NotImplemented
        return self.scale(factor)

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer powers only")
        out = QSeries.one(self.truncation) if n == 0 else None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out if out is not None else QSeries.one(self.truncation)

    def evaluate(self, q_quarter: complex) -> complex:
        """Numeric value with q^(1/4) = q_quarter; used only by oracles."""
        return sum(c.to_complex() * q_quarter ** int(e * 4) for e, c in self.terms.items())

    def __repr__(self) -> str:
        body = " + ".join(f"({c!r})q^{e}" for e, c in sorted(self.terms.items()))
        return f"QSeries({body or '0'}; O(q^{self.truncation}))"


def qseries_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product truncated at the minimum induced truncation order."""
    return a * b


def _entry(components: np.ndarray, den: int) -> Cyclotomic:
    return Cyclotomic([Fraction(int(v), den) for v in components])


def _pack(values: Sequence[Scalar]) -> tuple[np.ndarray, int]:
    """Integer numerators (dtype object, shape (len, 8)) of a flat sequence
    of scalars over their least common denominator."""
    coeffs = [Cyclotomic.coerce(v).coefficients for v in values]
    den = math.lcm(1, *(c.denominator for cs in coeffs for c in cs))
    num = np.array([[c.numerator * (den // c.denominator) for c in cs] for cs in coeffs],
                   dtype=object)
    return num.reshape(len(coeffs), _DEGREE), den


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
            num, den = -num, -den
        if _normalize:
            g = math.gcd(int(np.gcd.reduce(np.abs(num), axis=None)), den)
            if g > 1:
                num = num // g
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
        return self._like(-self.num, self.den, False)

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

    def __pow__(self, k: int) -> "CycMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("nonnegative integer powers only")
        out = CycMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def trace(self) -> Cyclotomic:
        return _entry(packed_sum(self.num[np.arange(self.n), np.arange(self.n)]), self.den)

    def conjugate(self) -> "CycMatrix":
        conj = packed_roots(-np.arange(_DEGREE))  # row k = image of zeta^k
        bound = _max_abs(self.num) * int(np.abs(conj).sum(axis=0).max())
        num = self.num.astype(_packed_dtype(bound, self.num), copy=False)
        return CycMatrix(np.tensordot(num, conj, axes=([2], [0])), self.den)

    def is_identity(self) -> bool:
        return self == CycMatrix.identity(self.n)

    def order(self, max_order: int = _CONDUCTOR) -> Union[int, None]:
        power = self
        for t in range(1, max_order + 1):
            if power.is_identity():
                return t
            power = power @ self
        return None


def matrix_eigenphase_multiplicities(a: CycMatrix) -> list[tuple[Fraction, int]]:
    """Eigenvalue phases of a finite-order exact matrix.

    Finds the order n <= 24 by repeated multiplication, then recovers the
    multiplicity of e^(2 pi i j/n) exactly as (1/n) sum_t zeta_n^(-jt) tr(A^t).
    """
    n = a.order()
    if n is None or _CONDUCTOR % n != 0:
        raise ValueError("matrix has no usable finite order <= 24")
    traces = []
    power = CycMatrix.identity(a.n)
    for _ in range(n):
        traces.append(power.trace())
        power = power @ a
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


def field_rref(rows: list[list], width: int = None):
    """Reduced row echelon form over an exact field (Fraction or Cyclotomic
    entries). Returns (reduced rows, pivot column indices). Input unchanged.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    w = width if width is not None else len(mat[0])
    pivots = []
    r = 0
    for col in range(w):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = (1 / mat[r][col]) if isinstance(mat[r][col], Fraction) else mat[r][col].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [v - f * w2 for v, w2 in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def matrix_rank(rows: list[list]) -> int:
    return len(field_rref(rows)[1])


def nullspace(rows: list[list], width: int):
    """Basis of the right kernel of the matrix with the given row list."""
    red, pivots = field_rref(rows, width)
    zero = Fraction(0)
    one = Fraction(1)
    if red and isinstance(red[0][0], Cyclotomic):
        zero, one = CYC_ZERO, CYC_ONE
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * width
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


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
        den = math.lcm(*(v.denominator for v in row))
        mat.append(_primitive([v.numerator * (den // v.denominator) for v in row]))
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
