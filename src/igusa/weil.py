"""The Weil representation attached to the rank-6 ambient discriminant form.

The metaplectic generators act on the 64-dimensional group ring of the
discriminant module: T acts diagonally by e^{pi i q(alpha)}, S acts by the
normalized discrete Fourier transform (i/8) * [e^{-2 pi i b(beta, alpha)}].
The image is the full level-4 special linear group (order 48); its character
theory singles out a 5-dimensional subspace W spanned by signed theta vectors
indexed by the 15 isotropic planes, and a 1-dimensional subspace W0.

All arithmetic is exact over the conductor-24 cyclotomic field.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import (
    CYC_I,
    CYC_ONE,
    CYC_ZERO,
    Cyclotomic,
    CycArray,
    CycMatrix,
    _components,
    _packed_dtype,
    _packed_product,
    integer_echelon,
    packed_roots,
    packed_sum,
)
from .fqm import isotropic_planes, radical_class, reflection, reflection_group
from .lattices import ambient_lattice, discriminant_module

__all__ = [
    "GroupRingVector",
    "ambient_module",
    "ambient_orthogonal_group",
    "weil_generator",
    "image_group",
    "conjugacy_classes",
    "conjugacy_traces",
    "CLASS_ORDER",
    "CHARACTER_TABLE",
    "character_degrees",
    "verify_character_table",
    "decompose_character",
    "conjugate_decomposition",
    "class_sizes",
    "isotypic_projector",
    "isotypic_subspace",
    "theta_vector",
    "theta_vectors",
    "theta_span_rank",
    "w_basis",
    "w0_vector",
    "irreducibility_check",
    "permutation_commutes_with_rep",
]


# ---------------------------------------------------------------------------
# Shared context
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def ambient_module():
    """The discriminant module of the signature-(2,4) ambient lattice."""
    return discriminant_module(ambient_lattice())


@lru_cache(maxsize=1)
def ambient_orthogonal_group() -> np.ndarray:
    """The orthogonal group of the ambient module as the closure of its 16
    norm-1 reflections (``fqm.reflection_group``): 1440 read-only int32
    permutation rows, the identity first.  Tier-1 checks it against an
    exhaustive search of all isometries."""
    return reflection_group(ambient_module())


# ---------------------------------------------------------------------------
# Group ring vectors
# ---------------------------------------------------------------------------


class GroupRingVector(CycArray):
    """A vector in the group ring of the discriminant module: a CycArray of
    shape (size, 8), so coefficient alpha is sum_k num[alpha, k] zeta^k / den."""

    __slots__ = ("module",)

    def __init__(self, module, dense):
        if len(dense) != module.size:
            raise ValueError("coefficient length mismatch")
        self.module = module
        packed = CycArray.from_values(dense)
        super().__init__(packed.num, packed.den, False)

    @classmethod
    def packed(cls, module, num, den=1, normalize=True) -> "GroupRingVector":
        out = cls.__new__(cls)
        out.module = module
        CycArray.__init__(out, num, den, normalize)
        return out

    def _like(self, num, den, normalize=True) -> "GroupRingVector":
        return GroupRingVector.packed(self.module, num, den, normalize)

    @classmethod
    def from_dict(cls, module, coefficients) -> "GroupRingVector":
        dense = [CYC_ZERO] * module.size
        for elem, coeff in coefficients.items():
            dense[elem] = Cyclotomic.coerce(coeff)
        return cls(module, dense)

    @property
    def dense(self) -> tuple:
        """All coefficients as Cyclotomic numbers, in element order."""
        return tuple(self.entry(i) for i in range(self.module.size))

    @property
    def coefficients(self) -> dict:
        """Nonzero coefficients keyed by element index."""
        return {i: self.entry(i) for i in sorted(self.support)}

    @property
    def support(self) -> frozenset:
        return frozenset(np.flatnonzero(self.num.any(axis=1)).tolist())

    def __bool__(self):
        return bool(self.num.any())

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingVector)
            and self.module is other.module
            and CycArray.__eq__(self, other)
        )

    __hash__ = CycArray.__hash__

    def apply(self, matrix: CycMatrix) -> "GroupRingVector":
        return matrix.apply(self)

    def permute(self, perm) -> "GroupRingVector":
        """The permutation action g . e_alpha = e_{g(alpha)} of the
        automorphism given as the permutation array g = perm."""
        num = np.zeros_like(self.num)
        num[perm] = self.num
        return self._like(num, self.den, False)

    def __repr__(self):
        items = ", ".join(f"{i}: {c!r}" for i, c in self.coefficients.items())
        return f"GroupRingVector({{{items}}})"


# ---------------------------------------------------------------------------
# Generators and the image group
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def weil_generator(name: str) -> CycMatrix:
    """The exact 64x64 matrix of a metaplectic generator ("S" or "T")."""
    A = ambient_module()
    if name == "T":
        # e^{pi i q(alpha)} = zeta^(12 q) = zeta^(3 q4)
        num = np.zeros((A.size, A.size, 8), dtype=np.int64)
        num[np.arange(A.size), np.arange(A.size)] = packed_roots(3 * A.q4)
        return CycMatrix(num)
    if name == "S":
        # (i/8) e^{-2 pi i b(delta, alpha)} = zeta^(6 - 24 b) / 8 = zeta^(6 - 6 b4) / 8
        return CycMatrix(packed_roots(6 - 6 * A.b4), 8)
    raise ValueError(f"unknown generator {name!r}")


_SL2_S = ((0, 3), (1, 0))
_SL2_T = ((1, 1), (0, 1))
_SL2_E = ((1, 0), (0, 1))


def _sl2_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 4 for j in range(2))
        for i in range(2)
    )


def _sl2_inv(a):
    ((p, q), (r, s)) = a
    # determinant 1 mod 4: adjugate is the inverse
    return ((s % 4, (-q) % 4), ((-r) % 4, p % 4))


# Packed numerators of zeta^k for k < 24, and a zero row at the exponent
# _ZERO_EXP that marks a zero entry
_ZERO_EXP = 24
_ROOTS = np.concatenate([packed_roots(np.arange(_ZERO_EXP)), np.zeros((1, 8), np.int64)])
# The numerators of 0 and of each root of unity lie in {-1, 0, 1}; read as
# base-3 digits (plus one) they key the exponent, every other key is -1
_DIGITS = 3 ** np.arange(8)
_EXPONENT_OF_KEY = np.full(3**8, -1, dtype=np.int8)
_EXPONENT_OF_KEY[(_ROOTS + 1) @ _DIGITS] = np.arange(_ZERO_EXP + 1)


def _root_exponents(matrix: CycMatrix, x) -> np.ndarray:
    """The int8 exponents k with matrix = zeta^k / matrix.den entrywise
    (k = _ZERO_EXP for a zero entry); raises naming the level-4 matrix x and
    the first entry (i, j) whose numerator is neither 0 nor a root of unity."""
    clipped = np.clip(matrix.num, -1, 1).astype(np.int64, copy=False)
    exps = _EXPONENT_OF_KEY[(clipped + 1) @ _DIGITS]
    exps[(clipped != matrix.num).any(axis=-1)] = -1
    if (exps < 0).any():
        i, j = np.argwhere(exps < 0)[0]
        raise AssertionError(f"entry ({i}, {j}) of the image of the level-4 matrix {x} "
                             f"is neither 0 nor a root of unity over {matrix.den}")
    return exps


def _same_record(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and np.array_equal(a[1], b[1])


class _ImageGroup(Mapping):
    """A read-only map from level-4 matrices to exact 64x64 matrices, each
    stored as (den, int8 exponents): entry (i, j) is zeta^k / den, k =
    exps[i, j], or 0 for k = _ZERO_EXP.  A value is unpacked when read."""

    __slots__ = ("_records",)

    def __init__(self, records: dict):
        self._records = records

    def __getitem__(self, x) -> CycMatrix:
        den, exps = self._records[x]
        return CycMatrix(_ROOTS[exps], den, False)

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def den(self, x) -> int:
        return self._records[x][0]


@lru_cache(maxsize=1)
def image_group() -> _ImageGroup:
    """The image of SL(2, Z/4) as a read-only map from each level-4 matrix to
    its exact 64x64 matrix, built breadth-first from E by right multiplication
    with S and T.  Every entry of every product must be 0 or a root of unity
    over the denominator (`_root_exponents`), so a matrix is stored as its
    denominator and exponents, which are canonical in lowest terms.  A product
    reaching a level-4 matrix already mapped must equal the matrix stored there
    (rho is a homomorphism), and only E may map to the identity (rho is
    faithful, so the 48 matrices are distinct).  rho(T) must be diagonal with
    root-of-unity entries: right multiplication by it adds its exponents to
    the columns."""
    S = weil_generator("S")
    T = weil_generator("T")
    t_exps = _root_exponents(T, _SL2_T)
    if T.den != 1 or not np.array_equal(t_exps != _ZERO_EXP, np.eye(T.n, dtype=bool)):
        raise AssertionError("rho(T) is not a diagonal matrix of roots of unity")
    t = np.diagonal(t_exps)
    ident = (1, _root_exponents(CycMatrix.identity(T.n), _SL2_E))
    group = _ImageGroup({_SL2_E: ident})
    records = group._records
    frontier = [_SL2_E]
    while frontier:
        new = []
        for x in frontier:
            den, exps = records[x]
            s_prod = group[x] @ S
            xs, xt = _sl2_mul(x, _SL2_S), _sl2_mul(x, _SL2_T)
            shifted = np.where(exps == _ZERO_EXP, exps, (exps + t) % _ZERO_EXP)
            for xg, record in ((xs, (s_prod.den, _root_exponents(s_prod, xs))),
                               (xt, (den, shifted))):
                if xg not in records:
                    records[xg] = record
                    new.append(xg)
                elif not _same_record(records[xg], record):
                    raise AssertionError(f"two words for the level-4 matrix {xg} "
                                         f"give different matrices")
        frontier = new
    kernel = [x for x, record in records.items() if _same_record(record, ident)]
    if kernel != [_SL2_E]:
        raise AssertionError(f"{len(kernel)} level-4 matrices act as the identity")
    return group


CLASS_ORDER = ("E", "-E", "S", "-S", "T", "-T", "T^2", "-T^2", "ST", "(ST)^2")


def _class_representative_tags():
    mE = _sl2_mul(_SL2_S, _SL2_S)
    T2 = _sl2_mul(_SL2_T, _SL2_T)
    ST = _sl2_mul(_SL2_S, _SL2_T)
    return {
        "E": _SL2_E,
        "-E": mE,
        "S": _SL2_S,
        "-S": _sl2_mul(mE, _SL2_S),
        "T": _SL2_T,
        "-T": _sl2_mul(mE, _SL2_T),
        "T^2": T2,
        "-T^2": _sl2_mul(mE, T2),
        "ST": ST,
        "(ST)^2": _sl2_mul(ST, ST),
    }


@lru_cache(maxsize=1)
def conjugacy_classes() -> dict:
    """The 10 conjugacy classes of SL(2, Z/4), keyed by name in CLASS_ORDER,
    each the sorted tuple of its level-4 matrices (keys of `image_group`).
    The trace read from the map must be constant on each class."""
    group = image_group()
    reps = _class_representative_tags()
    classes = {}
    covered = set()
    for name in CLASS_ORDER:
        rep = reps[name]
        orbit = {_sl2_mul(_sl2_mul(g, rep), _sl2_inv(g)) for g in group}
        members = tuple(sorted(orbit))
        t0 = group[members[0]].trace()
        if any(group[x].trace() != t0 for x in members[1:]):
            raise AssertionError(f"trace not constant on class {name}")
        if covered & orbit:
            raise AssertionError(f"conjugacy class {name} overlaps a previous one")
        covered |= orbit
        classes[name] = members
    if len(covered) != len(group):
        raise AssertionError("conjugacy classes do not partition the image group")
    return classes


def conjugacy_traces() -> list:
    """Traces of the representation on the 10 class representatives."""
    group = image_group()
    classes = conjugacy_classes()
    return [group[classes[name][0]].trace() for name in CLASS_ORDER]


# ---------------------------------------------------------------------------
# Character table of the image group (transcribed fixture, machine-verified)
# ---------------------------------------------------------------------------

_I = CYC_I
_1 = CYC_ONE

CHARACTER_TABLE = (
    (_1, _1, _1, _1, _1, _1, _1, _1, _1, _1),
    (_1, _1, -_1, -_1, -_1, -_1, _1, _1, _1, _1),
    (_1, -_1, _I, -_I, _I, -_I, -_1, _1, -_1, _1),
    (_1, -_1, -_I, _I, -_I, _I, -_1, _1, -_1, _1),
    (2 * _1, 2 * _1, CYC_ZERO, CYC_ZERO, CYC_ZERO, CYC_ZERO, 2 * _1, 2 * _1, -_1, -_1),
    (2 * _1, -2 * _1, CYC_ZERO, CYC_ZERO, CYC_ZERO, CYC_ZERO, -2 * _1, 2 * _1, _1, -_1),
    (3 * _1, 3 * _1, _1, _1, -_1, -_1, -_1, -_1, CYC_ZERO, CYC_ZERO),
    (3 * _1, 3 * _1, -_1, -_1, _1, _1, -_1, -_1, CYC_ZERO, CYC_ZERO),
    (3 * _1, -3 * _1, -_I, _I, _I, -_I, _1, -_1, CYC_ZERO, CYC_ZERO),
    (3 * _1, -3 * _1, _I, -_I, -_I, _I, _1, -_1, CYC_ZERO, CYC_ZERO),
)


def character_degrees() -> list:
    return [int(row[0].as_rational()) for row in CHARACTER_TABLE]


def class_sizes() -> list:
    classes = conjugacy_classes()
    return [len(classes[name]) for name in CLASS_ORDER]


def _first_mismatch(got: CycMatrix, expected: CycMatrix):
    i, j = np.argwhere((got - expected).num.any(axis=-1))[0]
    return int(i), int(j)


@lru_cache(maxsize=1)
def verify_character_table() -> None:
    """Both orthogonality relations of the table T, as two packed matrix
    products: the rows, T . diag(sizes) . conj(T)^t = |G| I, and the
    columns, T^t . conj(T) = diag(|G| / size).  Raises naming the first
    mismatching row pair and column pair on any transcription mismatch.  A
    pass is remembered for the process."""
    sizes = class_sizes()
    order = sum(sizes)
    table = CycMatrix.from_rows(CHARACTER_TABLE)
    conj = table.conjugate()
    # diag(sizes) . conj(T)^t: row c of conj(T)^t times the size of class c
    weighted = CycMatrix(conj.num.transpose(1, 0, 2) * np.array(sizes)[:, None, None], conj.den)
    rows = table @ weighted
    expected_rows = CycMatrix.diagonal([order] * len(sizes))
    columns = CycMatrix(table.num.transpose(1, 0, 2), table.den, False) @ conj
    expected_columns = CycMatrix.diagonal([Fraction(order, s) for s in sizes])
    problems = []
    if rows != expected_rows:
        i, j = _first_mismatch(rows, expected_rows)
        problems.append(f"character rows {i + 1}, {j + 1} not orthonormal")
    if columns != expected_columns:
        a, b = _first_mismatch(columns, expected_columns)
        problems.append(f"character columns {CLASS_ORDER[a]}, {CLASS_ORDER[b]} "
                        f"break the column relation")
    if problems:
        raise AssertionError("; ".join(problems))


def decompose_character(traces=None) -> list:
    """Multiplicities of the 10 irreducible characters in the representation
    with the given class traces (default: the Weil representation itself).
    Non-integer or negative multiplicities raise."""
    verify_character_table()
    if traces is None:
        traces = conjugacy_traces()
    sizes = class_sizes()
    order = sum(sizes)
    mults = []
    for row in CHARACTER_TABLE:
        acc = CYC_ZERO
        for c in range(len(CLASS_ORDER)):
            acc = acc + sizes[c] * traces[c] * row[c].conjugate()
        acc = acc * Fraction(1, order)
        if not acc.is_rational:
            raise ValueError("non-rational multiplicity: transcription bug")
        val = acc.as_rational()
        if val.denominator != 1 or val < 0:
            raise ValueError(f"invalid multiplicity {val}: transcription bug")
        mults.append(int(val))
    return mults


def conjugate_decomposition() -> list:
    """Decomposition of the entrywise-conjugated (dual) representation.  No
    report check covers the dual; the tests pin its multiplicities here."""
    return decompose_character([t.conjugate() for t in conjugacy_traces()])


# ---------------------------------------------------------------------------
# Isotypic subspaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _class_sums() -> CycArray:
    """The sums of the matrices of each conjugacy class, in CLASS_ORDER,
    packed in shape (10, 64, 64, 8) over one denominator: each member is
    unpacked and added in place in turn, in Python integers wherever a sum
    could leave int64.  Every numerator of a member is 0 or +-1 (roots of
    unity, see `image_group`), so a class sum's numerators are at most the
    sum of den / d over its members d."""
    group = image_group()
    classes = [conjugacy_classes()[name] for name in CLASS_ORDER]
    den = math.lcm(*(group.den(x) for x in group))
    bound = max(sum(den // group.den(x) for x in members) for members in classes)
    n = ambient_module().size
    sums = np.zeros((len(classes), n, n, 8), dtype=_packed_dtype(bound))
    for total, members in zip(sums, classes):
        for x in members:
            total += group[x].num * (den // group.den(x))
    return CycArray(sums, den)


@lru_cache(maxsize=None)
def isotypic_projector(character_index: int) -> CycMatrix:
    """Exact projector (deg/|G|) * sum_g conj(chi(g)) rho(g) onto the
    chi-isotypic component. character_index is 1-based.  The sum runs over
    the class sums: one packed contraction of the conjugated class values
    with the class axis."""
    row = CHARACTER_TABLE[character_index - 1]
    deg = row[0].as_rational()
    order = sum(class_sizes())
    sums = _class_sums()
    classes, n = sums.num.shape[:2]
    weights = CycArray.from_values([deg * chi.conjugate() for chi in row])
    flat = _packed_product(weights.num[None], sums.num.reshape(classes, n * n, 8),
                           (1, n * n), classes, np.matmul)
    proj = CycMatrix(flat.reshape(n, n, 8), sums.den * weights.den * order)
    if not (proj @ proj) == proj:
        raise AssertionError("isotypic projector is not idempotent")
    return proj


def isotypic_subspace(character_index: int, expected_dim=None) -> list:
    """A basis of the chi-isotypic component, as GroupRingVectors: the
    projector columns at the pivots of `integer_echelon`, i.e. each column
    independent of the ones before it.  The projector must be rational, and
    its trace must equal mult * deg, which certifies the rank: an
    idempotent has rank equal to its trace."""
    A = ambient_module()
    proj = isotypic_projector(character_index)
    mults = decompose_character()
    degs = character_degrees()
    dim = mults[character_index - 1] * degs[character_index - 1]
    if expected_dim is not None and dim != expected_dim:
        raise ValueError(
            f"isotypic dimension is {dim}, expected {expected_dim}"
        )
    if proj.num[..., 1:].any():
        raise ValueError(f"isotypic projector {character_index} has an irrational entry")
    trace = proj.trace().as_rational()
    if trace != dim:
        raise ValueError(f"isotypic projector has trace {trace}, expected rank {dim}")
    pivots = integer_echelon(proj.num[..., 0].tolist())[1]
    return [GroupRingVector.packed(A, proj.num[:, j], proj.den) for _, j in pivots]


# ---------------------------------------------------------------------------
# Theta vectors
# ---------------------------------------------------------------------------


def theta_vector(plane) -> GroupRingVector:
    """The signed sum over the two cosets attached to an isotropic plane.

    plane: a tuple of the three nonzero elements of an order-4 totally
    isotropic subgroup I. V = <I, kappa>. The base point alpha_0 has
    q(alpha_0) = 3/2 and pairs to 0 with I; it is unique modulo V, and the
    lexicographically least candidate (in generator coordinates) is chosen,
    which fixes the overall sign.
    """
    A = ambient_module()
    kappa = radical_class(A)
    I = [0] + sorted(plane)
    if len(I) != 4:
        raise ValueError("plane must have exactly three nonzero elements")
    for c in I:
        if A.q4[c] != 0:
            raise ValueError("plane is not isotropic")
    V = sorted({A.add(c, k) for c in I for k in (0, kappa)})
    if len(V) != 8:
        raise AssertionError("V = <I, kappa> must have order 8")
    candidates = [
        x
        for x in A.elements()
        if A.q4[x] == 6 and all(A.b4[x, c] == 0 for c in I)
    ]
    if not candidates:
        raise ValueError("no admissible base point for this plane")
    # uniqueness modulo V: the candidates form exactly one V-coset
    cosets = {frozenset(A.add(x, v) for v in V) for x in candidates}
    if len(cosets) != 1 or len(candidates) != 8:
        raise AssertionError("base point is not unique modulo V")
    alpha0 = min(candidates, key=A.coords)
    m_plus = [A.add(alpha0, c) for c in I]
    m_minus = [A.add(x, kappa) for x in m_plus]
    dense = [CYC_ZERO] * A.size
    for x in m_plus:
        dense[x] = CYC_ONE
    for x in m_minus:
        dense[x] = -CYC_ONE
    return GroupRingVector(A, dense)


@lru_cache(maxsize=1)
def theta_vectors() -> tuple:
    """The 15 theta vectors, one per isotropic plane, in plane order."""
    A = ambient_module()
    return tuple(theta_vector(p) for p in isotropic_planes(A))


def _theta_pivots() -> list:
    """Indices of the theta vectors independent of the ones before them: the
    pivot columns of the integer 64 x 15 matrix with the vectors as columns."""
    columns = np.stack([v.num[:, 0] for v in theta_vectors()], axis=1)
    return [col for _, col in integer_echelon(columns.tolist())[1]]


def theta_span_rank() -> int:
    return len(_theta_pivots())


def w_basis() -> list:
    """A basis of the 5-dimensional subspace W spanned by the theta vectors
    (equal to the chi_4-isotypic component): the first five independent ones.
    `weil-theta-span-rank` certifies the rank, not which vectors form the
    basis; the tests pin that choice here."""
    vectors = theta_vectors()
    basis = [vectors[i] for i in _theta_pivots()]
    if len(basis) != 5:
        raise AssertionError(f"theta vectors span rank {len(basis)}, expected 5")
    return basis


@lru_cache(maxsize=1)
def w0_vector() -> GroupRingVector:
    """A generator of the 1-dimensional chi_3-isotypic subspace W0,
    normalized to integer coefficients of content 1 with positive leading
    coefficient."""
    v = isotypic_subspace(3, expected_dim=1)[0]
    v = v.scale(v.entry(min(v.support)).inverse())
    if v.num[:, 1:].any():
        raise ValueError("the line W0 is not spanned by a rational vector")
    # the leading entry num/den is 1 and num is prime to den, so num is
    # already a primitive integer vector with positive leading coefficient
    return v.scale(v.den)


# ---------------------------------------------------------------------------
# O(q)-action: commutation and irreducibility
# ---------------------------------------------------------------------------


def permutation_commutes_with_rep(perm) -> bool:
    """Whether the permutation action of one automorphism, given as its
    permutation array, commutes with both generator matrices (checked by
    exact array reindexing).  Only its tests check that the 1440
    permutations `weil-theta-character-norm` averages over are symmetries."""
    return all(
        np.array_equal(g.num[np.ix_(perm, perm)], g.num)
        for g in (weil_generator("S"), weil_generator("T"))
    )


def _character_norm(proj: CycMatrix, perms: np.ndarray):
    """The characters chi(g) = trace(Perm_g . P) = sum_alpha P[g(alpha), alpha]
    of the permutations in the rows of perms, packed in shape (len(perms), 8),
    and their mean square norm sum_g chi(g) conj(chi(g)) / len(perms)."""
    # one (len(perms), n) gather per nonzero component plane, summed over alpha
    cols, nonzero = np.arange(proj.n), _components(proj.num)
    chars = CycArray(np.stack([packed_sum(proj.num[..., k][perms, cols].T) if k in nonzero
                               else np.zeros(len(perms), dtype=np.int64) for k in range(8)],
                              axis=-1), proj.den)
    squares = _packed_product(chars.num, chars.conjugate().num, (len(perms),))
    return chars, CycArray(packed_sum(squares), chars.den**2 * len(perms)).entry()


def irreducibility_check() -> dict:
    """Certificate that W is irreducible under the full orthogonal group:
    the exact Frobenius norm of the character of W, averaged over the rows
    of `ambient_orthogonal_group` (a group by construction, the identity
    first), equals 1, and the central involution acts by -1."""
    A = ambient_module()
    perms = ambient_orthogonal_group()
    proj = isotypic_projector(4)
    chars, norm = _character_norm(proj, perms)
    t_kappa = reflection(A, radical_class(A))
    central_minus = np.array_equal(proj.num[t_kappa], -proj.num)
    return {
        "frobenius_norm": norm,
        "is_irreducible": norm == CYC_ONE,
        "identity_character": chars.entry(0),
        "central_involution_is_minus_one": bool(central_minus),
        "group_order": len(perms),
    }
