"""Exact projective geometry of the singular quartic threefold.

The quartic hypersurface (sum of squares)^2 = 4(sum of fourth powers) inside
the hyperplane where the six coordinates sum to zero has exactly fifteen
singular lines matching the boundary combinatorics of the period-domain
quotient.  The fifteen products of three coordinate differences span a
five-dimensional space of cubics whose induced map has a unique cubic image
relation, and composing the quartic with rational normal curves through the
six distinguished base points certifies that the induced self-map has
degree sixteen.  All structural checks are exact over the rationals.  There
is one curve construction, `fibre_curve`: the fibre of the cubic map through
a point with six distinct coordinates, in closed form over the integers,
and the degree count is certified on it exactly, on the degree-16 binary
form of the composition (degree at least 15, squarefree); floats serve
only as oracles with explicit tolerances: an independent float composition
from the curve's rows, and the root separation of the float composition.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from numbers import Integral
from operator import add, getitem, index

import numpy as np

from .exact import (
    KERNEL_PRIME,
    _packed_dtype,
    _primitive,
    clear_denominators,
    integer_echelon,
    kernel_vector,
)

__all__ = [
    "MultiPoly",
    "evaluate_polys",
    "PAIR_PARTITIONS",
    "LINE_PARAMETERS",
    "canonical_polys",
    "fifteen_lines",
    "boundary_points",
    "incidence_153",
    "singular_inclusion_check",
    "fifteen_cubics",
    "cubic_span",
    "s6_equivariance",
    "image_cubic_relation",
    "base_points",
    "base_lines",
    "fibre_curve",
    "exact_quartic_composition",
    "poly_is_squarefree",
    "cubic_base_locus_check",
    "image_relation_equivariance",
    "quartic_point_composition_check",
    "degree16_check",
    "MAX_TRIALS",
]

# Largest trial count of the degree-16 certification; each trial builds one
# fibre curve and its degree-16 composition, and
# `igusa geometry --trials 1000` takes about 0.9 s and 33 MB via the CLI on
# a 2-vCPU Xeon.
MAX_TRIALS = 1000

# Tolerances of the float oracles: composition residual, root separation.
_RESIDUAL_TOL = 1e-9
_SEPARATION_TOL = 1e-6

# Sample rows of the image cubic relation: 35 cubic monomials in five
# variables and 25 rows to spare.
_RELATION_SAMPLES = 60


# ---------------------------------------------------------------------------
# Exact multivariate polynomials
# ---------------------------------------------------------------------------


class MultiPoly:
    """Multivariate polynomial with integer coefficients: exponent tuple ->
    int.

    The constructor validates its input and raises TypeError on a
    coefficient that is not an integer; every operation builds its result
    with the trusted `_from_terms`, which only drops zero terms.  Values
    come from `evaluate_polys`, one packed pass for many polynomials at many
    integer points; identities along a line are values at `LINE_PARAMETERS`,
    and `compose` substitutes symbolically."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(coeff, Integral):
                raise TypeError(f"non-integer coefficient {coeff!r}")
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
            clean[exps] = clean.get(exps, 0) + int(coeff)
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Trusted constructor: the exponent tuples are valid and the
        coefficients ints; zero terms are dropped."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._from_terms(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls._from_terms(nvars, {(0,) * nvars: index(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls._from_terms(nvars, {tuple(exps): 1})

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly._from_terms(self.nvars, out)

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -index(other))

    def __neg__(self):
        return MultiPoly._from_terms(
            self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = index(other)
            return MultiPoly._from_terms(
                self.nvars, {e: v * c for e, v in self.terms.items()}
            )
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly._from_terms(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering: floor(log2 n) squarings, one fewer product than
        n has set bits."""
        if n < 0:
            raise ValueError("nonnegative powers only")
        if not n:
            return MultiPoly.constant(self.nvars, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {len(self.terms)} terms)"

    # -- structure -----------------------------------------------------------

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def evaluate_rows(self, points) -> np.ndarray:
        """Values at every row of an integer array: the one-polynomial case
        of `evaluate_polys`."""
        return evaluate_polys([self], points)[:, 0]

    def partial(self, index: int) -> "MultiPoly":
        """The derivative in one variable; lowering its exponent keeps
        distinct terms distinct."""
        return MultiPoly._from_terms(self.nvars, {
            exps[:index] + (e - 1,) + exps[index + 1:]: coeff * e
            for exps, coeff in self.terms.items() if (e := exps[index])})

    def compose(self, substitutions) -> "MultiPoly":
        """Substitute a polynomial (all over a common variable set) for each
        variable.  The powers 0..maxdeg of each substitution are built once;
        each term adds coeff * (product of its table entries) into one
        dict."""
        if len(substitutions) != self.nvars:
            raise ValueError("substitution count mismatch")
        nout = substitutions[0].nvars
        if any(s.nvars != nout for s in substitutions):
            raise ValueError("substitutions disagree on variable count")
        tables = []
        for sub, top in zip(substitutions, map(max, zip(*self.terms))):
            powers = [None, sub]
            for _ in range(top - 1):
                powers.append(powers[-1] * sub)
            tables.append(powers)
        one = (0,) * nout
        out = {}
        for exps, coeff in self.terms.items():
            term = None
            for powers, e in zip(tables, exps):
                if e:
                    term = powers[e] if term is None else term * powers[e]
            if term is None:
                out[one] = out.get(one, 0) + coeff
                continue
            for e, c in term.terms.items():
                out[e] = out.get(e, 0) + coeff * c
        return MultiPoly._from_terms(nout, out)


def evaluate_polys(polys, points) -> np.ndarray:
    """Values of integer polynomials in the same variables at every row of
    an integer array, one column per polynomial (int64, or Python ints
    beyond it): one power table per variable, and each distinct monomial
    multiplied out once and added into every column by its coefficients.
    The sum of |c| prod max(|x_v|, 1)^e_v over a polynomial's terms bounds
    every power, monomial, product and partial sum of its values, so the
    arithmetic runs in int64 while the largest such bound is below 2^63 and
    in Python integers (dtype object) beyond; it never wraps.  A rational
    point is evaluated cleared of its denominators; for a homogeneous
    polynomial that changes no zero test."""
    points = np.asarray(points)
    if points.ndim != 2 or {poly.nvars for poly in polys} != {points.shape[1]}:
        raise ValueError("expected one row of values per point")
    if points.dtype.kind not in "iu" and not (
            points.dtype == object
            and all(type(v) is int for v in points.flat)):
        raise TypeError("cannot evaluate at non-integer points")
    column = {e: None for poly in polys for e in poly.terms}
    column = {e: k for k, e in enumerate(column)}  # monomial -> row of coeffs
    sizes = [max(-lo, hi, 1) for lo, hi in zip(
        points.min(axis=0, initial=0).tolist(),
        points.max(axis=0, initial=0).tolist())]
    weights = {e: math.prod(map(pow, sizes, e)) for e in column}
    bound = max(sum(abs(c) * weights[e] for e, c in poly.terms.items())
                for poly in polys)
    dtype = _packed_dtype(bound, points)
    coeffs = np.zeros((len(column), len(polys)), dtype=dtype)
    for j, poly in enumerate(polys):
        for e, c in poly.terms.items():
            coeffs[column[e], j] = c
    tables = []
    for base, top in zip(np.array(points.T, dtype=dtype),
                         map(max, zip(*column))):
        powers = [None, base]
        for _ in range(top - 1):
            powers.append(powers[-1] * base)
        tables.append(powers)
    values = np.zeros((len(points), len(polys)), dtype=dtype)
    for exps, row in zip(column, coeffs):
        term = None
        for powers, e in zip(tables, exps):
            if e:
                term = powers[e] if term is None else term * powers[e]
        values += row if term is None else term[:, None] * row
    return values


# ---------------------------------------------------------------------------
# Canonical hypersurfaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def canonical_polys():
    """(cubic, quartic): the sum of cubes, and (sum of squares)^2 minus four
    times the sum of fourth powers, in six variables over the integers."""
    xs = [MultiPoly.variable(6, i) for i in range(6)]
    cubes, squares, fourths = (sum((x**k for x in xs), MultiPoly.zero(6))
                               for k in (3, 2, 4))
    return cubes, squares**2 - 4 * fourths


# ---------------------------------------------------------------------------
# Pair partitions, singular lines, boundary points
# ---------------------------------------------------------------------------


# the fifteen partitions of the six indices into pairs, each pair and each
# partition sorted
PAIR_PARTITIONS = tuple(
    p for p in combinations(combinations(range(6), 2), 3)
    if len({i for pair in p for i in pair}) == 6)


# Pairwise non-proportional parameter pairs (a, b).  Restricted to a line
# whose coordinates are linear forms in (a, b), a form of degree d becomes a
# binary form of degree d, and a nonzero one has at most d zeros on P^1: a
# form of degree d <= 4 that vanishes at the first d + 1 pairs vanishes
# identically on the line.
LINE_PARAMETERS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))


def _line_points(lines, degree: int) -> np.ndarray:
    """The points of each line, given by six (coeff_a, coeff_b) pairs, at
    the first degree + 1 parameter pairs: degree + 1 consecutive integer
    rows per line, in line order.  ValueError above degree 4, where the five
    parameter pairs no longer decide an identity."""
    if degree > len(LINE_PARAMETERS) - 1:
        raise ValueError(f"degree {degree} needs more than "
                         f"{len(LINE_PARAMETERS)} parameter pairs")
    pairs = np.array(LINE_PARAMETERS[: degree + 1])
    return (np.array(lines) @ pairs.T).transpose(0, 2, 1).reshape(-1, 6)


def _on_lines(points, partitions) -> np.ndarray:
    """Which integer points of the hyperplane lie on which singular lines:
    a boolean matrix with one row per point and one column per pair
    partition, true where the point's coordinates agree within every pair of
    the partition."""
    points = np.asarray(points)
    pairs = np.array(partitions)  # lines x 3 pairs x 2 indices
    # booleans throughout: gathering the coordinates themselves would make
    # two int64 copies per line of the 3,125-point witness box
    same = points[:, :, None] == points[:, None, :]
    return same[:, pairs[..., 0], pairs[..., 1]].all(axis=2)


@lru_cache(maxsize=1)
def fifteen_lines() -> tuple:
    """The fifteen lines with coordinates (a, a, b, b, -a-b, -a-b) up to
    permutation, one per partition of the six indices into pairs, each as
    (the partition, six (coeff_a, coeff_b) pairs): the first pair of the
    partition carries (1, 0), the second (0, 1) and the third (-1, -1).
    Each is verified to lie identically on the hyperplane, and on the
    quartic by its values at the five points of `LINE_PARAMETERS`, all in
    one evaluation."""
    _, quartic = canonical_polys()
    weights = ((1, 0), (0, 1), (-1, -1))  # of the first, second, third pair
    lines = tuple((part, tuple(w for i in range(6) for pair, w in
                               zip(part, weights) if i in pair))
                  for part in PAIR_PARTITIONS)
    coefficients = [coeffs for _, coeffs in lines]
    if np.array(coefficients).sum(axis=1).any():
        raise AssertionError("line leaves the hyperplane")
    values = quartic.evaluate_rows(_line_points(coefficients, 4))
    missed = np.flatnonzero(values.reshape(len(lines), -1).any(axis=1))
    if len(missed):
        raise AssertionError(
            f"line {lines[missed[0]][0]} is not on the quartic")
    if len({part for part, _ in lines}) != 15:
        raise AssertionError("the fifteen lines must be pairwise distinct")
    return lines


@lru_cache(maxsize=1)
def boundary_points() -> tuple:
    """The fifteen points with four coordinates 1 and two coordinates -2,
    all on the quartic (exact check), in the order of their coordinates
    scaled to first coordinate 1: the order of 2 c / p_0, exact since p_0
    is 1 or -2."""
    _, quartic = canonical_polys()
    points = [tuple(-2 if i in low else 1 for i in range(6))
              for low in combinations(range(6), 2)]
    missed = np.flatnonzero(quartic.evaluate_rows(points))
    if any(map(sum, points)) or len(missed):
        raise AssertionError("a boundary point fails the equations")
    return tuple(sorted(points, key=lambda p: [2 * c // p[0] for c in p]))


def incidence_153() -> dict:
    """Incidence between the fifteen boundary points and fifteen lines:
    a 15 x 15 zero-one matrix with all row and column sums equal to 3."""
    partitions = tuple(part for part, _ in fifteen_lines())
    points = boundary_points()
    matrix = tuple(map(tuple, _on_lines(points, partitions).astype(int)
                       .tolist()))
    row_sums = [sum(row) for row in matrix]
    col_sums = [sum(row[j] for row in matrix) for j in range(15)]
    if set(row_sums) != {3}:
        raise ValueError(f"point incidence degrees {sorted(set(row_sums))}")
    if set(col_sums) != {3}:
        raise ValueError(f"line incidence degrees {sorted(set(col_sums))}")
    return {
        "matrix": matrix,
        "row_sums": tuple(row_sums),
        "col_sums": tuple(col_sums),
        "points": points,
        "lines": partitions,
    }


def singular_inclusion_check() -> dict:
    """Certify the fifteen lines lie in the singular locus of the quartic
    surface cut on the hyperplane: along each line, identically in the two
    parameters, the quartic vanishes (`fifteen_lines`) and its gradient is
    proportional to the all-ones hyperplane gradient, as each cubic g_i -
    g_0 of partial derivatives vanishes at four `LINE_PARAMETERS` points.
    Also exhibits quartic points off the lines where the gradient is not
    proportional: every nonzero integer point of the hyperplane with first
    five entries in [-2, 2] (in itertools.product order) is evaluated at
    once, and `witnesses` lists those on the quartic and off every line."""
    _, quartic = canonical_polys()
    grad = [quartic.partial(i) for i in range(6)]
    lines = fifteen_lines()
    values = evaluate_polys(
        grad, _line_points([coeffs for _, coeffs in lines], 3))
    bent = np.flatnonzero((values != values[:, :1]).any(axis=1))
    if len(bent):
        raise ValueError("gradient not proportional to all-ones on "
                         f"{lines[bent[0] // 4][0]}")

    # rational quartic points off every line must have non-constant gradient
    head = np.indices((5,) * 5).reshape(5, -1).T - 2
    box = np.column_stack([head, -head.sum(axis=1)])
    keep = box.any(axis=1) & (quartic.evaluate_rows(box) == 0)
    keep &= ~_on_lines(box, [part for part, _ in lines]).any(axis=1)
    witnesses = box[keep]
    values = evaluate_polys(grad, witnesses)
    flat = np.flatnonzero(np.all(values == values[:, :1], axis=1))
    if len(flat):
        coords = tuple(map(int, witnesses[flat[0]]))
        raise ValueError(f"smooth witness {coords} has proportional gradient")
    if not len(witnesses):
        raise ValueError("no off-line quartic witness found in the search box")
    return {
        "lines_in_singular_locus": 15,
        "gradient_identity": "symbolic",
        "off_line_witnesses": len(witnesses),
        "witnesses": tuple(tuple(map(int, row)) for row in witnesses),
    }


# ---------------------------------------------------------------------------
# The fifteen cubics and their five-dimensional span
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def fifteen_cubics() -> tuple:
    """The products of the three coordinate differences of a pair partition,
    with the sign convention: pairs sorted by least element (so the first
    factor involves the first coordinate), minuend the smaller index."""
    xs = [MultiPoly.variable(6, i) for i in range(6)]
    return tuple(math.prod(xs[i] - xs[j] for i, j in partition)
                 for partition in PAIR_PARTITIONS)


def _cubic_monomials(nvars: int) -> list:
    """The exponent vectors of the cubic monomials in nvars variables,
    sorted."""
    return sorted(tuple(c.count(i) for i in range(nvars))
                  for c in combinations_with_replacement(range(nvars), 3))


@lru_cache(maxsize=1)
def cubic_span() -> dict:
    """Exact linear algebra on the coefficient vectors of the fifteen
    cubics, by one `integer_echelon` of the 56 x 15 matrix whose columns
    they are: rank 5, the pivot columns as basis (each cubic independent of
    those before it), and every cubic's integral expansion in that basis,
    its coefficient on pivot column c being entry / pivot in pivot row p of
    the reduced matrix.  Certificate: the expansions times the basis vectors
    rebuild all fifteen coefficient vectors, exactly."""
    monomials = _cubic_monomials(6)
    if len(monomials) != 56:
        raise AssertionError("six-variable cubic monomial count must be 56")
    vectors = [tuple(c.terms.get(m, 0) for m in monomials)
               for c in fifteen_cubics()]
    reduced, pivots = integer_echelon(list(zip(*vectors)))
    rank = len(pivots)
    if rank != 5:
        raise ValueError(f"cubic span has rank {rank}, expected 5")
    basis_indices = tuple(col for _, col in pivots)
    expansions = []
    for j in range(len(vectors)):
        coeffs = []
        for p, col in pivots:
            coeff, rest = divmod(reduced[p][j], reduced[p][col])
            if rest:
                raise ValueError("a cubic has a non-integral expansion")
            coeffs.append(coeff)
        expansions.append(tuple(coeffs))
    basis = np.array([vectors[i] for i in basis_indices])
    if not np.array_equal(np.array(expansions) @ basis, np.array(vectors)):
        raise ValueError("the expansions do not rebuild the cubics")
    return {
        "rank": rank,
        "basis_indices": basis_indices,
        "expansions": tuple(expansions),
        "monomials": tuple(monomials),
        "vectors": tuple(vectors),
    }


@lru_cache(maxsize=1)
def base_points() -> tuple:
    """The six points with one coordinate -5 and the rest 1; all lie on the
    hyperplane and none lies on the quartic (exact)."""
    _, quartic = canonical_polys()
    points = tuple(tuple(-5 if j == i else 1 for j in range(6))
                   for i in range(6))
    if any(map(sum, points)):
        raise AssertionError("base points must lie on the hyperplane")
    if not quartic.evaluate_rows(points).all():
        raise AssertionError("base points must avoid the quartic")
    return points


@lru_cache(maxsize=1)
def base_lines() -> tuple:
    """The fifteen base lines of the cubic system: four coordinates equal,
    intersected with the hyperplane; parametrized by (common value a, one
    free coordinate b), each as (the four indices, six (coeff_a, coeff_b)
    pairs)."""
    lines = []
    for four in combinations(range(6), 4):
        rest = [i for i in range(6) if i not in four]
        coeffs = [(1, 0)] * 6
        coeffs[rest[0]] = (0, 1)
        coeffs[rest[1]] = (-4, -1)
        lines.append((four, tuple(coeffs)))
    return tuple(lines)


def cubic_base_locus_check() -> dict:
    """Every one of the fifteen cubics vanishes identically on every base
    line, at the four points of `LINE_PARAMETERS` on it, and vanishes with
    identically zero gradient at every base point: the cubics and their 90
    partial derivatives are evaluated at all these points in one call."""
    cubics = fifteen_cubics()
    lines = base_lines()
    on_lines = _line_points([coeffs for _, coeffs in lines], 3)
    points = base_points()
    polys = list(cubics) + [c.partial(i) for c in cubics for i in range(6)]
    values = evaluate_polys(polys, np.vstack([on_lines, points]))
    missed = np.flatnonzero(values[: len(on_lines), : len(cubics)]
                            .reshape(len(lines), -1).any(axis=1))
    if len(missed):
        raise ValueError(
            f"cubic does not vanish on base line {lines[missed[0]][0]}")
    missed = np.flatnonzero(values[len(on_lines):].any(axis=1))
    if len(missed):
        raise ValueError(
            f"a cubic or its gradient does not vanish at {points[missed[0]]}")
    return {"base_lines": 15, "base_points": 6, "vanishing_order": 2}


# ---------------------------------------------------------------------------
# Symmetric-group action with signs
# ---------------------------------------------------------------------------


def _apply_permutation(poly: MultiPoly, perm) -> MultiPoly:
    """Relabel variables: x_i -> x_perm[i], a bijection on the terms."""
    inverse = [perm.index(j) for j in range(poly.nvars)]
    return MultiPoly._from_terms(poly.nvars, {
        tuple(exps[i] for i in inverse): c for exps, c in poly.terms.items()})


def _partition_image(partition, perm):
    pairs = [tuple(sorted((perm[i], perm[j]))) for i, j in partition]
    return tuple(sorted(pairs))


@lru_cache(maxsize=1)
def s6_equivariance() -> dict:
    """The five adjacent transpositions act on the fifteen cubics as signed
    permutations; the permutation part agrees with the pair-partition
    action, the signs satisfy the symmetric-group relations, and the action
    is transitive."""
    cubics = fifteen_cubics()
    index_of = {partition: i for i, partition in enumerate(PAIR_PARTITIONS)}

    tables = {}
    for k in range(5):
        perm = list(range(6))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        table = []
        for i, cubic in enumerate(cubics):
            moved = _apply_permutation(cubic, perm)
            target = index_of[_partition_image(PAIR_PARTITIONS[i], perm)]
            if moved == cubics[target]:
                sign = 1
            elif moved == -cubics[target]:
                sign = -1
            else:
                raise ValueError(
                    f"permuted cubic {i} is not pm the partition image"
                )
            table.append((target, sign))
        tables[f"s{k + 1}"] = tuple(table)

    mats = {}
    for name, table in tables.items():
        mats[name] = np.zeros((15, 15), dtype=np.int64)
        mats[name][[t for t, _ in table], range(15)] = [s for _, s in table]
    identity = np.eye(15, dtype=np.int64)
    names = [f"s{k + 1}" for k in range(5)]
    for a in range(5):
        if not np.array_equal(mats[names[a]] @ mats[names[a]], identity):
            raise ValueError(f"{names[a]} squared is not the identity")
        for b in range(a + 1, 5):
            prod = mats[names[a]] @ mats[names[b]]
            power = np.linalg.matrix_power(prod, 3 if b == a + 1 else 2)
            if not np.array_equal(power, identity):
                raise ValueError(f"braid relation fails for {names[a]},{names[b]}")

    seen = {0}  # the orbit of cubic 0, grown until it is closed
    for _ in range(14):
        seen |= {t[i][0] for i in seen for t in tables.values()}
    if len(seen) != 15:
        raise ValueError("the action is not transitive on the cubics")
    return tables


# ---------------------------------------------------------------------------
# The image cubic relation
# ---------------------------------------------------------------------------


def _random_hyperplane_point(rng) -> list[int]:
    """A random rational point of the hyperplane sum x = 0 cleared of its
    denominators: five fractions n / q with n in [-9, 9] and q in [1, 4],
    drawn n then q, times d, the least common multiple of their reduced
    denominators, and minus their sum last.  A positive scaling multiplies
    the image under the cubics by the cube of the scale, so the image
    point is that of the rational point."""
    pairs = [(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
    d = math.lcm(*(q // math.gcd(n, q) for n, q in pairs))
    head = [n * d // q for n, q in pairs]
    return head + [-sum(head)]


def _image_values(points) -> np.ndarray:
    """Integer images of cleared hyperplane points under the five basis
    cubics, one row per point."""
    cubics = fifteen_cubics()
    return evaluate_polys([cubics[i] for i in cubic_span()["basis_indices"]],
                          points)


def image_cubic_relation(seed: int = 0) -> MultiPoly:
    """The unique (up to scale) cubic relation among the five basis cubics:
    evaluates the basis at 60 random rational hyperplane points with a
    nonzero image, each cleared to integers, and takes the kernel of the
    60 x 35 integer monomial matrix with `exact.kernel_vector`.  Its
    certificate makes the nullity exactly 1 over the rationals: nullity 1
    modulo a large prime bounds the rank below by 34, and the reconstructed
    kernel vector, checked exactly against every sample row, bounds it
    above.  The relation is validated on 50 fresh holdout samples and
    returned with primitive integer coefficients, its last nonzero
    coefficient positive."""
    rng = random.Random(seed)
    monomials = _cubic_monomials(5)
    if len(monomials) != 35:
        raise AssertionError("five-variable cubic monomial count must be 35")

    rows = []
    while len(rows) < _RELATION_SAMPLES:
        # as many draws as rows are missing; the draws with a zero image
        # are skipped, so the rows are those of drawing one at a time
        points = [_random_hyperplane_point(rng)
                  for _ in range(_RELATION_SAMPLES - len(rows))]
        for y in _image_values(points).tolist():
            if any(y):
                powers = [(1, v, v * v, v * v * v) for v in y]
                rows.append([math.prod(map(getitem, powers, exps))
                             for exps in monomials])
    try:
        ints = kernel_vector(rows)
    except ValueError as err:
        raise ValueError(f"cubic-relation {err}") from None
    relation = MultiPoly._from_terms(5, dict(zip(monomials, ints)))

    # holdout validation on fresh samples; the relation is homogeneous, so
    # it vanishes at the cleared image exactly when at the rational one
    points = [_random_hyperplane_point(rng) for _ in range(50)]
    missed = np.flatnonzero(relation.evaluate_rows(_image_values(points)))
    if len(missed):
        point = points[missed[0]]
        raise ValueError(f"holdout sample violates the relation: {point}")
    return relation


def image_relation_equivariance(relation: MultiPoly) -> dict:
    """The induced action of each adjacent transposition on the five basis
    coordinates preserves the relation up to sign."""
    span = cubic_span()
    tables = s6_equivariance()
    basis = span["basis_indices"]
    expansions = span["expansions"]
    outcomes = {}
    ys = [MultiPoly.variable(5, i) for i in range(5)]
    for name, table in tables.items():
        # basis cubic b maps to sign * cubic[target]; expand the target back
        subs = []
        for b in basis:
            target, sign = table[b]
            subs.append(sum((sign * c * y for c, y in
                             zip(expansions[target], ys)), MultiPoly.zero(5)))
        moved = relation.compose(subs)
        if moved == relation:
            outcomes[name] = 1
        elif moved == -relation:
            outcomes[name] = -1
        else:
            raise ValueError(f"relation is not sign-invariant under {name}")
    return outcomes


# ---------------------------------------------------------------------------
# Rational normal curves and the degree-16 count
# ---------------------------------------------------------------------------


def fibre_curve(point) -> tuple:
    """The fibre of the cubic map through a rational hyperplane point x
    (cleared of denominators on entry): with P_i(s) = prod_{j != i}
    (x_j - s) and D(s) = prod_j (x_j - s), the degree-4 curve R(s)_i =
    6 P_i(s) - sum_k P_k(s) (the s^5 terms cancel).  It passes through
    base point k at s = x_k and through x at s = infinity, and every pair
    difference is R_a - R_b = 6 D (x_b - x_a) / ((x_a - s)(x_b - s)), so
    each of the fifteen cubics is -216 D(s)^2 times its value at x along
    the curve: Kapranov's rational normal curve through the six base
    points, the Howard-Millson-Snowden-Vakil coordinates of the Segre
    cubic.

    Returned as its five integer rows in the chart t = 1/s, in ascending
    powers of t: at t = p / r the i-th chart coordinate is sum_k row_i[k]
    p^k r^(4-k) up to the factor r^4, and the sixth is minus their sum.
    With x cleared, x sits at t = 0, where the rows are -6x, and base point
    k at t = 1 / x_k.  ValueError if two coordinates x_a = x_b agree: then
    x and the four base points other than a and b span only a 3-space, so
    no degree-4 rational normal curve passes through the seven points."""
    x, _ = clear_denominators(point)
    if len(x) != 6 or sum(x):
        raise ValueError("the point must lie on the hyperplane")
    if len(set(x)) < 6:
        raise ValueError(f"repeated coordinate in {tuple(x)}")
    products = []  # P_i, ascending powers of s
    for i in range(6):
        poly = [1]
        for j in range(6):
            if j != i:
                poly = _conv(poly, [x[j], -1])
        products.append(poly)
    total = [sum(col) for col in zip(*products)]
    rows = [[6 * a - b for a, b in zip(poly, total)] for poly in products]
    return tuple(tuple(row[4::-1]) for row in rows[:5])


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def exact_quartic_composition(curve) -> tuple:
    """The quartic evaluated along the six ambient coordinate polynomials
    of a curve given by its five integer rows (ascending powers), as 17
    integers (ascending powers): the products over the rows, divided by
    their positive content."""
    rows = [list(r) for r in curve]
    rows.append([-sum(col) for col in zip(*rows)])
    s2 = [0] * 9
    s4 = [0] * 17
    for row in rows:
        sq = _conv(row, row)
        for i, v in enumerate(sq):
            s2[i] += v
        f4 = _conv(sq, sq)
        for i, v in enumerate(f4):
            s4[i] += v
    poly = [a - 4 * b for a, b in zip(_conv(s2, s2), s4)]
    return tuple(_primitive(poly))


def _poly_degree(p) -> int:
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _coprime_to_derivative_mod(a, p: int) -> bool:
    """gcd(a, a') = 1 over F_p, by the Euclidean algorithm, for integer
    coefficients a (ascending) whose leading coefficient p does not divide."""
    f = [c % p for c in a]
    g = [i * c % p for i, c in enumerate(f)][1:]
    while any(g):
        while not g[-1]:
            g.pop()
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):  # f := f mod g
            q = f.pop() * inv % p
            shift = len(f) + 1 - len(g)
            for i, y in enumerate(g[:-1]):
                f[shift + i] = (f[shift + i] - q * y) % p
        f, g = g, f
    return len(f) == 1


def _prs_is_squarefree(a) -> bool:
    """gcd(a, a') is constant, for a primitive integer polynomial a
    (ascending, degree >= 1): a primitive polynomial remainder sequence
    over the integers, pseudo-remainders each divided by its content until
    the remainder vanishes."""
    b = _primitive([i * a[i] for i in range(1, len(a))])
    while b:
        # a := prem(a, b), scaled by nonzero integers only
        lead = b[-1]
        while len(a) >= len(b):
            g = math.gcd(a[-1], lead)
            fa, fb = lead // g, a[-1] // g
            shift = len(a) - len(b)
            a = [fa * x for x in a[:shift]] + [
                fa * x - fb * y for x, y in zip(a[shift:], b)
            ]
            a = a[: _poly_degree(a) + 1]
        a, b = b, _primitive(a)
    return len(a) == 1


def poly_is_squarefree(poly) -> bool:
    """Exact squarefree test over the rationals (coefficients ascending):
    gcd with the derivative is constant, i.e. all complex roots distinct.

    Certificate: if p = KERNEL_PRIME does not divide the leading
    coefficient and gcd(f, f') = 1 over F_p, f is squarefree over Q, since
    f = G^2 H over Z would reduce with deg G unchanged.  Otherwise a
    primitive polynomial remainder sequence over Z decides."""
    a, _ = clear_denominators(poly)
    a = _primitive(a[: _poly_degree(a) + 1])
    if len(a) <= 1:
        return len(a) == 1
    if a[-1] % KERNEL_PRIME and _coprime_to_derivative_mod(a, KERNEL_PRIME):
        return True
    return _prs_is_squarefree(a)


def _float_composition_residual(curve, form) -> float:
    """Worst coefficient gap between the exact form and a float
    composition built from the curve's float rows by numpy convolutions,
    not from the form, each scaled to largest coefficient 1.  A form wrong
    in one coefficient misses by about that coefficient's relative size."""
    coeffs = np.array(curve, dtype=float)
    rows = np.vstack([coeffs, -coeffs.sum(axis=0)])
    squares = [np.convolve(row, row) for row in rows]
    s2 = sum(squares)
    floats = np.convolve(s2, s2) - 4 * sum(np.convolve(q, q) for q in squares)
    exact = np.array(form, dtype=float)
    return float(np.max(np.abs(floats / np.max(np.abs(floats))
                               - exact / np.max(np.abs(exact)))))


def _root_separations(forms) -> np.ndarray:
    """The least distance between two float roots of each integer form
    (ascending, scaled to largest coefficient 1): the roots of `np.roots`
    (for f(0) != 0), from companion matrices stacked by degree, one
    `np.linalg.eigvals` call per stack, then three Newton steps wherever
    |f'| > 1e-14; entry by entry the float operations of one form alone."""
    groups = {}  # stacks of at most 64 forms of one degree bound the memory
    for k, form in enumerate(forms):
        groups.setdefault((_poly_degree(form), k // 64), []).append(k)
    separations = np.empty(len(forms))
    for (degree, _), members in groups.items():
        top = [max(map(abs, forms[k])) for k in members]
        coeffs = np.array([[c / m for c in forms[k][degree::-1]]
                           for k, m in zip(members, top)]).T  # descending
        companion = np.zeros((len(members), degree, degree))
        companion[:, 0] = (-coeffs[1:] / coeffs[:1]).T
        companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1
        roots = np.linalg.eigvals(companion)
        derivative = coeffs[:-1] * np.arange(degree, 0, -1)[:, None]
        for _ in range(3):  # np.polyval's Horner loop runs down the stack
            vals, dvals = (np.polyval(c[:, :, None], roots)
                           for c in (coeffs, derivative))
            ok = np.abs(dvals) > 1e-14
            roots[ok] = roots[ok] - vals[ok] / dvals[ok]
        i, j = np.triu_indices(degree, 1)
        separations[members] = np.abs(roots[:, i] - roots[:, j]).min(axis=1)
    return separations


def quartic_point_composition_check() -> dict:
    """Consistency witness: along the fibre curve through a rational point
    ON the quartic, the composed degree-16 polynomial has a root at that
    point's parameter t = 0.  The vanishing is certified
    exactly (zero constant term, nonzero degree-16 term) and confirmed by
    the independent float composition of `_float_composition_residual`,
    which must agree with the exact form to _RESIDUAL_TOL of its largest
    coefficient.

    The witness (-8, -7, 0, 3, 5, 7) is a double root of its composition
    (the t and constant terms both vanish): the fibre curve is tangent to
    the quartic there, as at every quartic point with distinct coordinates
    whose first five lie in [-6, 6].  A transversal meeting, a simple root
    at t = 0, needs larger coordinates, such as (-11, -10, -6, 1, 11, 15)."""
    on_quartic = (-8, -7, 0, 3, 5, 7)
    _, quartic = canonical_polys()
    if quartic.evaluate_rows([on_quartic])[0] != 0:
        raise AssertionError("the witness must lie on the quartic")
    curve = fibre_curve(on_quartic)
    poly = exact_quartic_composition(curve)
    if poly[0] != 0:
        raise ValueError("exact composition does not vanish at the witness")
    if poly[16] == 0:
        raise ValueError("exact composition drops below degree 16")
    residual = _float_composition_residual(curve, poly)
    if residual > _RESIDUAL_TOL:
        raise ValueError(
            f"float composition misses the exact form by {residual}"
        )
    return {
        "constant_term_exact_zero": True,
        "leading_term_nonzero": True,
        "witness_residual": residual,
        "bound": _RESIDUAL_TOL,
    }


def degree16_check(trials: int = 20, seed: int = 0) -> dict:
    """Monte Carlo certification that composing the quartic with rational
    normal curves through the six base points and a random rational seventh
    point yields a degree-16 binary form with 16 distinct roots on P^1.

    The curve through the seventh point x is its `fibre_curve`, the fibre
    of the cubic map through x.  Candidate draws on the quartic or with two
    equal coordinates (no curve passes through the seven points) are
    redrawn, up to 8 per trial; `rejected_draws` counts them by cause.

    Each trial composes once, to the integers f of
    `exact_quartic_composition`, and certifies the binary form F(p, r) =
    r^16 f(p / r) exactly: a root at t = infinity has multiplicity
    16 - deg f, so F has 16 distinct roots exactly when deg f >= 15 and f
    is squarefree.  Floats serve as two oracles that can fail: the
    independent float composition of the curve's rows must match f to
    _RESIDUAL_TOL (`_float_composition_residual`), and the finite float
    roots of f, polished by Newton steps, must be separated by more than
    _SEPARATION_TOL, for all certified forms at once after the last trial.
    Draws come in blocks of as many as trials remain, each tested on the
    quartic in one evaluation.  A trial that fails a criterion is
    discarded; `discarded` records each with its cause, in trial order."""
    if trials < 1:
        raise ValueError("at least one trial required")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials")
    _, quartic = canonical_polys()
    rng = random.Random(seed)
    drawn = []  # (point, on the quartic) for unused draws, last draw first
    certified = []  # (trial, form) that passed the exact certificate
    discarded = []
    rejected = {"on_quartic": 0, "repeated_coordinate": 0}
    worst_residual = 0.0
    for trial in range(trials):
        curve = None
        for _ in range(8):
            if not drawn:
                block = [_random_hyperplane_point(rng)
                         for _ in range(trials - trial)]
                drawn = list(zip(block, quartic.evaluate_rows(block) == 0))
                drawn.reverse()
            ints, on_quartic = drawn.pop()
            if on_quartic:
                rejected["on_quartic"] += 1
                continue
            if len(set(ints)) < 6:
                rejected["repeated_coordinate"] += 1
                continue
            curve = fibre_curve(ints)
            break
        if curve is None:
            discarded.append((trial, "no_generic_point"))
            continue
        form = exact_quartic_composition(curve)
        residual = _float_composition_residual(curve, form)
        worst_residual = max(worst_residual, residual)
        if residual > _RESIDUAL_TOL:
            discarded.append((trial, "composition_residual"))
            continue
        if _poly_degree(form) < 15 or not poly_is_squarefree(form):
            discarded.append((trial, "repeated_roots_exact"))
            continue
        certified.append((trial, form))
    separations = _root_separations([form for _, form in certified])
    clustered = [trial for (trial, _), sep in zip(certified, separations)
                 if sep <= _SEPARATION_TOL]
    discarded = sorted(discarded + [(t, "root_clustering") for t in clustered])
    successes = len(certified) - len(clustered)
    report = {
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "discarded": tuple(discarded),
        "rejected_draws": rejected,
        "residual_tol": _RESIDUAL_TOL,
        "separation_tol": _SEPARATION_TOL,
        "worst_composition_residual": worst_residual,
    }
    if successes == 0:
        raise ValueError(f"degree-16 verification failed in every trial: {report}")
    return report
