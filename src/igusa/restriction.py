"""The signature-(2,3) sublattice, its discriminant combinatorics, and the
hyperplane-restriction case analysis.

The rank-5 lattice sits primitively inside the rank-6 ambient lattice as the
orthogonal complement of the sum of the two root generators.  Restricting
hyperplane divisors from the ambient period domain to the smaller one splits
into finitely many cases indexed by the vector norm; this module enumerates
lattice vectors in coordinate boxes and certifies the case table, and builds
the boundary-component combinatorics on the smaller discriminant group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np

from .fqm import (
    TYPE_ORDER_RESTRICTION,
    element_types,
    isotropic_planes,
    isotropic_vectors,
    radical_class,
    type_census_mod_negation,
)
from .lattices import (
    ambient_lattice,
    determinant,
    discriminant_module,
    restriction_lattice,
    smith_normal_form,
)
from .weil import ambient_module

__all__ = [
    "MAX_BOX",
    "restriction_module",
    "EmbeddedSublattice",
    "build_embedding",
    "am_census",
    "boundary_configuration",
    "RestrictionCase",
    "restriction_case",
    "heegner_restriction_cases",
    "v_to_v1",
    "all_v1_images",
    "seven_lines",
]

# Largest box half-width of the Heegner case table.  The relevant vectors
# of the three norm level sets grow like bound^4; `igusa restriction --box
# 10` takes 0.26-0.28 s and peaks at 36.3 MB RSS via the CLI on a 2-vCPU
# Xeon, 5.5 MB above `--box 3`.
MAX_BOX = 10


@lru_cache(maxsize=1)
def restriction_module():
    """Discriminant group of the rank-5 lattice, with attached lattice."""
    return discriminant_module(restriction_lattice())


# ---------------------------------------------------------------------------
# The embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedSublattice:
    """The rank-5 member lattice inside the rank-6 ambient lattice, with the
    certified integer split of every ambient vector.

    member_basis holds integer ambient coordinates of the five basis vectors
    (the two hyperbolic pairs and the difference of the root generators);
    complement_generator c is the sum of the root generators.  An integer
    ambient vector r splits as r = r1 + (m/2) * c with r1 orthogonal to c:
    m = r @ multiple, and r @ projection are the member coordinates of
    2 * r1.  Both are read-only int64 arrays, of shapes (6,) and (6, 5)."""

    ambient: object
    member_basis: tuple
    complement_generator: tuple
    projection: np.ndarray
    multiple: np.ndarray


def _certify_split(gram, basis, complement, projection, multiple) -> None:
    """Raise unless the integer arrays split every ambient vector r as
    r = r1 + (m/2) * c with r1 orthogonal to c, m = r @ multiple and
    r @ projection the member coordinates of 2 * r1.  Two identities prove
    it for all r at once: c^2 * multiple = 2 * G @ c gives m * c^2 = 2 <r, c>,
    so <r1, c> = 0; projection @ basis + outer(multiple, c) = 2 * I gives
    (r @ projection) @ basis = 2r - m * c = 2 * r1."""
    gram, basis, c = (np.array(a, dtype=np.int64) for a in (gram, basis, complement))
    if not np.array_equal((c @ gram @ c) * multiple, 2 * gram @ c):
        raise ValueError("multiple is not 2 <r, c> / c^2")
    two = 2 * np.eye(len(gram), dtype=np.int64)
    if not np.array_equal(projection @ basis + np.outer(multiple, c), two):
        raise ValueError("projection and multiple do not split 2r")


@lru_cache(maxsize=1)
def build_embedding() -> EmbeddedSublattice:
    """Construct and fully verify the primitive embedding: the member Gram
    matrix matches the abstract rank-5 lattice, the basis is primitive in
    the ambient lattice (all Smith elementary divisors 1), the complement
    generator has norm -4, the index bookkeeping gives index 2, and the
    member discriminant group has orders (2,2,2,2,4).

    The split arrays are built here once: multiple = 2 * G @ c / c^2, and
    projection = (2 * I - outer(multiple, c)) times a right inverse of the
    basis read off its Smith form.  `_certify_split` proves the split for
    every ambient vector, and with it that c is orthogonal to the member."""
    N = ambient_lattice()
    M = restriction_lattice()

    def integral(**coeffs):
        return tuple(int(x) for x in N.vector(**coeffs))

    basis = (
        integral(e1=1),
        integral(f1=1),
        integral(e2=1),
        integral(f2=1),
        integral(a1=1, a2=-1),
    )
    complement = integral(a1=1, a2=1)

    gram = [[int(N.ip(u, v)) for v in basis] for u in basis]
    if gram != [list(row) for row in M.gram]:
        raise ValueError("member basis Gram matrix mismatch")
    if gram[4][4] != -4:
        raise ValueError("difference of root generators must have norm -4")
    if N.norm(complement) != -4:
        raise ValueError("complement generator must have norm -4")

    u, d, v = smith_normal_form(basis)
    divisors = [d[i][i] for i in range(len(basis))]
    if divisors != [1] * len(basis):
        raise ValueError(f"member basis is not primitive: divisors {divisors}")

    # index bookkeeping: |det member| * |complement norm| = index^2 * |det ambient|
    lhs = abs(determinant(M)) * 4
    rhs = abs(determinant(N))
    if lhs != 4 * rhs or lhs != 256:
        raise ValueError("determinant bookkeeping fails: index is not 2")

    A = restriction_module()
    if A.orders != (2, 2, 2, 2, 4):
        raise ValueError(f"member discriminant group has orders {A.orders}")

    G = np.array(N.gram, dtype=np.int64)
    c = np.array(complement, dtype=np.int64)
    multiple = 2 * G @ c // (c @ G @ c)
    # U @ basis @ V = (I | 0), so basis @ V[:, :5] @ U = I
    inverse = np.array(v, dtype=np.int64)[:, : len(basis)] @ np.array(u, dtype=np.int64)
    projection = (2 * np.eye(N.rank, dtype=np.int64) - np.outer(multiple, c)) @ inverse
    _certify_split(N.gram, basis, complement, projection, multiple)
    projection.flags.writeable = multiple.flags.writeable = False
    return EmbeddedSublattice(N, basis, complement, projection, multiple)


# ---------------------------------------------------------------------------
# Census of the member discriminant group modulo negation
# ---------------------------------------------------------------------------

_AM_EXPECTED = dict(zip(TYPE_ORDER_RESTRICTION, (1, 15, 15, 1, 6, 10)))


def am_census() -> dict:
    """Classify the 48 negation classes of the member discriminant group by
    type and verify the counts (1, 15, 15, 1, 6, 10), that the quarter-value
    types consist of order-4 elements on which negation acts as translation
    by the radical class, and that negation fixes all 2-torsion."""
    A = restriction_module()
    counts = type_census_mod_negation(A)
    if counts != _AM_EXPECTED:
        raise ValueError(f"census mismatch: {counts}")
    if sum(counts.values()) != 48:
        raise ValueError("negation-class total must be 48")
    labels = element_types(A)
    kappa = radical_class(A)
    for x in A.elements():
        quarter = labels[x] in ("3/4", "7/4")
        if quarter != (A.order_of(x) == 4):
            raise ValueError(f"order/type mismatch at element {x}")
        if quarter:
            if A.neg(x) != A.add(x, kappa):
                raise ValueError(f"negation is not radical translation at {x}")
        elif A.neg(x) != x:
            raise ValueError(f"negation moves the 2-torsion element {x}")
    if A.neg(kappa) != kappa:
        raise ValueError("radical class must be negation-fixed")
    return counts


# ---------------------------------------------------------------------------
# Boundary combinatorics
# ---------------------------------------------------------------------------


def boundary_configuration() -> dict:
    """Isotropic points and lines of the member discriminant group: 15
    nonzero isotropic classes, 15 order-4 totally isotropic subgroups, a
    3-regular incidence both ways, and 7 isotropic classes (self included)
    pairing integrally with any given one."""
    A = restriction_module()
    points = isotropic_vectors(A)
    lines = isotropic_planes(A)
    if len(points) != 15:
        raise ValueError(f"expected 15 isotropic classes, found {len(points)}")
    if len(lines) != 15:
        raise ValueError(f"expected 15 isotropic lines, found {len(lines)}")

    point_set = set(points)
    for line in lines:
        if len(line) != 3 or not set(line) <= point_set:
            raise ValueError(f"line {line} is not three isotropic classes")
    lines_through = {p: sum(1 for line in lines if p in line) for p in points}
    if set(lines_through.values()) != {3}:
        raise ValueError("incidence is not 3-regular on points")

    perp_counts = {}
    for p in points:
        perp = [x for x in points if A.b4[p, x] == 0]
        if p not in perp:
            raise ValueError("a class must pair integrally with itself")
        perp_counts[p] = len(perp)
    if set(perp_counts.values()) != {7}:
        raise ValueError(f"perpendicularity counts {set(perp_counts.values())}")

    return {
        "points": len(points),
        "lines": len(lines),
        "lines_through_each_point": 3,
        "points_on_each_line": 3,
        "perpendicular_isotropic_count": 7,
    }


# ---------------------------------------------------------------------------
# Restriction case analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictionCase:
    """One ambient vector r split as r1 + (m/2) * complement."""

    r: tuple
    r1: tuple  # ambient coordinates, rational
    m: int
    r_norm: Fraction
    r1_norm: Fraction
    ambient_class: int  # class of r/2 in the ambient discriminant group
    beta_class: int  # class of r1/2 in the member discriminant group
    ambient_type: str
    beta_type: str


def restriction_case(r) -> RestrictionCase:
    """Split one integral ambient vector by the certified arrays of
    `build_embedding` and classify both halves: the class of r/2 in the
    ambient discriminant group and the class of r1/2 in the member
    discriminant group, each by `class_of_vector`."""
    emb = build_embedding()
    N = emb.ambient
    AN = ambient_module()
    AM = restriction_module()
    if len(r) != N.rank:
        raise ValueError("coordinate length mismatch")
    if any(Fraction(c).denominator != 1 for c in r):
        raise ValueError("r must be an integral ambient vector")
    r = tuple(int(c) for c in r)
    vec = np.array(r, dtype=np.int64)
    m = int(vec @ emb.multiple)
    two_r1 = vec @ emb.projection  # member coordinates of 2 * r1
    r1 = tuple(Fraction(2 * x - m * c, 2) for x, c in zip(r, emb.complement_generator))
    r_norm = N.norm(r)
    r1_norm = N.norm(r1)
    if r_norm != r1_norm - m * m:
        raise AssertionError("norm bookkeeping r^2 = r1^2 - m^2 fails")
    ambient_class = AN.class_of_vector(tuple(Fraction(x, 2) for x in r))
    beta_class = AM.class_of_vector(tuple(Fraction(int(y), 4) for y in two_r1))
    return RestrictionCase(
        r=r,
        r1=r1,
        m=m,
        r_norm=r_norm,
        r1_norm=r1_norm,
        ambient_class=ambient_class,
        beta_class=beta_class,
        ambient_type=element_types(AN)[ambient_class],
        beta_type=element_types(AM)[beta_class],
    )


def _require_fit(largest: int, dtype, what: str) -> None:
    """The certificate of a compact integer array: raise ValueError, before
    the array is allocated, unless dtype holds every integer of absolute
    value at most largest."""
    limit = int(np.iinfo(dtype).max)
    if largest > limit:
        raise ValueError(
            f"{what} reaches {largest}, past the {np.dtype(dtype).name} limit {limit}"
        )


# Rows per block of the int64 products: every product of a row with a form
# is taken on one block at a time, and only its compact result is kept.
_CHUNK = 4096


def _chunks(n: int):
    """Consecutive slices of at most _CHUNK rows covering range(n)."""
    return (slice(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK))


def _relevant_level_sets(bound: int, targets) -> dict:
    """For each target norm n: the integer vectors r with max-norm <= bound,
    r^2 = n and a member component of negative norm (r1^2 = n + m^2 < 0), as a
    (k, 6) int8 array in lexicographic order, their int8 max-norms, and the
    number of all vectors of norm n, relevant or not, in each box 0..bound.

    A vector is three coordinate pairs: the head (x1, x2) and the tail
    (x3, x4), (x5, x6).  The norm splits as r^2 = 4*x1*x2 + t with
    t = 4*x3*x4 - 2*(x5^2 + x6^2), and relevance reads only (x5, x6): the
    certified multiple of `build_embedding` vanishes on the first four.  Each
    t and each n - 4*x1*x2 lies within reach = 8*bound^2 + max |n| of 0, so
    tails are binned by t + reach.  The relevant tails are sorted by t
    (stably, so equal tails stay in lexicographic order) and each head takes
    the bin of t = n - 4*x1*x2: only relevant vectors are materialised.  The
    counts come from a histogram of all tails by (t, tail max-norm), built a
    block of _CHUNK tails at a time.  Tail indices and norms are int32; each
    dtype is certified against the bound before the box is built."""
    _require_fit(bound, np.int8, "coordinate bound")
    _require_fit((2 * bound + 1) ** 4 - 1, np.int32, "tail index")
    reach = 8 * bound**2 + max(abs(n) for n in targets)
    bins = 2 * reach + 1
    _require_fit(bins * (bound + 1) - 1, np.int32, "norm bin")
    multiple = build_embedding().multiple
    if multiple[:4].any():
        raise AssertionError("m must read only the last coordinate pair")
    rng = np.arange(-bound, bound + 1, dtype=np.int8)
    pairs = np.stack(np.meshgrid(rng, rng, indexing="ij"), -1).reshape(-1, 2)
    size = len(pairs)
    x, y = pairs.T.astype(np.int32)
    pair_width = np.maximum(abs(x), abs(y)).astype(np.int8)
    four_x1x2 = 4 * x * y
    # tail index i * size + j for the pairs i = (x3, x4) and j = (x5, x6)
    t = (four_x1x2[:, None] - 2 * (x * x + y * y)).ravel()
    tail_width = np.maximum.outer(pair_width, pair_width).ravel()
    # within[b, w]: the tails in bin b of max-norm <= w
    within = np.zeros(bins * (bound + 1), dtype=np.int64)
    for part in _chunks(len(t)):
        within += np.bincount((t[part] + reach) * (bound + 1) + tail_width[part],
                              minlength=len(within))
    within = within.reshape(bins, bound + 1).cumsum(axis=1)
    m_squared = (pairs @ multiple[4:]) ** 2
    starts = np.arange(0, size * size, size, dtype=np.int32)
    pair_index = np.arange(size, dtype=np.int32)
    sets = {}
    for target in targets:
        need = target - four_x1x2 + reach  # the bin each head takes
        totals = [int(within[need[pair_width <= box], box].sum())
                  for box in range(bound + 1)]
        relevant = (
            starts[:, None] + np.flatnonzero(m_squared < -target).astype(np.int32)
        ).ravel()
        order = relevant[np.argsort(t[relevant], kind="stable")]
        filled = np.bincount(t[relevant] + reach, minlength=bins)
        lo = (np.cumsum(filled) - filled)[need]
        counts = filled[need]
        # row p = (solutions before head i) + j, solution j of head i, is
        # the relevant tail order[lo[i] + j]
        shift = np.repeat((lo - (np.cumsum(counts) - counts)).astype(np.int32), counts)
        picks = order[shift + np.arange(len(shift), dtype=np.int32)]
        heads = np.repeat(pair_index, counts)
        tail_i, tail_j = np.divmod(picks, size)
        rows = np.concatenate([pairs[heads], pairs[tail_i], pairs[tail_j]], axis=1)
        width = np.maximum(pair_width[heads], tail_width[picks])
        sets[target] = rows, width, totals
    return sets


def _vectorized_classes(module, K: np.ndarray) -> np.ndarray:
    """Class indices from integer dual-pairing vectors K (rows of G @ x).
    Every generator order is a power of 2, so a digit is reduced modulo it
    by masking its low bits (two's complement makes that right for negative
    digits too)."""
    orders = np.array(module.orders)
    if (orders & (orders - 1)).any():
        raise ValueError(f"generator orders {module.orders} are not all powers of 2")
    push = np.array(module._push_mat, dtype=np.int64)[module._kept]
    digits = K @ push.T  # one block of _split_classes: (_CHUNK, n) int64
    digits &= orders - 1
    return digits @ module._radix


def _raise_first(rows: np.ndarray, failures, **fields) -> None:
    """Raise ValueError naming the first row that fails any check.

    failures lists (mask, message) pairs; among the checks failing on that
    row the first listed names it.  message may use {name} for the value
    fields[name](i) of the failing row i, so a label is looked up only for
    the one row that names it."""
    flagged = [
        (int(np.flatnonzero(bad)[0]), k)
        for k, (bad, _) in enumerate(failures)
        if bad.any()
    ]
    if flagged:
        i, k = min(flagged)
        message = failures[k][1].format(**{n: f(i) for n, f in fields.items()})
        raise ValueError(f"{message}: r = {tuple(int(v) for v in rows[i])}")


def _pairing_form(form, d: int, message: str) -> np.ndarray:
    """The integer form / d, whose product with an integer row r is the
    dual-pairing vector (r @ form) / d.  d divides every entry of both forms
    used here, so no integer row lies outside the dual; a form that d does
    not divide raises with message."""
    form = np.array(form, dtype=np.int64)
    if (form % d).any():
        raise ValueError(message)
    return form // d


def _split_classes(rows: np.ndarray):
    """For integer ambient vectors r with r/2 in the ambient dual, split by
    the certified arrays of `build_embedding` as r = r1 + (m/2) * complement:
    m (int16), the ambient class of r/2 and the member class of r1/2 (int8
    class indices).  The products are int64 on blocks of _CHUNK rows."""
    emb = build_embedding()
    ambient, member = ambient_module(), restriction_module()
    reach = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    _require_fit(reach * int(np.abs(emb.multiple).sum()), np.int16, "m")
    _require_fit(max(ambient.size, member.size) - 1, np.int8, "class index")
    to_ambient = _pairing_form(emb.ambient.gram, 2, "r/2 outside the ambient dual")
    to_member = _pairing_form(emb.projection @ restriction_lattice().gram, 4,
                              "member component outside the member dual")
    m = np.empty(len(rows), dtype=np.int16)
    cn = np.empty(len(rows), dtype=np.int8)
    cm = np.empty(len(rows), dtype=np.int8)
    for part in _chunks(len(rows)):
        block = rows[part].astype(np.int64)
        m[part] = block @ emb.multiple
        cn[part] = _vectorized_classes(ambient, block @ to_ambient)
        cm[part] = _vectorized_classes(member, block @ to_member)
    return m, cn, cm


def _pairing_groups(rows: np.ndarray, bound: int) -> np.ndarray:
    """The int32 group of each row of max-norm <= bound: two rows share a
    group exactly when their member components 2 * r1 = r @ projection
    agree.  The components are shifted by their reach in the box and read
    as int32 mixed-radix keys, one block of _CHUNK rows at a time; a group
    index is below the number of keys, so the key certificate covers it."""
    projection = build_embedding().projection
    span = bound * np.abs(projection).sum(axis=0)
    dims = tuple(int(v) for v in 2 * span + 1)
    _require_fit(prod(dims) - 1, np.int32, "pairing key")
    keys = np.empty(len(rows), dtype=np.int32)
    for part in _chunks(len(rows)):
        keys[part] = np.ravel_multi_index(
            tuple((rows[part] @ projection + span).T), dims
        )
    # return_index makes np.unique sort stably, with the int32 argsort that
    # the enumeration runs rather than a second int32 sort kernel
    return np.unique(keys, return_index=True, return_inverse=True)[2].astype(np.int32)


def _labels_present(classes: np.ndarray, labels) -> tuple:
    """The sorted distinct labels of the class indices in classes."""
    seen = np.zeros(len(labels), dtype=bool)
    seen[classes] = True
    return tuple(sorted({labels[c] for c in np.flatnonzero(seen)}))


_CASE_NORMS = (-4, -2, -6)


def heegner_restriction_cases(bound: int = 3) -> dict:
    """Enumerate all ambient lattice vectors r in the coordinate box of
    half-width `bound` with r^2 in {-4, -2, -6} (r/2 automatically lies in
    the ambient dual) and verify the restriction case table on the vectors
    whose member component has negative norm:

      r^2 = -4  =>  m = 0,  r1^2 = -4, member class of type (1)
                    (type (10) exactly when the ambient class is the
                    characteristic class)
      r^2 = -2  =>  m = +-1, r1^2 = -1, member class of type (7/4)
      r^2 = -6  =>  m = +-1, r1^2 = -5, member class of type (3/4)

    and that for the odd-m cases the vectors pair off (same member
    component, m = +1 and m = -1), giving each hyperplane multiplicity 2.
    The three norm level sets of the box are counted once, without
    visiting the rest of the box, and only their relevant vectors are built
    and classified; the table of every half-width 3..bound ("by_box";
    "cases" is the top one) is read off and verified by a max-norm mask.
    Each level keeps its rows as int8, m as int16 and the classes as int8
    indices; a type label is looked up only to name a witness.  Any
    violation raises with the witness vector."""
    if bound < 3:
        raise ValueError("bound must be at least 3")
    if bound > MAX_BOX:
        raise ValueError(f"bound must be at most {MAX_BOX}")
    projection = build_embedding().projection
    AN = ambient_module()
    AM = restriction_module()
    an_types = element_types(AN)
    am_labels = element_types(AM)
    kappa_n = radical_class(AN)

    def of_type(*types):
        """Whether each member class has one of the types, by class index."""
        return np.array([label in types for label in am_labels])

    levels = []
    level_sets = _relevant_level_sets(bound, _CASE_NORMS)
    for target, (rows, width, totals) in level_sets.items():
        m, cn, cm = _split_classes(rows)
        groups = None
        if target == -4:
            failures = [
                (m != 0, "norm -4 case with m != 0"),
                (
                    (cn == kappa_n) != of_type("10")[cm],
                    "characteristic-class bookkeeping fails",
                ),
                (~of_type("1", "10")[cm], "norm -4 member class of type {b}"),
            ]
        else:
            expected = "7/4" if target == -2 else "3/4"
            failures = [
                (np.abs(m) != 1, f"norm {target} case with m = {{m}}"),
                (~of_type(expected)[cm], f"norm {target} member class of type {{b}}"),
            ]
            groups = _pairing_groups(rows, bound)
        levels.append((target, totals, rows, width, m, cn, cm, failures, groups))

    by_box = {}
    spot_checked = set()
    for box in range(3, bound + 1):
        cases = by_box[box] = {}
        witnesses = []
        for target, totals, rows, width, m, cn, cm, failures, groups in levels:
            inside = width <= box  # a mask keeps lexicographic order
            _raise_first(rows, [(f & inside, t) for f, t in failures],
                         m=m.__getitem__, b=lambda i: am_labels[cm[i]])
            m_in = m[inside]
            paired = None
            if groups is not None:
                # every odd-m hyperplane is hit by exactly the pair m = +1, m = -1
                g_in = groups[inside]
                counts = np.bincount(g_in)
                m_sums = np.bincount(g_in, weights=m_in)
                unpaired = ((counts != 2) | (m_sums != 0))[g_in]
                if unpaired.any():
                    i = int(np.flatnonzero(unpaired)[0])
                    two_r1 = rows[np.flatnonzero(inside)[i]] @ projection
                    raise ValueError(
                        f"multiplicity pairing fails for member component "
                        f"2 * r1 = {tuple(int(v) for v in two_r1)}: m values "
                        f"{sorted(int(v) for v in m_in[g_in == g_in[i]])}"
                    )
                paired = int(np.count_nonzero(counts))
            # exact spot check witnesses: the first, middle and last relevant
            # vector of this norm in the box, in lexicographic order
            kept = np.flatnonzero(inside)
            witnesses += [
                (tuple(int(v) for v in rows[i]), int(m[i]), an_types[cn[i]],
                 am_labels[cm[i]])
                for i in kept[[0, len(kept) // 2, -1]]
            ]
            # value sets without np.unique, whose first plain call loads numpy.ma
            m_values = tuple(sorted(set(m_in.tolist())))
            cases[target] = {
                "vectors_in_box": totals[box],
                "relevant": len(kept),
                "m_values": m_values,
                "r1_norms": tuple(sorted({target + v * v for v in m_values})),
                "ambient_types": _labels_present(cn[inside], an_types),
                "beta_types": _labels_present(cm[inside], am_labels),
                "hyperplane_multiplicity": 1 if target == -4 else 2,
                "paired_hyperplanes": paired,
            }

        # exact-arithmetic spot check of the vectorized classification, by
        # norm (-4, -2, -6); a witness of a smaller box has passed already
        for witness, *classified in witnesses:
            if witness in spot_checked:
                continue
            case = restriction_case(witness)
            if [case.m, case.ambient_type, case.beta_type] != classified:
                raise AssertionError(
                    f"vectorized classification disagrees with the exact path "
                    f"at r = {witness}"
                )
            spot_checked.add(witness)
    return {"bound": bound, "cases": by_box[bound], "by_box": by_box}


# ---------------------------------------------------------------------------
# Boundary correspondence between the two discriminant groups
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _norm_minus4_projection() -> dict:
    """For each weight-one ambient class, the member class obtained from the
    relevant norm (-4) representatives in the box [-2, 2]^6: maps class
    index (ambient) to class index (member), verified independent of the
    representative.  The first representative of each class is also
    classified on the exact path of `restriction_case`."""
    rows = _relevant_level_sets(2, (-4,))[-4][0]
    m, cn, cm = _split_classes(rows)
    # the first row of each ambient class; np.unique would sort the int8
    # classes with a kernel that nothing else runs
    first = {}
    for i, c in enumerate(cn.tolist()):
        first.setdefault(c, i)
    _raise_first(
        rows,
        [
            (m != 0, "relevant norm -4 vector with m != 0"),
            (
                cm != cm[[first[c] for c in cn.tolist()]],
                "projection depends on the representative for ambient class {c}",
            ),
        ],
        c=cn.__getitem__,
    )
    images = {}
    for i in sorted(first.values()):
        r = tuple(int(v) for v in rows[i])
        case = restriction_case(r)
        if (case.m, case.ambient_class, case.beta_class) != (0, cn[i], cm[i]):
            raise AssertionError(
                f"vectorized projection disagrees with the exact path at r = {r}"
            )
        images[case.ambient_class] = case.beta_class
    return images


def v_to_v1(plane) -> frozenset:
    """Image of an order-8 ambient subgroup (an isotropic plane joined with
    the characteristic class) on the member side: lift each of its three
    weight-one non-characteristic classes to a relevant norm (-4) vector,
    project to the member span, and reduce modulo the member lattice.

    Returns the generated subgroup (8 member classes) after verifying it is
    3-dimensional 2-torsion with identically integral pairing, contains the
    member characteristic class, and that the three images sum to it."""
    AN = ambient_module()
    AM = restriction_module()
    if tuple(sorted(plane)) not in isotropic_planes(AN):
        raise ValueError("input must be one of the 15 isotropic planes")
    kappa_n = radical_class(AN)
    kappa_m = radical_class(AM)
    targets = [AN.add(x, kappa_n) for x in plane]
    an_types = element_types(AN)
    if any(an_types[t] != "1" for t in targets):
        raise AssertionError("translated plane classes must have weight one")

    images = _norm_minus4_projection()
    betas = []
    for t in targets:
        if t not in images:
            raise ValueError(f"no relevant representative found for class {t}")
        betas.append(images[t])

    am_labels = element_types(AM)
    if any(am_labels[b] != "1" for b in betas):
        raise ValueError("projected classes must have weight one on the member side")
    total = 0
    for b in betas:
        total = AM.add(total, b)
    if total != kappa_m:
        raise ValueError("the three projected classes must sum to the "
                         "member characteristic class")

    # subgroup generated by the three images
    v1 = {0}
    for b in betas:
        v1 |= {AM.add(x, b) for x in v1}
    if len(v1) != 8:
        raise ValueError(f"image subgroup has order {len(v1)}, expected 8")
    if any(AM.order_of(x) > 2 for x in v1):
        raise ValueError("image subgroup must be 2-torsion")
    if any(AM.b4[x, y] for x in v1 for y in v1):
        raise ValueError("pairing must be identically integral on the image")
    if kappa_m not in v1:
        raise ValueError("image must contain the member characteristic class")
    if sum(1 for x in v1 if am_labels[x] == "1") != 3:
        raise ValueError("image must contain exactly three weight-one classes")
    return frozenset(v1)


@lru_cache(maxsize=1)
def all_v1_images() -> dict:
    """The images of all 15 planes; verifies they are pairwise distinct."""
    AN = ambient_module()
    images = {plane: v_to_v1(plane) for plane in isotropic_planes(AN)}
    if len(set(images.values())) != 15:
        raise ValueError("plane images are not pairwise distinct")
    return images


def seven_lines(v1) -> frozenset:
    """The isotropic lines of the member discriminant group pairing
    integrally with the weight-one classes of v1: each of the three
    weight-one classes admits exactly three such lines, each containing the
    class shifted by the characteristic class, with one line common to all
    three; the union has exactly 7 members."""
    AM = restriction_module()
    labels = element_types(AM)
    kappa_m = radical_class(AM)
    v1 = frozenset(v1)
    if len(v1) != 8 or 0 not in v1 or kappa_m not in v1:
        raise ValueError("input must be an order-8 subgroup containing 0 "
                         "and the characteristic class")
    betas = [x for x in v1 if labels[x] == "1"]
    if len(betas) != 3:
        raise ValueError("input must contain exactly three weight-one classes")

    lines = isotropic_planes(AM)
    common = tuple(sorted(x for x in v1 if x and AM.q4[x] == 0))
    if common not in lines:
        raise AssertionError("the isotropic part of the subgroup must be a line")
    per_beta = {}
    for b in betas:
        found = [
            line
            for line in lines
            if all(AM.b4[b, y] == 0 for y in line)
        ]
        if len(found) != 3:
            raise ValueError(
                f"class {b} lies on {len(found)} isotropic lines, expected 3"
            )
        if common not in found:
            raise ValueError(f"the common line is missing for class {b}")
        meet = AM.add(b, kappa_m)
        for line in found:
            if meet not in line:
                raise ValueError(
                    f"line {line} misses the shifted class of {b}"
                )
        per_beta[b] = found

    union = set()
    for found in per_beta.values():
        union.update(found)
    extras = [set(found) - {common} for found in per_beta.values()]
    for s1, s2 in combinations(extras, 2):
        if s1 & s2:
            raise ValueError("the per-class line families must be disjoint")
    if len(union) != 7:
        raise ValueError(f"line union has {len(union)} members, expected 7")
    return frozenset(union)
