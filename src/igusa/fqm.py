"""Finite quadratic modules: torsion quadratic forms on finite abelian groups.

A module is presented by generator orders (d_1, ..., d_k), the quadratic form
q with values in Q/2Z, and the associated bilinear form b with values in Q/Z.
Internally q is stored as 4q mod 8 and b as 4b mod 4 in small integer tables,
which covers every module arising from the even lattices used in this package
(all q-values lie in (1/4)Z).

Elements are plain integers 0..size-1 in mixed-radix coordinates with respect
to the generators.  An automorphism is an int32 permutation array g with g[x]
the image of x; a group of them is one (order, size) array, a member per row.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np

from .exact import clear_denominators

__all__ = [
    "FiniteQuadraticModule",
    "direct_sum",
    "type_census",
    "type_census_mod_negation",
    "radical_class",
    "pairing_table",
    "isotropic_vectors",
    "isotropic_planes",
    "reflection",
    "is_closed",
    "orthogonal_group",
    "find_isomorphism",
    "TYPE_ORDER_AMBIENT",
    "TYPE_ORDER_RESTRICTION",
]

# Fixed display/census order for the six element types of the rank-6 ambient
# discriminant form, and for the five types of the rank-5 restriction form
# counted modulo negation.
TYPE_ORDER_AMBIENT = ("00", "0", "1", "10", "3/2", "1/2")
TYPE_ORDER_RESTRICTION = ("00", "0", "1", "10", "3/4", "7/4")


class FiniteQuadraticModule:
    """A finite abelian group with a Q/2Z-valued quadratic form."""

    def __init__(self, orders, q4_gen, b4_gen):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise ValueError("generator orders must be >= 2")
        k = len(orders)
        q4_gen = tuple(int(v) % 8 for v in q4_gen)
        b4_gen = tuple(tuple(int(v) % 4 for v in row) for row in b4_gen)
        if len(q4_gen) != k or len(b4_gen) != k or any(len(r) != k for r in b4_gen):
            raise ValueError("generator data shape mismatch")
        for i in range(k):
            for j in range(k):
                if b4_gen[i][j] != b4_gen[j][i]:
                    raise ValueError("bilinear form data not symmetric")
                # d_i * b(g_i, g_j) must vanish in Q/Z
                if (orders[i] * b4_gen[i][j]) % 4 != 0:
                    raise ValueError("bilinear form incompatible with orders")
            if b4_gen[i][i] % 4 != q4_gen[i] % 4:
                raise ValueError("b(g,g) must equal q(g) mod 1")
            # well-definedness of q on Z/d_i: (2cd + d^2) q(g) = 0 in Q/2Z
            d = orders[i]
            if (d * d * q4_gen[i]) % 8 != 0 or (2 * d * q4_gen[i]) % 8 != 0:
                raise ValueError("quadratic form incompatible with orders")

        self.orders = orders
        self.q4_gen = q4_gen
        self.b4_gen = b4_gen
        self.size = prod(orders) if orders else 1

        # mixed-radix coordinate table
        radix = np.ones(k, dtype=np.int64)
        for i in range(1, k):
            radix[i] = radix[i - 1] * orders[i - 1]
        self._radix = radix
        idx = np.arange(self.size, dtype=np.int64)
        coords = np.empty((self.size, k), dtype=np.int64)
        rem = idx.copy()
        for i in range(k):
            coords[:, i] = rem % orders[i]
            rem //= orders[i]
        self._coords = coords

        bmat = np.array(b4_gen, dtype=np.int64).reshape(k, k)
        qvec = np.array(q4_gen, dtype=np.int64)
        # 4*b(x,y) mod 4 for all pairs
        full = coords @ bmat @ coords.T
        self.b4 = (full % 4).astype(np.int16)
        # 4*q(x) mod 8: sum c_i^2 q_i + sum_{i != j} c_i c_j b_ij
        sq = coords * coords
        diag_part = sq @ qvec
        cross = np.einsum("xi,ij,xj->x", coords, bmat, coords) - sq @ np.diag(bmat)
        self.q4 = ((diag_part + cross) % 8).astype(np.int16)

        # addition and negation tables
        ords = np.array(orders, dtype=np.int64)
        summed = (coords[:, None, :] + coords[None, :, :]) % ords
        self.add_table = (summed @ radix).astype(np.int32)
        self.neg_table = (((-coords) % ords) @ radix).astype(np.int32)

        # element orders
        elt_orders = np.ones(self.size, dtype=np.int64)
        for i in range(k):
            di = orders[i]
            ci = coords[:, i]
            oi = np.array([di // gcd(int(c), di) for c in ci], dtype=np.int64)
            elt_orders = np.lcm(elt_orders, oi)
        self.element_orders = elt_orders
        # modules are shared through caches: every table is read-only
        for table in (self.q4, self.b4, self.add_table, self.neg_table, elt_orders):
            table.setflags(write=False)
        # see element_types, radical_class, isotropic_planes
        self._types = self._radical = self._planes = None

        # optional lattice provenance (set by lattices.discriminant_module)
        self._lattice = None
        self._push_mat = None
        self._kept = None
        self._gen_vectors = None

    # -- basic structure ---------------------------------------------------

    def coords(self, x: int):
        return tuple(int(c) for c in self._coords[x])

    def from_coords(self, coords) -> int:
        coords = [int(c) % d for c, d in zip(coords, self.orders)]
        return int(sum(c * r for c, r in zip(coords, self._radix)))

    def elements(self):
        return range(self.size)

    def generators(self) -> list:
        """The indices of the defining generators g_1, ..., g_k."""
        k = len(self.orders)
        return [self.from_coords([int(i == j) for j in range(k)]) for i in range(k)]

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def scalar_mul(self, n: int, x: int) -> int:
        coords = [(n * c) % d for c, d in zip(self.coords(x), self.orders)]
        return self.from_coords(coords)

    def order_of(self, x: int) -> int:
        return int(self.element_orders[x])

    def q(self, x: int) -> Fraction:
        """q(x) as a canonical representative in [0, 2)."""
        return Fraction(int(self.q4[x]), 4)

    def b(self, x: int, y: int) -> Fraction:
        """b(x, y) as a canonical representative in [0, 1)."""
        return Fraction(int(self.b4[x, y]), 4)

    # -- lattice provenance -------------------------------------------------

    def attach_lattice(self, lattice, push_mat, kept, gen_vectors):
        """Record how this module arose as (dual lattice)/(lattice).

        push_mat: integer matrix sending G*x (x a dual vector in lattice
        coordinates) to Smith coordinates; kept: indices of the nontrivial
        Smith factors; gen_vectors: rational lattice coordinates of the
        chosen generators.
        """
        self._lattice = lattice
        self._push_mat = push_mat
        self._kept = kept
        self._gen_vectors = gen_vectors

    @property
    def lattice(self):
        return self._lattice

    def class_of_vector(self, coords) -> int:
        """The class of a dual-lattice vector x = X / d (X integral) given in
        lattice coordinates; x is in the dual exactly when d divides G X."""
        if self._lattice is None:
            raise ValueError("module has no attached lattice")
        x, d = clear_denominators(coords)
        gram = self._lattice.gram
        n = len(gram)
        if len(x) != n:
            raise ValueError("coordinate length mismatch")
        k = [sum(g * v for g, v in zip(row, x)) for row in gram]
        if any(v % d for v in k):
            raise ValueError("vector is not in the dual lattice")
        s = [
            sum(self._push_mat[i][j] * (k[j] // d) for j in range(n))
            for i in range(n)
        ]
        digits = [s[i] % self.orders[pos] for pos, i in enumerate(self._kept)]
        return self.from_coords(digits)

    def lift_vector(self, x: int):
        """A dual-lattice representative (lattice coordinates) of the class x."""
        if self._lattice is None:
            raise ValueError("module has no attached lattice")
        n = len(self._lattice.gram)
        acc = [Fraction(0)] * n
        for c, gen in zip(self.coords(x), self._gen_vectors):
            for i in range(n):
                acc[i] += c * gen[i]
        return tuple(acc)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"FiniteQuadraticModule(orders={self.orders}, size={self.size})"


def direct_sum(*modules: FiniteQuadraticModule) -> FiniteQuadraticModule:
    """Orthogonal direct sum of finite quadratic modules.  Nothing in the
    library calls it; `test_discriminant_of_direct_sum_is_direct_sum` uses it
    with `find_isomorphism` to check that discriminant forms add."""
    if not modules:
        raise ValueError("direct_sum needs at least one summand")
    orders = []
    q4 = []
    for m in modules:
        orders.extend(m.orders)
        q4.extend(m.q4_gen)
    k = len(orders)
    b4 = [[0] * k for _ in range(k)]
    off = 0
    for m in modules:
        kk = len(m.orders)
        for i in range(kk):
            for j in range(kk):
                b4[off + i][off + j] = m.b4_gen[i][j]
        off += kk
    return FiniteQuadraticModule(orders, q4, b4)


# ---------------------------------------------------------------------------
# Type census
# ---------------------------------------------------------------------------


def radical_class(A: FiniteQuadraticModule) -> int:
    """The unique nonzero 2-torsion class with integral q pairing integrally
    with every integral-q 2-torsion class.

    For the rank-6 ambient discriminant form this is the radical of the
    index-2 subgroup of integral-norm classes; for the restriction form it is
    the radical of the whole 2-torsion subgroup. Raises if no such class or
    more than one exists; computed once per module.
    """
    if A._radical is None:
        two_torsion = [x for x in A.elements() if A.order_of(x) <= 2]
        S = [x for x in two_torsion if A.q4[x] % 4 == 0]
        radicals = [x for x in S if x != 0 and all(A.b4[x, y] == 0 for y in S)]
        if len(radicals) != 1:
            raise ValueError(
                f"radical is not unique: found {len(radicals)} candidate classes"
            )
        A._radical = radicals[0]
    return A._radical


def _type_label(A: FiniteQuadraticModule, x: int, kappa: int) -> str:
    if x == 0:
        return "00"
    q4 = int(A.q4[x])
    if q4 == 0:
        return "0"
    if q4 == 4:
        return "10" if x == kappa else "1"
    table = {6: "3/2", 2: "1/2", 3: "3/4", 7: "7/4"}
    if q4 in table:
        return table[q4]
    raise ValueError(f"element with unsupported q-value {Fraction(q4, 4)}")


def element_types(A: FiniteQuadraticModule) -> tuple:
    """Type label of every element, indexed by element; computed once per module."""
    if A._types is None:
        kappa = radical_class(A)
        A._types = tuple(_type_label(A, x, kappa) for x in A.elements())
    return A._types


def type_census(A: FiniteQuadraticModule, order=TYPE_ORDER_AMBIENT) -> dict:
    """Count elements of each type, keyed in the given label order."""
    labels = element_types(A)
    counts = {t: 0 for t in order}
    for lab in labels:
        if lab not in counts:
            raise ValueError(f"unexpected type {lab} for this census order")
        counts[lab] += 1
    return counts


def type_census_mod_negation(
    A: FiniteQuadraticModule, order=TYPE_ORDER_RESTRICTION
) -> dict:
    """Count {x, -x} classes of each type."""
    labels = element_types(A)
    counts = {t: 0 for t in order}
    for x in A.elements():
        if x <= A.neg(x):  # canonical representative of the pair
            lab = labels[x]
            if lab not in counts:
                raise ValueError(f"unexpected type {lab} for this census order")
            counts[lab] += 1
    return counts


# ---------------------------------------------------------------------------
# Pairing table
# ---------------------------------------------------------------------------


def pairing_table(A: FiniteQuadraticModule) -> dict:
    """For each ordered pair of types (t_u, t_v) and j in {0, 1}: the number
    of elements v of type t_v with b(u, v) = j/2, for u of type t_u.

    The count is verified to be independent of the representative u; a
    representative-dependent count raises ValueError.
    """
    labels = element_types(A)
    types = sorted(set(labels), key=lambda t: TYPE_ORDER_AMBIENT.index(t))
    members = {t: [x for x in A.elements() if labels[x] == t] for t in types}
    table = {}
    for tu in types:
        row = None
        for u in members[tu]:
            this = {}
            for tv in types:
                b_vals = A.b4[u, members[tv]]
                if not np.all((b_vals == 0) | (b_vals == 2)):
                    raise ValueError("pairing values outside {0, 1/2}")
                m1 = int(np.count_nonzero(b_vals))
                this[tv] = (len(members[tv]) - m1, m1)
            if row is None:
                row = this
            elif row != this:
                raise ValueError(
                    f"pairing counts depend on the representative of type {tu}"
                )
        table[tu] = row
    return table


# ---------------------------------------------------------------------------
# Isotropic structure
# ---------------------------------------------------------------------------


def isotropic_vectors(A: FiniteQuadraticModule) -> list:
    """Nonzero classes with q = 0."""
    return [x for x in A.elements() if x != 0 and A.q4[x] == 0]


def isotropic_planes(A: FiniteQuadraticModule) -> tuple:
    """Order-4 subgroups on which q vanishes identically and b vanishes on
    all pairs, as a sorted tuple of sorted tuples of the three nonzero
    elements; computed once per module."""
    if A._planes is not None:
        return A._planes
    iso = isotropic_vectors(A)
    found = set()
    # Klein four-groups {0, a, b, a+b}
    for a, b_ in combinations(iso, 2):
        if A.order_of(a) != 2 or A.order_of(b_) != 2:
            continue
        if A.b4[a, b_] != 0:
            continue
        c = A.add(a, b_)
        if c == 0:
            continue
        if A.q4[c] != 0:
            raise AssertionError("q(a+b) must vanish when b(a,b) = 0")
        found.add(tuple(sorted((a, b_, c))))
    # cyclic groups of order 4
    for x in iso:
        if A.order_of(x) == 4 and A.q4[A.scalar_mul(2, x)] == 0:
            members = {x, A.scalar_mul(2, x), A.scalar_mul(3, x)}
            if all(A.b4[u, v] == 0 for u in members for v in members):
                found.add(tuple(sorted(members)))
    A._planes = tuple(sorted(found))
    return A._planes


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


def _check_isometries(A: FiniteQuadraticModule, perms, what: str):
    """Raise AssertionError naming q or b unless every row of perms, an
    (n, size) array of permutations, preserves that form on all elements
    (q) and all pairs (b)."""
    if not np.all(A.q4[perms] == A.q4):
        raise AssertionError(f"{what} fails to preserve q")
    b8 = A.b4.astype(np.int8)
    for perm in perms:
        if not np.array_equal(b8.take(perm, axis=0).take(perm, axis=1), b8):
            raise AssertionError(f"{what} fails to preserve b")


def reflection(A: FiniteQuadraticModule, alpha: int) -> np.ndarray:
    """The involution x -> x + c(x) alpha, c(x) = 2 b(x, alpha), for a class
    with q(alpha) = 1, as an int32 permutation array t with t[x] the image
    of x; the coefficient must be an integer for every x.

    Integrality is tested on the whole b-column of alpha at once; c(x) is
    then 0 or 1, and the permutation is one gather add_table[x, c(x) alpha].
    The result is checked to be an involution that preserves q and b."""
    if int(A.q4[alpha]) != 4:
        raise ValueError(f"reflection requires q(alpha) = 1, got {A.q(alpha)}")
    column = A.b4[:, alpha]
    if np.any(column % 2):
        raise ValueError("reflection coefficient 2 b(x, alpha) is not integral")
    t = A.add_table[np.arange(A.size), np.where(column == 2, alpha, 0)]
    if not np.array_equal(t[t], np.arange(A.size)):
        raise AssertionError("reflection must be an involution")
    _check_isometries(A, t[None, :], "the reflection")
    return t


def _member_index(A: FiniteQuadraticModule, perms):
    """A function mapping permutations (..., size) to the index of the equal
    row of perms, an (n, size) array of automorphisms of A, or -1.  The key
    of a permutation has its values on the generators as digits in base
    size, so automorphisms have distinct keys; a repeated row, or two rows
    with one key, raise ValueError.  Found rows are compared entrywise."""
    n = len(perms)
    base = A.generators()
    if A.size ** len(base) >= 2**63:
        raise ValueError("the lookup key of this module would leave int64")
    weights = A.size ** np.arange(len(base), dtype=np.int64)
    keys = perms[:, base].astype(np.int64) @ weights
    order = np.argsort(keys)
    sorted_keys = keys[order]
    clash = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if len(clash):
        i, j = sorted(order[clash[0]:clash[0] + 2])
        if np.array_equal(perms[i], perms[j]):
            raise ValueError(f"member {j} repeats member {i}")
        raise ValueError("distinct members share a lookup key")
    members = perms.astype(np.uint8 if A.size <= 256 else np.int32)[order]

    def lookup(candidates):
        where = np.minimum(np.searchsorted(sorted_keys, candidates[..., base].astype(np.int64)
                                           @ weights), n - 1)
        return np.where((members[where] == candidates).all(axis=-1), order[where], -1)

    return lookup


def is_closed(A: FiniteQuadraticModule, perms) -> bool:
    """Full closure check of the rows of perms, an (n, size) array of
    automorphisms of A: each of the n**2 products h(g(x)) is looked up
    among the rows with `_member_index`."""
    lookup = _member_index(A, perms)
    rows = perms.astype(np.uint8 if A.size <= 256 else np.int32)
    for start in range(0, len(perms), 128):
        # products[h, j] = h(g_j(x)) for the rows g_j of this chunk
        if (lookup(rows.take(perms[start:start + 128], axis=1)) < 0).any():
            return False
    return True


def orthogonal_group(A: FiniteQuadraticModule, node_budget: int = 5_000_000) -> np.ndarray:
    """The full orthogonal group of a 2-elementary module of dimension <= 6,
    as a read-only (order, size) int32 array whose row g is the permutation
    x -> g[x] of one member, from a search over generator images run level
    by level.

    Level i holds every partial solution (images of g_0, ..., g_{i-1}) as a
    row of one array, next to its span as a boolean membership row.  A
    candidate image x of g_i has q(x) = q(g_i), lies outside the span (one
    lookup in the row) and pairs with the images placed so far as g_i pairs
    with g_0, ..., g_{i-1} (one gather from the b-table for the whole
    level); a child's span is its parent's row OR that row permuted by XOR
    with x.  Children follow their parents and the candidates in increasing
    order, so the rows come out in the lexicographic order of a depth-first
    search, and each partial solution (the empty one included) counts as
    one node against node_budget, as it would there.  The permutations are
    built in one vectorised XOR, and every row is checked exhaustively to
    preserve q and b."""
    if any(d != 2 for d in A.orders):
        raise ValueError("orthogonal_group supports 2-elementary modules only")
    k = len(A.orders)
    if k > 6:
        raise ValueError("orthogonal_group supports dimension <= 6 only")
    gens = A.generators()
    # for all orders 2 the mixed-radix index is a bitmask and addition is XOR
    if any(g != 1 << i for i, g in enumerate(gens)):
        raise AssertionError("generator indices must be the bitmasks 1 << i")

    q4 = A.q4
    b4 = A.b4
    points = np.arange(A.size, dtype=np.int32)
    imgs = np.zeros((1, 0), dtype=np.int32)
    span = points[None, :] == 0
    nodes = 1
    for i, g in enumerate(gens):
        # 0 has the right q-value only if g does, and it lies in every span
        cands = np.flatnonzero(q4 == q4[g]).astype(np.int32)
        ok = ~span[:, cands]
        if i:
            ok &= np.all(b4[cands[None, :, None], imgs[:, None, :]] == b4[g, gens[:i]], axis=2)
        parent, pick = np.nonzero(ok)
        nodes += len(parent)
        if nodes > node_budget:
            raise RuntimeError(f"orthogonal group search exceeded {node_budget} nodes")
        x = cands[pick]
        imgs = np.column_stack([imgs[parent], x])
        span = span[parent]
        span |= span[np.arange(len(x))[:, None], points ^ x[:, None]]

    # the image of element e is the XOR of the images of its set bits
    bits = (points[:, None] >> np.arange(k, dtype=np.int32)) & 1
    perms = np.bitwise_xor.reduce(imgs[:, None, :] * bits, axis=2)
    _check_isometries(A, perms, "an automorphism candidate")
    perms.setflags(write=False)
    return perms


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------


def find_isomorphism(A: FiniteQuadraticModule, B: FiniteQuadraticModule):
    """A form-preserving group isomorphism A -> B as an array over elements of
    A, or None. Backtracks over images of A's defining generators.  No report
    check decides isomorphism; the tests use it as the oracle that the
    discriminant form of a direct sum is the sum of the parts' forms."""
    if A.size != B.size:
        return None
    k = len(A.orders)
    gens = A.generators()

    def build_map(imgs):
        out = np.zeros(A.size, dtype=np.int32)
        for x in A.elements():
            acc = 0
            for c, im in zip(A.coords(x), imgs):
                acc = B.add(acc, B.scalar_mul(c, im))
            out[x] = acc
        return out

    cand_pool = [
        [
            y
            for y in B.elements()
            if B.order_of(y) == A.order_of(g) and B.q4[y] == A.q4[g]
        ]
        for g in gens
    ]

    result = None

    def place(i, imgs):
        nonlocal result
        if result is not None:
            return
        if i == k:
            mapping = build_map(imgs)
            if len(set(mapping.tolist())) != A.size:
                return
            if not np.array_equal(B.q4[mapping], A.q4):
                return
            if not np.array_equal(B.b4[np.ix_(mapping, mapping)], A.b4):
                return
            result = mapping
            return
        for y in cand_pool[i]:
            if any(B.b4[y, imgs[j]] != A.b4[gens[i], gens[j]] for j in range(i)):
                continue
            place(i + 1, imgs + [y])

    place(0, [])
    return result
