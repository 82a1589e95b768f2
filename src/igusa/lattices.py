"""Integer lattices with exact Gram-matrix arithmetic.

Provides hyperbolic-plane and root lattices with rational scaling, direct
sums, exact signatures (Sylvester inertia), integer Smith normal form with
unimodular transforms, and the discriminant quadratic module of an even
lattice together with the projection map from dual vectors to classes.
"""

from fractions import Fraction
from math import prod

from .exact import _rational, clear_denominators
from .fqm import FiniteQuadraticModule

__all__ = [
    "Lattice",
    "standard",
    "direct_sum",
    "signature",
    "determinant",
    "smith_normal_form",
    "discriminant_module",
    "ambient_lattice",
    "restriction_lattice",
]


class Lattice:
    """A free Z-module with a nondegenerate symmetric integer Gram matrix."""

    __slots__ = ("gram", "labels")

    def __init__(self, gram, labels=None):
        gram = tuple(tuple(int(v) for v in row) for row in gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if labels is None:
            labels = tuple(f"v{i + 1}" for i in range(n))
        labels = tuple(str(x) for x in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct and match the rank")
        self.gram = gram
        self.labels = labels

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def vector(self, **coeffs):
        """Rational combination of labeled basis vectors; TypeError on a
        coefficient that is not an exact rational."""
        out = [Fraction(0)] * self.rank
        for label, c in coeffs.items():
            out[self.labels.index(label)] += _rational(c)
        return tuple(out)

    def ip(self, x, y) -> Fraction:
        """Inner product of two vectors in lattice coordinates: both are
        cleared to integers over one denominator each, so the bilinear sum
        is taken over the integers and one Fraction is built."""
        n = self.rank
        if len(x) != n or len(y) != n:
            raise ValueError("coordinate length mismatch")
        (x, dx), (y, dy) = clear_denominators(x), clear_denominators(y)
        total = sum(g * a * b for row, a in zip(self.gram, x) for g, b in zip(row, y))
        return Fraction(total, dx * dy)

    def norm(self, x) -> Fraction:
        return self.ip(x, x)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, labels={self.labels})"

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.gram == other.gram
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.gram, self.labels))


def _cartan_a(m: int):
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        g[i][i] = 2
        if i + 1 < m:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _cartan_d(n: int):
    if n < 4:
        raise ValueError("D_n needs n >= 4")
    g = _cartan_a(n)
    # fork: last node attaches to node n-3 instead of n-2
    g[n - 1][n - 2] = g[n - 2][n - 1] = 0
    g[n - 1][n - 3] = g[n - 3][n - 1] = -1
    return g


def _cartan_e(k: int):
    if k not in (6, 7, 8):
        raise ValueError("E_k needs k in {6, 7, 8}")
    g = _cartan_a(k)
    # node k attaches to node 3 of the A-chain on the first k-1 nodes
    g[k - 1][k - 2] = g[k - 2][k - 1] = 0
    g[k - 1][2] = g[2][k - 1] = -1
    return g


def standard(name: str, scale=1, labels=None) -> Lattice:
    """A standard lattice, rescaled: the Gram matrix is multiplied by scale.

    Names: "U" (hyperbolic plane, Gram [[0,1],[1,0]]) or root-lattice names
    "A<m>", "D<n>", "E<k>", taken NEGATIVE definite (Gram = -Cartan matrix).
    The scaled Gram must be integral, and scale an exact rational: a float
    raises TypeError.
    """
    scale = Fraction(_rational(scale))
    if name == "U":
        base = [[0, 1], [1, 0]]
    elif name.startswith("A") and name[1:].isdigit():
        base = [[-v for v in row] for row in _cartan_a(int(name[1:]))]
    elif name.startswith("D") and name[1:].isdigit():
        base = [[-v for v in row] for row in _cartan_d(int(name[1:]))]
    elif name.startswith("E") and name[1:].isdigit():
        base = [[-v for v in row] for row in _cartan_e(int(name[1:]))]
    else:
        raise ValueError(f"unknown standard lattice {name!r}")
    gram = []
    for row in base:
        out = []
        for v in row:
            scaled = scale * v
            if scaled.denominator != 1:
                raise ValueError(f"scale {scale} does not keep {name} integral")
            out.append(int(scaled))
        gram.append(out)
    return Lattice(gram, labels)


def direct_sum(parts) -> Lattice:
    """Orthogonal direct sum; block-diagonal Gram, concatenated labels."""
    parts = list(parts)
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    n = sum(p.rank for p in parts)
    gram = [[0] * n for _ in range(n)]
    labels = []
    seen = {}
    off = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                gram[off + i][off + j] = p.gram[i][j]
        for lab in p.labels:
            if lab in seen:
                seen[lab] += 1
                labels.append(f"{lab}_{seen[lab]}")
            else:
                seen[lab] = 1
                labels.append(lab)
        off += p.rank
    return Lattice(gram, labels)


def _congruence_pivots(L: Lattice):
    """The pivots of an exact rational symmetric reduction of the Gram
    matrix, or None when it is singular.  Each step is a congruence
    (a symmetric swap, or adding row and column j to the first) followed by
    the Schur complement of the first pivot, so the pivots carry the
    inertia and their product is the determinant."""
    n = L.rank
    a = [[Fraction(L.gram[i][j]) for j in range(n)] for i in range(n)]
    pivots = []
    size = n
    while size > 0:
        if a[0][0] == 0:
            swap = next((i for i in range(1, size) if a[i][i] != 0), None)
            if swap is not None:
                for j in range(size):
                    a[0][j], a[swap][j] = a[swap][j], a[0][j]
                for i in range(size):
                    a[i][0], a[i][swap] = a[i][swap], a[i][0]
            else:
                j = next((j for j in range(1, size) if a[0][j] != 0), None)
                if j is None:
                    return None  # a zero row
                for col in range(size):
                    a[0][col] += a[j][col]
                for row in range(size):
                    a[row][0] += a[row][j]
        pivot = a[0][0]
        pivots.append(pivot)
        nxt = [
            [a[i][j] - a[i][0] * a[0][j] / pivot for j in range(1, size)]
            for i in range(1, size)
        ]
        a = nxt
        size -= 1
    return pivots


def signature(L: Lattice):
    """Sylvester inertia (positive, negative) by exact rational symmetric
    reduction; raises on a singular Gram matrix."""
    pivots = _congruence_pivots(L)
    if pivots is None:
        raise ValueError("singular Gram matrix")
    pos = sum(1 for p in pivots if p > 0)
    return (pos, len(pivots) - pos)


def determinant(L: Lattice) -> int:
    """Exact determinant of the Gram matrix: the product of the pivots of
    the symmetric reduction, or 0 when it is singular."""
    pivots = _congruence_pivots(L)
    if pivots is None:
        return 0
    det = prod(pivots, start=Fraction(1))
    if det.denominator != 1:
        raise AssertionError("the determinant of an integer Gram matrix must be an integer")
    return int(det)


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (U, D, V) with
    U @ mat @ V = D, U and V unimodular, D diagonal with d_1 | d_2 | ...
    and nonnegative diagonal. Pure integer arithmetic."""
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, c):  # row i += c * row j
        for k in range(cols):
            a[i][k] += c * a[j][k]
        for k in range(rows):
            u[i][k] += c * u[j][k]

    def col_op(i, j, c):  # col i += c * col j
        for k in range(rows):
            a[k][i] += c * a[k][j]
        for k in range(cols):
            v[k][i] += c * v[k][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for k in range(rows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    t = 0
    while t < min(rows, cols):
        # find the entry of least nonzero magnitude in the working submatrix
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        # reduce row t and column t by the pivot; repeat until clean
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                q, r = divmod(a[i][t], a[t][t])
                if q:
                    row_op(i, t, -q)
                if a[i][t]:  # remainder smaller than pivot: swap and restart
                    row_swap(t, i)
                    dirty = True
            for j in range(t + 1, cols):
                q, r = divmod(a[t][j], a[t][t])
                if q:
                    col_op(j, t, -q)
                if a[t][j]:
                    col_swap(t, j)
                    dirty = True
        # pivot must divide every remaining entry; if not, fold the offending
        # row into row t and restart the cleaning
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, 1)
            continue
        if a[t][t] < 0:
            row_op(t, t, -2)  # negate row t: row_t += -2*row_t
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    # verify the defining identity U @ mat @ V = D exactly
    m0 = [list(map(int, row)) for row in mat]
    um = [
        [sum(u[i][k] * m0[k][j] for k in range(rows)) for j in range(cols)]
        for i in range(rows)
    ]
    umv = [
        [sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
        for i in range(rows)
    ]
    if umv != d:
        raise AssertionError("Smith normal form transform identity failed")
    return u, d, v


def discriminant_module(L: Lattice) -> FiniteQuadraticModule:
    """The finite quadratic module (dual lattice)/(lattice) of an even
    lattice, with the discriminant form q mod 2Z and pairing b mod Z.

    The returned module remembers the lattice: class_of_vector pushes a dual
    vector (rational lattice coordinates) to its class, lift_vector picks a
    representative.
    """
    if not L.is_even():
        raise ValueError("discriminant form requires an even lattice")
    n = L.rank
    u, d, v = smith_normal_form(L.gram)
    divisors = [d[i][i] for i in range(n)]
    if any(x == 0 for x in divisors):
        raise ValueError("nondegenerate Gram matrix required")
    kept = [i for i in range(n) if divisors[i] > 1]
    orders = [divisors[i] for i in kept]

    # generator i (for kept index i): the dual vector V[:, i] / d_i
    gens = [
        tuple(Fraction(v[r][i], divisors[i]) for r in range(n)) for i in kept
    ]
    q4_gen = []
    b4_gen = []
    for gi in gens:
        norm = L.norm(gi)
        q4 = norm * 4
        if q4.denominator != 1:
            raise ValueError("discriminant form has q-values outside (1/4)Z")
        q4_gen.append(int(q4) % 8)
    for gi in gens:
        row = []
        for gj in gens:
            val = L.ip(gi, gj) * 4
            if val.denominator != 1:
                raise ValueError("discriminant pairing outside (1/4)Z")
            row.append(int(val) % 4)
        b4_gen.append(row)

    A = FiniteQuadraticModule(orders, q4_gen, b4_gen)
    if A.size != abs(determinant(L)):
        raise AssertionError("discriminant group order must match |det Gram|")
    A.attach_lattice(L, u, kept, gens)
    return A


# ---------------------------------------------------------------------------
# The two lattices at the heart of the package
# ---------------------------------------------------------------------------


def ambient_lattice() -> Lattice:
    """The even lattice of signature (2,4): two hyperbolic planes scaled by
    two, plus two copies of the (-2)-lattice. Basis e1,f1,e2,f2,a1,a2."""
    return direct_sum(
        [
            standard("U", 2, labels=("e1", "f1")),
            standard("U", 2, labels=("e2", "f2")),
            standard("A1", 1, labels=("a1",)),
            standard("A1", 1, labels=("a2",)),
        ]
    )


def restriction_lattice() -> Lattice:
    """The even lattice of signature (2,3): two hyperbolic planes scaled by
    two, plus the (-4)-lattice. Basis e1,f1,e2,f2,a."""
    return direct_sum(
        [
            standard("U", 2, labels=("e1", "f1")),
            standard("U", 2, labels=("e2", "f2")),
            standard("A1", 2, labels=("a",)),
        ]
    )
