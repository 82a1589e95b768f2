"""Tests for finite quadratic modules: censuses, the pairing-count table,
isotropic structure, reflections, and the orthogonal group."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from igusa import fqm
from igusa.fqm import (
    TYPE_ORDER_AMBIENT,
    FiniteQuadraticModule,
    direct_sum,
    element_types,
    find_isomorphism,
    is_closed,
    isotropic_planes,
    isotropic_vectors,
    orthogonal_group,
    pairing_table,
    radical_class,
    reflection,
    type_census,
    type_census_mod_negation,
)
from igusa.lattices import (
    ambient_lattice,
    discriminant_module,
    restriction_lattice,
    standard,
)
from igusa.weil import ambient_module, ambient_orthogonal_group

from helpers import run_demo


@pytest.fixture(scope="module")
def AN():
    return discriminant_module(ambient_lattice())


@pytest.fixture(scope="module")
def AM():
    return discriminant_module(restriction_lattice())


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def test_ambient_census(AN):
    assert type_census(AN) == {
        "00": 1,
        "0": 15,
        "1": 15,
        "10": 1,
        "3/2": 20,
        "1/2": 12,
    }
    assert sum(type_census(AN).values()) == 64


def test_restriction_census_mod_negation(AM):
    assert type_census_mod_negation(AM) == {
        "00": 1,
        "0": 15,
        "1": 15,
        "10": 1,
        "3/4": 6,
        "7/4": 10,
    }
    assert sum(type_census_mod_negation(AM).values()) == 48


def test_negation_acts_by_kappa_shift_on_order_four(AM):
    kappa = radical_class(AM)
    for x in AM.elements():
        if AM.order_of(x) == 4:
            assert AM.neg(x) == AM.add(x, kappa)
        else:
            assert AM.neg(x) == x


def test_zero_element_type(AN):
    assert element_types(AN)[0] == "00"


# ---------------------------------------------------------------------------
# radical class
# ---------------------------------------------------------------------------


def test_radical_class_values(AN, AM):
    N = ambient_lattice()
    kappa = radical_class(AN)
    assert AN.class_of_vector(N.vector(a1=Fraction(1, 2), a2=Fraction(1, 2))) == kappa
    assert AN.q(kappa) == 1  # q = -1 = 1 mod 2
    assert element_types(AN)[kappa] == "10"

    M = restriction_lattice()
    kappa_m = radical_class(AM)
    assert AM.class_of_vector(M.vector(a=Fraction(1, 2))) == kappa_m
    # kappa_M pairs integrally with the whole 2-torsion subgroup
    for x in AM.elements():
        if AM.order_of(x) <= 2:
            assert AM.b(kappa_m, x) == 0


def test_radical_class_missing_is_an_error():
    AU2 = discriminant_module(standard("U", 2))
    with pytest.raises(ValueError):
        radical_class(AU2)
    # a failure is not cached: the same error on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="found 0 candidate classes"):
            radical_class(AU2)
        with pytest.raises(ValueError, match="found 0 candidate classes"):
            element_types(AU2)


def test_element_types_are_computed_once_per_module(monkeypatch):
    import igusa.fqm as fqm

    A = discriminant_module(ambient_lattice())
    kappa = radical_class(A)
    labels = element_types(A)
    assert isinstance(labels, tuple) and len(labels) == A.size
    assert labels == tuple(fqm._type_label(A, x, kappa) for x in A.elements())
    # every module keeps its own labels
    assert element_types(discriminant_module(restriction_lattice())) != labels

    def rescan(*args):
        raise AssertionError("the elements were scanned again")

    monkeypatch.setattr(fqm, "_type_label", rescan)
    monkeypatch.setattr(A, "order_of", rescan)
    assert element_types(A) is labels
    assert radical_class(A) == kappa


# ---------------------------------------------------------------------------
# pairing table
# ---------------------------------------------------------------------------

# Frozen 6x6x2 table: for a representative u of the row type, the pair
# (m0, m1) counts elements v of the column type with b(u, v) = 0 and 1/2.
PAIRING_TABLE = {
    "00": [(1, 0), (15, 0), (15, 0), (1, 0), (20, 0), (12, 0)],
    "0": [(1, 0), (7, 8), (7, 8), (1, 0), (12, 8), (4, 8)],
    "1": [(1, 0), (7, 8), (7, 8), (1, 0), (8, 12), (8, 4)],
    "10": [(1, 0), (15, 0), (15, 0), (1, 0), (0, 20), (0, 12)],
    "3/2": [(1, 0), (9, 6), (6, 9), (0, 1), (10, 10), (6, 6)],
    "1/2": [(1, 0), (5, 10), (10, 5), (0, 1), (10, 10), (6, 6)],
}


def test_pairing_table_matches_frozen_values(AN):
    table = pairing_table(AN)
    for tu in TYPE_ORDER_AMBIENT:
        got = [table[tu][tv] for tv in TYPE_ORDER_AMBIENT]
        assert got == PAIRING_TABLE[tu], f"row {tu}"


def test_pairing_table_row_sums(AN):
    table = pairing_table(AN)
    census = type_census(AN)
    for tu in TYPE_ORDER_AMBIENT:
        for tv in TYPE_ORDER_AMBIENT:
            m0, m1 = table[tu][tv]
            assert m0 + m1 == census[tv]


def test_pairing_table_double_count(AN):
    # #(u of type s) * m1(s -> t) must equal #(v of type t) * m1(t -> s)
    table = pairing_table(AN)
    census = type_census(AN)
    for s in TYPE_ORDER_AMBIENT:
        for t in TYPE_ORDER_AMBIENT:
            assert census[s] * table[s][t][1] == census[t] * table[t][s][1]


# ---------------------------------------------------------------------------
# isotropic structure
# ---------------------------------------------------------------------------


def test_isotropic_vectors_and_planes(AN):
    vecs = isotropic_vectors(AN)
    assert len(vecs) == 15
    planes = isotropic_planes(AN)
    assert len(planes) == 15
    incidence = Counter()
    for plane in planes:
        assert len(plane) == 3
        for x in plane:
            assert AN.q4[x] == 0
            incidence[x] += 1
        a, b, c = plane
        assert AN.add(a, b) == c or AN.add(a, c) == b or AN.add(b, c) == a
    # every nonzero isotropic vector lies in exactly 3 planes
    assert set(incidence) == set(vecs)
    assert all(v == 3 for v in incidence.values())
    # double count: 15 vectors x 3 = 15 planes x 3
    assert sum(incidence.values()) == 45


def test_isotropic_structure_of_restriction_module(AM):
    assert len(isotropic_vectors(AM)) == 15
    subgroups = isotropic_planes(AM)
    assert len(subgroups) == 15
    kappa_m = radical_class(AM)
    for s in subgroups:
        # each is a Klein four-group of 2-torsion classes
        assert all(AM.order_of(x) == 2 for x in s)
        for x in s:
            for y in s:
                assert AM.b(x, y) == 0
    # each contains three nonzero isotropic vectors
    assert all(len(s) == 3 for s in subgroups)


def test_isotropic_planes_are_computed_once_per_module(monkeypatch):
    calls = []
    original = fqm.isotropic_vectors

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(fqm, "isotropic_vectors", counted)
    fresh = discriminant_module(restriction_lattice())
    planes = isotropic_planes(fresh)
    assert isotropic_planes(fresh) is planes
    assert calls == [fresh]
    # the shared result is immutable
    assert type(planes) is tuple and all(type(p) is tuple for p in planes)
    assert planes == tuple(sorted(planes))
    other = discriminant_module(restriction_lattice())
    assert isotropic_planes(other) == planes
    assert calls == [fresh, other]


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


def test_reflection_requires_q_one(AN):
    iso = isotropic_vectors(AN)
    with pytest.raises(ValueError):
        reflection(AN, iso[0])


def test_reflections_are_involutions(AN):
    q1 = [x for x in AN.elements() if AN.q4[x] == 4]
    assert len(q1) == 16
    for alpha in q1:
        t = reflection(AN, alpha)
        assert np.array_equal(t[t], np.arange(AN.size))
        assert np.array_equal(AN.q4[t], AN.q4)
        assert np.array_equal(AN.b4[np.ix_(t, t)], AN.b4)
        # t(x + y) = t(x) + t(y) for all pairs
        assert np.array_equal(t[AN.add_table], AN.add_table[np.ix_(t, t)])


def test_reflection_fixes_orthogonal_elements(AN):
    q1 = [x for x in AN.elements() if AN.q4[x] == 4]
    alpha = q1[0]
    t = reflection(AN, alpha)
    for beta in AN.elements():
        if AN.b(beta, alpha) == 0:
            assert t[beta] == beta
        else:
            assert t[beta] == AN.add(beta, alpha)


def reference_reflection(A, alpha):
    """x -> x + (2 b(x, alpha)) alpha one element at a time, with the
    integrality of the coefficient tested per element."""
    perm = np.empty(A.size, dtype=np.int32)
    for x in A.elements():
        b4 = int(A.b4[x, alpha])
        if b4 % 2 != 0:
            raise ValueError("reflection coefficient 2 b(x, alpha) is not integral")
        perm[x] = A.add(x, A.scalar_mul(b4 // 2, alpha))
    return perm


def test_reflection_matches_the_per_element_reference(AN):
    q1 = [x for x in AN.elements() if AN.q4[x] == 4]
    assert len(q1) == 16 and radical_class(AN) in q1
    for alpha in q1:
        perm = reflection(AN, alpha)
        assert perm.dtype == np.int32
        assert np.array_equal(perm, reference_reflection(AN, alpha))


def test_reflection_rejects_a_non_integral_coefficient():
    # Z/4 x Z/4 with q(g1) = q(g2) = 0 and b(g1, g2) = 1/4: alpha = g1 + 2 g2
    # has q(alpha) = 1, and 2 b(g2, alpha) = 1/2 is not an integer
    A = FiniteQuadraticModule((4, 4), (0, 0), ((0, 1), (1, 0)))
    alpha = A.from_coords((1, 2))
    g2 = A.from_coords((0, 1))
    assert A.q4[alpha] == 4 and A.b4[g2, alpha] == 1
    with pytest.raises(ValueError, match="not integral"):
        reference_reflection(A, alpha)
    with pytest.raises(ValueError, match="not integral"):
        reflection(A, alpha)


def test_kappa_reflection_moves_exactly_32(AN):
    kappa = radical_class(AN)
    t = reflection(AN, kappa)
    moved = np.flatnonzero(t != np.arange(AN.size))
    assert len(moved) == 32
    labels = element_types(AN)
    assert {labels[x] for x in moved} == {"3/2", "1/2"}
    # the moved classes are shifted by kappa itself
    assert np.array_equal(t[moved], AN.add_table[moved, kappa])


def test_kappa_reflection_is_the_component_swap(AN):
    # swapping the two (-2)-generators of the ambient lattice induces the
    # same involution of the discriminant group as the kappa-reflection
    N = ambient_lattice()
    kappa = radical_class(AN)
    t = reflection(AN, kappa)
    i_a1 = N.labels.index("a1")
    i_a2 = N.labels.index("a2")
    for x in AN.elements():
        lift = list(AN.lift_vector(x))
        lift[i_a1], lift[i_a2] = lift[i_a2], lift[i_a1]
        assert AN.class_of_vector(lift) == t[x]


# ---------------------------------------------------------------------------
# orthogonal group
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def OQN(AN):
    return orthogonal_group(AN)


@pytest.fixture(scope="module")
def reflections(AN):
    """The permutation arrays of the 16 reflections in norm-1 classes."""
    q1 = [x for x in AN.elements() if AN.q4[x] == 4]
    assert len(q1) == 16
    return np.stack([reflection(AN, alpha) for alpha in q1])


def test_orthogonal_group_order(OQN):
    assert OQN.shape == (1440, 64)


def test_orthogonal_group_closed(OQN, AN):
    assert is_closed(AN, OQN)


def test_closure_check_sees_a_missing_member(OQN, AN):
    # with any one member dropped, some product of two others is that member
    assert not is_closed(AN, OQN[:-1])


def test_member_lookup_finds_each_row_and_only_the_rows(OQN, AN):
    lookup = fqm._member_index(AN, OQN)
    assert np.array_equal(lookup(OQN), np.arange(len(OQN)))
    assert np.array_equal(lookup(OQN[::-7]), np.arange(len(OQN))[::-7])
    # a permutation that fixes the generators but swaps two other classes
    # has the identity's key and is still not found
    perm = np.arange(AN.size, dtype=np.int32)
    perm[[3, 5]] = perm[[5, 3]]
    assert lookup(perm[None]).tolist() == [-1]


def test_closure_check_refuses_members_it_cannot_tell_apart(OQN, AN):
    # a permutation that fixes the generators but swaps two other classes
    # shares the identity's lookup key
    perm = np.arange(AN.size, dtype=np.int32)
    perm[[3, 5]] = perm[[5, 3]]
    with pytest.raises(ValueError, match="lookup key"):
        is_closed(AN, np.vstack([OQN, perm]))


def test_closure_check_refuses_a_repeated_member(OQN, AN):
    # a member listed twice is no new group element: the closure check
    # names the repeated row instead of passing the 1441-row array
    rows = np.vstack([OQN, OQN[5]])
    assert len(rows) == 1441
    with pytest.raises(ValueError, match="member 1440 repeats member 5"):
        is_closed(AN, rows)


def test_orthogonal_group_preserves_form(OQN, AN):
    assert np.all(AN.q4[OQN] == AN.q4[None, :])
    for g in OQN[:50]:
        assert np.array_equal(AN.b4[np.ix_(g, g)], AN.b4)


def test_isometry_check_names_the_form_that_fails(AN):
    identity = np.arange(AN.size, dtype=np.int32)
    labels = element_types(AN)
    # swapping a norm-1 class with an isotropic class changes q
    x, y = labels.index("1"), labels.index("0")
    bad_q = identity.copy()
    bad_q[[x, y]] = bad_q[[y, x]]
    with pytest.raises(AssertionError, match="the candidate fails to preserve q"):
        fqm._check_isometries(AN, np.stack([identity, bad_q]), "the candidate")
    # swapping two norm-1 classes keeps q but changes some pairing
    x, y = [z for z in AN.elements() if labels[z] == "1"][:2]
    bad_b = identity.copy()
    bad_b[[x, y]] = bad_b[[y, x]]
    assert np.array_equal(AN.q4[bad_b], AN.q4)
    with pytest.raises(AssertionError, match="the candidate fails to preserve b"):
        fqm._check_isometries(AN, np.stack([identity, bad_b]), "the candidate")
    fqm._check_isometries(AN, identity[None, :], "the identity")


def test_all_reflections_are_members(OQN, reflections):
    # each reflection is exactly one row of the group array
    for t in reflections:
        assert np.count_nonzero(np.all(OQN == t, axis=1)) == 1


def test_reflections_generate_the_group(OQN, AN, reflections):
    # computed cross-check: the subgroup generated by the 16 reflections is
    # the whole orthogonal group, row for row
    ident = np.arange(AN.size, dtype=np.int32)
    group = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in reflections:
                p = g[s]
                if p.tobytes() not in group:
                    group.add(p.tobytes())
                    new.append(p)
        frontier = new
    assert len(group) == len(OQN) == 1440
    assert group == {g.tobytes() for g in OQN}


def test_center_is_identity_and_kappa_reflection(OQN, AN, reflections):
    # the reflections generate the group (see above), so the center is the
    # rows g with g(s(x)) = s(g(x)) for all 16 reflections s
    commutes = np.all(OQN[:, reflections] == reflections[:, OQN].swapaxes(0, 1), axis=(1, 2))
    center = OQN[commutes]
    assert len(center) == 2
    ident = np.arange(AN.size)
    t = reflection(AN, radical_class(AN))
    assert np.array_equal(center[0], ident) and np.array_equal(center[1], t)
    # orders 1 and 2
    assert not np.array_equal(t, ident) and np.array_equal(t[t], ident)


def reference_search(A):
    """The generator-image search depth first, by XOR echelon reduction and
    pairwise b lookups: the solutions in the order found, and the number of
    nodes visited (every call of place, the root included)."""
    k = len(A.orders)
    gens = [1 << i for i in range(k)]
    cands = [[x for x in range(1, A.size) if A.q4[x] == A.q4[g]] for g in gens]
    sols = []
    nodes = 0

    def reduce_mod(x, echelon):
        for pivot_bit, row in echelon:
            if (x >> pivot_bit) & 1:
                x ^= row
        return x

    def place(i, imgs, echelon):
        nonlocal nodes
        nodes += 1
        if i == k:
            sols.append(list(imgs))
            return
        for x in cands[i]:
            red = reduce_mod(x, echelon)
            if red == 0:
                continue
            if any(A.b4[x, imgs[j]] != A.b4[gens[i], gens[j]] for j in range(i)):
                continue
            place(i + 1, imgs + [x], echelon + [(red.bit_length() - 1, red)])

    place(0, [], [])
    return sols, nodes


def reference_orthogonal_perms(A):
    """The solutions of ``reference_search``, one permutation built per
    solution: an independent reference for the element list and its order."""
    sols, _ = reference_search(A)
    perms = []
    indices = np.arange(A.size)
    for sol in sols:
        perm = np.zeros(A.size, dtype=np.int32)
        for i, im in enumerate(sol):
            perm[((indices >> i) & 1).astype(bool)] ^= im
        perms.append(perm)
    return np.stack(perms)


def test_orthogonal_group_matches_the_reference_search(OQN, AN):
    assert OQN.dtype == np.int32 and not OQN.flags.writeable
    assert np.array_equal(OQN, reference_orthogonal_perms(AN))


def test_orthogonal_group_keeps_the_images_independent():
    # q and b vanish on all of (Z/2)^3, so every invertible matrix over F_2
    # is an isometry, GL(3, 2) of order 168, and only the span test keeps a
    # dependent image out
    A = FiniteQuadraticModule((2, 2, 2), (0, 0, 0), ((0, 0, 0),) * 3)
    group = orthogonal_group(A)
    assert len(group) == 168
    assert np.array_equal(group, reference_orthogonal_perms(A))
    _, nodes = reference_search(A)
    with pytest.raises(RuntimeError):
        orthogonal_group(A, node_budget=nodes - 1)


def test_node_budget_is_enforced(AN):
    with pytest.raises(RuntimeError):
        orthogonal_group(AN, node_budget=10)


def test_node_budget_counts_the_depth_first_nodes(AN):
    _, nodes = reference_search(AN)
    assert len(orthogonal_group(AN, node_budget=nodes)) == 1440
    with pytest.raises(RuntimeError, match=f"exceeded {nodes - 1} nodes"):
        orthogonal_group(AN, node_budget=nodes - 1)


def test_orthogonal_group_rejects_mixed_orders(AM):
    with pytest.raises(ValueError):
        orthogonal_group(AM)


def test_shared_tables_are_read_only():
    # the cached module and group are shared by every check: a stray write
    # must fail instead of corrupting the checks that run after it
    A = ambient_module()
    shared = [A.q4, A.b4, A.add_table, A.neg_table, A.element_orders,
              ambient_orthogonal_group()]
    for table in shared:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


# ---------------------------------------------------------------------------
# module construction guards
# ---------------------------------------------------------------------------


def test_inconsistent_generator_data_rejected():
    # b(g,g) != q(g) mod 1
    with pytest.raises(ValueError):
        FiniteQuadraticModule((2,), (4,), ((2,),))
    # order incompatible with pairing: d*b must vanish mod 1
    with pytest.raises(ValueError):
        FiniteQuadraticModule((2,), (0,), ((1,),))


def test_direct_sum_of_modules():
    A1 = discriminant_module(standard("A1"))
    S = direct_sum(A1, A1)
    assert S.size == 4
    qs = sorted(S.q(x) for x in S.elements())
    assert qs == [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(3, 2)]
    with pytest.raises(ValueError):
        direct_sum()


def test_find_isomorphism_positive_and_negative():
    u2 = discriminant_module(standard("U", 2))
    a1 = discriminant_module(standard("A1"))
    assert find_isomorphism(u2, u2) is not None
    # u is not isomorphic to A1 + A1: q-value multisets differ
    s = direct_sum(a1, a1)
    assert find_isomorphism(u2, s) is None


def test_discriminant_census_demo_runs():
    out = run_demo("01_discriminant_census.py")
    assert "=== Pairing table (72 entries) ===\n" in out
