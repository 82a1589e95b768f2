"""Tests for the Weil representation: generators, image group, character
theory, theta vectors, and the irreducibility certificate."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import igusa.weil as weil
from igusa.exact import CYC_I, CYC_ONE, CYC_ZERO, Cyclotomic, CycArray, CycMatrix
from igusa.fqm import (
    element_types,
    isotropic_planes,
    radical_class,
    reflection,
)
from igusa.weil import (
    CHARACTER_TABLE,
    CLASS_ORDER,
    GroupRingVector,
    ambient_module,
    ambient_orthogonal_group,
    character_degrees,
    class_sizes,
    conjugacy_classes,
    conjugacy_traces,
    conjugate_decomposition,
    decompose_character,
    image_group,
    irreducibility_check,
    isotypic_projector,
    isotypic_subspace,
    permutation_commutes_with_rep,
    theta_span_rank,
    theta_vector,
    theta_vectors,
    verify_character_table,
    w0_vector,
    w_basis,
    weil_generator,
)

from helpers import reference_apply, run_demo, traced_peak

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except Exception:  # pragma: no cover
    HAVE_HYPOTHESIS = False

MINUS_I = -CYC_I


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generator_t_is_diagonal_with_unit_entries():
    A = ambient_module()
    T = weil_generator("T")
    for x in A.elements():
        expected = Cyclotomic.e_half(A.q(x))
        assert T.entry(x, x) == expected
    # isotropic classes get eigenvalue 1
    assert T.entry(0, 0) == CYC_ONE


def test_generator_relations():
    S = weil_generator("S")
    T = weil_generator("T")
    E = CycMatrix.identity(64)
    assert S @ S == -E
    assert ((S @ S) @ (S @ S)).is_identity()
    assert ((T @ T) @ (T @ T)).is_identity()
    ST = S @ T
    assert ST @ ST @ ST == S @ S


def test_generator_s_matches_the_fourier_definition():
    A = ambient_module()
    scale = CYC_I * Fraction(1, 8)
    rows = [[scale * Cyclotomic.e(-A.b(delta, alpha)) for alpha in A.elements()]
            for delta in A.elements()]
    assert weil_generator("S") == CycMatrix.from_rows(rows)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        weil_generator("R")


# ---------------------------------------------------------------------------
# image group and conjugacy classes
# ---------------------------------------------------------------------------


def test_image_group_order_48():
    assert len(image_group()) == 48


def test_minus_identity_in_group():
    assert image_group()[((3, 0), (0, 3))] == -CycMatrix.identity(64)


def test_image_group_is_a_read_only_map():
    group = image_group()
    with pytest.raises(TypeError):
        group[((1, 0), (0, 1))] = CycMatrix.identity(64)
    assert len(image_group()) == 48


@pytest.mark.parametrize("i", range(0, 48, 6))
def test_image_group_is_a_homomorphism_on_a_sample(i):
    group = image_group()
    keys = sorted(group)
    x, y = keys[i], keys[(7 * i + 5) % 48]
    assert group[x] @ group[y] == group[weil._sl2_mul(x, y)]


def test_two_words_disagreeing_at_one_level4_matrix_raise(monkeypatch):
    # zeta T keeps every entry a root of unity, but (zeta T)^4 = zeta^4 T^4 is
    # not the identity that the level-4 relations ask for
    corrupted = {"S": weil_generator("S"), "T": weil_generator("T").scale(Cyclotomic.root(1))}
    monkeypatch.setattr(weil, "weil_generator", corrupted.__getitem__)
    with pytest.raises(AssertionError, match=re.escape(
            "two words for the level-4 matrix ((0, 3), (1, 3)) give different matrices")):
        image_group.__wrapped__()


def test_a_product_off_the_roots_of_unity_names_its_entry(monkeypatch):
    # negating one entry of S keeps S a matrix of roots of unity over 8, but
    # not unitary: S^2 has entries that are not 0 or a root of unity over 32
    S = weil_generator("S")
    num = S.num.copy()
    num[0, 1] = -num[0, 1]
    corrupted = {"S": CycMatrix(num, S.den), "T": weil_generator("T")}
    monkeypatch.setattr(weil, "weil_generator", corrupted.__getitem__)
    with pytest.raises(AssertionError, match=re.escape(
            "entry (0, 0) of the image of the level-4 matrix ((3, 0), (0, 3)) "
            "is neither 0 nor a root of unity over 32")):
        image_group.__wrapped__()


def test_right_multiplication_by_T_needs_a_diagonal_of_roots_of_unity(monkeypatch):
    monkeypatch.setattr(weil, "weil_generator", lambda name: weil_generator("S"))
    with pytest.raises(AssertionError, match="rho\\(T\\) is not a diagonal matrix of roots of unity"):
        image_group.__wrapped__()


@pytest.mark.parametrize("entry", [1 + Cyclotomic.root(1), Fraction(2, 3)])
def test_root_exponents_name_an_entry_off_the_roots_of_unity(entry):
    matrix = CycMatrix.from_rows([[Fraction(1, 3), 0], [entry, -Cyclotomic.root(5) / 3]])
    assert matrix.den == 3
    with pytest.raises(AssertionError, match=re.escape(
            "entry (1, 0) of the image of the level-4 matrix ((1, 0), (0, 1)) "
            "is neither 0 nor a root of unity over 3")):
        weil._root_exponents(matrix, ((1, 0), (0, 1)))
    matrix = CycMatrix.from_rows([[Fraction(1, 3), 0], [Cyclotomic.root(23) / 3, -CYC_I / 3]])
    assert weil._root_exponents(matrix, None).tolist() == [[0, 24], [23, 18]]


def test_image_group_keeps_exponents_not_dense_matrices():
    image_group()  # the generators and the module are cached
    tracemalloc.start()
    try:
        group = image_group.__wrapped__()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 48 dense (64, 64, 8) int64 matrices would take 12.6 MB
    assert len(group) == 48 and held < 500_000


def test_image_group_census_of_monomial_and_root_of_unity_matrices():
    shapes = [(m.den, int(m.num.any(axis=-1).sum())) for m in image_group().values()]
    assert sorted(set(shapes)) == [(1, 64), (8, 4096)]
    assert shapes.count((1, 64)) == 16 and shapes.count((8, 4096)) == 32


def test_a_trivial_action_is_consistent_but_not_faithful(monkeypatch):
    monkeypatch.setattr(weil, "weil_generator", lambda name: CycMatrix.identity(64))
    with pytest.raises(AssertionError, match="48 level-4 matrices act as the identity"):
        image_group.__wrapped__()


def test_classes_are_sorted_tuples_partitioning_the_level4_matrices():
    classes = conjugacy_classes()
    assert all(members == tuple(sorted(members)) for members in classes.values())
    assert sorted(x for members in classes.values() for x in members) == sorted(image_group())


def test_class_sizes():
    assert class_sizes() == [1, 1, 6, 6, 6, 6, 3, 3, 8, 8]
    assert sum(class_sizes()) == 48


def test_conjugacy_traces_frozen():
    traces = conjugacy_traces()
    expected = [
        Cyclotomic(64),
        Cyclotomic(-64),
        CYC_ZERO,
        CYC_ZERO,
        -8 * CYC_I,
        8 * CYC_I,
        CYC_ZERO,
        CYC_ZERO,
        -CYC_ONE,
        CYC_ONE,
    ]
    assert traces == expected


def test_st_word_has_trace_minus_one():
    classes = conjugacy_classes()
    assert image_group()[classes["ST"][0]].trace() == -CYC_ONE
    assert image_group()[classes["(ST)^2"][0]].trace() == CYC_ONE


# ---------------------------------------------------------------------------
# character table and decomposition
# ---------------------------------------------------------------------------


def test_character_table_orthonormal():
    verify_character_table()  # raises on failure


def test_character_table_is_verified_once_and_corruption_still_raises(monkeypatch):
    verify_character_table.cache_clear()
    try:
        corrupted = list(CHARACTER_TABLE)
        corrupted[1] = corrupted[1][:8] + (-corrupted[1][8],) + corrupted[1][9:]
        monkeypatch.setattr(weil, "CHARACTER_TABLE", tuple(corrupted))
        with pytest.raises(AssertionError):
            verify_character_table()
        with pytest.raises(AssertionError):
            decompose_character()
        monkeypatch.undo()
        verify_character_table()
        assert verify_character_table.cache_info().currsize == 1
        decompose_character()
        decompose_character()
        assert verify_character_table.cache_info().misses == 3
    finally:
        verify_character_table.cache_clear()


ENTRIES = [(i, c) for i in range(10) for c in range(10)]


@pytest.mark.parametrize("i, c", ENTRIES)
def test_changing_any_character_table_entry_breaks_both_relations(i, c, monkeypatch):
    # adding 1 changes |chi_i(c)|, negating keeps it: the diagonal of the
    # column relation alone misses a negated nonzero entry off column E
    verify_character_table.cache_clear()
    try:
        for changed in (CHARACTER_TABLE[i][c] + 1, -CHARACTER_TABLE[i][c]):
            if changed == CHARACTER_TABLE[i][c]:
                continue
            table = [list(row) for row in CHARACTER_TABLE]
            table[i][c] = changed
            monkeypatch.setattr(weil, "CHARACTER_TABLE", tuple(map(tuple, table)))
            name = re.escape(CLASS_ORDER[c])
            with pytest.raises(AssertionError, match=(
                    rf"character rows ({i + 1}, \d+|\d+, {i + 1}) not orthonormal; "
                    rf"character columns ({name}, \S+|\S+, {name}) break")):
                verify_character_table()
    finally:
        verify_character_table.cache_clear()


def reference_projector(character_index: int) -> CycMatrix:
    """(deg/|G|) * sum_g conj(chi(g)) rho(g), one group element at a time."""
    row = CHARACTER_TABLE[character_index - 1]
    acc = None
    for name, value in zip(CLASS_ORDER, row):
        for x in conjugacy_classes()[name]:
            term = image_group()[x].scale(value.conjugate())
            acc = term if acc is None else acc + term
    return acc.scale(Fraction(character_degrees()[character_index - 1], 48))


@pytest.mark.parametrize("character_index", range(1, 11))
def test_class_sum_projector_matches_the_element_sum(character_index):
    assert isotypic_projector(character_index) == reference_projector(character_index)


def test_projectors_sum_to_the_identity():
    total = isotypic_projector(1)
    for index in range(2, 11):
        total = total + isotypic_projector(index)
    assert total == CycMatrix.identity(64)


def test_character_degrees():
    assert character_degrees() == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]


def test_decomposition_multiplicities():
    mults = decompose_character()
    assert mults == [0, 0, 1, 5, 0, 5, 0, 0, 6, 10]
    total = sum(m * d for m, d in zip(mults, character_degrees()))
    assert total == 64


def test_conjugate_decomposition_differs():
    conj = conjugate_decomposition()
    assert conj == [0, 0, 5, 1, 0, 5, 0, 0, 10, 6]
    assert conj != decompose_character()


# ---------------------------------------------------------------------------
# isotypic projectors and subspaces
# ---------------------------------------------------------------------------


def test_projectors_idempotent_and_orthogonal():
    P3 = isotypic_projector(3)
    P4 = isotypic_projector(4)
    assert P3 @ P3 == P3  # also checked internally
    zero = P3 @ P4
    assert zero == CycMatrix.from_rows(
        [[CYC_ZERO] * 64 for _ in range(64)]
    )


def test_isotypic_dimensions():
    assert len(isotypic_subspace(4, expected_dim=5)) == 5
    assert len(isotypic_subspace(3, expected_dim=1)) == 1
    with pytest.raises(ValueError):
        isotypic_subspace(4, expected_dim=7)


def reference_isotypic_basis(character_index):
    """The first independent projector columns, found by incremental
    elimination over the cyclotomic field against the reduced rows kept so
    far: the basis before it was read off the rational echelon pivots."""
    A = ambient_module()
    proj = isotypic_projector(character_index)
    rows, basis = [], []
    for j in range(A.size):
        col = GroupRingVector.packed(A, proj.num[:, j], proj.den)
        red = list(col.dense)
        for prow in rows:
            lead = next(k for k, v in enumerate(prow) if v)
            if red[lead]:
                factor = red[lead]
                red = [a - factor * b for a, b in zip(red, prow)]
        if any(red):
            lead = next(k for k, v in enumerate(red) if v)
            inv = red[lead].inverse()
            rows.append([a * inv for a in red])
            basis.append(col)
    return basis


@pytest.mark.parametrize("character_index", [3, 4, 6, 9, 10])
def test_isotypic_basis_matches_the_incremental_elimination(character_index):
    basis = isotypic_subspace(character_index)
    assert basis == reference_isotypic_basis(character_index)
    mult = decompose_character()[character_index - 1]
    assert len(basis) == mult * character_degrees()[character_index - 1]


@pytest.mark.parametrize("stated", [4, 6])
def test_isotypic_trace_certificate_rejects_a_misstated_multiplicity(stated, monkeypatch):
    # an understated multiplicity passed the incremental elimination, which
    # stopped at the stated number of independent columns
    mults = list(decompose_character())
    assert mults[3] == 5  # chi_4 has degree 1: the projector has trace 5
    mults[3] = stated
    monkeypatch.setattr(weil, "decompose_character", lambda: mults)
    with pytest.raises(ValueError, match=f"trace 5, expected rank {stated}"):
        isotypic_subspace(4)


def test_isotypic_subspace_rejects_an_irrational_projector(monkeypatch):
    monkeypatch.setattr(weil, "isotypic_projector", lambda i: weil_generator("T"))
    with pytest.raises(ValueError, match="irrational entry"):
        isotypic_subspace(4)


# ---------------------------------------------------------------------------
# theta vectors
# ---------------------------------------------------------------------------


def test_theta_count_and_support():
    A = ambient_module()
    labels = element_types(A)
    thetas = theta_vectors()
    assert len(thetas) == 15
    for th in thetas:
        assert len(th.support) == 8
        assert all(labels[x] == "3/2" for x in th.support)
        assert sorted(
            c.as_rational() for c in th.dense if c
        ) == [-1, -1, -1, -1, 1, 1, 1, 1]


def test_theta_eigenvalue_identities():
    S = weil_generator("S")
    T = weil_generator("T")
    for th in theta_vectors():
        assert th.apply(S) == th.scale(MINUS_I)
        assert th.apply(T) == th.scale(MINUS_I)


def test_theta_reflection_negation():
    A = ambient_module()
    kappa = radical_class(A)
    planes = isotropic_planes(A)
    for plane, th in zip(planes, theta_vectors()):
        I = [0] + list(plane)
        V = sorted({A.add(c, k) for c in I for k in (0, kappa)})
        assert len(V) == 8
        q_one = [v for v in V if A.q4[v] == 4]
        assert len(q_one) == 4  # kappa plus the three translates
        for beta in q_one:
            t = reflection(A, beta)
            assert th.permute(t) == -th


def test_theta_in_w():
    P4 = isotypic_projector(4)
    for th in theta_vectors():
        assert th.apply(P4) == th


def test_theta_rank_five():
    assert theta_span_rank() == 5
    assert len(w_basis()) == 5


def test_w_basis_is_the_first_independent_theta_vectors():
    # each basis vector is independent of the theta vectors before it
    thetas = theta_vectors()
    basis = w_basis()
    assert [next(i for i, t in enumerate(thetas) if t is v) for v in basis] == [0, 1, 3, 4, 7]


def test_theta_base_point_sign_choices():
    # all eight admissible base points of a plane give the same vector up
    # to sign
    A = ambient_module()
    kappa = radical_class(A)
    plane = isotropic_planes(A)[0]
    th = theta_vector(plane)
    I = [0] + list(plane)
    candidates = [
        x
        for x in A.elements()
        if A.q4[x] == 6 and all(A.b4[x, c] == 0 for c in I)
    ]
    assert len(candidates) == 8
    seen = set()
    for alpha0 in candidates:
        m_plus = [A.add(alpha0, c) for c in I]
        dense = [CYC_ZERO] * A.size
        for x in m_plus:
            dense[x] = CYC_ONE
        for x in m_plus:
            dense[A.add(x, kappa)] = -CYC_ONE
        seen.add(GroupRingVector(A, dense))
    assert seen == {th, -th}


def test_theta_rejects_non_isotropic_plane():
    A = ambient_module()
    labels = element_types(A)
    bad = [x for x in A.elements() if labels[x] == "1"][:3]
    with pytest.raises(ValueError):
        theta_vector(tuple(bad))


# ---------------------------------------------------------------------------
# W0
# ---------------------------------------------------------------------------


def test_w0_properties():
    A = ambient_module()
    labels = element_types(A)
    kappa = radical_class(A)
    v0 = w0_vector()
    assert {labels[x] for x in v0.support} == {"1/2"}
    assert len(v0.support) == 12
    S = weil_generator("S")
    T = weil_generator("T")
    assert v0.apply(S) == v0.scale(CYC_I)
    assert v0.apply(T) == v0.scale(CYC_I)
    t = reflection(A, kappa)
    assert v0.permute(t) == -v0
    dense = v0.dense
    for x in A.elements():
        assert dense[A.add(x, kappa)] == -dense[x]


# ---------------------------------------------------------------------------
# O(q)-equivariance and irreducibility
# ---------------------------------------------------------------------------


def test_permutation_action_commutes_with_generators():
    assert all(permutation_commutes_with_rep(g) for g in ambient_orthogonal_group())


def test_irreducibility_certificate():
    rep = irreducibility_check()
    assert rep["frobenius_norm"] == CYC_ONE
    assert rep["is_irreducible"] is True
    assert rep["identity_character"] == Cyclotomic(5)
    assert rep["central_involution_is_minus_one"] is True


def test_irreducibility_check_names_a_missing_identity(monkeypatch):
    rows = ambient_orthogonal_group()
    assert np.array_equal(rows[0], np.arange(64))
    monkeypatch.setattr(weil, "ambient_orthogonal_group", lambda: rows[1:])
    with pytest.raises(ValueError, match="expected one identity member, found 0"):
        irreducibility_check()


def test_irreducibility_check_certifies_that_the_rows_form_a_group(monkeypatch):
    rows = ambient_orthogonal_group()
    # the identity is still there, but some row composed with a reflection
    # is the dropped last row
    monkeypatch.setattr(weil, "ambient_orthogonal_group", lambda: rows[:-1])
    with pytest.raises(ValueError, match=r"row \d+ composed with the reflection "
                                         r"in class \d+ is not a row"):
        irreducibility_check()


def test_group_certificate_needs_the_reflections_to_reach_every_row(monkeypatch):
    # reflections that all act as the identity keep every row a row, but
    # generate only the identity
    monkeypatch.setattr(weil, "reflection", lambda A, alpha: np.arange(A.size))
    with pytest.raises(ValueError, match="the reflections reach 1 of 1440 rows"):
        irreducibility_check()


def test_character_norm_gathers_one_component_plane_at_a_time():
    proj, perms = isotypic_projector(4), ambient_orthogonal_group()
    # a (1440, 64, 8) gather alone would take 5.9 MB
    assert traced_peak(weil._character_norm, proj, perms) < 2_000_000


def test_projector_accumulates_the_class_sums_in_place():
    isotypic_projector(4)  # every other cache is warm
    weil._class_sums.cache_clear()
    weil.isotypic_projector.cache_clear()
    # the class sums themselves take 2.6 MB
    assert traced_peak(isotypic_projector, 4) < 6_000_000


def test_character_value_does_not_wrap_past_int64():
    big = CycMatrix.from_rows([[2**62] * 2] * 2)
    chars, norm = weil._character_norm(big, np.array([[0, 1], [1, 0]]))
    assert [chars.entry(i).as_rational() for i in range(2)] == [2**63, 2**63]
    assert norm == Cyclotomic(2**126)
    # the packed characters and norm against per-element Cyclotomic sums
    proj = isotypic_projector(4)
    perms = ambient_orthogonal_group()[:10]
    chars, norm = weil._character_norm(proj, perms)
    reference = [sum((proj.entry(int(p[a]), a) for a in range(64)), CYC_ZERO) for p in perms]
    assert [chars.entry(i) for i in range(10)] == reference
    assert norm == sum((c * c.conjugate() for c in reference), CYC_ZERO) / 10
    first = next(i for i, p in enumerate(perms) if (p == np.arange(64)).all())
    rep = irreducibility_check()
    assert rep["identity_character"] == reference[first] == Cyclotomic(5)


# ---------------------------------------------------------------------------
# group ring vector mechanics
# ---------------------------------------------------------------------------


def test_weil_and_theta_demos_run():
    out = run_demo("02_weil_representation.py")
    assert "the generated matrix group has exactly 48 elements\n" in out
    assert "  16 monomial matrices over 1 " in out
    assert "  32 matrices with every entry a root of unity over 8\n" in out
    out = run_demo("03_theta_vectors.py")
    assert "rho(S) theta = rho(T) theta = -i theta for all 15: True\n" in out
    assert "rank of the 15 vectors: 5\n" in out


def test_group_ring_vector_roundtrip():
    A = ambient_module()
    v = GroupRingVector.from_dict(A, {3: 2, 5: -CYC_I})
    assert v.coefficients == {3: Cyclotomic(2), 5: -CYC_I}
    assert v.support == {3, 5}
    w = v + v
    assert w.coefficients[3] == Cyclotomic(4)
    assert (v - v).support == frozenset()
    assert (-v).coefficients[5] == CYC_I
    assert v.dense[3] == Cyclotomic(2) and v.dense[0] == CYC_ZERO
    assert v.num.shape == (64, 8) and v.den == 1
    half = v.scale(Fraction(1, 2))
    assert half.den == 2 and half.scale(2) == v and hash(half.scale(2)) == hash(v)
    odd = GroupRingVector.from_dict(A, {3: 1})
    assert odd.scale(Fraction(1, 2)) != odd  # same numerators, other denominator
    assert not GroupRingVector.from_dict(A, {}) and v
    with pytest.raises(ValueError):
        GroupRingVector(A, [CYC_ONE] * 3)


def test_packed_vector_arithmetic_does_not_wrap_past_int64():
    A = ambient_module()
    big = Cyclotomic([Fraction(2**62), 0, 0, 0, Fraction(2**62), 0, 0, 0])
    coeffs = {0: big, 5: Cyclotomic(2**62), 17: -big, 40: CYC_I * 2**62}
    v = GroupRingVector.from_dict(A, coeffs)
    assert v.num.dtype == np.int64  # the inputs fit; the results do not
    # Python-integer references: Fraction cyclotomic arithmetic
    assert v.scale(2).dense == tuple(c * 2 for c in v.dense)
    assert v.scale(big).dense == tuple(c * big for c in v.dense)
    assert (v + v).dense == tuple(c + c for c in v.dense)
    assert (v + v).coefficients[5].as_rational() == 2**63
    S = weil_generator("S")
    assert v.apply(S).dense == tuple(reference_apply(S, v.dense))
    wide = CycMatrix.from_rows([[2**62] * 3] * 3)
    out = wide.apply(CycArray.from_values([2**62, 2**62, -1]))
    assert [out.entry(i).as_rational() for i in range(3)] == [2**125 - 2**62] * 3
    # a result that fits comes back as int64
    assert v.scale(Fraction(1, 2**62)).num.dtype == np.int64


if HAVE_HYPOTHESIS:
    coefficient = st.builds(
        lambda cs: Cyclotomic(tuple(cs)),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                 min_size=8, max_size=8),
    )
    sparse_vectors = st.dictionaries(
        st.integers(min_value=0, max_value=63), coefficient, max_size=5
    ).map(lambda d: GroupRingVector.from_dict(ambient_module(), d))

    @given(sparse_vectors, coefficient)
    @settings(max_examples=25, deadline=None)
    def test_packed_scale_matches_the_fraction_reference(v, factor):
        assert v.scale(factor).dense == tuple(c * factor for c in v.dense)

    @given(sparse_vectors, st.sampled_from(["S", "T"]))
    @settings(max_examples=20, deadline=None)
    def test_packed_generator_action_matches_the_fraction_reference(v, name):
        g = weil_generator(name)
        assert v.apply(g).dense == tuple(reference_apply(g, v.dense))

    @given(sparse_vectors, st.integers(min_value=0, max_value=1439))
    @settings(max_examples=25, deadline=None)
    def test_packed_permute_matches_the_fraction_reference(v, index):
        perm = ambient_orthogonal_group()[index]
        expected = [CYC_ZERO] * 64
        for alpha, c in enumerate(v.dense):
            if c:
                expected[perm[alpha]] = c
        assert v.permute(perm).dense == tuple(expected)

    @given(sparse_vectors, sparse_vectors, st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_packed_equality_and_hash_follow_the_coefficients(v, w, k):
        assert (v == w) == (v.dense == w.dense)
        same = GroupRingVector(ambient_module(), v.dense)
        assert same == v and hash(same) == hash(v)
        rescaled = v.scale(k).scale(Fraction(1, k))
        assert rescaled == v and hash(rescaled) == hash(v)
        assert (v.scale(Fraction(1, k + 1)) == v) == (not v)
        assert (v - v) == GroupRingVector.from_dict(ambient_module(), {})
