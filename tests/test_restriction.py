"""Embedding, member-discriminant combinatorics, and restriction cases."""

import dataclasses
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import igusa.restriction as restriction
from igusa.exact import integer_echelon
from igusa.fqm import element_types, isotropic_planes, radical_class
from igusa.lattices import ambient_lattice, restriction_lattice
from igusa.restriction import (
    MAX_BOX,
    all_v1_images,
    am_census,
    boundary_configuration,
    build_embedding,
    heegner_restriction_cases,
    restriction_case,
    restriction_module,
    seven_lines,
    v_to_v1,
)
from igusa.weil import ambient_module

from helpers import run_demo, traced_peak

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embedding_basis_and_complement():
    emb = build_embedding()
    N = emb.ambient
    diff = emb.member_basis[4]
    assert N.norm(diff) == -4
    assert N.norm(emb.complement_generator) == -4
    assert N.ip(diff, emb.complement_generator) == 0
    gram = [[N.ip(u, v) for v in emb.member_basis] for u in emb.member_basis]
    assert gram == [list(row) for row in restriction_lattice().gram]


def test_member_discriminant_group_structure():
    A = restriction_module()
    assert A.orders == (2, 2, 2, 2, 4)
    assert A.size == 64
    # the radical class is the half of the norm -4 generator
    lat = restriction_lattice()
    assert A.class_of_vector(lat.vector(a=HALF)) == radical_class(A)


def _reference_split(r):
    """The Fraction split of an ambient vector r as r1 + (m/2) * complement
    with r1 in the member's rational span: returns (r1 ambient coords, m).
    Kept as the reference for the certified arrays of build_embedding."""
    emb = build_embedding()
    N, c = emb.ambient, emb.complement_generator
    m = 2 * N.ip(r, c) / N.norm(c)
    if m.denominator != 1:
        raise ValueError("vector does not split with an integer m")
    r1 = tuple(Fraction(x) - m / 2 * ci for x, ci in zip(r, c))
    assert N.ip(r1, c) == 0, "split component must be orthogonal"
    return r1, int(m)


def _reference_member_coordinates(ambient_coords):
    """Member coordinates of an ambient vector in the member's rational span,
    by an exact integer Gauss-Jordan solve; raises if outside the span."""
    emb = build_embedding()
    k = len(emb.member_basis)
    rows = [
        [v[i] for v in emb.member_basis] + [ambient_coords[i]]
        for i in range(emb.ambient.rank)
    ]
    reduced, pivots = integer_echelon(rows)
    assert [c for _, c in pivots[:k]] == list(range(k)), "basis must have full rank"
    if len(pivots) > k:
        raise ValueError("vector lies outside the member span")
    return tuple(Fraction(reduced[r][k], reduced[r][c]) for r, c in pivots)


def test_embed_split_roundtrip():
    emb = build_embedding()
    vec = tuple(int(v) for v in np.array((1, 2, 0, -1, 3)) @ emb.member_basis)
    assert vec == (1, 2, 0, -1, 3, -3)
    r1, m = _reference_split(vec)
    assert m == 0 and r1 == vec
    assert _reference_member_coordinates(r1) == (1, 2, 0, -1, 3)
    assert vec @ emb.multiple == 0
    assert (vec @ emb.projection).tolist() == [2, 4, 0, -2, 6]
    # a root generator splits with m = 1
    root = (0, 0, 0, 0, 1, 0)
    r1, m = _reference_split(root)
    assert m == 1
    assert r1 == (0, 0, 0, 0, HALF, -HALF)
    assert root @ emb.multiple == 1
    assert (root @ emb.projection).tolist() == [0, 0, 0, 0, 1]


def test_split_and_solve_rejections():
    with pytest.raises(ValueError, match="integer m"):
        _reference_split((0, 0, 0, 0, HALF, 0))
    with pytest.raises(ValueError, match="outside the member span"):
        _reference_member_coordinates((0, 0, 0, 0, 1, 0))
    with pytest.raises(ValueError, match="length"):
        _reference_split((1, 2, 3))


def test_certified_split_matches_the_reference_on_a_box():
    emb = build_embedding()
    rows = np.array(list(product(range(-2, 3), repeat=6)), dtype=np.int64)
    assert len(rows) == 15_625
    m, two_r1 = rows @ emb.multiple, rows @ emb.projection
    for r, m_r, y in zip(rows.tolist(), m.tolist(), two_r1.tolist()):
        r1, m_ref = _reference_split(r)
        assert m_ref == m_r, r
        assert [2 * x for x in _reference_member_coordinates(r1)] == y, r


def test_split_arrays_are_read_only():
    emb = build_embedding()
    for array in (emb.projection, emb.multiple):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7


def _certify(projection=None, multiple=None):
    emb = build_embedding()
    restriction._certify_split(
        emb.ambient.gram,
        emb.member_basis,
        emb.complement_generator,
        emb.projection if projection is None else projection,
        emb.multiple if multiple is None else multiple,
    )


def test_split_certificate_rejects_a_flipped_projection_sign():
    projection = build_embedding().projection
    entries = list(zip(*np.nonzero(projection)))
    assert len(entries) == 6
    for entry in entries:
        flipped = projection.copy()
        flipped[entry] *= -1
        with pytest.raises(ValueError, match="projection and multiple do not split 2r"):
            _certify(projection=flipped)


def test_split_certificate_rejects_a_wrong_multiple():
    with pytest.raises(ValueError, match="multiple is not"):
        _certify(multiple=np.array((0, 0, 0, 0, 1, -1), dtype=np.int64))


# ---------------------------------------------------------------------------
# Census and boundary combinatorics
# ---------------------------------------------------------------------------


def test_census_counts():
    assert am_census() == {
        "00": 1,
        "0": 15,
        "1": 15,
        "10": 1,
        "3/4": 6,
        "7/4": 10,
    }


def test_negation_action():
    A = restriction_module()
    labels = element_types(A)
    kappa = radical_class(A)
    for x in A.elements():
        if labels[x] in ("3/4", "7/4"):
            assert A.order_of(x) == 4
            assert A.neg(x) == A.add(x, kappa)
        else:
            assert A.order_of(x) <= 2
            assert A.neg(x) == x


def test_boundary_configuration():
    assert boundary_configuration() == {
        "points": 15,
        "lines": 15,
        "lines_through_each_point": 3,
        "points_on_each_line": 3,
        "perpendicular_isotropic_count": 7,
    }


# ---------------------------------------------------------------------------
# Single-vector restriction cases
# ---------------------------------------------------------------------------


def test_root_generator_case():
    case = restriction_case((0, 0, 0, 0, 1, 0))
    assert case.m == 1
    assert case.r1 == (0, 0, 0, 0, HALF, -HALF)
    assert case.r_norm == -2 and case.r1_norm == -1
    assert case.ambient_type == "3/2"
    assert case.beta_type == "7/4"


def test_paired_root_generators_share_the_member_component():
    first = restriction_case((0, 0, 0, 0, 1, 0))
    second = restriction_case((0, 0, 0, 0, 0, -1))
    assert first.r1 == second.r1
    assert {first.m, second.m} == {1, -1}


def test_hyperbolic_difference_case():
    case = restriction_case((1, -1, 0, 0, 0, 0))
    assert case.m == 0
    assert case.r_norm == case.r1_norm == -4
    assert case.ambient_type == "1" and case.beta_type == "1"


def test_characteristic_vector_case():
    case = restriction_case((0, 0, 0, 0, 1, -1))
    assert case.m == 0 and case.r1_norm == -4
    assert case.ambient_type == "10" and case.beta_type == "10"


def test_case_classes_name_the_types():
    AN, AM = ambient_module(), restriction_module()
    for r in ((0, 0, 0, 0, 1, 0), (1, -1, 0, 0, 0, 0), (0, 0, 0, 0, 1, -1)):
        case = restriction_case(r)
        assert case.ambient_class == AN.class_of_vector(tuple(c * HALF for c in r))
        assert element_types(AN)[case.ambient_class] == case.ambient_type
        assert element_types(AM)[case.beta_class] == case.beta_type


def test_case_requires_integral_vector():
    with pytest.raises(ValueError, match="r must be an integral ambient vector"):
        restriction_case((HALF, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("r", [(1, 2, 3), (0,) * 7])
def test_case_requires_an_ambient_length(r):
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        restriction_case(r)


# ---------------------------------------------------------------------------
# Box enumeration
# ---------------------------------------------------------------------------


def test_case_table_at_bound_three():
    rep = heegner_restriction_cases(3)
    cases = rep["cases"]
    assert cases[-4]["m_values"] == (0,)
    assert cases[-4]["r1_norms"] == (-4,)
    assert cases[-4]["ambient_types"] == ("1", "10")
    assert cases[-4]["beta_types"] == ("1", "10")
    assert cases[-4]["hyperplane_multiplicity"] == 1
    assert cases[-2]["m_values"] == (-1, 1)
    assert cases[-2]["r1_norms"] == (-1,)
    assert cases[-2]["ambient_types"] == ("3/2",)
    assert cases[-2]["beta_types"] == ("7/4",)
    assert cases[-2]["hyperplane_multiplicity"] == 2
    assert cases[-6]["m_values"] == (-1, 1)
    assert cases[-6]["r1_norms"] == (-5,)
    assert cases[-6]["ambient_types"] == ("1/2",)
    assert cases[-6]["beta_types"] == ("3/4",)
    assert cases[-6]["hyperplane_multiplicity"] == 2
    # every odd-m vector found a partner
    assert 2 * cases[-2]["paired_hyperplanes"] == cases[-2]["relevant"]
    assert 2 * cases[-6]["paired_hyperplanes"] == cases[-6]["relevant"]


@pytest.mark.parametrize("bound", [3, 4])
def test_box_totals_match_a_direct_count(bound):
    rep = heegner_restriction_cases(bound)
    gram = [[int(g) for g in row] for row in ambient_lattice().gram]
    counts = {-4: 0, -2: 0, -6: 0}
    relevant = {-4: 0, -2: 0, -6: 0}
    members = {-2: set(), -6: set()}
    for r in product(range(-bound, bound + 1), repeat=6):
        n = 4 * (r[0] * r[1] + r[2] * r[3]) - 2 * (r[4] ** 2 + r[5] ** 2)
        if n not in counts:
            continue
        counts[n] += 1
        assert sum(g * x * y for row, x in zip(gram, r) for g, y in zip(row, r)) == n
        m = r[4] + r[5]
        if n + m * m < 0:
            relevant[n] += 1
            if n in members:
                members[n].add(r[:4] + (r[4] - r[5],))
    for norm, case in rep["cases"].items():
        assert case["vectors_in_box"] == counts[norm]
        assert case["relevant"] == relevant[norm]
        if norm in members:
            assert case["paired_hyperplanes"] == len(members[norm])
        else:
            assert case["paired_hyperplanes"] is None


def test_case_classification_is_box_stable():
    def strip(rep):
        keep = ("m_values", "r1_norms", "ambient_types", "beta_types")
        return {
            k: tuple(v[kk] for kk in keep) for k, v in rep["cases"].items()
        }

    assert strip(heegner_restriction_cases(3)) == strip(
        heegner_restriction_cases(4)
    )


def test_bound_guard():
    with pytest.raises(ValueError, match="at least 3"):
        heegner_restriction_cases(2)
    with pytest.raises(ValueError, match=f"at most {MAX_BOX}"):
        heegner_restriction_cases(MAX_BOX + 1)


def _reference_level_sets(bound, targets):
    """Every integer vector r with max-norm <= bound and r^2 in targets, as
    (k, 6) int64 arrays in lexicographic order, keyed by target: the full
    level sets, relevant or not, kept as the reference for the library's
    enumeration of the relevant vectors.

    The norm splits as r^2 = 4*x1*x2 + t with t = 4*x3*x4 - 2*(x5^2 + x6^2).
    The (2b+1)^4 tail values t are sorted once; each head (x1, x2) then takes
    the tails with t = target - 4*x1*x2 by binary search.  A stable sort
    keeps equal tails in lexicographic order."""
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    tail = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), -1).reshape(-1, 4)
    t = 4 * tail[:, 0] * tail[:, 1] - 2 * (tail[:, 2] ** 2 + tail[:, 3] ** 2)
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    head = np.stack(np.meshgrid(rng, rng, indexing="ij"), -1).reshape(-1, 2)
    sets = {}
    for target in targets:
        need = target - 4 * head[:, 0] * head[:, 1]
        lo = np.searchsorted(t_sorted, need, side="left")
        counts = np.searchsorted(t_sorted, need, side="right") - lo
        # solution j of head i sits at t_sorted[lo[i] + j - (solutions before head i)]
        shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        picks = order[shift + np.arange(counts.sum())]
        sets[target] = np.concatenate(
            [np.repeat(head, counts, axis=0), tail[picks]], axis=1
        )
    return sets


def _brute_force_level_sets(bound, targets):
    """The same level sets from all (2b+1)^6 vectors of the box."""
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    box = np.stack(np.meshgrid(*[rng] * 6, indexing="ij"), -1).reshape(-1, 6)
    gram = np.array(ambient_lattice().gram, dtype=np.int64)
    norms = np.einsum("ij,jk,ik->i", box, gram, box)
    return {target: box[norms == target] for target in targets}


def test_reference_level_sets_match_the_whole_box():
    reference = _reference_level_sets(3, (-4, -2, -6))
    brute = _brute_force_level_sets(3, (-4, -2, -6))
    for target in (-4, -2, -6):
        assert np.array_equal(reference[target], brute[target]), target
    counts = {target: len(rows) for target, rows in brute.items()}
    totals = {target: case["vectors_in_box"]
              for target, case in heegner_restriction_cases(3)["cases"].items()}
    assert totals == counts


@pytest.mark.parametrize("bound", range(3, 9))
def test_relevant_level_sets_match_the_reference(bound):
    reference = _reference_level_sets(bound, (-4, -2, -6))
    relevant = restriction._relevant_level_sets(bound, (-4, -2, -6))
    assert list(relevant) == [-4, -2, -6]
    for target, (rows, width, totals) in relevant.items():
        full = reference[target]
        expected = full[(full[:, 4] + full[:, 5]) ** 2 < -target]
        assert rows.dtype == width.dtype == np.int8
        assert np.array_equal(rows, expected), target  # order included
        assert np.array_equal(width, np.abs(expected).max(axis=1)), target
        widths = np.abs(full).max(axis=1)
        box_totals = np.cumsum(np.bincount(widths, minlength=bound + 1))
        assert totals == box_totals.tolist(), target


def _refused(match, call, *args):
    """call(*args) must raise ValueError matching match."""
    with pytest.raises(ValueError, match=match):
        call(*args)


@pytest.mark.parametrize("bound, targets, limit", [
    (128, (-4, -2, -6), "coordinate bound reaches 128, past the int8 limit 127"),
    (108, (-4, -2, -6), "tail index reaches 2217373920, past the int32 limit"),
    (3, (-(2**29),), "norm bin reaches 4294967875, past the int32 limit"),
])
def test_level_sets_refuse_bounds_past_their_dtypes_before_allocating(
        bound, targets, limit):
    # the box of half-width 108 would hold 217^4 tails, 8.9 GB of int32 norms
    peak = traced_peak(_refused, limit, restriction._relevant_level_sets,
                       bound, targets)
    assert peak < 100_000


def test_split_classes_refuse_values_past_their_dtypes(monkeypatch):
    # m = x5 + x6 is int16
    rows = np.array([[0, 0, 0, 0, 20_000, 0]])
    _refused("m reaches 40000, past the int16 limit 32767",
             restriction._split_classes, rows)
    # class indices are int8
    monkeypatch.setattr(restriction, "ambient_module", lambda: SimpleNamespace(size=256))
    _refused("class index reaches 255, past the int8 limit 127",
             restriction._split_classes, rows[:0])


def test_pairing_groups_refuse_keys_past_int32():
    # member components in the box of half-width 19 span 77^5 > 2^31 keys
    rows = np.zeros((0, 6), dtype=np.int8)
    _refused("pairing key reaches 2706784156, past the int32 limit",
             restriction._pairing_groups, rows, 19)
    assert restriction._pairing_groups(rows, 18).dtype == np.int32


def test_split_classes_do_not_depend_on_the_block_size(monkeypatch):
    rows = restriction._relevant_level_sets(6, (-2,))[-2][0]
    block = restriction._CHUNK
    assert len(rows) > 2 * block
    blocked = restriction._split_classes(rows)
    assert [a.dtype for a in blocked] == [np.int16, np.int8, np.int8]
    for chunk in (7, len(rows)):
        monkeypatch.setattr(restriction, "_CHUNK", chunk)
        for got, expected in zip(restriction._split_classes(rows), blocked):
            assert np.array_equal(got, expected)
    # the rows on either side of the first block boundary, on the exact path
    m, cn, cm = blocked
    for i in (block - 1, block):
        case = restriction_case(rows[i].tolist())
        assert (case.m, case.ambient_class, case.beta_class) == (m[i], cn[i], cm[i])


def test_case_table_memory_peak_is_bounded():
    heegner_restriction_cases(3)  # every shared context is built
    # 1.76 MB measured with compact level sets (6.06 MB with int64 ones and
    # <U3 type labels); the bound leaves a 25 % margin
    assert traced_peak(heegner_restriction_cases, 7) < 2_200_000


def test_pairing_vectors_need_a_form_divisible_by_d():
    pairing = restriction._pairing_form
    rows = np.array([[2, 0], [1, 1], [1, 0], [0, 1]], dtype=np.int64)
    even = rows @ pairing(((2, 0), (0, -2)), 2, "odd")
    assert even.tolist() == [[2, 0], [1, -1], [1, 0], [0, -1]]
    with pytest.raises(ValueError, match=r"^odd$"):
        pairing(((1, 0), (0, 2)), 2, "odd")


def test_masked_class_digits_match_the_modulo_reference(monkeypatch):
    rows = np.indices((7,) * 6).reshape(6, -1).T - 3  # the whole box of half-width 3
    masked = restriction._split_classes(rows)
    negative = []

    def modulo(module, K):
        digits = K @ np.array(module._push_mat, dtype=np.int64)[module._kept].T
        if (digits < 0).any():
            negative.append(module)
        return (digits % np.array(module.orders)) @ module._radix

    monkeypatch.setattr(restriction, "_vectorized_classes", modulo)
    for got, expected in zip(masked, restriction._split_classes(rows)):
        assert np.array_equal(got, expected)
    # both modules see negative digits, in some block of rows
    for module in (ambient_module(), restriction_module()):
        assert any(seen is module for seen in negative)


def test_class_digits_need_orders_that_are_powers_of_two():
    module = SimpleNamespace(orders=(2, 4, 6))
    with pytest.raises(ValueError, match=r"generator orders \(2, 4, 6\) are not all powers of 2"):
        restriction._vectorized_classes(module, np.zeros((1, 3), dtype=np.int64))


def _reference_cases(bound):
    """The per-box loop that enumerated each box on its own: one call per
    half-width, kept as the reference for the single enumeration.  Library
    names are looked up on the module so planted faults reach both."""
    restriction.build_embedding()
    AN = ambient_module()
    AM = restriction.restriction_module()
    an_types = restriction.element_types(AN)
    am_types = np.array(restriction.element_types(AM))
    kappa_n = restriction.radical_class(AN)

    cases = {}
    witnesses = []
    for target, rows in _reference_level_sets(bound, (-4, -2, -6)).items():
        total = len(rows)
        rows = rows[(rows[:, 4] + rows[:, 5]) ** 2 < -target]
        m, cn, cm = restriction._split_classes(rows)
        b_type = am_types[cm]
        if target == -4:
            failures = [
                (m != 0, "norm -4 case with m != 0"),
                (
                    (cn == kappa_n) != (b_type == "10"),
                    "characteristic-class bookkeeping fails",
                ),
                (~np.isin(b_type, ("1", "10")), "norm -4 member class of type {b}"),
            ]
        else:
            expected = "7/4" if target == -2 else "3/4"
            failures = [
                (np.abs(m) != 1, f"norm {target} case with m = {{m}}"),
                (b_type != expected, f"norm {target} member class of type {{b}}"),
            ]
        restriction._raise_first(rows, failures, m=m.__getitem__, b=b_type.__getitem__)

        paired = None
        if target != -4:
            # member coordinates of 2 * r1: (2x1, 2x2, 2x3, 2x4, x5 - x6)
            member = np.concatenate(
                [2 * rows[:, :4], rows[:, 4:5] - rows[:, 5:6]], axis=1
            )
            keys = np.ravel_multi_index(
                tuple((member + 2 * bound).T), (4 * bound + 1,) * 5
            )
            _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
            m_sums = np.bincount(inverse, weights=m, minlength=len(counts))
            unpaired = ((counts != 2) | (m_sums != 0))[inverse]
            if unpaired.any():
                i = int(np.flatnonzero(unpaired)[0])
                key = tuple(int(v) for v in member[i])
                raise ValueError(
                    f"multiplicity pairing fails for member component 2 * r1 = {key}: "
                    f"m values {sorted(int(v) for v in m[inverse == inverse[i]])}"
                )
            paired = len(counts)

        for i in (0, len(rows) // 2, len(rows) - 1):
            witnesses.append((tuple(int(v) for v in rows[i]), int(m[i]), cn[i], b_type[i]))
        cases[target] = {
            "vectors_in_box": total,
            "relevant": len(rows),
            "m_values": tuple(int(v) for v in np.unique(m)),
            "r1_norms": tuple(int(v) for v in np.unique(target + m * m)),
            "ambient_types": tuple(sorted({an_types[c] for c in np.unique(cn)})),
            "beta_types": tuple(str(b) for b in np.unique(b_type)),
            "hyperplane_multiplicity": 1 if target == -4 else 2,
            "paired_hyperplanes": paired,
        }

    for witness, m, cn, b_type in witnesses:
        case = restriction.restriction_case(witness)
        if (case.m, case.ambient_type, case.beta_type) != (m, an_types[cn], b_type):
            raise AssertionError(
                f"vectorized classification disagrees with the exact path "
                f"at r = {witness}"
            )
    return {"bound": bound, "cases": cases}


def _reference_sweep(bound):
    """Boxes 3..bound one by one, as the report used to run them."""
    return {k: _reference_cases(k)["cases"] for k in range(3, bound + 1)}


def _outcome(run, bound):
    try:
        run(bound)
    except (AssertionError, ValueError) as err:
        return type(err).__name__, str(err)
    return None


def test_every_box_table_matches_the_per_box_reference():
    rep = heegner_restriction_cases(6)
    assert sorted(rep["by_box"]) == [3, 4, 5, 6]
    assert rep["cases"] == rep["by_box"][6]
    reference = _reference_sweep(6)
    for k in range(3, 7):
        assert rep["by_box"][k] == reference[k], k


def _shift_classes(module_of, where):
    """A _vectorized_classes that moves the class of the rows picked by
    where(K) (K the integer pairing vectors) for the module module_of()."""
    original = restriction._vectorized_classes

    def planted(module, K):
        out = original(module, K)
        if module is module_of():
            out = np.where(where(K), (out + 1) % module.size, out)
        return out

    return planted


# The ambient pairing vector of r is (x2, x1, x4, x3, -x5, -x6) and the
# member one (x2, x1, x4, x3, x6 - x5), so max |K| is the box of r or bounds
# it from below.
_PLANTED = {
    "ambient-outside-box-3": (ambient_module, lambda K: abs(K).max(axis=1) > 3),
    "ambient-inside-box-3": (
        ambient_module,
        lambda K: (abs(K).max(axis=1) <= 3) & (K[:, 0] == 2),
    ),
    "member-outside-box-3": (
        restriction_module,
        lambda K: abs(K[:, :4]).max(axis=1) > 3,
    ),
    # x5 - x6 is odd exactly on the odd-m norms -2 and -6
    "member-two-norms": (restriction_module, lambda K: K[:, 4] % 2 == 1),
    "member-inside-box-3-all-norms": (
        restriction_module,
        lambda K: (abs(K[:, :4]).max(axis=1) <= 3) & (K[:, 1] == -1),
    ),
}


@pytest.mark.parametrize("fault", sorted(_PLANTED))
def test_planted_class_faults_raise_as_the_per_box_reference(fault, monkeypatch):
    module_of, where = _PLANTED[fault]
    monkeypatch.setattr(
        restriction, "_vectorized_classes", _shift_classes(module_of, where)
    )
    expected = _outcome(_reference_sweep, 5)
    assert expected is not None, "the planted fault must be detected"
    assert _outcome(heegner_restriction_cases, 5) == expected
    if "outside" in fault:
        assert _outcome(heegner_restriction_cases, 3) is None


def test_planted_pairing_fault_raises_as_the_per_box_reference(monkeypatch):
    original = restriction._split_classes

    def planted(rows):
        m, cn, cm = original(rows)
        # m = +1 becomes -1 where x1 = -4: |m| stays 1, but those pairs break
        return np.where((rows[:, 0] == -4) & (m == 1), -m, m), cn, cm

    monkeypatch.setattr(restriction, "_split_classes", planted)
    expected = _outcome(_reference_sweep, 5)
    assert expected[1].startswith("multiplicity pairing fails")
    assert _outcome(heegner_restriction_cases, 5) == expected


def test_planted_fault_seen_only_by_the_exact_spot_check(monkeypatch):
    original = restriction._vectorized_classes
    kappa = radical_class(ambient_module())

    def planted(module, K):
        out = original(module, K)
        if module is ambient_module():
            # outside box 3 every non-characteristic class becomes 0: the
            # table checks still pass, the exact path finds another type
            out = np.where((abs(K).max(axis=1) > 3) & (out != kappa), 0, out)
        return out

    monkeypatch.setattr(restriction, "_vectorized_classes", planted)
    expected = _outcome(_reference_sweep, 5)
    assert expected[0] == "AssertionError"
    assert _outcome(heegner_restriction_cases, 5) == expected
    assert _outcome(heegner_restriction_cases, 3) is None


def test_exact_spot_check_classifies_the_odd_m_norms(monkeypatch):
    original = restriction._split_classes

    def planted(rows):
        # the ambient class of every odd-m vector (norms -2 and -6) becomes
        # 0; no table check reads it, only the exact spot check
        m, cn, cm = original(rows)
        return m, np.where(m % 2 == 1, 0, cn), cm

    monkeypatch.setattr(restriction, "_split_classes", planted)
    with pytest.raises(AssertionError, match="disagrees with the exact path") as err:
        heegner_restriction_cases(3)
    r = [int(v) for v in str(err.value).split("r = (")[1].rstrip(")").split(",")]
    assert ambient_lattice().norm(r) in (-2, -6)


@pytest.mark.parametrize("swap", [("7/4", "3/4"), ("1", "10"), ("3/4", "0")])
def test_planted_label_faults_raise_as_the_per_box_reference(swap, monkeypatch):
    original = restriction.element_types
    relabel = {swap[0]: swap[1], swap[1]: swap[0]}

    def planted(A):
        labels = original(A)
        if A is restriction_module():
            labels = tuple(relabel.get(t, t) for t in labels)
        return labels

    monkeypatch.setattr(restriction, "element_types", planted)
    expected = _outcome(_reference_sweep, 4)
    assert expected is not None, "the planted fault must be detected"
    assert _outcome(heegner_restriction_cases, 4) == expected


def test_vectorized_classification_is_cross_checked(monkeypatch):
    original = restriction._vectorized_classes

    def corrupted(module, K):
        out = original(module, K)
        return (out + 1) % module.size

    monkeypatch.setattr(restriction, "_vectorized_classes", corrupted)
    with pytest.raises((AssertionError, ValueError)):
        heegner_restriction_cases(3)
    # the boundary projection and the images are cached: drop them so the
    # corrupted classification is used, and drop what that run leaves behind
    restriction._norm_minus4_projection.cache_clear()
    all_v1_images.cache_clear()
    try:
        with pytest.raises((AssertionError, ValueError)):
            all_v1_images()
    finally:
        restriction._norm_minus4_projection.cache_clear()
        all_v1_images.cache_clear()


def test_norm_minus4_projection_matches_the_exact_path():
    emb = build_embedding()
    N = emb.ambient
    AN = ambient_module()
    AM = restriction_module()
    images = {}
    for r in product(range(-2, 3), repeat=6):
        if 4 * (r[0] * r[1] + r[2] * r[3]) - 2 * (r[4] ** 2 + r[5] ** 2) != -4:
            continue
        r1, m = _reference_split(r)
        if N.norm(r1) >= 0:
            continue
        assert N.norm(r) == -4 and m == 0
        cn = AN.class_of_vector(tuple(c * HALF for c in r))
        cm = AM.class_of_vector(
            tuple(c * HALF for c in _reference_member_coordinates(r1)))
        assert images.setdefault(cn, cm) == cm, r
    assert len(images) == 16
    assert restriction._norm_minus4_projection() == images


def test_norm_minus4_projection_is_checked_on_the_exact_path(monkeypatch):
    original = restriction.restriction_case
    size = restriction_module().size

    def planted(r):
        case = original(r)
        return dataclasses.replace(case, beta_class=(case.beta_class + 1) % size)

    monkeypatch.setattr(restriction, "restriction_case", planted)
    restriction._norm_minus4_projection.cache_clear()
    try:
        with pytest.raises(AssertionError, match="vectorized projection disagrees "
                           "with the exact path at r = "):
            restriction._norm_minus4_projection()
    finally:
        restriction._norm_minus4_projection.cache_clear()


# ---------------------------------------------------------------------------
# Plane correspondence
# ---------------------------------------------------------------------------


def test_all_plane_images_are_distinct_null_subspaces():
    AM = restriction_module()
    labels = element_types(AM)
    kappa_m = radical_class(AM)
    images = all_v1_images()
    assert len(images) == 15
    assert len(set(images.values())) == 15
    for v1 in images.values():
        assert len(v1) == 8
        assert kappa_m in v1
        assert all(AM.order_of(x) <= 2 for x in v1)
        assert all(AM.b4[x, y] == 0 for x in v1 for y in v1)
        betas = [x for x in v1 if labels[x] == "1"]
        assert len(betas) == 3
        total = 0
        for b in betas:
            total = AM.add(total, b)
        assert total == kappa_m


def test_v_to_v1_rejects_non_planes():
    with pytest.raises(ValueError, match="isotropic planes"):
        v_to_v1((1, 2, 3))


def test_seven_lines_for_all_planes():
    AM = restriction_module()
    member_lines = set(isotropic_planes(AM))
    for plane in isotropic_planes(ambient_module()):
        lines = seven_lines(v_to_v1(plane))
        assert len(lines) == 7
        assert set(lines) <= member_lines


def test_seven_lines_structure():
    AM = restriction_module()
    labels = element_types(AM)
    kappa_m = radical_class(AM)
    plane = isotropic_planes(ambient_module())[0]
    v1 = v_to_v1(plane)
    lines = seven_lines(v1)
    common = tuple(sorted(x for x in v1 if x and AM.q4[x] == 0))
    assert common in lines
    for beta in (x for x in v1 if labels[x] == "1"):
        holding = [line for line in lines if all(AM.b4[beta, y] == 0 for y in line)]
        assert len(holding) == 3
        assert all(AM.add(beta, kappa_m) in line for line in holding)


def test_seven_lines_input_validation():
    with pytest.raises(ValueError, match="order-8"):
        seven_lines(frozenset({0, 1, 2}))


def test_heegner_restriction_demo_runs():
    out = run_demo("06_heegner_restriction.py")
    assert "classification identical across boxes: True\n" in out
