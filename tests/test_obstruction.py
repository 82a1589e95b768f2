"""Six-type collapse, dimension formula, Eisenstein expansions, weights."""

from fractions import Fraction

import numpy as np
import pytest

from igusa.exact import (
    CYC_I,
    CYC_ONE,
    CYC_ZERO,
    Cyclotomic,
    CycMatrix,
    QSeries,
    eigenphase_sum,
)
from igusa.fqm import element_types, radical_class, reflection
from igusa import obstruction
from igusa.obstruction import (
    E_LABELS,
    TYPE_ORDER,
    DivisorSpec,
    borcherds_weight,
    borcherds_weights_table,
    class_orbits,
    collapsed_rep,
    cusp_dimension,
    dimension_formula_data,
    eisenstein_G3,
    eisenstein_subspace,
    f_tuple,
    heegner_divisor,
    numeric_double_sum,
    per_element_coefficient,
    transformation_bookkeeping,
    type_orbit_check,
)
from igusa.weil import ambient_module, ambient_orthogonal_group, weil_generator

from helpers import inverse_by_products, run_demo

MINUS_I_OVER_8 = Cyclotomic(Fraction(-1, 8)) * CYC_I

S_INTEGERS = (
    (1, 1, 1, 1, 1, 1),
    (15, -1, -1, 15, 3, -5),
    (15, -1, -1, 15, -3, 5),
    (1, 1, 1, 1, -1, -1),
    (20, 4, -4, -20, 0, 0),
    (12, -4, 4, -12, 0, 0),
)


def test_dual_s_corner_entry():
    # the dual action is the entrywise conjugate of the primal one: the
    # dual S has entries -i/8 times a sign, the primal +i/8; spot the
    # zero-row entry, which the collapse keeps as its (00, 00) entry
    primal_s = weil_generator("S")
    assert primal_s.entry(0, 0) == -MINUS_I_OVER_8
    assert primal_s.conjugate().entry(0, 0) == MINUS_I_OVER_8
    assert collapsed_rep().S_matrix.entry(0, 0) == MINUS_I_OVER_8


def test_collapsed_s_matches_reference():
    rep = collapsed_rep()
    for a in range(6):
        for b in range(6):
            assert rep.S_matrix.entry(a, b) == MINUS_I_OVER_8 * S_INTEGERS[a][b]


def test_collapsed_t_diagonal():
    rep = collapsed_rep()
    expected = (CYC_ONE, CYC_ONE, -CYC_ONE, -CYC_ONE, CYC_I, -CYC_I)
    for a in range(6):
        for b in range(6):
            want = expected[a] if a == b else CYC_ZERO
            assert rep.T_matrix.entry(a, b) == want


def test_collapsed_s_squares_to_minus_identity():
    rep = collapsed_rep()
    square = rep.S_matrix @ rep.S_matrix
    assert square == CycMatrix.identity(6).scale(-1)


def test_collapsed_type_sizes():
    rep = collapsed_rep()
    assert rep.type_sizes == (1, 15, 15, 1, 20, 12)


def test_collapse_mismatch_error_names_entry(monkeypatch):
    bad = tuple(
        tuple(7 if (a, b) == (1, 2) else v for b, v in enumerate(row))
        for a, row in enumerate(S_INTEGERS)
    )
    collapsed_rep.cache_clear()
    monkeypatch.setattr(obstruction, "_COLLAPSED_S_INTEGERS", bad)
    try:
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            collapsed_rep()
    finally:
        monkeypatch.undo()
        collapsed_rep.cache_clear()
    rep = collapsed_rep()  # rebuild cleanly for later tests
    assert rep.S_matrix.entry(0, 0) == MINUS_I_OVER_8


def test_dimension_formula_values():
    data = dimension_formula_data()
    assert data["d"] == 6
    assert (data["alpha_S"], data["alpha_ST"], data["alpha_T"]) == (
        Fraction(3, 2),
        Fraction(2),
        Fraction(2),
    )
    assert data["dimension"] == 2
    # alpha((e^(pi i k/3) S T)^-1) read off the phases of -ST equals the
    # phase sum of the inverse built by products
    rep = collapsed_rep()
    st_scaled = (rep.S_matrix @ rep.T_matrix).scale(-CYC_ONE)
    assert eigenphase_sum(inverse_by_products(st_scaled)) == data["alpha_ST"]
    assert data["d"] == len(TYPE_ORDER)


def test_eisenstein_subspace_and_cusp():
    basis = eisenstein_subspace()
    assert len(basis) == 2
    supports = sorted(
        tuple(TYPE_ORDER[i] for i, c in enumerate(vec) if c) for vec in basis
    )
    assert supports == [("0",), ("00",)]
    # the reduced row echelon basis of the T-fixed space: unit vectors
    assert basis == tuple(
        tuple(CYC_ONE if i == j else CYC_ZERO for i in range(6)) for j in range(2)
    )
    assert cusp_dimension() == 0
    assert dimension_formula_data()["dimension"] == len(basis) + cusp_dimension()


def test_obstruction_demo_runs():
    out = run_demo("04_obstruction_and_weights.py")
    assert "collapsed dimension d = 6\n" in out
    assert "weight-3 dimension: 2\n" in out
    assert "cusp dimension: 0 " in out


def test_e2_expansion():
    series = eisenstein_G3(1, 0, 8)
    assert isinstance(series, QSeries)
    assert series.coefficient(Fraction(1, 4)) == CYC_ONE
    assert series.coefficient(Fraction(1, 2)) == Cyclotomic(4)
    assert series.coefficient(Fraction(3, 4)) == Cyclotomic(8)
    assert series.coefficient(Fraction(1)) == Cyclotomic(16)
    assert series.coefficient(Fraction(0)) == CYC_ZERO


def test_e6_expansion():
    series = eisenstein_G3(2, 1, 8)
    assert series.coefficient(Fraction(1, 2)) == Cyclotomic(2) * CYC_I
    assert series.coefficient(Fraction(1)) == CYC_ZERO
    assert series.coefficient(Fraction(1, 4)) == CYC_ZERO


def test_e1_expansion():
    series = eisenstein_G3(0, 1, 8)
    assert series.coefficient(Fraction(0)) == Cyclotomic(Fraction(-1, 2)) * CYC_I
    assert series.coefficient(Fraction(1)) == Cyclotomic(2) * CYC_I
    assert series.coefficient(Fraction(1, 4)) == CYC_ZERO


def test_divisor_sum_coefficient_by_hand():
    # q^2 coefficient of the (1, 2) series: factorizations 8 = r*m with
    # m = 1 give r = 8 and i^(16) = 1, hence 64; no m = 3 mod 4 divides 8.
    series = eisenstein_G3(1, 2, 8)
    assert series.coefficient(Fraction(2)) == Cyclotomic(64)


def test_negated_label_gives_negated_series():
    for a1, a2 in E_LABELS:
        plus = eisenstein_G3(a1, a2, 8)
        minus = eisenstein_G3((-a1) % 4, (-a2) % 4, 8)
        assert minus == -plus


def test_eisenstein_guards():
    with pytest.raises(ValueError):
        eisenstein_G3(0, 0, 8)
    with pytest.raises(ValueError):
        eisenstein_G3(1, 0, 0)
    with pytest.raises(ValueError):
        eisenstein_G3(1, 0, 65)


def test_oracle_disagreement_raises():
    # an absurd tolerance cannot be met by the truncated double sum
    with pytest.raises(ValueError, match="double-sum oracle"):
        eisenstein_G3(1, 2, 8, box=300, tolerance=1e-13)


def test_vacuous_tolerance_is_rejected():
    # at a relative tolerance of 1 or more (or NaN) even the zero series
    # would meet the oracle, so such a tolerance is refused before it runs
    for tolerance in (1, 2, 1e6, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="vacuous"):
            eisenstein_G3(1, 2, 8, tolerance=tolerance)
    # an unvalidated expansion does not read the tolerance
    assert eisenstein_G3(1, 2, 8, tolerance=2, validate=False).terms


def test_t_rule_on_expansions():
    # shifting tau by one multiplies the coefficient of q^(j/4) by i^j; the
    # result must be the (sign-reduced) series of the label acted on by T
    for src_pos, (a1, a2) in enumerate(E_LABELS):
        src = eisenstein_G3(a1, a2, 8)
        twisted = QSeries(
            {e: c * (CYC_I ** int(4 * e)) for e, c in src.terms.items()},
            src.truncation,
        )
        dst_pos, sign = obstruction._label_action((a1, a2), "T")
        dst = eisenstein_G3(*E_LABELS[dst_pos], 8)
        assert twisted == (dst if sign > 0 else -dst)


def test_s_rule_at_numeric_fixed_point():
    # tau = i is fixed by the inversion, so the series of the transformed
    # label equals i times the original double sum there
    for a1, a2 in E_LABELS:
        base = numeric_double_sum(a1, a2, box=800)
        image = numeric_double_sum(a2 % 4, (-a1) % 4, box=800)
        rel = abs(image - 1j * base) / max(abs(base), abs(image))
        assert rel < 1e-5


def reference_double_sum(a1, a2, box):
    """The double sum with each term as the complex power z**-3.0."""
    m1 = np.arange(-box, box + 1)
    m1 = m1[m1 % 4 == a1 % 4]
    m2 = np.arange(-box, box + 1)
    m2 = m2[m2 % 4 == a2 % 4]
    z = m1[:, None] * 1j + m2[None, :]
    mask = (m1[:, None] == 0) & (m2[None, :] == 0)
    return complex(np.where(mask, 0.0, np.where(mask, 1.0, z) ** -3.0).sum())


@pytest.mark.parametrize("label", E_LABELS)
def test_double_sum_matches_the_power_reference(label):
    fast = numeric_double_sum(*label, box=200)
    slow = reference_double_sum(*label, box=200)
    assert abs(fast - slow) <= 1e-12 * abs(slow)


def test_double_sum_leaves_out_the_origin():
    # opposite pairs cancel, so the sum for (0, 0) is zero up to rounding;
    # a term at the origin would make it infinite or nan
    fast = numeric_double_sum(0, 0, box=200)
    assert abs(fast) < 1e-12
    assert abs(fast - reference_double_sum(0, 0, box=200)) < 1e-12


def test_f_tuple_leading_terms():
    f = f_tuple()
    assert f["00"].coefficient(Fraction(0)) == Cyclotomic(Fraction(-1, 2))
    assert f["00"].coefficient(Fraction(1)) == Cyclotomic(10)
    assert f["0"].coefficient(Fraction(0)) == CYC_ZERO
    assert f["0"].coefficient(Fraction(1)) == Cyclotomic(120)
    assert f["1"].coefficient(Fraction(1, 2)) == Cyclotomic(30)
    assert f["10"].coefficient(Fraction(1, 2)) == Cyclotomic(4)
    assert f["3/2"].coefficient(Fraction(1, 4)) == Cyclotomic(10)
    assert f["1/2"].coefficient(Fraction(3, 4)) == Cyclotomic(48)


def test_f_tuple_exponent_supports():
    f = f_tuple()
    residues = {
        "00": {Fraction(0)},
        "0": {Fraction(0)},
        "1": {Fraction(1, 2)},
        "10": {Fraction(1, 2)},
        "3/2": {Fraction(1, 4)},
        "1/2": {Fraction(3, 4)},
    }
    for t, series in f.items():
        for e in series.terms:
            assert e - int(e) in residues[t] or (e.denominator == 1 and Fraction(0) in residues[t])


def test_f_tuple_second_parameter_normalization():
    f = f_tuple(Fraction(0), Fraction(1))
    assert f["0"].coefficient(Fraction(0)) == Cyclotomic(Fraction(1, 2))
    assert f["00"].coefficient(Fraction(0)) == CYC_ZERO


def test_transformation_bookkeeping():
    report = transformation_bookkeeping()
    assert report["T_consistent"] and report["S_consistent"]
    assert report["rules_match_frozen"]
    assert len(report["parameter_points"]) == 2


def test_bookkeeping_detects_broken_rules(monkeypatch):
    bad = dict(obstruction._FROZEN_RULES)
    bad["T"] = ((0, 1), (3, 1), (2, 1), (4, 1), (1, 1), (5, -1))
    monkeypatch.setattr(obstruction, "_FROZEN_RULES", bad)
    with pytest.raises(ValueError, match="T"):
        transformation_bookkeeping()


def test_type_orbit_partition():
    assert type_orbit_check() is True


def reference_orbits(gens, size):
    """Orbit ids by a stack walk over the generating permutation arrays gens,
    each orbit named by its least element (the first one the walk starts
    from)."""
    orbit = np.full(size, -1, dtype=np.int64)
    for start in range(size):
        if orbit[start] >= 0:
            continue
        stack = [start]
        orbit[start] = start
        while stack:
            x = stack.pop()
            for g in gens:
                y = int(g[x])
                if orbit[y] < 0:
                    orbit[y] = start
                    stack.append(y)
    return orbit


def test_class_orbits_match_the_generator_walk():
    # the 16 reflections in norm-1 classes generate the orthogonal group
    # (tests/test_fqm.py), so their walk has the group's orbits
    A = ambient_module()
    reflections = [reflection(A, x) for x in A.elements() if A.q4[x] == 4]
    orbit = class_orbits(ambient_orthogonal_group(), element_types(A))
    assert np.array_equal(orbit, reference_orbits(reflections, A.size))
    assert len(set(orbit.tolist())) == len(TYPE_ORDER)


def test_class_orbits_reject_a_mixed_orbit():
    A = ambient_module()
    perms = ambient_orthogonal_group()
    labels = list(element_types(A))
    # relabel one norm-1 class as norm 3/2: its orbit now mixes two labels
    planted = labels.index("1")
    labels[planted] = "3/2"
    with pytest.raises(ValueError, match="mixes"):
        class_orbits(perms, labels)
    # the identity alone has 64 orbits, not 6
    with pytest.raises(ValueError, match="expected 6 orbits, found 64"):
        class_orbits(np.arange(A.size)[None, :], element_types(A))


def test_per_element_shares_constant_on_classes():
    A = ambient_module()
    labels = element_types(A)
    exponents = {
        "00": Fraction(1),
        "0": Fraction(1),
        "1": Fraction(1, 2),
        "10": Fraction(1, 2),
        "3/2": Fraction(1, 4),
        "1/2": Fraction(3, 4),
    }
    expected = {
        "00": Fraction(10),
        "0": Fraction(8),
        "1": Fraction(2),
        "10": Fraction(4),
        "3/2": Fraction(1, 2),
        "1/2": Fraction(4),
    }
    for t in TYPE_ORDER:
        members = [x for x in range(A.size) if labels[x] == t][:2]
        shares = {per_element_coefficient(x, exponents[t]) for x in members}
        assert shares == {expected[t]}


def test_weights_table():
    table = borcherds_weights_table()
    assert table == {
        "kappa": Fraction(4),
        "3/2": Fraction(10),
        "1": Fraction(30),
        "1/2": Fraction(48),
    }


@pytest.mark.parametrize("tolerance", [1e-6, 1e-3])
def test_obstruction_suite_validates_each_series_once(monkeypatch, tolerance):
    from igusa.report import SuiteRunner, obstruction_suite

    calls = []
    original = obstruction.numeric_double_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def clear():
        obstruction._eisenstein_G3.cache_clear()
        obstruction._validated.cache_clear()

    monkeypatch.setattr(obstruction, "numeric_double_sum", counted)
    clear()
    try:
        runner = SuiteRunner()
        obstruction_suite(runner, tolerance=tolerance)
        assert all(check.status == "pass" for check in runner.checks)
        assert len(calls) == 6
        # the unvalidated 4-term and validated 8-term tuples share one
        # expansion per series
        assert obstruction._eisenstein_G3.cache_info().misses == 6
        # the same series however written is not validated again ...
        eisenstein_G3(5, -2, terms=8, tolerance=tolerance)
        eisenstein_G3(1, 2, 8, box=1600, tolerance=tolerance, validate=True)
        assert len(calls) == 6
        # ... but another tolerance or box is
        eisenstein_G3(1, 2, 8, tolerance=1e-5)
        eisenstein_G3(1, 2, 8, box=800, tolerance=tolerance)
        assert len(calls) == 8
        assert obstruction._eisenstein_G3.cache_info().misses == 6
    finally:
        clear()


def test_weight_by_single_elements_matches_class_family():
    A = ambient_module()
    labels = element_types(A)
    members = [x for x in range(A.size) if labels[x] == "3/2"]
    assert len(members) == 20
    singles = DivisorSpec.from_entries(
        [(x, Fraction(-1, 2), 1) for x in members]
    )
    assert borcherds_weight(singles) == Fraction(10)
    kappa = radical_class(A)
    one = DivisorSpec.from_entries(((kappa, Fraction(-1), 1),))
    assert borcherds_weight(one) == Fraction(4)


def test_weight_linearity_and_empty():
    d1 = heegner_divisor("3/2")
    d2 = heegner_divisor("1/2")
    combined = DivisorSpec.from_entries(
        (("3/2", Fraction(-1, 2), 2), ("1/2", Fraction(-3, 2), -1))
    )
    assert borcherds_weight(combined) == 2 * borcherds_weight(d1) - borcherds_weight(d2)
    assert borcherds_weight(DivisorSpec(())) == 0


def test_divisor_validation():
    with pytest.raises(ValueError, match="isotropic"):
        borcherds_weight(DivisorSpec.from_entries((("0", Fraction(-1), 1),)))
    with pytest.raises(ValueError, match="incompatible"):
        borcherds_weight(DivisorSpec.from_entries((("3/2", Fraction(-1), 1),)))
    with pytest.raises(ValueError, match="unknown"):
        borcherds_weight(DivisorSpec.from_entries((("5/2", Fraction(-1), 1),)))
    with pytest.raises(ValueError, match="out of range"):
        borcherds_weight(DivisorSpec.from_entries(((64, Fraction(-1), 1),)))
    for name in ("10", "0", "00", "5/2"):
        with pytest.raises(ValueError, match="unknown divisor family"):
            heegner_divisor(name)


def test_heegner_divisor_families():
    # each standard family is one value class at its admissible norm; the
    # characteristic-element family is the one-element class 10
    expected = {"kappa": ("10", Fraction(-1)), "3/2": ("3/2", Fraction(-1, 2)),
                "1": ("1", Fraction(-1)), "1/2": ("1/2", Fraction(-3, 2))}
    for name, (key, n) in expected.items():
        assert heegner_divisor(name).entries == ((key, n, 1),)
