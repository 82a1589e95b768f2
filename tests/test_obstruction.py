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
from igusa import obstruction
from igusa.obstruction import (
    E_LABELS,
    TYPE_ORDER,
    borcherds_weights_table,
    collapsed_rep,
    cusp_dimension,
    dimension_formula_data,
    eisenstein_G3,
    eisenstein_oracle,
    eisenstein_subspace,
    f_tuple,
    numeric_double_sum,
    transformation_bookkeeping,
)
from igusa.report import build_report
from igusa.weil import weil_generator

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
    series = eisenstein_G3(1, 0)
    assert isinstance(series, QSeries)
    assert series.truncation == Fraction(17, 4)  # through q^4
    assert series.coefficient(Fraction(1, 4)) == CYC_ONE
    assert series.coefficient(Fraction(1, 2)) == Cyclotomic(4)
    assert series.coefficient(Fraction(3, 4)) == Cyclotomic(8)
    assert series.coefficient(Fraction(1)) == Cyclotomic(16)
    assert series.coefficient(Fraction(0)) == CYC_ZERO


def test_e6_expansion():
    series = eisenstein_G3(2, 1)
    assert series.coefficient(Fraction(1, 2)) == Cyclotomic(2) * CYC_I
    assert series.coefficient(Fraction(1)) == CYC_ZERO
    assert series.coefficient(Fraction(1, 4)) == CYC_ZERO


def test_e1_expansion():
    series = eisenstein_G3(0, 1)
    assert series.coefficient(Fraction(0)) == Cyclotomic(Fraction(-1, 2)) * CYC_I
    assert series.coefficient(Fraction(1)) == Cyclotomic(2) * CYC_I
    assert series.coefficient(Fraction(1, 4)) == CYC_ZERO


def test_divisor_sum_coefficient_by_hand():
    # q^2 coefficient of the (1, 2) series: factorizations 8 = r*m with
    # m = 1 give r = 8 and i^(16) = 1, hence 64; no m = 3 mod 4 divides 8.
    series = eisenstein_G3(1, 2)
    assert series.coefficient(Fraction(2)) == Cyclotomic(64)


def test_negated_label_gives_negated_series():
    for a1, a2 in E_LABELS:
        plus = eisenstein_G3(a1, a2)
        minus = eisenstein_G3((-a1) % 4, (-a2) % 4)
        assert minus == plus * -1


def test_eisenstein_guards():
    for a1, a2 in ((0, 0), (4, -8)):
        with pytest.raises(ValueError, match="zero identically"):
            eisenstein_G3(a1, a2)
    # residues however written name one expansion
    assert eisenstein_G3(5, -2) is eisenstein_G3(1, 2)


def test_oracle_disagreement_raises():
    # the truncated double sum at box 1600 agrees to about 1e-7 relative,
    # so a tolerance of 1e-9 is missed, first by the series (0, 1)
    with pytest.raises(ValueError, match=r"series for \(0, 1\) disagrees "
                       "with the double-sum oracle"):
        eisenstein_oracle(1e-9)


OUT_OF_BOUND_TOLERANCES = (-1.0, 0.0, 1.0, 2.0, float("nan"), float("inf"))


def test_vacuous_tolerance_is_rejected(monkeypatch):
    # at 0 or below no truncated sum meets the tolerance, and at 1 or more
    # (or NaN) even the zero series would: refused before any sum runs
    monkeypatch.setattr(obstruction, "numeric_double_sum", None)
    for tolerance in OUT_OF_BOUND_TOLERANCES:
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            eisenstein_oracle(tolerance)


@pytest.mark.parametrize("tolerance", OUT_OF_BOUND_TOLERANCES)
def test_report_rejects_a_tolerance_outside_the_unit_interval(tolerance):
    # the bound of --tolerance, not a disagreement blamed on a series
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        build_report("obstruction", tolerance=tolerance)


def test_t_rule_on_expansions():
    # shifting tau by one multiplies the coefficient of q^(j/4) by i^j; the
    # result must be the (sign-reduced) series of the label acted on by T
    for src_pos, (a1, a2) in enumerate(E_LABELS):
        src = eisenstein_G3(a1, a2)
        twisted = QSeries(
            {e: c * (CYC_I ** int(4 * e)) for e, c in src.terms.items()},
            src.truncation,
        )
        dst_pos, sign = obstruction._label_action((a1, a2), "T")
        dst = eisenstein_G3(*E_LABELS[dst_pos])
        assert twisted == dst * sign


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
    # through q^1 (truncation 5/4), with exactly these terms and no others
    f = f_tuple()
    assert list(f) == list(TYPE_ORDER)
    assert all(series.truncation == Fraction(5, 4) for series in f.values())
    assert {t: series.terms for t, series in f.items()} == {
        "00": {Fraction(0): Cyclotomic(Fraction(-1, 2)),
               Fraction(1): Cyclotomic(10)},
        "0": {Fraction(1): Cyclotomic(120)},
        "1": {Fraction(1, 2): Cyclotomic(30)},
        "10": {Fraction(1, 2): Cyclotomic(4)},
        "3/2": {Fraction(1, 4): Cyclotomic(10)},
        "1/2": {Fraction(3, 4): Cyclotomic(48)},
    }


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
    # at (p, r) = (0, 1) the zero-class constant term is 1/2 and the
    # isotropic class 00 has none
    rows = obstruction._component_matrix(Fraction(0), Fraction(1))
    constants = [eisenstein_G3(*label).coefficient(0) for label in E_LABELS]
    constant = {
        t: sum((c * k for c, k in zip(row, constants)), CYC_ZERO)
        for t, row in zip(TYPE_ORDER, rows)
    }
    assert constant["0"] == Cyclotomic(Fraction(1, 2))
    assert constant["00"] == CYC_ZERO


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


# The four standard divisor families as (value class, norm).
FAMILIES = {"kappa": ("10", Fraction(-1)), "3/2": ("3/2", Fraction(-1, 2)),
            "1": ("1", Fraction(-1)), "1/2": ("1/2", Fraction(-3, 2))}


def test_heegner_divisor_families():
    # each standard family is one value class at its admissible norm; the
    # characteristic-element family is the one-element class 10
    assert obstruction._FAMILIES == FAMILIES
    assert dict(zip(TYPE_ORDER, collapsed_rep().type_sizes))["10"] == 1


def test_weights_table():
    table = borcherds_weights_table()
    assert table == {
        "kappa": Fraction(4),
        "3/2": Fraction(10),
        "1": Fraction(30),
        "1/2": Fraction(48),
    }
    # each weight is the aggregate coefficient of its class t at q^(-n/2)
    # for the family norm n
    f = f_tuple()
    for name, (t, n) in FAMILIES.items():
        assert f[t].coefficient(-n / 2) == table[name]


@pytest.mark.parametrize("tolerance", [1e-6, 1e-3])
def test_obstruction_suite_validates_each_series_once(monkeypatch, tolerance):
    from igusa.report import SuiteRunner, obstruction_suite

    calls = []
    original = obstruction.numeric_double_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obstruction, "numeric_double_sum", counted)
    runner = SuiteRunner()
    obstruction_suite(runner, tolerance=tolerance)
    assert all(check.status == "pass" for check in runner.checks)
    assert sorted(calls) == sorted(E_LABELS)
    # the tuple and the weights are exact: no numeric sum runs for them
    f_tuple()
    borcherds_weights_table()
    assert len(calls) == 6

