"""Eta powers, multiplier bookkeeping, and lift leading coefficients."""

from fractions import Fraction

import pytest

from igusa.exact import CYC_I, CYC_ONE, Cyclotomic, QSeries
from igusa.fqm import element_types, isotropic_planes
from igusa.lattices import ambient_lattice
from igusa.lifting import (
    EtaPower,
    LiftCheckInput,
    eta_power,
    fixture_lift_input,
    fixture_plane,
    fixture_support_families,
    lift_leading_coefficient,
    multiplier_compatibility,
    theta0_checks,
    theta_support,
)
from igusa.report import eta_product_mismatches
from igusa.weil import ambient_module, theta_vector, w0_vector

from helpers import run_demo

HALF = Fraction(1, 2)


def naive_eta_unit(m: int, terms: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^m by multiplying binomial-expanded factors."""
    from math import comb

    truncation = Fraction(terms + 1)
    acc = QSeries({Fraction(0): CYC_ONE}, truncation)
    for n in range(1, terms + 1):
        factor = QSeries(
            {
                Fraction(n * k): Cyclotomic.coerce((-1) ** k * comb(m, k))
                for k in range(m + 1)
                if n * k <= terms
            },
            truncation,
        )
        acc = acc * factor
    return acc


# ---------------------------------------------------------------------------
# Eta powers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 6, 18, 24])
def test_eta_unit_series_matches_product_oracle(m):
    fast = eta_power(m, 30).unit_series
    slow = naive_eta_unit(m, 30)
    for e in range(31):
        assert fast.coefficient(Fraction(e)) == slow.coefficient(Fraction(e))


def test_eta18_documented_expansion():
    series = eta_power(18, 8).series
    expected = {
        Fraction(3, 4): 1,
        Fraction(7, 4): -18,
        Fraction(11, 4): 135,
        Fraction(15, 4): -510,
    }
    for exp, coeff in expected.items():
        assert series.coefficient(exp) == Cyclotomic.coerce(coeff)
    # nothing between the quarter-integer powers
    assert series.coefficient(Fraction(5, 4)) == Cyclotomic.coerce(0)


def test_eta6_documented_expansion():
    series = eta_power(6, 8).series
    expected = {
        Fraction(1, 4): 1,
        Fraction(5, 4): -6,
        Fraction(9, 4): 9,
        Fraction(13, 4): 10,
    }
    for exp, coeff in expected.items():
        assert series.coefficient(exp) == Cyclotomic.coerce(coeff)


def test_eta_zeroth_power_is_one():
    e0 = eta_power(0, 8)
    assert e0.leading_exponent == 0
    assert e0.series.coefficient(Fraction(0)) == CYC_ONE
    assert e0.series.coefficient(Fraction(3)) == Cyclotomic.coerce(0)


def test_eta_power_is_multiplicative_in_the_exponent():
    a = eta_power(6, 20).unit_series
    b = eta_power(12, 20).unit_series
    c = eta_power(18, 20).unit_series
    product = a * b
    for e in range(20):
        assert product.coefficient(Fraction(e)) == c.coefficient(Fraction(e))


def test_eta_shift_guard_outside_quarter_lattice():
    with pytest.raises(ValueError, match="quarter-integer"):
        eta_power(4, 8).series
    # multiples of 6 shift cleanly
    assert eta_power(12, 8).series.coefficient(Fraction(1, 2)) == CYC_ONE


def test_eta_power_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        eta_power(-2, 8)
    with pytest.raises(ValueError, match="positive"):
        eta_power(6, 0)


def perturbed(unit: QSeries, k: int) -> QSeries:
    """unit with 1 added to its coefficient of q^k."""
    terms = dict(unit.terms)
    terms[Fraction(k)] = unit.coefficient(Fraction(k)) + CYC_ONE
    return QSeries(terms, unit.truncation)


@pytest.mark.parametrize("m", [18, 6])
def test_eta_product_oracle_reports_a_perturbed_coefficient(m):
    unit = eta_power(m, 30).unit_series
    assert eta_product_mismatches(unit, m, 30) == []
    for k in (0, 13, 30):
        assert eta_product_mismatches(perturbed(unit, k), m, 30) == [k]


def test_eta_product_oracle_multiplies_only_python_integers(monkeypatch):
    # the oracle shares no product code with the expansion it checks
    unit = eta_power(18, 30).unit_series

    def forbidden(*args):
        raise AssertionError("the oracle multiplied exact numbers")

    monkeypatch.setattr(QSeries, "__mul__", forbidden)
    monkeypatch.setattr(QSeries, "__pow__", forbidden)
    monkeypatch.setattr(Cyclotomic, "__mul__", forbidden)
    assert eta_product_mismatches(unit, 18, 30) == []


def test_eta_product_check_fails_on_a_perturbed_expansion(monkeypatch):
    import igusa.lifting
    from igusa.report import SuiteRunner, lifting_suite

    def broken(m, terms=16):
        eta = eta_power(m, terms)
        return EtaPower(m, perturbed(eta.unit_series, 5) if m == 6 else eta.unit_series)

    monkeypatch.setattr(igusa.lifting, "eta_power", broken)
    runner = SuiteRunner()
    lifting_suite(runner)
    check = next(c for c in runner.checks if c.id == "lifting-eta-product-oracle")
    assert check.status == "fail"
    assert check.actual["value"] == {"eta^18": [], "eta^6": [5]}


# ---------------------------------------------------------------------------
# Multiplier compatibility
# ---------------------------------------------------------------------------


def test_theta_with_eta18_is_compatible():
    report = multiplier_compatibility(theta_vector(fixture_plane()), 18)
    assert report["compatible"] is True
    assert report["vector_valued_weight"] == Fraction(9)
    assert report["lift_weight"] == Fraction(10)
    assert report["T_eigenvalue"] == -CYC_I
    assert report["S_eigenvalue"] == -CYC_I


def test_theta0_with_eta6_is_compatible():
    report = multiplier_compatibility(w0_vector(), 6)
    assert report["compatible"] is True
    assert report["vector_valued_weight"] == Fraction(3)
    assert report["lift_weight"] == Fraction(4)
    assert report["T_eigenvalue"] == CYC_I
    assert report["S_eigenvalue"] == CYC_I


def test_swapped_pairings_are_rejected():
    with pytest.raises(ValueError, match="multiplier mismatch"):
        multiplier_compatibility(theta_vector(fixture_plane()), 6)
    with pytest.raises(ValueError, match="multiplier mismatch"):
        multiplier_compatibility(w0_vector(), 18)


def test_multiplier_exponent_validation():
    theta = theta_vector(fixture_plane())
    for bad in (0, -6, 9):
        with pytest.raises(ValueError, match="positive even"):
            multiplier_compatibility(theta, bad)
    with pytest.raises(ValueError, match="zero vector"):
        multiplier_compatibility(theta - theta, 18)


def test_non_eigenvector_is_rejected():
    theta = theta_vector(fixture_plane())
    with pytest.raises(ValueError, match="not an eigenvector"):
        multiplier_compatibility(theta + w0_vector(), 18)


# ---------------------------------------------------------------------------
# Fixture support set
# ---------------------------------------------------------------------------


def test_fixture_plane_is_one_of_the_fifteen():
    assert fixture_plane() in isotropic_planes(ambient_module())


def test_fixture_support_matches_documented_families():
    families = fixture_support_families()
    union = frozenset(x for pair in families.values() for x in pair)
    support = theta_support(fixture_plane())
    assert support == union
    assert len(support) == 8
    # the three documented pair-families plus the two half-root classes
    assert set(families) == {
        "f1_plus_root",
        "e2_plus_root",
        "f1_e2_plus_root",
        "half_roots",
    }
    labels = element_types(ambient_module())
    assert {labels[x] for x in support} == {"3/2"}


def test_every_plane_has_support_of_size_eight():
    A = ambient_module()
    for plane in isotropic_planes(A):
        assert len(theta_support(plane)) == 8


def test_documented_membership_and_avoidance():
    A = ambient_module()
    lat = ambient_lattice()
    support = theta_support(fixture_plane())
    lam_class = A.class_of_vector(lat.vector(e2=HALF, f2=1, a1=HALF))
    assert lam_class in support
    shifted = A.class_of_vector(lat.vector(e1=HALF, e2=HALF, f2=1, a1=HALF))
    assert shifted not in support


# ---------------------------------------------------------------------------
# Lift leading coefficient
# ---------------------------------------------------------------------------


def test_fixture_lift_coefficient_is_nonzero():
    value = lift_leading_coefficient(fixture_lift_input())
    assert value == -CYC_ONE


def test_lift_is_linear_in_theta():
    theta = theta_vector(fixture_plane())
    base = fixture_lift_input()
    single = lift_leading_coefficient(base)
    doubled = lift_leading_coefficient(
        LiftCheckInput(theta + theta, base.z, base.z_prime, base.lam)
    )
    assert doubled == single + single
    zero = lift_leading_coefficient(
        LiftCheckInput(theta - theta, base.z, base.z_prime, base.lam)
    )
    assert not zero


def test_theta0_lift_value_is_reported():
    lat = ambient_lattice()
    lam = lat.vector(e2=HALF, f2=HALF, a1=HALF)
    assert lat.norm(lam) == HALF
    inp = LiftCheckInput(w0_vector(), lat.vector(e1=1), lat.vector(f1=HALF), lam)
    value = lift_leading_coefficient(inp, eta_exponent=6)
    assert value == Cyclotomic.coerce(-2)


def test_lift_input_validation():
    lat = ambient_lattice()
    theta = theta_vector(fixture_plane())
    good = fixture_lift_input()
    with pytest.raises(ValueError, match="integral"):
        lift_leading_coefficient(
            LiftCheckInput(theta, lat.vector(e1=HALF), good.z_prime, good.lam)
        )
    with pytest.raises(ValueError, match="primitive"):
        lift_leading_coefficient(
            LiftCheckInput(theta, lat.vector(e1=2), good.z_prime, good.lam)
        )
    with pytest.raises(ValueError, match="isotropic"):
        lift_leading_coefficient(
            LiftCheckInput(theta, lat.vector(a1=1), good.z_prime, good.lam)
        )
    with pytest.raises(ValueError, match="pair to 1"):
        lift_leading_coefficient(
            LiftCheckInput(theta, good.z, lat.vector(f2=HALF), good.lam)
        )
    with pytest.raises(ValueError, match="orthogonal"):
        lift_leading_coefficient(
            LiftCheckInput(theta, good.z, good.z_prime, lat.vector(f1=1, e2=HALF, f2=1, a1=HALF))
        )
    with pytest.raises(ValueError, match="positive norm"):
        lift_leading_coefficient(
            LiftCheckInput(theta, good.z, good.z_prime, lat.vector(a1=HALF))
        )
    with pytest.raises(ValueError, match="dual"):
        lift_leading_coefficient(
            LiftCheckInput(theta, good.z, good.z_prime, lat.vector(e2=Fraction(1, 4), f2=1))
        )


def test_lift_input_with_a_divisible_lam_is_rejected():
    # lam = 2 * (e2/2 + f2 + a1/2): the n = 2 term of the coefficient is not summed
    good = fixture_lift_input()
    lam = ambient_lattice().vector(e2=1, f2=2, a1=1)
    assert lam == tuple(2 * x for x in good.lam)
    with pytest.raises(ValueError, match=r"^lam/2 lies in the dual"):
        lift_leading_coefficient(LiftCheckInput(good.theta, good.z, good.z_prime, lam))


# ---------------------------------------------------------------------------
# The one-dimensional eigenline
# ---------------------------------------------------------------------------


def test_theta0_identities():
    report = theta0_checks()
    assert report["S_eigenvalue"] == CYC_I
    assert report["T_eigenvalue"] == CYC_I
    assert report["kappa_reflection_negates"] is True
    assert report["support_types"] == ("1/2",)
    assert report["kappa_translation_antisymmetric"] is True
    assert "reflection" in report["notation_note"]


def test_additive_lifts_demo_runs():
    out = run_demo("05_additive_lifts.py")
    assert "leading lift coefficient: Cyc(-1) (nonzero)\n" in out
