"""Eta powers, multiplier bookkeeping, and lift coefficients."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest

from igusa.exact import CYC_I, CYC_ONE, Cyclotomic, QSeries
from igusa.fqm import element_types, isotropic_planes
from igusa.lattices import ambient_lattice
from igusa.lifting import (
    CUSP_Z,
    CUSP_Z_PRIME,
    FIXTURE_LAM,
    MAX_TERMS,
    _eta_exponent,
    eta_power,
    fixture_plane,
    fixture_support_families,
    lift_coefficient,
    multiplier_compatibility,
    theta0_checks,
)
from igusa.report import eta_product_mismatches
from igusa.weil import ambient_module, theta_vector, theta_vectors, w0_vector

from helpers import run_demo

HALF = Fraction(1, 2)


def int_product(a, b, terms: int) -> list:
    """The coefficients of q^0, ..., q^terms in the product of two series
    given by their integer coefficient lists."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(terms + 1)]


def naive_eta_unit(m: int, terms: int) -> list:
    """prod_{n>=1} (1 - q^n)^m by multiplying binomial-expanded factors."""
    from math import comb

    acc = [1] + [0] * terms
    for n in range(1, terms + 1):
        factor = [0] * (terms + 1)
        for k in range(m + 1):
            if n * k <= terms:
                factor[n * k] = (-1) ** k * comb(m, k)
        acc = int_product(acc, factor, terms)
    return acc


# ---------------------------------------------------------------------------
# Eta powers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 6, 18, 24])
def test_eta_unit_series_matches_product_oracle(m):
    assert eta_power(m, 30) == tuple(naive_eta_unit(m, 30))


def test_eta18_documented_expansion():
    # eta^18 = q^(3/4) (1 - 18 q + 135 q^2 - 510 q^3 + ...)
    unit = eta_power(18, 8)
    assert unit[:4] == (1, -18, 135, -510)
    # one Python integer per exponent 0, ..., 8
    assert len(unit) == 9 and all(type(c) is int for c in unit)


def test_eta6_documented_expansion():
    # eta^6 = q^(1/4) (1 - 6 q + 9 q^2 + 10 q^3 + ...)
    assert eta_power(6, 8)[:4] == (1, -6, 9, 10)


def test_eta_zeroth_power_is_one():
    assert eta_power(0, 8) == (1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_eta_power_is_multiplicative_in_the_exponent():
    product = int_product(eta_power(6, 20), eta_power(12, 20), 20)
    assert tuple(product) == eta_power(18, 20)


def test_eta_power_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        eta_power(-2, 8)
    with pytest.raises(ValueError, match="positive"):
        eta_power(6, 0)
    with pytest.raises(ValueError, match=f"at most {MAX_TERMS}"):
        eta_power(6, MAX_TERMS + 1)
    # a bool is not an exponent, and a float truncation is not a term count
    for m, terms in ((True, 3), (18.0, 3)):
        with pytest.raises(ValueError, match="nonnegative integer"):
            eta_power(m, terms)
    for m, terms in ((18, 2.5), (18, True)):
        with pytest.raises(ValueError, match="positive integer"):
            eta_power(m, terms)


def perturbed(unit: tuple, k: int) -> tuple:
    """unit with 1 added to its coefficient of q^k."""
    return unit[:k] + (unit[k] + 1,) + unit[k + 1:]


@pytest.mark.parametrize("m", [18, 6])
def test_eta_product_oracle_reports_a_perturbed_coefficient(m):
    unit = eta_power(m, 30)
    assert eta_product_mismatches(unit, m, 30) == []
    for k in (0, 13, 30):
        assert eta_product_mismatches(perturbed(unit, k), m, 30) == [k]


def test_eta_product_oracle_multiplies_only_python_integers(monkeypatch):
    # the oracle shares no product code with the expansion it checks
    import igusa.lifting

    unit = eta_power(18, 30)

    def forbidden(*args):
        raise AssertionError("the oracle reached exact or eta-power code")

    monkeypatch.setattr(QSeries, "__mul__", forbidden)
    monkeypatch.setattr(Cyclotomic, "__mul__", forbidden)
    monkeypatch.setattr(igusa.lifting, "eta_power", forbidden)
    assert eta_product_mismatches(unit, 18, 30) == []


def test_eta_product_check_fails_on_a_perturbed_expansion(monkeypatch):
    import igusa.lifting
    from igusa.report import SuiteRunner, lifting_suite

    def broken(m, terms):
        unit = eta_power(m, terms)
        return perturbed(unit, 5) if m == 6 else unit

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
    support = theta_vector(fixture_plane()).support
    assert support == union
    assert support == {16, 17, 24, 25, 32, 33, 40, 41}
    # the three documented pair-families plus the two half-root classes
    assert set(families) == {
        "f1_plus_root",
        "e2_plus_root",
        "f1_e2_plus_root",
        "half_roots",
    }
    labels = element_types(ambient_module())
    assert {labels[x] for x in support} == {"3/2"}


def test_fixture_support_families_reject_another_plane(monkeypatch):
    # the families are checked against the vector, not just counted
    import igusa.lifting

    other = next(p for p in isotropic_planes(ambient_module())
                 if p != fixture_plane())
    monkeypatch.setattr(igusa.lifting, "fixture_plane", lambda: other)
    with pytest.raises(ValueError, match="not the fixture vector's support"):
        fixture_support_families.__wrapped__()


def test_every_plane_has_support_of_size_eight():
    A = ambient_module()
    for plane in isotropic_planes(A):
        assert len(theta_vector(plane).support) == 8


def test_documented_membership_and_avoidance():
    A = ambient_module()
    lat = ambient_lattice()
    support = theta_vector(fixture_plane()).support
    assert A.class_of_vector(FIXTURE_LAM) in support
    shifted = A.class_of_vector(lat.vector(e1=HALF, e2=HALF, f2=1, a1=HALF))
    assert shifted not in support


# ---------------------------------------------------------------------------
# Lift coefficients
# ---------------------------------------------------------------------------


def test_cusp_is_primitive_isotropic_with_a_dual_partner():
    lat = ambient_lattice()
    assert lat.norm(CUSP_Z) == 0
    assert lat.ip(CUSP_Z, CUSP_Z_PRIME) == 1
    assert all(c.denominator == 1 for c in CUSP_Z)
    assert gcd(*(int(c) for c in CUSP_Z)) == 1
    ambient_module().class_of_vector(CUSP_Z_PRIME)  # z' is in the dual


def test_fixture_lift_coefficient_is_nonzero():
    lat = ambient_lattice()
    assert FIXTURE_LAM == lat.vector(e2=HALF, f2=1, a1=HALF)
    assert lat.norm(FIXTURE_LAM) == Fraction(3, 2)
    value = lift_coefficient(theta_vector(fixture_plane()), FIXTURE_LAM)
    assert value == -CYC_ONE


def test_eta_exponent_is_read_off_the_multipliers():
    assert [_eta_exponent(theta) for theta in theta_vectors()] == [18] * 15
    assert _eta_exponent(w0_vector()) == 6


def test_lift_is_linear_in_theta():
    planes = isotropic_planes(ambient_module())
    lams = [FIXTURE_LAM, tuple(2 * x for x in FIXTURE_LAM),
            ambient_lattice().vector(e2=HALF, f2=2, a2=HALF)]
    for p, q in ((1, 4), (2, 7), (8, 5)):
        theta_p, theta_q = theta_vector(planes[p]), theta_vector(planes[q])
        for lam in lams:
            assert lift_coefficient(theta_p + theta_q, lam) == (
                lift_coefficient(theta_p, lam) + lift_coefficient(theta_q, lam))
    theta = theta_vector(fixture_plane())
    single = lift_coefficient(theta, FIXTURE_LAM)
    assert lift_coefficient(theta + theta, FIXTURE_LAM) == single + single


def test_lift_needs_a_multiplier_eigenvector():
    theta = theta_vector(fixture_plane())
    with pytest.raises(ValueError, match="not an eigenvector"):
        lift_coefficient(theta + w0_vector(), FIXTURE_LAM)
    with pytest.raises(ValueError, match="zero vector"):
        lift_coefficient(theta - theta, FIXTURE_LAM)


def test_theta0_lift_value_is_reported():
    lat = ambient_lattice()
    lam = lat.vector(e2=HALF, f2=HALF, a1=HALF)
    assert lat.norm(lam) == HALF
    assert lift_coefficient(w0_vector(), lam) == Cyclotomic.coerce(-2)


def test_lift_input_validation():
    lat = ambient_lattice()
    theta = theta_vector(fixture_plane())
    with pytest.raises(ValueError, match="wrong length"):
        lift_coefficient(theta, FIXTURE_LAM[:5])
    with pytest.raises(ValueError, match="orthogonal"):
        lift_coefficient(theta, lat.vector(f1=1, e2=HALF, f2=1, a1=HALF))
    with pytest.raises(ValueError, match="orthogonal"):
        lift_coefficient(theta, lat.vector(e1=1, e2=HALF, f2=1, a1=HALF))
    with pytest.raises(ValueError, match="positive norm"):
        lift_coefficient(theta, lat.vector(a1=HALF))
    with pytest.raises(ValueError, match="dual"):
        lift_coefficient(theta, lat.vector(e2=Fraction(1, 4), f2=1))


def test_lift_expansion_is_capped_at_max_terms():
    # q(e2/2 + y f2 + a1/2) - 18/24 = y - 1
    lat = ambient_lattice()
    theta = theta_vector(fixture_plane())
    edge = lat.vector(e2=HALF, f2=MAX_TERMS + 1, a1=HALF)
    assert lift_coefficient(theta, edge) == (
        -eta_power(18, MAX_TERMS)[MAX_TERMS])
    beyond = lat.vector(e2=HALF, f2=MAX_TERMS + 2, a1=HALF)
    with pytest.raises(ValueError, match=f"beyond MAX_TERMS = {MAX_TERMS}"):
        lift_coefficient(theta, beyond)


def test_lift_sums_every_divisor_of_lam():
    # lam = 2 mu for the fixture point mu: the n = 1 term vanishes since
    # q(2 mu) - 3/4 = 9/4, and the n = 2 term is 2^9 theta(mu) = -512
    theta = theta_vector(fixture_plane())
    assert lift_coefficient(theta, tuple(2 * x for x in FIXTURE_LAM)) == (
        Cyclotomic.coerce(-512))
    # lam = 3 mu: both terms count, theta(3 mu) c(6) and 3^9 theta(mu) c(0)
    c6 = eta_power(18, 6)[6]
    assert lift_coefficient(theta, tuple(3 * x for x in FIXTURE_LAM)) == (
        -c6 - 3 ** 9)


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


ADDITIVE_LIFTS_DEMO_SHA256 = (
    "198fc741ce975f31dd7364e240a863e8a5dd3b7c441c210d77e83c5097e6ea29"
)


def test_additive_lifts_demo_runs():
    out = run_demo("05_additive_lifts.py")
    assert "leading lift coefficient: Cyc(-1) (nonzero)\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == ADDITIVE_LIFTS_DEMO_SHA256
