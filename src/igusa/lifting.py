"""Eta powers, multiplier compatibility, and lift leading coefficients.

Multiplying a constant eigenvector of the metaplectic action by a power of
the eta function produces a vector-valued modular form when the eta
multipliers cancel the eigenvalues.  The additive lift of such a form is an
automorphic form on the period domain; this module computes the one Fourier
coefficient of the lift that certifies it is nonzero, together with the
supporting eta-power expansions and support-set bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exact import CYC_I, CYC_ONE, CYC_ZERO, Cyclotomic, QSeries
from .fqm import element_types, radical_class, reflection
from .lattices import ambient_lattice
from .weil import (
    GroupRingVector,
    ambient_module,
    theta_vector,
    w0_vector,
    weil_generator,
)

__all__ = [
    "EtaPower",
    "eta_power",
    "multiplier_compatibility",
    "fixture_plane",
    "theta_support",
    "fixture_support_families",
    "LiftCheckInput",
    "fixture_lift_input",
    "lift_leading_coefficient",
    "theta0_checks",
    "MAX_TERMS",
]

# Largest q-series truncation of the eta powers.  The expansion of eta^m
# through q^terms costs about terms^2 m coefficient products; `igusa
# lifting --terms 200` takes 0.5 s and 53 MB via the CLI on a 2-vCPU Xeon.
MAX_TERMS = 200


# ---------------------------------------------------------------------------
# Eta powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaPower:
    """q-expansion of the m-th power of the eta function.

    unit_series is the integer-exponent factor prod_{n>=1} (1 - q^n)^m; the
    full expansion is q^(m/24) times it.  The shifted form is available as
    .series whenever m/24 lands in the quarter-integer exponent lattice."""

    exponent: int
    unit_series: QSeries

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(self.exponent, 24)

    @property
    def series(self) -> QSeries:
        if (4 * self.exponent) % 24 != 0:
            raise ValueError(
                f"eta^{self.exponent} has leading exponent "
                f"{self.leading_exponent}, outside the quarter-integer lattice"
            )
        return self.unit_series.shift(self.leading_exponent)


def _euler_unit(truncation: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) expanded by the pentagonal-number theorem."""
    data = {Fraction(0): CYC_ONE}
    k = 1
    while True:
        lower = k * (3 * k - 1) // 2
        upper = k * (3 * k + 1) // 2
        if lower >= truncation:
            break
        sign = CYC_ONE if k % 2 == 0 else -CYC_ONE
        data[Fraction(lower)] = sign
        if upper < truncation:
            data[Fraction(upper)] = sign
        k += 1
    return QSeries(data, Fraction(truncation))


def eta_power(m: int, terms: int = 16) -> EtaPower:
    """Truncated expansion of eta^m with unit-series coefficients through
    q^terms; m must be a nonnegative integer."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("the eta exponent must be a nonnegative integer")
    if terms < 1:
        raise ValueError("terms must be positive")
    if terms > MAX_TERMS:
        raise ValueError(f"terms must be at most {MAX_TERMS}")
    unit = _euler_unit(terms + 1) ** m
    return EtaPower(m, unit)


# ---------------------------------------------------------------------------
# Multiplier compatibility
# ---------------------------------------------------------------------------


def _eigenvalue(vec: GroupRingVector, matrix) -> Cyclotomic:
    image = vec.apply(matrix)
    if not vec:
        raise ValueError("the zero vector has no eigenvalue")
    pivot = min(vec.support)
    ratio = image.entry(pivot) * vec.entry(pivot).inverse()
    if image != vec.scale(ratio):
        raise ValueError("vector is not an eigenvector of the generator")
    return ratio


def multiplier_compatibility(theta: GroupRingVector, m: int) -> dict:
    """Check that eta^m times the constant eigenvector theta transforms as a
    vector-valued modular form of weight m/2: the T-multiplier e^(pi i m/12)
    must equal the T-eigenvalue of theta, and the S-phase (-i)^(m/2) must
    equal the S-eigenvalue.  A phase mismatch raises ValueError; on success
    the report carries the vector-valued weight m/2 and the lift weight
    m/2 + 1."""
    if not isinstance(m, int) or m <= 0 or m % 2:
        raise ValueError("the eta exponent must be a positive even integer")
    t_eigen = _eigenvalue(theta, weil_generator("T"))
    s_eigen = _eigenvalue(theta, weil_generator("S"))
    t_mult = Cyclotomic.e_half(Fraction(m, 12))
    s_mult = Cyclotomic.e_half(Fraction(-m, 4))
    if t_eigen != t_mult:
        raise ValueError(
            f"T-multiplier mismatch: eta^{m} carries {t_mult!r}, "
            f"the vector carries eigenvalue {t_eigen!r}"
        )
    if s_eigen != s_mult:
        raise ValueError(
            f"S-multiplier mismatch: eta^{m} carries {s_mult!r}, "
            f"the vector carries eigenvalue {s_eigen!r}"
        )
    return {
        "exponent": m,
        "vector_valued_weight": Fraction(m, 2),
        "lift_weight": Fraction(m, 2) + 1,
        "T_eigenvalue": t_eigen,
        "S_eigenvalue": s_eigen,
        "compatible": True,
    }


# ---------------------------------------------------------------------------
# The documented fixture plane and support sets
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


@lru_cache(maxsize=1)
def fixture_plane() -> tuple:
    """The isotropic plane spanned by the half-classes of the second
    hyperbolic-pair generators: <f1/2, e2/2>."""
    A = ambient_module()
    lat = ambient_lattice()
    f1h = A.class_of_vector(lat.vector(f1=_HALF))
    e2h = A.class_of_vector(lat.vector(e2=_HALF))
    return tuple(sorted((f1h, e2h, A.add(f1h, e2h))))


def theta_support(plane) -> frozenset:
    """Support of the signed two-coset vector attached to an isotropic
    plane, as a frozenset of element indices.  `lifting-fixture-support`
    counts the documented families; only the tests compare them with it."""
    return theta_vector(plane).support


@lru_cache(maxsize=1)
def fixture_support_families() -> dict:
    """The support of the fixture vector, grouped into the three documented
    two-element families plus the two half-root classes that complete the
    8-element coset."""
    A = ambient_module()
    lat = ambient_lattice()
    h = _HALF

    def cls(**coeffs):
        return A.class_of_vector(lat.vector(**coeffs))

    return {
        "f1_plus_root": (cls(f1=h, a1=h), cls(f1=h, a2=h)),
        "e2_plus_root": (cls(e2=h, a1=h), cls(e2=h, a2=h)),
        "f1_e2_plus_root": (cls(f1=h, e2=h, a1=h), cls(f1=h, e2=h, a2=h)),
        "half_roots": (cls(a1=h), cls(a2=h)),
    }


# ---------------------------------------------------------------------------
# Lift leading coefficient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftCheckInput:
    """Data for the leading-coefficient evaluation: a constant vector theta,
    a primitive isotropic lattice vector z, a dual vector z' with
    <z, z'> = 1, and a positive-norm dual vector lam orthogonal to both."""

    theta: GroupRingVector
    z: tuple
    z_prime: tuple
    lam: tuple


def fixture_lift_input() -> LiftCheckInput:
    """The documented evaluation point: theta is the fixture-plane vector,
    z and z' span the first hyperbolic pair, and lam = e2/2 + f2 + a1/2 has
    norm 3/2."""
    lat = ambient_lattice()
    return LiftCheckInput(
        theta=theta_vector(fixture_plane()),
        z=lat.vector(e1=1),
        z_prime=lat.vector(f1=_HALF),
        lam=lat.vector(e2=_HALF, f2=1, a1=_HALF),
    )


def _validate_lift_input(inp: LiftCheckInput):
    lat = ambient_lattice()
    A = ambient_module()
    for name, vec in (("z", inp.z), ("z_prime", inp.z_prime), ("lam", inp.lam)):
        if len(vec) != lat.rank:
            raise ValueError(f"{name} has wrong length")
    z = tuple(Fraction(c) for c in inp.z)
    if any(c.denominator != 1 for c in z) or not any(z):
        raise ValueError("z must be a nonzero integral lattice vector")
    if gcd(*(int(c) for c in z)) != 1:
        raise ValueError("z must be primitive")
    if lat.norm(z):
        raise ValueError("z must be isotropic")
    if lat.ip(z, inp.z_prime) != 1:
        raise ValueError("z and z_prime must pair to 1")
    if lat.ip(inp.lam, z) or lat.ip(inp.lam, inp.z_prime):
        raise ValueError("lam must be orthogonal to z and z_prime")
    if lat.norm(inp.lam) <= 0:
        raise ValueError("lam must have positive norm")
    # the coefficient sums over every n with lam/n in the dual; only n = 1 is summed
    pairing = [sum(g * Fraction(x) for g, x in zip(row, inp.lam)) for row in lat.gram]
    if all(p.denominator == 1 for p in pairing):
        n = gcd(*(int(p) for p in pairing))
        if n > 1:
            raise ValueError(
                f"lam/{n} lies in the dual: the lift's terms for n >= 2 are not summed"
            )
    return lat, A


def lift_leading_coefficient(inp: LiftCheckInput,
                             eta_exponent: int = 18) -> Cyclotomic:
    """Fourier coefficient of the additive lift of eta^m * theta at the
    vector lam: the two-term sum over the lifts of lam along the isotropic
    direction, each term a theta coefficient times the eta^m expansion
    coefficient at half the lift's norm, weighted by the phase of its
    pairing with z'.  The lift normalization constant is fixed to 1.  These
    are the n = 1 terms of the sum over n with lam/n in the dual, so a lam
    with such an n >= 2 is rejected."""
    lat, A = _validate_lift_input(inp)
    series = eta_power(eta_exponent).series

    half_z_plus_lam = tuple(
        Fraction(zc) / 2 + Fraction(lc) for zc, lc in zip(inp.z, inp.lam)
    )
    total = CYC_ZERO
    for vec in (tuple(Fraction(c) for c in inp.lam), half_z_plus_lam):
        cls = A.class_of_vector(vec)  # rejects anything outside the dual
        n = lat.norm(vec) / 2
        if n >= series.truncation:
            raise ValueError("increase terms: lift exponent beyond truncation")
        if (4 * n).denominator != 1:
            continue  # no quarter-integer power can contribute
        theta_coeff = inp.theta.entry(cls)
        if not theta_coeff:
            continue
        phase = Cyclotomic.e(lat.ip(vec, inp.z_prime) % 1)
        total = total + theta_coeff * series.coefficient(n) * phase
    return total


# ---------------------------------------------------------------------------
# The one-dimensional eigenline
# ---------------------------------------------------------------------------


def theta0_checks() -> dict:
    """Identities of the generator of the one-dimensional isotypic line: both
    generator eigenvalues are +i, the reflection attached to the
    characteristic element negates it, and its support lies in the two
    non-integral value classes with translation antisymmetry."""
    A = ambient_module()
    theta0 = w0_vector()
    expected = theta0.scale(CYC_I)
    if theta0.apply(weil_generator("S")) != expected:
        raise ValueError("S does not act by +i on the one-dimensional line")
    if theta0.apply(weil_generator("T")) != expected:
        raise ValueError("T does not act by +i on the one-dimensional line")

    kappa = radical_class(A)
    t_kappa = reflection(A, kappa)
    if theta0.permute(t_kappa) != -theta0:
        raise ValueError("the characteristic reflection does not negate theta0")

    labels = element_types(A)
    support_types = {labels[x] for x in theta0.support}
    if not support_types <= {"3/2", "1/2"}:
        raise ValueError("support escapes the non-integral value classes")
    dense = theta0.dense
    for x in range(A.size):
        shifted = A.add(x, kappa)
        if dense[shifted] != -dense[x]:
            raise ValueError("translation antisymmetry fails")

    return {
        "S_eigenvalue": CYC_I,
        "T_eigenvalue": CYC_I,
        "kappa_reflection_negates": True,
        "support_types": tuple(sorted(support_types)),
        "kappa_translation_antisymmetric": True,
        "notation_note": (
            "the reflection is the one attached to the characteristic "
            "element of the ambient discriminant group"
        ),
    }
