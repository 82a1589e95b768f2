"""Eta powers, multiplier compatibility, and Fourier coefficients of lifts.

Multiplying a constant eigenvector theta of the metaplectic action by a power
eta^m of the eta function produces a vector-valued modular form of weight m/2
when the eta multipliers cancel the eigenvalues, which fixes m by theta's
T-eigenvalue.  The additive lift of such a form is an automorphic form of
weight m/2 + 1 on the period domain.  This module computes its Fourier
coefficients at the one cusp z = e1, z' = f1/2 by the divisor sum of
Borcherds (Invent. Math. 132, 1998, Thm 14.3), together with the integer
coefficients of the eta powers and the support of the fixture vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd

from .exact import CYC_I, CYC_ZERO, Cyclotomic
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
    "eta_power",
    "multiplier_compatibility",
    "fixture_plane",
    "fixture_support_families",
    "CUSP_Z",
    "CUSP_Z_PRIME",
    "FIXTURE_LAM",
    "lift_coefficient",
    "theta0_checks",
    "MAX_TERMS",
]

# Largest q-series truncation of the eta powers, and so the largest
# q(lam) - m/24 a lift coefficient can be read at.  The expansion of eta^m
# through q^terms multiplies in the pentagonal series, with about
# 1.6 terms^(1/2) nonzero terms, m times: at most 1.6 m terms^(3/2)
# integer products.  `igusa lifting --terms 200` takes about 0.3 s and
# 38 MB via the CLI on a 2-vCPU Xeon, as at the default 30 terms.
MAX_TERMS = 200

_HALF = Fraction(1, 2)

# The cusp of every lift, in lattice coordinates: z is primitive and
# isotropic, and z' is a dual vector with <z, z'> = 1.
CUSP_Z = ambient_lattice().vector(e1=1)
CUSP_Z_PRIME = ambient_lattice().vector(f1=_HALF)

# The documented evaluation point of the fixture lift: orthogonal to the
# cusp, primitive in the dual, of norm 3/2.
FIXTURE_LAM = ambient_lattice().vector(e2=_HALF, f2=1, a1=_HALF)


# ---------------------------------------------------------------------------
# Eta powers
# ---------------------------------------------------------------------------


def eta_power(m: int, terms: int) -> tuple:
    """The coefficients of q^0, ..., q^terms in prod_{n>=1} (1 - q^n)^m, the
    unit series of eta^m = q^(m/24) prod_{n>=1} (1 - q^n)^m, as Python
    integers.  The pentagonal-number series prod_{n>=1} (1 - q^n) is
    multiplied in m times.  m is a nonnegative integer and terms an integer
    from 1 to MAX_TERMS."""
    if type(m) is not int or m < 0:  # a bool is not an exponent
        raise ValueError("the eta exponent must be a nonnegative integer")
    if type(terms) is not int or terms < 1:
        raise ValueError("terms must be a positive integer")
    if terms > MAX_TERMS:
        raise ValueError(f"terms must be at most {MAX_TERMS}")
    # (-1)^k at the generalized pentagonal numbers k(3k - 1)/2, k(3k + 1)/2
    euler = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 <= terms:
        euler += [(e, (-1) ** k) for e in (k * (3 * k - 1) // 2,
                                           k * (3 * k + 1) // 2) if e <= terms]
        k += 1
    coeffs = [1] + [0] * terms
    for _ in range(m):
        product = [0] * (terms + 1)
        for e, sign in euler:
            for j in range(e, terms + 1):
                product[j] += sign * coeffs[j - e]
        coeffs = product
    return tuple(coeffs)


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
# The documented fixture plane and its support
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def fixture_plane() -> tuple:
    """The isotropic plane spanned by the half-classes of the second
    hyperbolic-pair generators: <f1/2, e2/2>."""
    A = ambient_module()
    lat = ambient_lattice()
    f1h = A.class_of_vector(lat.vector(f1=_HALF))
    e2h = A.class_of_vector(lat.vector(e2=_HALF))
    return tuple(sorted((f1h, e2h, A.add(f1h, e2h))))


@lru_cache(maxsize=1)
def fixture_support_families() -> dict:
    """The support of the fixture vector, grouped into the three documented
    two-element families plus the two half-root classes that complete the
    8-element coset.  Raises ValueError unless each family has two distinct
    classes and the families together are exactly the support of
    theta_vector(fixture_plane())."""
    A = ambient_module()
    lat = ambient_lattice()
    h = _HALF

    def cls(**coeffs):
        return A.class_of_vector(lat.vector(**coeffs))

    families = {
        "f1_plus_root": (cls(f1=h, a1=h), cls(f1=h, a2=h)),
        "e2_plus_root": (cls(e2=h, a1=h), cls(e2=h, a2=h)),
        "f1_e2_plus_root": (cls(f1=h, e2=h, a1=h), cls(f1=h, e2=h, a2=h)),
        "half_roots": (cls(a1=h), cls(a2=h)),
    }
    if any(a == b for a, b in families.values()):
        raise ValueError("a support family repeats a class")
    union = {x for pair in families.values() for x in pair}
    if union != theta_vector(fixture_plane()).support:
        raise ValueError(
            "the support families are not the fixture vector's support")
    return families


# ---------------------------------------------------------------------------
# Lift coefficients
# ---------------------------------------------------------------------------


def _eta_exponent(theta: GroupRingVector) -> int:
    """The even m in 2..24 with e^(pi i m/12) equal to the T-eigenvalue of
    theta, certified on both generators by multiplier_compatibility."""
    t_eigen = _eigenvalue(theta, weil_generator("T"))
    for m in range(2, 25, 2):
        if Cyclotomic.e_half(Fraction(m, 12)) == t_eigen:
            return multiplier_compatibility(theta, m)["exponent"]
    raise ValueError(f"the T-eigenvalue {t_eigen!r} is not e^(pi i m/12) "
                     "for an even m")


def lift_coefficient(theta: GroupRingVector, lam) -> Cyclotomic:
    """Fourier coefficient at lam of the additive lift of eta^m * theta at
    the cusp z = CUSP_Z, z' = CUSP_Z_PRIME (Borcherds, Thm 14.3):

        sum over n with lam/n in the dual of  n^(k-1) * sum over
        delta in {lam/n, lam/n + z/2} of  e(<n delta, z'>) theta(delta)
        c(q(lam/n) - m/24),

    where c(j) is the q^j coefficient of eta_power(m), k = m/2 + 1 is the
    lift weight and q(x) = x^2/2.  The exponent m is the even m in 2..24
    with e^(pi i m/12) equal to theta's T-eigenvalue (_eta_exponent).  lam
    must be a dual vector of positive norm orthogonal to z and z', with
    q(lam) - m/24 at most MAX_TERMS.  The lift normalization constant is
    fixed to 1."""
    lat = ambient_lattice()
    A = ambient_module()
    if len(lam) != lat.rank:
        raise ValueError("lam has wrong length")
    if lat.ip(lam, CUSP_Z) or lat.ip(lam, CUSP_Z_PRIME):
        raise ValueError("lam must be orthogonal to z and z_prime")
    norm = lat.norm(lam)
    if norm <= 0:
        raise ValueError("lam must have positive norm")
    A.class_of_vector(lam)  # rejects anything outside the dual

    m = _eta_exponent(theta)
    # the n = 1 term reads the eta expansion furthest out
    top = floor(norm / 2 - Fraction(m, 24))
    if top > MAX_TERMS:
        raise ValueError(f"lam needs the eta^{m} expansion through q^{top}, "
                         f"beyond MAX_TERMS = {MAX_TERMS}")
    unit = eta_power(m, max(top, 1))

    # lam/n is in the dual exactly when n divides every entry of G lam
    content = gcd(*(int(sum(g * x for g, x in zip(row, lam)))
                    for row in lat.gram))
    total = CYC_ZERO
    for n in range(1, content + 1):
        if content % n:
            continue
        base = tuple(Fraction(x) / n for x in lam)
        j = lat.norm(base) / 2 - Fraction(m, 24)
        if j < 0 or j.denominator != 1:
            continue  # no power of the unit series sits there
        weight = unit[j.numerator] * n ** (m // 2)
        for delta in (base, tuple(b + zc / 2 for b, zc in zip(base, CUSP_Z))):
            phase = Cyclotomic.e(n * lat.ip(delta, CUSP_Z_PRIME) % 1)
            theta_coeff = theta.entry(A.class_of_vector(delta))
            total = total + theta_coeff * weight * phase
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
