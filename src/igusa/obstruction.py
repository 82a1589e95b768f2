"""Six-type collapse of the dual metaplectic action and product weights.

Summing the components of a vector-valued form over each value class of the
ambient discriminant group yields a six-dimensional representation of
SL(2, Z).  This module builds that collapse exactly, evaluates the weight-3
dimension formula with eigenphase sums, expands the weight-3 level-4
congruence Eisenstein series, and assembles the distinguished six-tuple of
aggregated Eisenstein components.  Each of the four standard divisor
families is a whole value class, so the weight of its product is the
class's aggregate Fourier coefficient in that tuple.

All series coefficients carry the fixed transcendental unit i*(2*pi)^3 / 2^7
symbolically; the unit is only ever evaluated inside the numeric
double-sum oracle, `eisenstein_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
from typing import Sequence

import numpy as np

from .exact import (
    CYC_I,
    CYC_ONE,
    CYC_ZERO,
    Cyclotomic,
    CycArray,
    CycMatrix,
    QSeries,
    eigenphase_sum,
    matrix_eigenphase_multiplicities,
    packed_sum,
)
from .fqm import TYPE_ORDER_AMBIENT, element_types, pairing_table
from .weil import ambient_module, weil_generator

__all__ = [
    "TYPE_ORDER",
    "CollapsedRep",
    "collapsed_rep",
    "dimension_formula_data",
    "eisenstein_subspace",
    "cusp_dimension",
    "eisenstein_G3",
    "numeric_double_sum",
    "eisenstein_oracle",
    "E_LABELS",
    "f_tuple",
    "transformation_bookkeeping",
    "borcherds_weights_table",
]

TYPE_ORDER = TYPE_ORDER_AMBIENT  # ("00", "0", "1", "10", "3/2", "1/2")

# Frozen reference for the six-type collapse: the S-matrix is -i/8 times the
# integer matrix below, the T-matrix is the diagonal given after it.  Rows and
# columns are indexed by TYPE_ORDER.
_COLLAPSED_S_INTEGERS = (
    (1, 1, 1, 1, 1, 1),
    (15, -1, -1, 15, 3, -5),
    (15, -1, -1, 15, -3, 5),
    (1, 1, 1, 1, -1, -1),
    (20, 4, -4, -20, 0, 0),
    (12, -4, 4, -12, 0, 0),
)
_COLLAPSED_T_DIAGONAL = (1, 1, -1, -1, "i", "-i")


def _expected_t_entry(tag) -> Cyclotomic:
    if tag == "i":
        return CYC_I
    if tag == "-i":
        return -CYC_I
    return Cyclotomic(tag)


@dataclass(frozen=True)
class CollapsedRep:
    """The six-dimensional aggregate of the dual action, rows/columns in
    TYPE_ORDER, together with the class sizes used in the aggregation."""

    type_sizes: tuple
    T_matrix: CycMatrix
    S_matrix: CycMatrix


@lru_cache(maxsize=1)
def _type_indices() -> dict:
    A = ambient_module()
    labels = element_types(A)
    arr = np.array(labels)
    return {t: np.flatnonzero(arr == t) for t in TYPE_ORDER}


@lru_cache(maxsize=1)
def collapsed_rep() -> CollapsedRep:
    """Build the six-dimensional collapse and verify it against the frozen
    reference matrices entry by entry, plus an independent route through the
    frozen pairing-count table."""
    A = ambient_module()
    idx = _type_indices()
    sizes = tuple(int(len(idx[t])) for t in TYPE_ORDER)

    # The dual action is the entrywise conjugate of the primal generators.
    s64 = weil_generator("S").conjugate()
    t64 = weil_generator("T").conjugate()

    # Aggregate the rows of each value class; the resulting column pattern
    # must be constant on every value class for the collapse to exist.
    factor = Cyclotomic(Fraction(-1, 8)) * CYC_I
    s_rows = []
    for a, t in enumerate(TYPE_ORDER):
        colsum = packed_sum(s64.num[idx[t], :, :])  # (64, 8) packed numerators
        entries = []
        for b, s in enumerate(TYPE_ORDER):
            block = colsum[idx[s]]
            if not np.all(block == block[0]):
                raise ValueError(
                    f"six-type collapse of S is ill-defined at row {t}, column {s}"
                )
            entries.append(CycArray(block[0], s64.den).entry())
        s_rows.append(entries)
    s6 = CycMatrix.from_rows(s_rows)

    t_diag = []
    for t in TYPE_ORDER:
        diag = t64.num[idx[t], idx[t], :]  # (n_t, 8) diagonal entries
        if not np.all(diag == diag[0]):
            raise ValueError(f"six-type collapse of T is ill-defined on class {t}")
        t_diag.append(CycArray(diag[0], t64.den).entry())
    t6 = CycMatrix.diagonal(t_diag)

    # Route 1: frozen reference matrices.
    for a, t in enumerate(TYPE_ORDER):
        for b, s in enumerate(TYPE_ORDER):
            expected = factor * _COLLAPSED_S_INTEGERS[a][b]
            if s6.entry(a, b) != expected:
                raise ValueError(
                    f"collapsed S disagrees with the reference at ({t}, {s})"
                )
        expected_t = _expected_t_entry(_COLLAPSED_T_DIAGONAL[a])
        if t6.entry(a, a) != expected_t:
            raise ValueError(f"collapsed T disagrees with the reference at ({t})")

    # Route 2: the same entries through the pairing-count table.  The (t, s)
    # entry must be -i/8 times (m0 - m1) where (m0, m1) counts, for a fixed
    # representative of class s, the elements of class t pairing to 0 or 1/2.
    table = pairing_table(A)
    for a, t in enumerate(TYPE_ORDER):
        for b, s in enumerate(TYPE_ORDER):
            m0, m1 = table[s][t]
            if s6.entry(a, b) != factor * (m0 - m1):
                raise ValueError(
                    f"pairing-count route disagrees at ({t}, {s}): ({m0}, {m1})"
                )

    minus_identity = CycMatrix.identity(6).scale(-1)
    if s6 @ s6 != minus_identity:
        raise ValueError("collapsed S does not square to minus the identity")
    st = s6 @ t6
    if (st @ st) @ st != s6 @ s6:
        raise ValueError("collapsed generators violate the braid relation")

    return CollapsedRep(sizes, t6, s6)


@lru_cache(maxsize=1)
def dimension_formula_data() -> dict:
    """Exact evaluation of the weight-3 dimension formula

        d + d*k/12 - alpha(e^(pi i k/2) S) - alpha((e^(pi i k/3) S T)^(-1))
          - alpha(T)

    on the six-dimensional collapse, where alpha(A) sums the eigenvalue
    phases of the finite-order matrix A taken in [0, 1)."""
    rep = collapsed_rep()
    s6, t6 = rep.S_matrix, rep.T_matrix
    k = 3

    # d = dimension of the (-1)^k eigenspace of the image of -E; the image of
    # -E is S^2, which is minus the identity, so for odd k this is everything.
    d = s6.n

    alpha_s = eigenphase_sum(s6.scale(-CYC_I))  # e^(pi i k/2) = -i at k = 3
    st_scaled = (s6 @ t6).scale(-CYC_ONE)  # e^(pi i k/3) = -1 at k = 3
    # the inverse has the phase 1 - phi for each nonzero phase phi, 0 for 0
    alpha_st = sum(((1 - phase) * mult for phase, mult in
                    matrix_eigenphase_multiplicities(st_scaled) if phase),
                   Fraction(0))
    alpha_t = eigenphase_sum(t6)

    dim = Fraction(d) + Fraction(d * k, 12) - alpha_s - alpha_st - alpha_t
    if dim.denominator != 1 or dim < 0:
        raise ValueError(f"dimension formula returned a non-integer: {dim}")
    return {
        "d": d,
        "alpha_S": alpha_s,
        "alpha_ST": alpha_st,
        "alpha_T": alpha_t,
        "dimension": dim,
    }


@lru_cache(maxsize=1)
def eisenstein_subspace() -> tuple:
    """Basis of the subspace isomorphic to the space of Eisenstein forms:
    vectors fixed by the T-collapse on which the image of -E acts by
    (-1)^k.  `collapsed_rep` certifies that T is diagonal and S^2 = -E, so
    at odd weight this is the unit vectors e_a with T[a][a] = 1, the
    reduced row echelon basis of the T-fixed space.  Returned as coordinate
    tuples in TYPE_ORDER."""
    t6 = collapsed_rep().T_matrix
    return tuple(tuple(CYC_ONE if i == a else CYC_ZERO for i in range(6))
                 for a in range(6) if t6.entry(a, a) == CYC_ONE)


def cusp_dimension() -> Fraction:
    """Dimension of the cusp subspace: total minus Eisenstein."""
    total = dimension_formula_data()["dimension"]
    eis = len(eisenstein_subspace())
    cusp = total - eis
    if cusp < 0:
        raise ValueError("Eisenstein dimension exceeds the total dimension")
    return cusp


# ---------------------------------------------------------------------------
# Weight-3 level-4 congruence Eisenstein series
# ---------------------------------------------------------------------------

# The six series entering the aggregated tuple, as congruence data mod 4.
E_LABELS = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1))

_I_POWERS = (CYC_ONE, CYC_I, -CYC_ONE, -CYC_I)

# Constant terms in units of i*(2*pi)^3/2^7, for labels with vanishing first
# component: the one-variable lattice sum collapses to a Dirichlet value.
_CONSTANT_TERMS = {
    1: Cyclotomic(Fraction(-1, 2)) * CYC_I,
    2: CYC_ZERO,
    3: Cyclotomic(Fraction(1, 2)) * CYC_I,
}


def _fourier_coefficient(j: int, a1: int, a2: int) -> Cyclotomic:
    """Coefficient of q^(j/4): divisor sum over factorizations j = r*m with
    m in the residue class a1 (positive branch) or -a1 (negative branch)."""
    acc = CYC_ZERO
    for m in range(1, j + 1):
        if j % m:
            continue
        r = j // m
        if m % 4 == a1:
            acc = acc + _I_POWERS[(r * a2) % 4] * Fraction(r * r)
        if m % 4 == (-a1) % 4:
            acc = acc - _I_POWERS[(-r * a2) % 4] * Fraction(r * r)
    return acc


_DOUBLE_SUM_ROWS = 32


def numeric_double_sum(a1: int, a2: int, box: int = 1600) -> complex:
    """Truncated absolutely convergent double sum over pairs congruent to
    (a1, a2) mod 4 inside the square max(|m1|, |m2|) <= box, evaluated at the
    point tau = i of the upper half plane.

    The sum runs over blocks of _DOUBLE_SUM_ROWS values of m1 at a time, so
    no array spans the whole box.  Each term z^-3 is the reciprocal of
    z*z*z, taken in place in the one array that holds the cubes; the pair
    (0, 0) is left out."""
    a1 %= 4
    a2 %= 4
    m1 = np.arange(-box, box + 1, dtype=np.int64)
    m1 = m1[m1 % 4 == a1]
    m2 = np.arange(-box, box + 1, dtype=np.int64)
    m2 = m2[m2 % 4 == a2]
    total = 0j
    for start in range(0, len(m1), _DOUBLE_SUM_ROWS):
        rows = m1[start:start + _DOUBLE_SUM_ROWS]
        z = rows[:, None] * 1j + m2[None, :]
        origin = (np.flatnonzero(rows == 0), np.flatnonzero(m2 == 0))
        z[origin] = 1.0
        values = z * z
        values *= z
        np.reciprocal(values, out=values)
        values[origin] = 0.0
        total += complex(values.sum())
    return total


_SERIES_UNIT = 1j * (2 * math.pi) ** 3 / 2**7

# Every expansion runs through q^(_TERMS/4) = q^4: far enough that its
# relative truncation error at q^(1/4) = e^(-pi/2), below 1e-8, is under a
# tenth of the double sum's own error at the default box.
_TERMS = 16


@lru_cache(maxsize=None)
def eisenstein_G3(a1: int, a2: int) -> QSeries:
    """The q-expansion of the weight-3 level-4 congruence Eisenstein series
    for the residue pair (a1, a2) mod 4, through the coefficient of q^4, in
    units of i*(2*pi)^3 / 2^7.  `eisenstein_oracle` checks the expansions
    against the numeric double sum."""
    if not (0 <= a1 < 4 and 0 <= a2 < 4):
        return eisenstein_G3(a1 % 4, a2 % 4)  # one expansion per reduced pair
    if (a1, a2) == (0, 0):
        raise ValueError(
            "the pair (0, 0) sums to zero identically: opposite pairs cancel"
        )
    data = {}
    if a1 == 0:
        data[Fraction(0)] = _CONSTANT_TERMS[a2]
    for j in range(1, _TERMS + 1):
        data[Fraction(j, 4)] = _fourier_coefficient(j, a1, a2)
    return QSeries(data, Fraction(_TERMS + 1, 4))


def eisenstein_oracle(tolerance: float = 1e-6) -> int:
    """Check each of the six expansions in E_LABELS against
    `numeric_double_sum` at tau = i, to the given relative tolerance, and
    return the number of series checked.  The tolerance must lie in (0, 1):
    at 0 or below no truncated sum can meet it, and at 1 or more even the
    zero series would.  Disagreement raises ValueError."""
    if not 0 < tolerance < 1:  # NaN fails both comparisons
        raise ValueError(f"tolerance {tolerance} must lie strictly between "
                         "0 and 1")
    q_quarter = math.exp(-math.pi / 2)  # q^(1/4) at tau = i
    for a1, a2 in E_LABELS:
        approx = _SERIES_UNIT * eisenstein_G3(a1, a2).evaluate(q_quarter)
        direct = numeric_double_sum(a1, a2)
        scale = max(abs(direct), abs(approx))
        if scale == 0:
            raise ValueError("numeric oracle degenerate: both sides vanish")
        if abs(direct - approx) > tolerance * scale:
            raise ValueError(
                f"series for ({a1}, {a2}) disagrees with the double-sum "
                f"oracle: |{direct} - {approx}| > {tolerance} relative"
            )
    return len(E_LABELS)


# ---------------------------------------------------------------------------
# The aggregated six-tuple of Eisenstein components
# ---------------------------------------------------------------------------


def _component_matrix(p: Fraction, r: Fraction) -> list:
    """Coefficients of the six aggregated components on the six series, rows
    in TYPE_ORDER and columns in E_LABELS order.  The parameters (p, r) are
    the two free parameters measured in units of 2^7/(2*pi)^3."""
    i = CYC_I
    c_even_00 = Cyclotomic(-Fraction(p + r, 8))
    c_even_0 = Cyclotomic(-Fraction(15 * p - r, 8))
    c_quarter = Cyclotomic(-Fraction(20 * p + 4 * r, 8))
    c_threeq = Cyclotomic(-Fraction(12 * p - 4 * r, 8))
    zero = CYC_ZERO
    return [
        [i * Fraction(p), c_even_00, c_even_00, c_even_00, c_even_00, zero],
        [i * Fraction(r), c_even_0, c_even_0, c_even_0, c_even_0, zero],
        [zero, c_even_0, -c_even_0, c_even_0, -c_even_0, i * Fraction(r)],
        [zero, c_even_00, -c_even_00, c_even_00, -c_even_00, i * Fraction(p)],
        [zero, c_quarter, -(i * c_quarter), -c_quarter, i * c_quarter, zero],
        [zero, c_threeq, i * c_threeq, -c_threeq, -(i * c_threeq), zero],
    ]


def f_tuple() -> dict:
    """The six aggregated Eisenstein components as q-expansions through q^1
    (truncation 5/4), keyed by class label in TYPE_ORDER, at the parameter
    point (p, r) = (-1, 0) of `_component_matrix`: it normalizes the
    constant term of the zero-class component to -1/2 and kills every other
    constant term."""
    hats = [eisenstein_G3(a1, a2) for (a1, a2) in E_LABELS]
    out = {}
    for t, row in zip(TYPE_ORDER, _component_matrix(Fraction(-1), Fraction(0))):
        acc = QSeries.zero(Fraction(5, 4))
        for c, hat in zip(row, hats):
            if c:
                acc = acc + hat * c
        out[t] = acc
    return out


# ---------------------------------------------------------------------------
# Transformation bookkeeping on the labels of the six series
# ---------------------------------------------------------------------------

_E_INDEX = {label: pos for pos, label in enumerate(E_LABELS)}

# Frozen substitution rules for the two generators acting on series labels,
# as (target index, sign) per source index.
_FROZEN_RULES = {
    "T": ((0, 1), (2, 1), (3, 1), (4, 1), (1, 1), (5, -1)),
    "S": ((1, 1), (0, -1), (4, 1), (5, -1), (2, -1), (3, 1)),
}


def _label_action(label: tuple, generator: str) -> tuple:
    """Action of a generator on a congruence label by right multiplication,
    reduced into the six canonical labels with a sign (odd weight flips the
    sign under label negation)."""
    a1, a2 = label
    if generator == "T":
        new = (a1 % 4, (a1 + a2) % 4)
    elif generator == "S":
        new = (a2 % 4, (-a1) % 4)
    else:
        raise ValueError(f"unknown generator {generator!r}")
    if new in _E_INDEX:
        return _E_INDEX[new], 1
    flipped = ((-new[0]) % 4, (-new[1]) % 4)
    if flipped in _E_INDEX:
        return _E_INDEX[flipped], -1
    raise ValueError(f"label {new} leaves the six-series family")


def _substitute(row: Sequence[Cyclotomic], generator: str) -> list:
    out = [CYC_ZERO] * 6
    for src in range(6):
        if row[src]:
            dst, sign = _label_action(E_LABELS[src], generator)
            term = row[src] if sign > 0 else -row[src]
            out[dst] = out[dst] + term
    return out


def transformation_bookkeeping() -> dict:
    """Symbolic consistency of the label substitution rules with the
    six-dimensional collapse: applying a generator's substitution to each
    aggregated component must equal the matrix action of the collapse on the
    six-tuple.  Checked at two independent parameter points, which spans the
    parameter plane by linearity.  The only certificate of the label rules:
    `obstruction-collapsed-matrices` checks the matrices alone."""
    # The derived label action must agree with the frozen arrow rules.
    for gen, frozen in _FROZEN_RULES.items():
        derived = tuple(_label_action(lbl, gen) for lbl in E_LABELS)
        if derived != frozen:
            raise ValueError(f"derived label rules for {gen} differ: {derived}")

    rep = collapsed_rep()
    matrices = {"T": rep.T_matrix, "S": rep.S_matrix}
    points = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for p, r in points:
        comp = _component_matrix(p, r)
        for gen, mat in matrices.items():
            for row_index, t in enumerate(TYPE_ORDER):
                substituted = _substitute(comp[row_index], gen)
                combined = [CYC_ZERO] * 6
                for s_index in range(6):
                    factor = mat.entry(row_index, s_index)
                    if factor:
                        for col in range(6):
                            c = comp[s_index][col]
                            if c:
                                combined[col] = combined[col] + factor * c
                if substituted != combined:
                    raise ValueError(
                        f"generator {gen} inconsistent on component {t} "
                        f"at parameters ({p}, {r})"
                    )
    return {
        "T_consistent": True,
        "S_consistent": True,
        "parameter_points": points,
        "rules_match_frozen": True,
    }


# ---------------------------------------------------------------------------
# Product weights
# ---------------------------------------------------------------------------

# The four standard divisor families, each a whole value class t at the
# negative norm n of its vectors: the characteristic-element family
# ("kappa", the one-element class "10") and three full value classes.
_FAMILIES = {
    "kappa": ("10", Fraction(-1)),
    "3/2": ("3/2", Fraction(-1, 2)),
    "1": ("1", Fraction(-1)),
    "1/2": ("1/2", Fraction(-3, 2)),
}


def borcherds_weights_table() -> dict:
    """Weights of the products with the four standard divisor families: the
    aggregate Fourier coefficient of f_tuple()[t] at q^(-n/2) for the
    family of class t and norm n.  Exact, so no numeric oracle runs."""
    series = f_tuple()
    weights = {}
    for name, (t, n) in _FAMILIES.items():
        coeff = series[t].coefficient(-n / 2)
        if not coeff.is_rational:
            raise ValueError(f"aggregate coefficient of class {t} is not "
                             "rational")
        weights[name] = coeff.as_rational()
    return weights
