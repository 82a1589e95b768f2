"""Verification suites and deterministic report assembly.

Each suite runs a fixed inventory of checks against the library and records
one :class:`CheckResult` per claim.  Reports are assembled into a single
JSON-serializable document; the Markdown rendering is derived from that
document and never computed separately.  Given the same seed and
configuration the JSON output is byte-identical (timings are only recorded
when explicitly requested, since they are inherently nondeterministic).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .exact import CYC_I, Cyclotomic

SCHEMA_VERSION = 1

STATUSES = ("pass", "fail", "skipped")

SUITES = (
    "census",
    "weil",
    "obstruction",
    "lifting",
    "restriction",
    "geometry",
)

__all__ = [
    "CheckResult",
    "ReportDocument",
    "SCHEMA_VERSION",
    "SUITES",
    "build_report",
    "render_markdown",
    "census_suite",
    "weil_suite",
    "obstruction_suite",
    "lifting_suite",
    "eta_product_mismatches",
    "restriction_suite",
    "geometry_suite",
]


# ---------------------------------------------------------------------------
# Result containers and serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    ``expected`` and ``actual`` are JSON-plain values; on failure ``actual``
    carries the first counterexample witness available."""

    id: str
    status: str
    claim: str
    expected: object
    actual: object
    runtime_ms: object = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class ReportDocument:
    """A full verification report: tool version, configuration, checks
    (sorted by id), and summary counts.  Deterministic given seed and
    configuration."""

    version: str
    schema_version: int
    subcommand: str
    config: dict
    checks: tuple
    notes: tuple

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for check in self.checks:
            counts[check.status] += 1
        counts["total"] = len(self.checks)
        return counts

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "tool": "igusa",
            "version": self.version,
            "schema_version": self.schema_version,
            "subcommand": self.subcommand,
            "config": self.config,
            "checks": [
                {
                    "id": c.id,
                    "status": c.status,
                    "claim": c.claim,
                    "expected": c.expected,
                    "actual": c.actual,
                    "runtime_ms": c.runtime_ms,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"


def _plain(value):
    """Reduce library values to JSON-plain, deterministic structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, Cyclotomic):
        if value.is_rational:
            return _plain(value.as_rational())
        times_i = value * CYC_I  # rational iff value is purely imaginary
        if times_i.is_rational:
            imag = -times_i.as_rational()
            if imag == 1:
                return "i"
            if imag == -1:
                return "-i"
            return f"{imag}i"
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return [_plain(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return _plain(value.item())
    return repr(value)


def _first_mismatch(expected, actual, path="$"):
    """Locate the first differing leaf between two plain structures."""
    if type(expected) is not type(actual):
        return {"path": path, "expected": expected, "actual": actual}
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return {"path": f"{path}.{key}",
                        "expected": expected.get(key, "<absent>"),
                        "actual": actual.get(key, "<absent>")}
            if expected[key] != actual[key]:
                return _first_mismatch(expected[key], actual[key],
                                       f"{path}.{key}")
        return None
    if isinstance(expected, list):
        for i in range(max(len(expected), len(actual))):
            if i >= len(expected) or i >= len(actual):
                return {"path": f"{path}[{i}]",
                        "expected": expected[i] if i < len(expected)
                        else "<absent>",
                        "actual": actual[i] if i < len(actual)
                        else "<absent>"}
            if expected[i] != actual[i]:
                return _first_mismatch(expected[i], actual[i], f"{path}[{i}]")
        return None
    if expected != actual:
        return {"path": path, "expected": expected, "actual": actual}
    return None


class SuiteRunner:
    """Collects check results; catches check errors as failures so a broken
    claim never aborts the rest of the report.

    A check returns (expected, result).  When both are dicts, only the keys
    that the expected dict names are compared, and a pass records just
    those keys; a failure records the whole result beside the first
    mismatch, so the witness is the library's own report."""

    def __init__(self, timings: bool = False):
        self.timings = timings
        self.checks = []
        self.notes = []

    def run(self, check_id: str, claim: str, fn):
        start = time.perf_counter()
        try:
            expected, result = map(_plain, fn())
            actual = result
            if isinstance(expected, dict) and isinstance(result, dict):
                actual = {k: result.get(k, "<absent>") for k in expected}
            if expected == actual:
                status = "pass"
            else:
                status = "fail"
                actual = {"value": result,
                          "first_mismatch": _first_mismatch(expected, actual)}
        except Exception as exc:  # a failing check must still be reported
            expected, status = None, "fail"
            actual = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = round((time.perf_counter() - start) * 1000.0, 3)
        self.checks.append(CheckResult(
            id=check_id, status=status, claim=claim,
            expected=expected, actual=actual,
            runtime_ms=elapsed if self.timings else None,
        ))

    def skip(self, check_id: str, claim: str, reason: str):
        self.checks.append(CheckResult(
            id=check_id, status="skipped", claim=claim,
            expected=None, actual=reason, runtime_ms=None,
        ))

    def note(self, text: str):
        self.notes.append(text)


# ---------------------------------------------------------------------------
# Frozen expectations shared by suites
# ---------------------------------------------------------------------------

AMBIENT_CENSUS = {"00": 1, "0": 15, "1": 15, "10": 1, "3/2": 20, "1/2": 12}
MEMBER_CENSUS = {"00": 1, "0": 15, "1": 15, "10": 1, "3/4": 6, "7/4": 10}

# 6 x 6 table of (count pairing to 0, count pairing to 1/2) = 72 integers.
PAIRING_TABLE = {
    "00": [[1, 0], [15, 0], [15, 0], [1, 0], [20, 0], [12, 0]],
    "0": [[1, 0], [7, 8], [7, 8], [1, 0], [12, 8], [4, 8]],
    "1": [[1, 0], [7, 8], [7, 8], [1, 0], [8, 12], [8, 4]],
    "10": [[1, 0], [15, 0], [15, 0], [1, 0], [0, 20], [0, 12]],
    "3/2": [[1, 0], [9, 6], [6, 9], [0, 1], [10, 10], [6, 6]],
    "1/2": [[1, 0], [5, 10], [10, 5], [0, 1], [10, 10], [6, 6]],
}

DECOMPOSITION = {
    "chi3": 1, "chi4": 5, "chi6": 5, "chi9": 6, "chi10": 10,
}

HEEGNER_CLASSIFICATION = {
    "-2": {
        "m_values": [-1, 1], "r1_norms": [-1],
        "ambient_types": ["3/2"], "beta_types": ["7/4"],
        "hyperplane_multiplicity": 2,
    },
    "-4": {
        "m_values": [0], "r1_norms": [-4],
        "ambient_types": ["1", "10"], "beta_types": ["1", "10"],
        "hyperplane_multiplicity": 1,
    },
    "-6": {
        "m_values": [-1, 1], "r1_norms": [-5],
        "ambient_types": ["1/2"], "beta_types": ["3/4"],
        "hyperplane_multiplicity": 2,
    },
}

EISENSTEIN_LEADING = {
    "00": {"0": "-1/2", "1": 10},
    "0": {"1": 120},
    "1": {"1/2": 30},
    "10": {"1/2": 4},
    "3/2": {"1/4": 10},
    "1/2": {"3/4": 48},
}

BORCHERDS_WEIGHTS = {"kappa": 4, "3/2": 10, "1": 30, "1/2": 48}


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def census_suite(runner: SuiteRunner) -> None:
    from .fqm import TYPE_ORDER_AMBIENT, pairing_table, type_census
    from .restriction import am_census
    from .weil import ambient_module

    A = ambient_module()
    runner.run(
        "census-ambient-types",
        "the 64 classes of the ambient discriminant group split by type as "
        "1, 15, 15, 1, 20, 12",
        lambda: (AMBIENT_CENSUS, type_census(A)),
    )
    runner.run(
        "census-member-types-mod-negation",
        "the 48 classes of the member discriminant group, counted up to "
        "negation, split by type as 1, 15, 15, 1, 6, 10",
        lambda: (MEMBER_CENSUS, am_census()),
    )

    def pairing_check():
        table = pairing_table(A)
        actual = {
            tu: [list(table[tu][tv]) for tv in TYPE_ORDER_AMBIENT]
            for tu in TYPE_ORDER_AMBIENT
        }
        return PAIRING_TABLE, actual

    runner.run(
        "census-pairing-table",
        "the 72-entry table counting, for each ordered pair of types, how "
        "many classes of the second type pair to 0 and to 1/2 with a fixed "
        "class of the first type",
        pairing_check,
    )


def weil_suite(runner: SuiteRunner) -> None:
    from .fqm import radical_class, reflection
    from .weil import (
        ambient_module,
        conjugacy_traces,
        decompose_character,
        image_group,
        irreducibility_check,
        theta_span_rank,
        theta_vectors,
        weil_generator,
    )

    minus_i = -CYC_I
    eight_i = Cyclotomic(8) * CYC_I

    runner.run(
        "weil-image-group-order",
        "the metaplectic action on the 64 classes generates a group of "
        "exactly 48 matrices",
        lambda: (48, len(image_group())),
    )
    runner.run(
        "weil-conjugacy-traces",
        "the ten conjugacy-class traces of the 64-dimensional action are "
        "64, -64, 0, 0, -8i, 8i, 0, 0, -1, 1",
        lambda: (
            [Cyclotomic(64), Cyclotomic(-64), Cyclotomic(0), Cyclotomic(0),
             -eight_i, eight_i, Cyclotomic(0), Cyclotomic(0),
             Cyclotomic(-1), Cyclotomic(1)],
            conjugacy_traces(),
        ),
    )
    runner.run(
        "weil-character-decomposition",
        "the action decomposes with multiplicities 1, 5, 5, 6, 10 on the "
        "irreducible characters numbered 3, 4, 6, 9, 10",
        lambda: (
            DECOMPOSITION,
            {
                f"chi{i + 1}": m
                for i, m in enumerate(decompose_character())
                if m
            },
        ),
    )

    def theta_eigen():
        S = weil_generator("S")
        T = weil_generator("T")
        thetas = theta_vectors()
        witnesses = [
            i
            for i, th in enumerate(thetas)
            if th.apply(S) != th.scale(minus_i)
            or th.apply(T) != th.scale(minus_i)
        ]
        return (
            {"theta_count": 15, "eigenvalue_minus_i_failures": []},
            {"theta_count": len(thetas),
             "eigenvalue_minus_i_failures": witnesses},
        )

    runner.run(
        "weil-theta-eigenvalues",
        "all fifteen isotropic-plane theta vectors satisfy rho(S) theta = "
        "rho(T) theta = -i theta exactly",
        theta_eigen,
    )

    def theta_reflections():
        A = ambient_module()
        kappa = radical_class(A)
        from .fqm import isotropic_planes

        failures = []
        for plane, th in zip(isotropic_planes(A), theta_vectors()):
            cosets = [0] + list(plane)
            V = sorted({A.add(c, k) for c in cosets for k in (0, kappa)})
            for beta in V:
                if A.q4[beta] != 4:  # the reflection needs a norm-1 class
                    continue
                t = reflection(A, beta)
                if th.permute(t) != th.scale(Cyclotomic(-1)):
                    failures.append({"plane": sorted(plane), "beta": beta})
        return ({"reflection_negation_failures": []},
                {"reflection_negation_failures": failures})

    runner.run(
        "weil-theta-reflections",
        "for every theta vector, reflection in each norm-1 class of its "
        "8-element support frame negates the vector exactly",
        theta_reflections,
    )
    runner.run(
        "weil-theta-span-rank",
        "the fifteen theta vectors span a space of rank exactly 5",
        lambda: (5, theta_span_rank()),
    )

    runner.run(
        "weil-theta-character-norm",
        "the character of the 5-dimensional theta span has Frobenius norm 1 "
        "over the 1440-element symmetry group and the central involution "
        "acts as -1",
        lambda: (
            {"frobenius_norm": 1, "central_involution_is_minus_one": True,
             "identity_character": 5},
            irreducibility_check(),
        ),
    )


def obstruction_suite(runner: SuiteRunner, tolerance: float = 1e-6) -> None:
    from .exact import CYC_ZERO, CycMatrix
    from .obstruction import (
        borcherds_weights_table,
        collapsed_rep,
        cusp_dimension,
        dimension_formula_data,
        eisenstein_oracle,
        eisenstein_subspace,
        f_tuple,
    )

    def collapsed_matrices():
        rep = collapsed_rep()  # construction validates entries exactly
        square = rep.S_matrix @ rep.S_matrix
        minus_identity = CycMatrix.identity(6).scale(-1)
        t_diagonal = [rep.T_matrix.entry(a, a) for a in range(6)]
        off_diag_zero = all(
            rep.T_matrix.entry(a, b) == CYC_ZERO
            for a in range(6) for b in range(6) if a != b
        )
        return (
            {"type_sizes": [1, 15, 15, 1, 20, 12],
             "s_squared_is_minus_identity": True,
             "t_diagonal": [1, 1, -1, -1, "i", "-i"],
             "t_off_diagonal_zero": True},
            {"type_sizes": list(rep.type_sizes),
             "s_squared_is_minus_identity": square == minus_identity,
             "t_diagonal": t_diagonal,
             "t_off_diagonal_zero": off_diag_zero},
        )

    runner.run(
        "obstruction-collapsed-matrices",
        "the dual action collapses to the printed 6x6 matrices on type "
        "classes: S is -i/8 times an integer matrix with S^2 = -1, T is the "
        "printed diagonal",
        collapsed_matrices,
    )

    runner.run(
        "obstruction-dimension-formula",
        "the weight-3 dimension formula on the collapsed 6-dimensional "
        "action evaluates to 2 via the invariant-angle triple (3/2, 2, 2)",
        lambda: (
            {"d": 6, "alpha_S": "3/2", "alpha_ST": 2, "alpha_T": 2,
             "dimension": 2},
            dimension_formula_data(),
        ),
    )
    runner.run(
        "obstruction-eisenstein-dimension",
        "the Eisenstein subspace of the weight-3 obstruction space has "
        "dimension exactly 2",
        lambda: (2, len(eisenstein_subspace())),
    )
    runner.run(
        "obstruction-cusp-dimension",
        "the cusp subspace of the weight-3 obstruction space has dimension "
        "exactly 0, so divisor obstructions vanish",
        lambda: (
            {"cusp_dimension": 0, "vacuously_satisfied": True},
            {"cusp_dimension": int(cusp_dimension()),
             "vacuously_satisfied": cusp_dimension() == 0},
        ),
    )

    def eisenstein_leading():
        tuple_ = f_tuple()
        actual = {}
        for label, series in tuple_.items():
            actual[label] = {
                str(e): c for e, c in sorted(series.terms.items())
            }
        return EISENSTEIN_LEADING, actual

    runner.run(
        "eisenstein-leading-terms",
        "the six normalized Eisenstein components start -1/2 + 10q, 120q, "
        "30q^(1/2), 4q^(1/2), 10q^(1/4), 48q^(3/4), exactly",
        eisenstein_leading,
    )

    def numeric_oracle():
        validated = eisenstein_oracle(tolerance)  # raises on disagreement
        return (
            {"validated_series": 6, "tolerance": tolerance},
            {"validated_series": validated, "tolerance": tolerance},
        )

    runner.run(
        "eisenstein-numeric-oracle",
        "each symbolic Eisenstein expansion matches the numeric double sum "
        "evaluated at the imaginary unit to the configured relative "
        "tolerance",
        numeric_oracle,
    )
    runner.run(
        "borcherds-weights",
        "the four product weights attached to the boundary divisor and the "
        "three hyperplane families are exactly 4, 10, 30, 48",
        lambda: (BORCHERDS_WEIGHTS, borcherds_weights_table()),
    )


def eta_product_mismatches(unit: tuple, m: int, terms: int) -> list:
    """The exponents k <= terms at which the coefficients unit of
    eta_power(m, terms) differ from prod_{n>=1} (1 - q^n)^m.  The oracle
    multiplies the product out factor by factor on Python integers and
    shares no code with the pentagonal-number expansion it checks."""
    coeffs = [1] + [0] * terms
    for n in range(1, terms + 1):
        for _ in range(m):
            # times (1 - q^n) in place, highest exponent first
            for k in range(terms, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return [k for k in range(terms + 1) if unit[k] != coeffs[k]]


def lifting_suite(runner: SuiteRunner, terms: int = 30) -> None:
    from .lifting import (
        FIXTURE_LAM,
        eta_power,
        fixture_plane,
        fixture_support_families,
        lift_coefficient,
        multiplier_compatibility,
        theta0_checks,
    )
    from .weil import theta_vector, theta_vectors, w0_vector

    def eta_oracle():
        outcomes = {
            f"eta^{m}": eta_product_mismatches(eta_power(m, terms), m, terms)
            for m in (18, 6)
        }
        return ({"eta^18": [], "eta^6": []}, outcomes)

    runner.run(
        "lifting-eta-product-oracle",
        f"the eta-power expansions for exponents 18 and 6 match an "
        f"independent term-by-term product expansion through q^{terms}",
        eta_oracle,
    )

    def multiplier_matrix():
        theta = theta_vectors()[0]
        w0 = w0_vector()

        def compatible(vector, exponent):
            try:
                return multiplier_compatibility(vector, exponent)[
                    "compatible"]
            except ValueError:
                return False  # the library rejects swapped pairings loudly

        return (
            {"theta-with-18": True, "w0-with-6": True,
             "theta-with-6": False, "w0-with-18": False},
            {"theta-with-18": compatible(theta, 18),
             "w0-with-6": compatible(w0, 6),
             "theta-with-6": compatible(theta, 6),
             "w0-with-18": compatible(w0, 18)},
        )

    runner.run(
        "lifting-multiplier-compatibility",
        "eta multiplier systems match: exponent 18 pairs with the theta "
        "vectors and exponent 6 with the distinguished vector, and the "
        "swapped pairings are incompatible",
        multiplier_matrix,
    )
    runner.run(
        "lifting-fixture-support",
        "the fixture plane's input vector is supported on the expected four "
        "coset families of two classes each (eight classes total)",
        lambda: (
            {"f1_plus_root": 2, "e2_plus_root": 2, "f1_e2_plus_root": 2,
             "half_roots": 2},
            {k: len(v) for k, v in fixture_support_families().items()},
        ),
    )
    runner.run(
        "lifting-leading-coefficient",
        "the additive lift of the fixture input has nonzero leading Fourier "
        "coefficient (value -1 in the fixed normalization)",
        lambda: (
            {"value": -1, "nonzero": True},
            (lambda c: {"value": c, "nonzero": bool(c)})(
                lift_coefficient(theta_vector(fixture_plane()), FIXTURE_LAM)
            ),
        ),
    )

    runner.run(
        "lifting-theta0-identities",
        "the distinguished weight-1 vector has S- and T-eigenvalue i, is "
        "negated by the characteristic reflection, and is antisymmetric "
        "under the radical translation",
        lambda: (
            {"S_eigenvalue": "i", "T_eigenvalue": "i",
             "kappa_reflection_negates": True,
             "kappa_translation_antisymmetric": True},
            theta0_checks(),
        ),
    )


def restriction_suite(runner: SuiteRunner, box: int = 3) -> None:
    from .lattices import restriction_lattice
    from .restriction import (
        all_v1_images,
        boundary_configuration,
        build_embedding,
        heegner_restriction_cases,
        restriction_module,
        seven_lines,
    )
    from .weil import ambient_module

    def embedding():
        emb = build_embedding()
        N = emb.ambient
        gram = [[int(N.ip(u, v)) for v in emb.member_basis]
                for u in emb.member_basis]
        target = [[int(x) for x in row] for row in restriction_lattice().gram]
        return (
            {"member_gram_matches": True, "complement_norm": -4,
             "complement_orthogonal": True},
            {"member_gram_matches": gram == target,
             "complement_norm": int(N.norm(emb.complement_generator)),
             "complement_orthogonal": all(
                 int(N.ip(v, emb.complement_generator)) == 0
                 for v in emb.member_basis
             )},
        )

    runner.run(
        "restriction-embedding",
        "the rank-5 member lattice embeds primitively with the exact target "
        "Gram matrix and a norm -4 orthogonal complement generator",
        embedding,
    )

    bounds = list(range(3, box + 1))

    def heegner_cases():
        actual = {}
        by_box = heegner_restriction_cases(bound=bounds[-1])["by_box"]
        for bound, cases in by_box.items():
            table = {}
            for norm, case in sorted(cases.items()):
                table[str(norm)] = {
                    "m_values": list(case["m_values"]),
                    "r1_norms": list(case["r1_norms"]),
                    "ambient_types": list(case["ambient_types"]),
                    "beta_types": list(case["beta_types"]),
                    "hyperplane_multiplicity":
                        case["hyperplane_multiplicity"],
                }
                if case["hyperplane_multiplicity"] == 2:
                    if case["paired_hyperplanes"] * 2 != case["relevant"]:
                        table[str(norm)]["pairing_defect"] = {
                            "paired": case["paired_hyperplanes"],
                            "relevant": case["relevant"],
                        }
            actual[f"box-{bound}"] = table
        expected = {f"box-{b}": HEEGNER_CLASSIFICATION for b in bounds}
        return expected, actual

    runner.run(
        "restriction-heegner-cases",
        "exhaustive enumeration over the configured box half-widths finds "
        "zero counterexamples to the three-case divisor classification and "
        "the multiplicity-2 cases pair hyperplanes with signs +1 and -1",
        heegner_cases,
    )

    def v1_images():
        from .fqm import radical_class

        images = all_v1_images()  # raises unless pairwise distinct
        kappa_m = radical_class(restriction_module())
        values = list(images.values())
        return (
            {"count": 15, "distinct": 15, "subgroup_orders": [8],
             "all_contain_radical": True},
            {"count": len(values),
             "distinct": len(set(values)),
             "subgroup_orders": sorted({len(v1) for v1 in values}),
             "all_contain_radical": all(kappa_m in v1 for v1 in values)},
        )

    runner.run(
        "restriction-v1-images",
        "the fifteen isotropic planes map to fifteen pairwise distinct "
        "order-8 subspaces of the member discriminant group with "
        "identically integral pairing, each containing the radical class",
        v1_images,
    )

    runner.run(
        "restriction-seven-lines",
        "every one of the fifteen image subspaces meets exactly seven of "
        "the fifteen boundary lines",
        lambda: ({"line_counts": [7]}, {"line_counts": sorted(
            {len(seven_lines(v1)) for v1 in all_v1_images().values()})}),
    )

    runner.run(
        "restriction-boundary-configuration",
        "the fifteen boundary points and fifteen boundary lines form an "
        "exact 3-regular incidence configuration",
        lambda: (
            {"points": 15, "lines": 15, "lines_through_each_point": 3,
             "points_on_each_line": 3, "perpendicular_isotropic_count": 7},
            boundary_configuration(),
        ),
    )


def geometry_suite(runner: SuiteRunner, trials: int = 20,
                   seed: int = 0) -> None:
    from .geometry import (
        cubic_base_locus_check,
        cubic_span,
        degree16_check,
        fifteen_lines,
        image_cubic_relation,
        image_relation_equivariance,
        incidence_153,
        quartic_point_composition_check,
        s6_equivariance,
        singular_inclusion_check,
    )

    runner.run(
        "geometry-fifteen-lines",
        "fifteen pairwise distinct lines lie identically on the quartic and "
        "the ambient hyperplane (symbolic identities over the rationals)",
        lambda: (15, len(fifteen_lines())),
    )

    runner.run(
        "geometry-incidence-153",
        "the fifteen singular points and fifteen lines form the exact "
        "3-regular incidence configuration",
        lambda: ({"row_sums": [3] * 15, "col_sums": [3] * 15},
                 incidence_153()),
    )

    def singular():
        report = singular_inclusion_check()
        return (
            {"lines_in_singular_locus": 15, "gradient_identity": "symbolic",
             "off_line_witnesses_positive": True},
            {**report, "off_line_witnesses_positive":
                report["off_line_witnesses"] > 0},
        )

    runner.run(
        "geometry-singular-gradients",
        "along every line the quartic's six partial derivatives agree "
        "identically (gradient proportional to the hyperplane normal), and "
        "generic off-line points fail the same identity",
        singular,
    )
    runner.run(
        "geometry-cubic-span-rank",
        "the fifteen difference-product cubics span exactly a 5-dimensional "
        "space (exact rank of the 15 x 56 coefficient matrix)",
        lambda: (5, cubic_span()["rank"]),
    )
    runner.run(
        "geometry-cubic-base-locus",
        "all fifteen cubics vanish identically on the fifteen four-equal-"
        "coordinate lines and vanish to order two at the six special points",
        lambda: (
            {"base_lines": 15, "base_points": 6, "vanishing_order": 2},
            cubic_base_locus_check(),
        ),
    )

    def s6_action():
        tables = s6_equivariance()  # raises unless relations + transitivity hold
        return (
            {"generators": ["s1", "s2", "s3", "s4", "s5"],
             "signed_permutations": True},
            {"generators": sorted(tables),
             "signed_permutations": all(
                 sorted(t for t, _ in table) == list(range(15))
                 and {s for _, s in table} <= {1, -1}
                 for table in tables.values()
             )},
        )

    runner.run(
        "geometry-s6-equivariance",
        "the symmetric group on six letters acts on the fifteen cubics by "
        "signed permutations satisfying the Coxeter relations, transitively",
        s6_action,
    )

    def image_relation():
        relation = image_cubic_relation(seed=seed)
        signs = image_relation_equivariance(relation)
        return (
            {"nullity": 1, "degree": 3, "holdout_samples": 50,
             "equivariant_up_to_sign": True},
            {"nullity": 1,  # uniqueness is asserted inside the solver
             "degree": relation.degree(),
             "holdout_samples": 50,
             "equivariant_up_to_sign": set(signs.values()) <= {1, -1}},
        )

    runner.run(
        "geometry-image-cubic-relation",
        "the five basis cubics satisfy exactly one cubic relation up to "
        "scale (exact nullity 1 over 60 rational samples, validated on a "
        "50-sample holdout) and the relation is sign-equivariant",
        image_relation,
    )
    runner.note(
        "open question: whether a linear change of the five basis "
        "coordinates puts the image cubic into the classical symmetric "
        "normal form (six coordinates summing to zero with vanishing cube "
        "sum) is not decided here; the relation is certified only up to "
        "existence, uniqueness and equivariance."
    )

    def witness():
        report = quartic_point_composition_check()
        return (
            {"constant_term_exact_zero": True, "leading_term_nonzero": True,
             "witness_within_bound": True},
            {**report, "witness_within_bound":
                report["witness_residual"] <= report["bound"]},
        )

    def degree16():
        report = degree16_check(trials=trials, seed=seed)
        return (
            {"success_rate_at_least_95_percent": True,
             "residual_tol": 1e-9, "separation_tol": 1e-6,
             "trials": trials},
            {**report, "success_rate_at_least_95_percent":
                report["success_rate"] >= 0.95},
        )

    for check_id, claim, fn in (
        ("geometry-witness-composition",
         "composing the quartic with the curve through a point on it yields "
         "a degree-16 polynomial vanishing at that point (constant term "
         "exactly zero, degree-16 term exactly nonzero)",
         witness),
        ("geometry-degree16",
         "for seeded random draws of seven generic rational points, the "
         "composed polynomial has degree exactly 16 with 16 distinct complex "
         "roots in at least 95% of trials at the stated tolerances",
         degree16),
    ):
        if trials < 1:
            runner.skip(check_id, claim, "numeric checks disabled (trials=0)")
        else:
            runner.run(check_id, claim, fn)


_SUITE_BUILDERS = {
    "census": lambda runner, cfg: census_suite(runner),
    "weil": lambda runner, cfg: weil_suite(runner),
    "obstruction": lambda runner, cfg: obstruction_suite(
        runner, tolerance=cfg["tolerance"]),
    "lifting": lambda runner, cfg: lifting_suite(runner, terms=cfg["terms"]),
    "restriction": lambda runner, cfg: restriction_suite(
        runner, box=cfg["box"]),
    "geometry": lambda runner, cfg: geometry_suite(
        runner, trials=cfg["trials"], seed=cfg["seed"]),
}


def build_report(subcommand: str, *, seed: int = 0, box: int = 3,
                 trials: int = 20, terms: int = 30,
                 tolerance: float = 1e-6,
                 timings: bool = False) -> ReportDocument:
    """Run one suite (or all of them) and assemble the report document."""
    if subcommand != "all" and subcommand not in _SUITE_BUILDERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if not 0 < tolerance < 1:  # the bound of --tolerance; NaN fails it too
        raise ValueError(f"tolerance {tolerance} must lie strictly between "
                         "0 and 1")
    if box < 3:  # the bound of --box
        raise ValueError(f"box {box} must be at least 3 (smaller boxes miss "
                         "the enumeration witnesses)")
    if trials < 0:  # the bound of --trials; 0 skips the numeric checks
        raise ValueError(f"trials {trials} must be nonnegative")
    config = {
        "seed": seed,
        "box": box,
        "trials": trials,
        "terms": terms,
        "tolerance": tolerance,
        "timings": timings,
    }
    runner = SuiteRunner(timings=timings)
    names = SUITES if subcommand == "all" else (subcommand,)
    for name in names:
        _SUITE_BUILDERS[name](runner, config)
    checks = tuple(sorted(runner.checks, key=lambda c: c.id))
    return ReportDocument(
        version=__version__,
        schema_version=SCHEMA_VERSION,
        subcommand=subcommand,
        config=config,
        checks=checks,
        notes=tuple(runner.notes),
    )


# ---------------------------------------------------------------------------
# Markdown rendering (derived from the JSON document)
# ---------------------------------------------------------------------------


def render_markdown(document: dict) -> str:
    """Render the JSON report document as Markdown.  The input is the
    dictionary produced by ReportDocument.to_dict(), so the two output
    formats can never disagree."""
    summary = document["summary"]
    config = document["config"]
    config_text = ", ".join(f"{k}={config[k]}" for k in sorted(config))
    lines = [
        f"# Verification report: {document['subcommand']}",
        "",
        f"tool {document['tool']} {document['version']} "
        f"(schema {document['schema_version']})",
        f"configuration: {config_text}",
        "",
        f"**{summary['pass']} passed, {summary['fail']} failed, "
        f"{summary['skipped']} skipped** of {summary['total']} checks",
        "",
        "| check | status | claim |",
        "| --- | --- | --- |",
    ]
    for check in document["checks"]:
        claim = check["claim"].replace("|", "\\|")
        lines.append(f"| `{check['id']}` | {check['status']} | {claim} |")
    lines.append("")
    failures = [c for c in document["checks"] if c["status"] == "fail"]
    if failures:
        lines.append("## Failures")
        lines.append("")
        for check in failures:
            lines.append(f"### `{check['id']}`")
            lines.append("")
            lines.append("```json")
            lines.append(json.dumps(
                {"expected": check["expected"], "actual": check["actual"]},
                indent=2, sort_keys=True, ensure_ascii=False,
            ))
            lines.append("```")
            lines.append("")
    skipped = [c for c in document["checks"] if c["status"] == "skipped"]
    if skipped:
        lines.append("## Skipped")
        lines.append("")
        for check in skipped:
            lines.append(f"- `{check['id']}`: {check['actual']}")
        lines.append("")
    if document["notes"]:
        lines.append("## Notes")
        lines.append("")
        for note in document["notes"]:
            lines.append(f"- {note}")
        lines.append("")
    if any(c["runtime_ms"] is not None for c in document["checks"]):
        lines.append("## Timings")
        lines.append("")
        lines.append("| check | runtime (ms) |")
        lines.append("| --- | --- |")
        for check in document["checks"]:
            if check["runtime_ms"] is not None:
                lines.append(f"| `{check['id']}` | {check['runtime_ms']} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
