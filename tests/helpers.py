"""Helpers shared by the test modules: the demo runner and scalar
references for the packed matrix kernels."""

import os
import subprocess
import sys
from pathlib import Path

from igusa.exact import CYC_ZERO, Cyclotomic, CycMatrix

REPO = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    """The standard output of the demo script ``demos/<name>``, which must
    exit cleanly."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def reference_apply(matrix: CycMatrix, vec) -> list:
    """Matrix times vector entry by entry in Fraction cyclotomic arithmetic,
    independent of the packed product kernel."""
    vals = [Cyclotomic.coerce(v) for v in vec]
    return [sum((matrix.entry(i, j) * vals[j] for j in range(matrix.n) if vals[j]),
                CYC_ZERO) for i in range(matrix.n)]


def inverse_by_products(a: CycMatrix) -> CycMatrix:
    """A^(n - 1) = A^-1 for a matrix A of finite order n, by repeated
    products."""
    previous, power = CycMatrix.identity(a.n), a
    while not power.is_identity():
        previous, power = power, power @ a
    return previous
