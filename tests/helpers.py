"""Helpers shared by the test modules: the demo runner, the traced memory
peak of a call, and scalar references for the packed matrix kernels."""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from igusa.exact import CYC_ZERO, Cyclotomic, CycMatrix

REPO = Path(__file__).resolve().parents[1]


@functools.cache
def run_demo(name: str) -> str:
    """The standard output of the demo script ``demos/<name>``, which must
    exit cleanly. Each demo runs once per test process; later calls read the
    kept output."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def traced_peak(f, *args) -> int:
    """The peak of the memory that tracemalloc sees (numpy's buffers
    included) while f(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
