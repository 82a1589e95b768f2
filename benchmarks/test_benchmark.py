"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root with ``python3 -m pytest -q benchmarks``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))

# Short configurations of the three workloads, for the exact-count test.
SHORT = {
    "full-chain": run.Workload(("weil",), run.ALL_CONTEXTS[:4], 7),
    "enumeration-sweep": run.Workload(
        ("restriction",), ("ambient_module", "build_embedding"), 5),
    "curve-sampling": run.Workload(
        ("geometry", "--trials", "2"), ("canonical_polys",), 9),
}


@pytest.fixture
def layers():
    return tracer.import_layers()


def test_cross_module_binding_is_wrapped(layers):
    original = layers["weil"].ambient_module
    spans = tracer.Tracer()
    spans.install(layers)
    try:
        assert layers["restriction"].ambient_module \
            is layers["weil"].ambient_module is not original
        first = len(spans.spans)
        layers["restriction"].ambient_module()
        assert spans.spans[first][0] == "weil.ambient_module"
        x = layers["geometry"].MultiPoly.variable(6, 0)
        first = len(spans.spans)
        x * x
        assert spans.spans[first][0] == "geometry.poly_mul"
    finally:
        spans.uninstall()
    assert layers["restriction"].ambient_module is original


def test_missing_targets_are_listed_not_fatal(layers):
    named = {
        "geometry": {"rnc_through_7": "rnc_through_7",
                     "gone": "no_such_function"},
        "exact": {"gone_method": "Cyclotomic.no_such_method"},
    }
    spans = tracer.Tracer(named=named)
    spans.install(layers)
    spans.uninstall()
    assert spans.missing == ["geometry.gone", "exact.gone_method"]


def test_self_time_subtracts_children():
    spans = [
        ("report.build_report", 0.0, 10.0, -1),
        ("weil.image_group", 1.0, 5.0, 0),
        ("exact.cyc_mul", 2.0, 3.0, 1),
        ("exact.cyc_mul", 3.0, 3.5, 2),  # recursive: counted once inclusive
    ]
    self_s, inclusive, calls = tracer.summarize(
        spans, ["exact.cyc_mul", "weil.image_group"])
    assert self_s["report"] == 6.0
    assert self_s["weil"] == 3.0
    assert self_s["exact"] == 1.0
    assert inclusive == {"exact.cyc_mul": 1.0, "weil.image_group": 4.0}
    assert calls == {"exact.cyc_mul": 2, "weil.image_group": 1}


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_counts_repeat_exactly(workload, tmp_path):
    spec = SHORT[workload]
    counts = []
    for attempt in range(2):
        path = tmp_path / f"trace{attempt}.json"
        traced = run.run_child(spec, 1, trace_out=path)
        counted = run.run_child(spec, 1, count_fractions=True)
        assert not traced.problems and not counted.problems
        assert counted.result["setup_s"] > sum(
            counted.result["context_s"].values()) > 0
        metrics, missing = run.span_metrics(path)
        assert missing == []
        calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
        calls["fractions.new.calls"] = counted.result["fractions_new_calls"]
        assert sum(calls.values()) > 0
        counts.append(calls)
    assert counts[0] == counts[1]


def test_fraction_count_matches_deterministic_profile(tmp_path):
    spec = run.Workload(("census",), ("ambient_module",), 3)
    counted = run.run_child(spec, 0, count_fractions=True)
    script = (
        "import cProfile, pstats, sys, time\n"
        f"sys.path.insert(0, {str(run.DRIVER.parent)!r})\n"
        "import driver, tracer\n"
        "sys.path.insert(0, str(driver.SRC))\n"
        "profile = cProfile.Profile()\n"
        "profile.runcall(driver.main, ['--contexts', 'ambient_module', "
        "'--', 'census', '--seed', '0'], time.perf_counter())\n"
        "print(sum(v[1] for k, v in pstats.Stats(profile).stats.items()\n"
        "          if k[0].endswith('fractions.py') and k[2] == '__new__'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    profiled = int(out.stdout.splitlines()[-1])
    assert counted.result["fractions_new_calls"] == profiled > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.DRIVER.parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "curve-sampling",
         "--seed", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
