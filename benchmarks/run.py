"""Cold-process benchmark for the igusa verification chain.

Run from the repository root::

    python3 benchmarks/run.py --seed 0 --trace 1

That runs every workload at seed 0, verifies every report and prints every
metric by name with its unit; ``--workload NAME`` (repeatable) picks
workloads, and ``--seconds N`` the measuring time per workload (default:
``run_seconds`` of ``BENCHMARK.json``, the value the benchmark is always
invoked with).  With ``--trace 0`` the final JSON line holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see README.md).

Each run of the program is a fresh interpreter (``driver.py``), one at a
time: a closed loop with one client.  A fresh process matters because the
shared contexts are ``lru_cache`` results that every CLI invocation builds
again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from driver import CONTEXTS as ALL_CONTEXTS

ROOT = Path(__file__).resolve().parent.parent
DRIVER = Path(__file__).resolve().parent / "driver.py"
BUILD = ROOT / ".bench_build"
RUN_SECONDS = json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
CHILD_TIMEOUT_S = 120.0
# The CPU speed of the test machine swings by half from one minute to the
# next.  Each process times a fixed probe before it imports igusa and again
# after the CLI returns, and its times are scaled to the speed at which the
# mean of the two probes takes PROBE_REF_S.
PROBE_REF_S = 0.7


@dataclass(frozen=True)
class Workload:
    argv: tuple        # igusa arguments; "--seed <seed>" is appended
    contexts: tuple    # shared contexts the workload's suites use
    passes: int        # every check must pass; this many checks run


WORKLOADS = {
    # The run a reader does to check the paper; touches every module.
    "full-chain": Workload(("all",), ALL_CONTEXTS, 36),
    # Integer enumeration in restriction/lattices/fqm: box 7 is the largest
    # box whose peak memory stays under about 200 MB.
    "enumeration-sweep": Workload(
        ("restriction", "--box", "7"),
        ("ambient_module", "build_embedding"), 5),
    # Seeded rational-curve sampling; no exact/fqm/weil work.
    "curve-sampling": Workload(
        ("geometry", "--trials", "40"), ("canonical_polys",), 9),
}

GOLDEN_SHA256 = {
    ("full-chain", 0):
        "24a9d4de9a0a92bb5ac03e4ce86cc00f3e66b623a3e9389a3bdad36f3d06e7cf",
}

CHECK_IDS = (
    "borcherds-weights", "census-ambient-types",
    "census-member-types-mod-negation", "census-pairing-table",
    "eisenstein-leading-terms", "eisenstein-numeric-oracle",
    "geometry-cubic-base-locus", "geometry-cubic-span-rank",
    "geometry-degree16", "geometry-fifteen-lines",
    "geometry-image-cubic-relation", "geometry-incidence-153",
    "geometry-s6-equivariance", "geometry-singular-gradients",
    "geometry-witness-composition", "lifting-eta-product-oracle",
    "lifting-fixture-support", "lifting-leading-coefficient",
    "lifting-multiplier-compatibility", "lifting-theta0-identities",
    "obstruction-collapsed-matrices", "obstruction-cusp-dimension",
    "obstruction-dimension-formula", "obstruction-eisenstein-dimension",
    "restriction-boundary-configuration", "restriction-embedding",
    "restriction-heegner-cases", "restriction-seven-lines",
    "restriction-v1-images", "weil-character-decomposition",
    "weil-conjugacy-traces", "weil-image-group-order",
    "weil-theta-character-norm", "weil-theta-eigenvalues",
    "weil-theta-reflections", "weil-theta-span-rank",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name and its unit, in a fixed order."""
    units = {f"{layer}.self_s": "s" for layer in tracer.LAYERS}
    for name in tracer.named_spans():
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({f"context.{name}.s": "s" for name in ALL_CONTEXTS})
    units.update({f"check.{cid}.s": "s" for cid in CHECK_IDS})
    units["fractions.new.calls"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    result: dict       # the driver's JSON line; empty when the run broke
    problems: list


def run_child(spec, seed, *, golden=None, trace_out=None,
              count_fractions=False, timings=False):
    """Launch one cold driver process for ``spec`` and wait for it to exit.
    The report must match ``golden`` (a sha256) when one is given."""
    cmd = [sys.executable, str(DRIVER), "--contexts", ",".join(spec.contexts)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if count_fractions:
        cmd.append("--count-fractions")
    cmd += ["--", *spec.argv, "--seed", str(seed)]
    if timings:
        cmd.append("--timings")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall_s = time.perf_counter() - start
    # wait4 reaped the child; record its status so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(wall_s, usage.ru_maxrss / 1024.0, {}, [])
    if proc.returncode != 0:
        child.problems.append(f"driver exited with {proc.returncode}")
        return child
    try:
        child.result = json.loads(out.decode().splitlines()[-1])
        summary = json.loads(child.result["report"])["summary"]
    except (IndexError, KeyError, ValueError) as exc:
        child.result = {}
        child.problems.append(f"unreadable driver output: {exc!r}")
        return child
    _verify(spec, None if timings else golden, child, summary)
    return child


def _verify(spec, golden, child, summary):
    """Exit code 0, every check passing, and the golden digest if given."""
    result = child.result
    if result["exit_code"] != 0:
        child.problems.append(f"igusa exited with {result['exit_code']}")
    if summary["pass"] != spec.passes or summary["total"] != spec.passes:
        child.problems.append(f"check statuses {summary}, expected "
                              f"{spec.passes} of {spec.passes} passing")
    if golden and _digest(child) != golden:
        child.problems.append(f"report sha256 {_digest(child)} is not the "
                              f"golden {golden}")


def _digest(child):
    return hashlib.sha256(child.result["report"].encode()).hexdigest()


def _require_identical(children):
    """Every report printed without --timings must be byte-identical."""
    for child in children[1:]:
        if _digest(child) != _digest(children[0]):
            child.problems.append("report differs from the run's first "
                                  "report at the same seed")


def _median(values):
    return statistics.median(values) if values else 0.0


def _probe(child):
    return statistics.fmean(child.result["probes_s"])


def _scale(child):
    return PROBE_REF_S / _probe(child)


def _measured_wall(child):
    """Launch to exit without the probes."""
    return child.wall_s - sum(child.result["probes_s"])


def _wall(child):
    return _measured_wall(child) * _scale(child)


def _end_to_end(children):
    return {
        "wall_s": _median([_wall(c) for c in children]),
        "setup_s": _median([c.result["setup_s"] * _scale(c)
                            for c in children]),
        "peak_rss_mb": _median([c.peak_rss_mb for c in children]),
    }


MEASURED_UNITS = {"measured_wall_s": "s", "measured_setup_s": "s",
                  "probe_s": "s"}


def _measured(children):
    """Unscaled medians, printed beside the scaled metrics."""
    return {
        "measured_wall_s": _median([_measured_wall(c) for c in children]),
        "measured_setup_s": _median([c.result["setup_s"] for c in children]),
        "probe_s": _median([_probe(c) for c in children]),
    }


def _fits(start, children, seconds):
    """Whether one more run like the last one ends within ``seconds``."""
    return time.perf_counter() - start + children[-1].wall_s <= seconds


def measure(workload, seed, seconds):
    """Untraced cold runs for as long as they fit in ``seconds`` (at least
    two, so determinism is checked); end-to-end metrics are medians over
    the runs."""
    spec, golden = WORKLOADS[workload], GOLDEN_SHA256.get((workload, seed))
    children = []
    start = time.perf_counter()
    while len(children) < 2 or _fits(start, children, seconds):
        children.append(run_child(spec, seed, golden=golden))
    _require_identical([c for c in children if c.result])
    ok = [c for c in children if not c.problems]
    return children, _end_to_end(ok), {"measured": _measured(ok)}


def span_metrics(trace_path):
    """Layer self times and named-span times and calls from a trace file,
    and the named targets the traced run could not find."""
    with open(trace_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    names = tracer.named_spans()
    self_s, inclusive, calls = tracer.summarize(recorded["spans"], names)
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    for name in names:
        metrics[f"{name}.s"] = inclusive[name]
        metrics[f"{name}.calls"] = calls[name]
    return metrics, recorded["missing"]


def trace(workload, seed, seconds):
    """One traced run, one Fraction-counting run, then untraced runs with
    --timings for as long as they fit in ``seconds`` (at least one);
    per-layer metrics."""
    spec, golden = WORKLOADS[workload], GOLDEN_SHA256.get((workload, seed))
    BUILD.mkdir(exist_ok=True)
    trace_path = BUILD / f"trace-{workload}-{seed}.json"
    start = time.perf_counter()
    traced = run_child(spec, seed, golden=golden, trace_out=trace_path)
    counted = run_child(spec, seed, golden=golden, count_fractions=True)
    _require_identical([c for c in (traced, counted) if c.result])
    refs = []
    while not refs or _fits(start, refs, seconds):
        refs.append(run_child(spec, seed, timings=True))
    ok_refs = [c for c in refs if not c.problems]

    metrics = dict.fromkeys(per_layer_units(), 0.0)
    info = {"missing": [], "end_to_end": _end_to_end(ok_refs),
            "measured": _measured(ok_refs)}
    if traced.result:
        spans, info["missing"] = span_metrics(trace_path)
        metrics.update(spans)
    if counted.result:
        metrics["fractions.new.calls"] = counted.result["fractions_new_calls"]
    for name in ALL_CONTEXTS:
        metrics[f"context.{name}.s"] = _median(
            [c.result["context_s"][name] for c in ok_refs
             if name in c.result["context_s"]])
    timings = {}
    for child in ok_refs:
        for check in json.loads(child.result["report"])["checks"]:
            timings.setdefault(check["id"], []).append(
                check["runtime_ms"] / 1000.0)
    for cid in CHECK_IDS:
        metrics[f"check.{cid}.s"] = _median(timings.get(cid, []))
    info["not_run"] = [cid for cid in CHECK_IDS if cid not in timings]
    info["unlisted_checks"] = sorted(set(timings) - set(CHECK_IDS))
    if ok_refs and not traced.problems:
        metrics["trace.overhead_frac"] = (
            _wall(traced) / info["end_to_end"]["wall_s"] - 1.0)
    return [traced, counted, *refs], metrics, info


def _print_metrics(workload, metrics, units):
    for name, value in metrics.items():
        print(f"{workload:<18} {name:<52} {value!r:>24} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "igusa" / "cli.py").is_file():
        parser.error(f"no igusa sources under {ROOT / 'src'}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workloads = args.workload or list(WORKLOADS)

    # Byte-compile the sources once, outside the measured runs: an
    # installed CLI does not recompile on each invocation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
         str(DRIVER.parent)],
        check=True, stdout=subprocess.DEVNULL)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    results = {}
    for workload in workloads:
        run = trace if args.trace else measure
        children, metrics, info = run(workload, args.seed, args.seconds)
        failed = sum(1 for c in children if c.problems)
        for child in children:
            for problem in child.problems:
                print(f"{workload}: FAILED: {problem}")
        print(f"{workload:<18} {'fail_frac':<52} "
              f"{failed / len(children)!r:>24} ratio "
              f"({failed} of {len(children)} runs)")
        _print_metrics(workload, info["measured"], MEASURED_UNITS)
        if args.trace:
            _print_metrics(workload, info["end_to_end"], END_TO_END_UNITS)
            for key in ("missing", "not_run", "unlisted_checks"):
                if info[key]:
                    print(f"{workload}: {key}: {', '.join(info[key])}")
        _print_metrics(workload, metrics, units)
        results[workload] = (len(children), failed, metrics)

    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    prefix = len(results) > 1  # several workloads: name metrics per workload
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{workload}.{name}" if prefix else name):
                {"value": value, "unit": units[name]}
            for workload, (_, _, metrics) in results.items()
            for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
