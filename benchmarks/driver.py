"""One cold ``igusa`` run, as the benchmark measures it.

Usage::

    python3 benchmarks/driver.py [--contexts a,b] [--trace-out PATH]
        [--count-fractions] -- <igusa arguments>

In order, the driver imports ``igusa.cli``, builds the named shared contexts
through their public functions (each timed on its own, importing only the
layer it needs, as the CLI's suites do), and calls ``igusa.cli.main`` with
the given arguments.  Before and after all of that it times a fixed speed
probe.  The last line of its standard output is one JSON object: the CLI
exit code, the printed report, the two probe times, the set-up time and the
per-context build times.  ``--trace-out`` imports every layer, records spans
(see ``tracer.py``) and writes them to PATH at the end;
``--count-fractions`` counts ``Fraction`` constructions instead, from before
``igusa`` is imported.
"""

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def speed_probe():
    """Time a fixed amount of pure-Python ``Fraction`` work, the library's
    own substrate: how fast this process's CPU runs right now.  It runs
    before ``igusa`` is imported and after the CLI returns, so no program
    change can alter it."""
    start = time.perf_counter()
    total = 0
    for i in range(1, 160_000):
        product = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
        total += product.denominator % 7
    return time.perf_counter() - start


def _layer(name):
    return importlib.import_module(f"igusa.{name}")


# Listed in dependency order, so each build is timed apart from the ones it
# relies on.
CONTEXT_BUILDS = {
    "ambient_module": lambda: _layer("weil").ambient_module(),
    "weil_generator": lambda: (_layer("weil").weil_generator("S"),
                               _layer("weil").weil_generator("T")),
    "image_group": lambda: _layer("weil").image_group(),
    "theta_vectors": lambda: _layer("weil").theta_vectors(),
    "build_embedding": lambda: _layer("restriction").build_embedding(),
    "canonical_polys": lambda: _layer("geometry").canonical_polys(),
}
CONTEXTS = tuple(CONTEXT_BUILDS)


def main(argv, start):
    """Run as described above, less the probes; ``start`` is when set-up
    began.  Returns the result object."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--contexts", default="")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--count-fractions", action="store_true")
    parser.add_argument("igusa_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    igusa_args = args.igusa_args
    if igusa_args[:1] == ["--"]:
        igusa_args = igusa_args[1:]
    wanted = [name for name in args.contexts.split(",") if name]
    unknown = sorted(set(wanted) - set(CONTEXTS))
    if unknown:
        parser.error(f"unknown contexts {unknown}")

    sys.path.insert(0, str(SRC))
    spans = counter = None
    if args.count_fractions:
        counter = tracer.FractionCounter()
        counter.install()
    cli = _layer("cli")
    if args.trace_out:
        spans = tracer.Tracer()
        spans.install(tracer.import_layers())

    context_s = {}
    for name, build in CONTEXT_BUILDS.items():
        if name in wanted:
            begun = time.perf_counter()
            build()
            context_s[name] = time.perf_counter() - begun
    setup_s = time.perf_counter() - start

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        exit_code = cli.main(igusa_args)

    result = {"exit_code": exit_code, "report": report.getvalue(),
              "setup_s": setup_s, "context_s": context_s}
    if counter is not None:
        counter.uninstall()
        result["fractions_new_calls"] = counter.calls
    if spans is not None:
        spans.uninstall()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"missing": spans.missing, "spans": spans.spans},
                      handle, separators=(",", ":"))
    return result


if __name__ == "__main__":
    before = speed_probe()
    result = main(sys.argv[1:], time.perf_counter())
    result["probes_s"] = [before, speed_probe()]
    print(json.dumps(result))
