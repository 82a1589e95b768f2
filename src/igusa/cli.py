"""Command-line driver for the verification suites.

Subcommands select which of the six suites run (``all`` runs every suite).
Exit codes: 0 when every check passes, 1 when at least one check fails,
2 on usage errors.  The JSON output is byte-identical for identical seed
and configuration; ``--timings`` adds per-check runtimes at the cost of
that reproducibility.
"""

from __future__ import annotations

import argparse
import os
import sys

# OpenBLAS reads these once, when numpy loads; its worker thread doubles the
# import, and no product here (at most 64x64) is big enough to use it.
if all(name not in os.environ for name in
       ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .report import SUITES, build_report, render_markdown

SUBCOMMAND_HELP = {
    "census": "discriminant-group type censuses and the 72-entry pairing "
              "table",
    "weil": "metaplectic image group, traces, decomposition, and the theta "
            "vector suite",
    "obstruction": "collapsed 6x6 action, dimension formula, Eisenstein "
                   "components, product weights",
    "lifting": "eta expansions, multiplier compatibility, and the additive "
               "lift fixture",
    "restriction": "lattice embedding, divisor restriction cases, and the "
                   "image subspaces",
    "geometry": "lines and cubics on the quartic, the fibre curves, and the "
                "degree-16 count",
    "all": "every suite above, in order",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igusa",
        description="Run exact verification suites and emit a report.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "md"), default="json",
        help="output format (default: json; md is rendered from the same "
             "document)",
    )
    common.add_argument(
        "--seed", type=int, default=0, metavar="U64",
        help="random seed for the sample-based checks (default: 0)",
    )
    common.add_argument(
        "--box", type=int, default=3, metavar="INT",
        help="largest enumeration half-width for the restriction suite, "
             "from 3 to 10; all half-widths from 3 up to this value run "
             "(default: 3)",
    )
    common.add_argument(
        "--trials", type=int, default=20, metavar="INT",
        help="number of degree-16 trials, from 0 to 1000; 0 skips the "
             "numeric geometry checks (default: 20)",
    )
    common.add_argument(
        "--terms", type=int, default=30, metavar="INT",
        help="q-series truncation for the eta-product oracle, from 1 to "
             "200 (default: 30)",
    )
    common.add_argument(
        "--tolerance", type=float, default=1e-6, metavar="FLOAT",
        help="relative tolerance for the numeric Eisenstein oracle, "
             "strictly between 0 and 1 (default: 1e-6)",
    )
    common.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to this path instead of stdout",
    )
    common.add_argument(
        "--timings", action="store_true",
        help="record per-check runtimes (makes the output nondeterministic)",
    )
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUITE")
    for name in (*SUITES, "all"):
        suite = subparsers.add_parser(
            name, parents=[common], help=SUBCOMMAND_HELP[name],
            description=SUBCOMMAND_HELP[name],
        )
        # flag errors are reported with the usage line of the chosen suite
        suite.set_defaults(suite_parser=suite)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.subcommand is None:
        parser.error("a suite is required (census, weil, obstruction, "
                     "lifting, restriction, geometry, or all)")
    parser = args.suite_parser
    if args.seed < 0 or args.seed >= 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.box < 3:
        parser.error("--box must be at least 3 (smaller boxes miss the "
                     "enumeration witnesses)")
    if args.box > 3:
        # imported here, not at the top: the default box needs no cap, and
        # every other suite would pay for loading the restriction layer
        from .restriction import MAX_BOX

        if args.box > MAX_BOX:
            parser.error(f"--box must be at most {MAX_BOX} (the enumerated "
                         f"level sets grow like the fourth power of the box)")
    if args.trials < 0:
        parser.error("--trials must be nonnegative")
    # as for --box, a cap is imported only when the value exceeds the
    # default, so a suite never loads a layer it does not run
    if args.trials > 20:
        from .geometry import MAX_TRIALS

        if args.trials > MAX_TRIALS:
            parser.error(f"--trials must be at most {MAX_TRIALS} (each trial "
                         "is one exact degree-16 composition)")
    if args.terms < 1:
        parser.error("--terms must be positive")
    if args.terms > 30:
        from .lifting import MAX_TERMS

        if args.terms > MAX_TERMS:
            parser.error(f"--terms must be at most {MAX_TERMS} (the "
                         "eta-product oracle grows like the square of the "
                         "terms)")
    if not 0 < args.tolerance < 1:
        # at 1 or above the zero series would pass the relative test
        parser.error("--tolerance must lie strictly between 0 and 1")
    if args.out is not None:
        # checked before the suite runs; nothing is created here
        directory = os.path.dirname(os.path.abspath(args.out))
        if (not args.out or os.path.isdir(args.out)
                or not os.path.isdir(directory)
                or not os.access(directory, os.W_OK)
                or (os.path.exists(args.out)
                    and not os.access(args.out, os.W_OK))):
            parser.error(f"--out {args.out!r} is not a writable file in an "
                         "existing directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # unknown flags exit 2 via argparse
    _validate(parser, args)

    document = build_report(
        args.subcommand,
        seed=args.seed,
        box=args.box,
        trials=args.trials,
        terms=args.terms,
        tolerance=args.tolerance,
        timings=args.timings,
    )
    payload = document.to_dict()
    if args.format == "md":
        text = render_markdown(payload)
    else:
        text = document.to_json()

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if document.failed else 0


if __name__ == "__main__":
    sys.exit(main())
