"""Report assembly, serialization, and the command-line driver."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from igusa.cli import _validate, build_parser, main
from igusa.exact import CYC_I, Cyclotomic
from igusa.report import (
    CheckResult,
    SuiteRunner,
    build_report,
    render_markdown,
)
from igusa.report import _first_mismatch, _plain
from igusa.geometry import MAX_TRIALS
from igusa.lifting import MAX_TERMS
from igusa.restriction import MAX_BOX

from helpers import run_demo


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def test_plain_serialization_of_exact_values():
    assert _plain(Fraction(3, 1)) == 3
    assert _plain(Fraction(-1, 2)) == "-1/2"
    assert _plain(Cyclotomic(64)) == 64
    assert _plain(CYC_I) == "i"
    assert _plain(-CYC_I) == "-i"
    assert _plain(Cyclotomic(8) * CYC_I) == "8i"
    assert _plain(Cyclotomic(-8) * CYC_I) == "-8i"
    assert _plain((1, frozenset({3, 2}))) == [1, [2, 3]]


def test_first_mismatch_reports_a_path():
    expected = {"a": [1, 2, 3], "b": {"c": 5}}
    hit = _first_mismatch(expected, {"a": [1, 9, 3], "b": {"c": 5}})
    assert hit == {"path": "$.a[1]", "expected": 2, "actual": 9}
    assert _first_mismatch(expected, expected) is None
    missing = _first_mismatch({"a": 1}, {})
    assert missing["path"] == "$.a"


def test_check_result_rejects_unknown_status():
    with pytest.raises(ValueError):
        CheckResult(id="x", status="maybe", claim="", expected=1, actual=1)


# ---------------------------------------------------------------------------
# Suite runner behavior
# ---------------------------------------------------------------------------


def test_runner_records_pass_fail_and_error():
    runner = SuiteRunner()
    runner.run("ok", "a passing check", lambda: (1, 1))
    runner.run("bad", "a failing check", lambda: ({"k": 1}, {"k": 2}))

    def boom():
        raise ValueError("witness: the culprit")

    runner.run("err", "an erroring check", boom)
    runner.skip("skip", "a skipped check", "disabled")
    by_id = {c.id: c for c in runner.checks}
    assert by_id["ok"].status == "pass"
    assert by_id["bad"].status == "fail"
    assert by_id["bad"].actual["first_mismatch"]["path"] == "$.k"
    assert by_id["err"].status == "fail"
    assert "witness: the culprit" in by_id["err"].actual["error"]
    assert by_id["skip"].status == "skipped"


def run_one(expected, result):
    runner = SuiteRunner()
    runner.run("x", "", lambda: (expected, result))
    return runner.checks[0]


def test_runner_compares_the_keys_the_expected_dict_names():
    check = run_one({"k": 1}, {"k": 1, "extra": [2]})
    assert check.status == "pass"
    assert check.actual == {"k": 1}


def test_runner_failure_carries_the_whole_result():
    missing = run_one({"k": 1, "m": 2}, {"k": 1})
    assert missing.status == "fail"
    assert missing.actual == {
        "value": {"k": 1},
        "first_mismatch": {"path": "$.m", "expected": 2, "actual": "<absent>"},
    }
    wrong = run_one({"k": 1}, {"k": 2, "extra": 3})
    assert wrong.status == "fail"
    assert wrong.actual["value"] == {"k": 2, "extra": 3}
    assert wrong.actual["first_mismatch"]["path"] == "$.k"
    # a dict result against a non-dict expectation fails as a whole
    whole = run_one(1, {"k": 1})
    assert whole.status == "fail"
    assert whole.actual == {
        "value": {"k": 1},
        "first_mismatch": {"path": "$", "expected": 1, "actual": {"k": 1}},
    }


def test_runner_timings_flag_controls_runtime_field():
    silent = SuiteRunner(timings=False)
    silent.run("x", "", lambda: (1, 1))
    assert silent.checks[0].runtime_ms is None
    timed = SuiteRunner(timings=True)
    timed.run("x", "", lambda: (1, 1))
    assert isinstance(timed.checks[0].runtime_ms, float)


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------


def test_census_report_is_deterministic_and_sorted():
    doc1 = build_report("census", seed=7)
    doc2 = build_report("census", seed=7)
    assert doc1.to_json() == doc2.to_json()
    ids = [c.id for c in doc1.checks]
    assert ids == sorted(ids)
    assert doc1.summary == {"pass": 3, "fail": 0, "skipped": 0, "total": 3}
    assert not doc1.failed
    payload = doc1.to_dict()
    assert payload["config"]["seed"] == 7
    assert payload["tool"] == "igusa"


def test_unknown_subcommand_is_rejected():
    with pytest.raises(ValueError):
        build_report("bogus")


@pytest.mark.parametrize("suite, options, message", [
    ("restriction", {"box": 2}, "box 2 must be at least 3"),
    ("restriction", {"box": -1}, "box -1 must be at least 3"),
    ("geometry", {"trials": -3}, "trials -3 must be nonnegative"),
])
def test_report_refuses_values_it_would_not_run(suite, options, message):
    # the configuration records the values given, so a value the suite
    # would clamp or ignore is refused before any check runs
    with pytest.raises(ValueError, match=message):
        build_report(suite, **options)


def test_geometry_report_with_zero_trials_skips_numeric():
    doc = build_report("geometry", trials=0)
    statuses = {c.id: c.status for c in doc.checks}
    assert statuses["geometry-degree16"] == "skipped"
    assert statuses["geometry-witness-composition"] == "skipped"
    symbolic = [s for i, s in statuses.items()
                if s != "skipped"]
    assert symbolic and all(s == "pass" for s in symbolic)
    assert not doc.failed  # skipped checks do not fail the run
    assert any("open question" in note for note in doc.notes)
    # a skipped check states the same claim as when it runs
    ran = build_report("geometry", trials=1)
    assert all(c.status == "pass" for c in ran.checks)
    assert ({c.id: c.claim for c in doc.checks}
            == {c.id: c.claim for c in ran.checks})


def test_failing_degree16_check_shows_the_whole_report(monkeypatch):
    import igusa.geometry

    real = igusa.geometry.degree16_check
    monkeypatch.setattr(igusa.geometry, "degree16_check",
                        lambda **kw: {**real(**kw), "success_rate": 0.5})
    doc = build_report("geometry", trials=2)
    check = {c.id: c for c in doc.checks}["geometry-degree16"]
    assert check.status == "fail"
    mismatch = check.actual["first_mismatch"]
    assert mismatch["path"] == "$.success_rate_at_least_95_percent"
    assert mismatch["actual"] is False
    witness = check.actual["value"]
    for key in ("successes", "discarded", "rejected_draws",
                "worst_composition_residual"):
        assert key in witness
    assert witness["success_rate"] == 0.5 and witness["trials"] == 2


def test_markdown_is_rendered_from_the_json_document():
    doc = build_report("census")
    payload = doc.to_dict()
    text = render_markdown(payload)
    assert text.startswith("# Verification report: census")
    for check in payload["checks"]:
        assert f"`{check['id']}`" in text
    assert "## Failures" not in text
    # a failing document renders a failure section with the witness
    failing = dict(payload)
    failing["checks"] = [dict(payload["checks"][0])]
    failing["checks"][0]["status"] = "fail"
    failing["checks"][0]["actual"] = {"first_mismatch": {"path": "$.x"}}
    failing["summary"] = {"pass": 0, "fail": 1, "skipped": 0, "total": 1}
    failed_text = render_markdown(failing)
    assert "## Failures" in failed_text
    assert "$.x" in failed_text


# ---------------------------------------------------------------------------
# Command-line driver
# ---------------------------------------------------------------------------


def test_cli_census_json_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["census", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["subcommand"] == "census"


def test_cli_census_markdown_to_stdout(capsys):
    code = main(["census", "--format", "md"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# Verification report: census")


def test_cli_usage_errors_exit_2(tmp_path, monkeypatch):
    suites_run = []
    monkeypatch.setattr("igusa.cli.build_report",
                        lambda *args, **kwargs: suites_run.append(args))
    missing = tmp_path / "missing" / "report.json"
    for argv in (
        [],                          # missing suite
        ["bogus"],                   # unknown suite
        ["census", "--bogus"],       # unknown flag
        ["census", "--box", "2"],    # box below the witness range
        ["restriction", "--box", str(MAX_BOX + 1)],  # box above the cap
        ["census", "--seed", "-1"],  # negative seed
        ["geometry", "--trials", "-3"],
        ["geometry", "--trials", str(MAX_TRIALS + 1)],  # trials above the cap
        ["lifting", "--terms", str(MAX_TERMS + 1)],  # terms above the cap
        ["obstruction", "--tolerance", "0"],
        ["obstruction", "--tolerance", "1"],  # would make the oracle vacuous
        ["obstruction", "--tolerance", "2"],
        ["obstruction", "--tolerance", "inf"],
        ["obstruction", "--tolerance", "nan"],
        ["census", "--out", str(missing)],  # no such directory
        ["census", "--out", str(tmp_path)],  # a directory, not a file
        ["census", "--out", ""],  # an empty path names no file
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
    # a usage error runs no suite and writes nothing
    assert not suites_run
    assert not missing.parent.exists() and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["restriction", "--box", str(MAX_BOX + 1)],
    ["census", "--box", "2"],
    ["geometry", "--trials", "-3"],
    pytest.param(["geometry", "--trials", str(MAX_TRIALS + 1)],
                 id="geometry-trials-cap"),
    pytest.param(["lifting", "--terms", str(MAX_TERMS + 1)],
                 id="lifting-terms-cap"),
    pytest.param(["obstruction", "--tolerance", "inf"],
                 id="obstruction-infinite-tolerance"),
    pytest.param(["obstruction", "--tolerance", "1"],
                 id="obstruction-tolerance-1"),
    pytest.param(["obstruction", "--tolerance", "2"],
                 id="obstruction-tolerance-2"),
    pytest.param(["census", "--out", os.path.join(os.devnull, "report.json")],
                 id="census-unwritable-out"),
    pytest.param(["census", "--out", ""], id="census-empty-out"),
], ids=lambda argv: argv[0])
def test_cli_flag_errors_show_the_suite_usage(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: igusa {argv[0]} [-h]")


def test_cli_help_states_the_box_range(capsys):
    with pytest.raises(SystemExit) as err:
        main(["restriction", "--help"])
    assert err.value.code == 0
    assert f"from 3 to {MAX_BOX};" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("suite, flag, low, high", [
    ("geometry", "--trials", 0, MAX_TRIALS),
    ("lifting", "--terms", 1, MAX_TERMS),
])
def test_cli_help_states_the_capped_ranges(suite, flag, low, high, capsys):
    with pytest.raises(SystemExit) as err:
        main([suite, "--help"])
    assert err.value.code == 0
    assert f"from {low} to {high}" in " ".join(capsys.readouterr().out.split())
    # the caps themselves pass validation, and admit the values the tests,
    # demos and benchmark use
    parser = build_parser()
    _validate(parser, parser.parse_args([suite, flag, str(high)]))
    assert MAX_TRIALS >= 40 and MAX_TERMS >= 30


def test_cli_failing_check_exits_1(tmp_path):
    # an impossible tolerance forces the numeric oracle check to fail
    out = tmp_path / "fail.json"
    code = main(["obstruction", "--tolerance", "1e-30", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert [c["id"] for c in failed] == ["eisenstein-numeric-oracle"]
    # the failure names its witness
    assert "disagrees" in failed[0]["actual"]["error"]


def test_cli_byte_identical_reports_for_same_config(capsys):
    main(["census", "--seed", "11"])
    first = capsys.readouterr().out
    main(["census", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second


ALL_SHA256 = "24a9d4de9a0a92bb5ac03e4ce86cc00f3e66b623a3e9389a3bdad36f3d06e7cf"


def test_cli_all_report_is_pinned(capsys):
    # the full report at default flags is the library's fixed output
    assert main(["all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_SHA256


BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
)


def _child_env(**extra):
    # a fresh interpreter's environment without the BLAS thread settings,
    # which this process carries once it has imported igusa.cli
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARIABLES}
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(env, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8", **extra)


def test_cli_all_report_is_pinned_in_fresh_interpreters():
    # the pin above runs in-process; each fresh interpreter here gets its
    # own string-hash seed, so an output that depends on set or dict order
    # of strings, or on other per-process state, moves the hash; the first
    # child runs BLAS on two threads, which may split the float64 matrix
    # products and change their summation order, the second on the CLI's
    # default of one and the last on one by the user's own setting: none
    # may change an exact result
    children = (
        {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "2"},
        {"PYTHONHASHSEED": "1"},
        {"PYTHONHASHSEED": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    for extra in children:
        done = subprocess.run([sys.executable, "-m", "igusa.cli", "all"],
                              capture_output=True, env=_child_env(**extra),
                              timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        assert hashlib.sha256(done.stdout).hexdigest() == ALL_SHA256, extra


@pytest.mark.parametrize("module, extra, expected", [
    ("igusa.cli", {}, ["1", None, None]),
    ("igusa.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
    ("igusa.cli", {"GOTO_NUM_THREADS": "2"}, [None, "2", None]),
    ("igusa.cli", {"OMP_NUM_THREADS": "2"}, [None, None, "2"]),
    ("igusa.weil", {}, [None, None, None]),
])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(module, extra,
                                                          expected):
    # importing the CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads,
    # unless one of the variables OpenBLAS reads is already set; a library
    # import leaves the environment alone
    probe = (f"import json, os, {module}, numpy\n"
             "task = '/proc/self/task'\n"
             "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
             f"print(json.dumps([[os.environ.get(key) for key in "
             f"{BLAS_THREAD_VARIABLES!r}], threads]))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env(**extra), timeout=300)
    assert done.returncode == 0, done.stderr
    settings, threads = json.loads(done.stdout)
    assert settings == expected
    if module == "igusa.cli" and not extra and threads is not None:
        # the setting reached OpenBLAS: no worker thread was started
        assert threads == 1


def test_cli_imports_only_the_layers_a_suite_runs():
    # cold start pays for the layers it imports: the CLI itself loads the
    # report and the exact layer its check results need, and a suite adds
    # only the layers it runs
    probe = (
        "import contextlib, io, json, sys, igusa.cli\n"
        "def loaded():\n"
        "    return {name for name in sys.modules\n"
        "            if name.partition('.')[0] == 'igusa'}\n"
        "before = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = igusa.cli.main(['geometry', '--trials', '0'])\n"
        "print(json.dumps([sorted(before), sorted(loaded() - before), code]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    before, added, code = json.loads(done.stdout)
    assert before == ["igusa", "igusa.cli", "igusa.exact", "igusa.report"]
    assert added == ["igusa.geometry"]
    assert code == 0


def test_package_runs_as_a_module():
    # `python -m igusa` runs the igusa command
    for argv in (["--version"], ["geometry", "--trials", "0"]):
        done = subprocess.run([sys.executable, "-m", "igusa", *argv],
                              capture_output=True, text=True,
                              env=_child_env(), timeout=300)
        assert done.returncode == 0, (argv, done.stderr)
    assert done.stdout.startswith("{")


GEOMETRY_SHA256 = (
    "0f7571f1fe17857cf98ce6f6f1ba4ee39aeb5e8ce418beb08b0e111b88c305cc"
)


def test_cli_geometry_report_is_pinned(capsys):
    # the curve-sampling run: forty seeded degree-16 trials
    assert main(["geometry", "--trials", "40", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEOMETRY_SHA256


GEOMETRY_MD_SHA256 = (
    "95199b9537e913430a3ddb27a7882c6132f4560761b11751d75fd6f8319c8fc4"
)


def test_cli_geometry_markdown_report_is_pinned(capsys):
    # the geometry suite at default flags, rendered as markdown
    assert main(["geometry", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEOMETRY_MD_SHA256


GEOMETRY_MAX_TRIALS_SHA256 = (
    "8353910bdbfa2fbbb8a8f13b6d0f78f47e3eafb1de8a0897f6593130ad81aa14"
)


def test_cli_geometry_max_trials_report_is_pinned(capsys):
    # the degree-16 certification at its largest trial count, MAX_TRIALS
    assert main(["geometry", "--trials", str(MAX_TRIALS)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEOMETRY_MAX_TRIALS_SHA256


GEOMETRY_DEMO_SHA256 = (
    "e21d03a73da02d6c89eccb51fd0e3c718615b9105637085acbad38543e284854"
)


def test_geometry_demo_output_is_pinned():
    # every line demo 07 prints, the fibre curve's rows included; one line
    # first, so that a mismatch there names the quartic's value at a witness
    out = run_demo("07_quartic_geometry.py")
    assert "quartic at (1,-1,0,0,0,0):  -4\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == GEOMETRY_DEMO_SHA256


RESTRICTION_SHA256 = (
    "50e35852335147381b6a717dd1de73bc1b18bfec442ce43754793db880f8bc9f"
)


def test_cli_restriction_report_is_pinned(capsys):
    # the enumeration-sweep run: every box half-width from 3 to 7
    assert main(["restriction", "--box", "7", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RESTRICTION_SHA256


OBSTRUCTION_LOOSE_SHA256 = (
    "186be8beb091eec3b02866a3d03327e7286b87d38c91b8d5725b0c4f9de61999"
)


def test_cli_obstruction_loose_tolerance_report_is_pinned(capsys):
    # the numeric oracle at a looser tolerance than the default
    assert main(["obstruction", "--tolerance", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OBSTRUCTION_LOOSE_SHA256


OBSTRUCTION_DEMO_SHA256 = (
    "903e1836a9158fd9830d16a04a6146e3cf508efcac0b2ef5af676fd0cbbba5fd"
)


def test_obstruction_demo_output_is_pinned():
    # every line demo 04 prints, the weights and components included
    out = run_demo("04_obstruction_and_weights.py")
    assert hashlib.sha256(out.encode()).hexdigest() == OBSTRUCTION_DEMO_SHA256


LIFTING_MAX_TERMS_SHA256 = (
    "647378590de07e7a0013f65ed5fe051ed1a1f59dfd8ab5aa46e48c3bfa0435cd"
)


def test_cli_lifting_max_terms_report_is_pinned(capsys):
    # the eta-product oracle at the largest truncation, MAX_TERMS
    assert main(["lifting", "--terms", str(MAX_TERMS)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIFTING_MAX_TERMS_SHA256


RESTRICTION_BOX10_SHA256 = (
    "edeee7fbfd002b830d7a5ec4081906a05a29611fe28e7e8cad36986955bbec12"
)


def test_cli_restriction_box10_report_is_pinned(capsys):
    # the largest box, MAX_BOX: every half-width from 3 to 10
    assert main(["restriction", "--box", "10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RESTRICTION_BOX10_SHA256


def test_cli_restriction_enumerates_the_level_sets_once(monkeypatch, capsys):
    import igusa.restriction as restriction

    calls = []
    original = restriction._relevant_level_sets

    def counted(bound, targets):
        calls.append((bound, tuple(targets)))
        return original(bound, targets)

    # the bound-2 boundary projection and the plane images built from it are
    # cached: drop them so the projection is counted
    restriction._norm_minus4_projection.cache_clear()
    restriction.all_v1_images.cache_clear()
    monkeypatch.setattr(restriction, "_relevant_level_sets", counted)
    assert main(["restriction", "--box", "5"]) == 0
    capsys.readouterr()
    # one enumeration for the case table of boxes 3..5, one for the projection
    assert sorted(calls) == [(2, (-4,)), (5, (-4, -2, -6))]


def test_cli_restriction_builds_the_plane_images_once(monkeypatch, capsys):
    import igusa.restriction as restriction

    calls = []
    original = restriction.v_to_v1

    def counted(plane):
        calls.append(plane)
        return original(plane)

    restriction.all_v1_images.cache_clear()
    monkeypatch.setattr(restriction, "v_to_v1", counted)
    assert main(["restriction"]) == 0
    capsys.readouterr()
    # one image per isotropic plane, shared by the two checks that read them
    assert len(calls) == 15 and len(set(calls)) == 15


def test_cli_timings_are_recorded_on_request(capsys):
    main(["census", "--timings"])
    payload = json.loads(capsys.readouterr().out)
    assert all(isinstance(c["runtime_ms"], float) for c in payload["checks"])
    assert payload["config"]["timings"] is True
