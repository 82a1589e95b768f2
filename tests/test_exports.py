"""Every name a module exports through ``__all__`` exists, and so does every
function the benchmark traces by name; every name a source file imports is
read; every report check id is written once."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import igusa

MODULES = ["igusa"] + sorted(
    f"igusa.{info.name}" for info in pkgutil.iter_modules(igusa.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises on a stale export
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in exported if n not in namespace] == []
    assert len(set(exported)) == len(exported)


def load_tracer():
    """``benchmarks/tracer.py``, loaded from its file (it imports only the
    standard library)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


# Traced names whose functions are already gone; the benchmark lists them
# as missing until its name list is repaired.
KNOWN_MISSING = {"exact.field_rref", "geometry.rnc_through_7",
                 "geometry.rational_curve_via_frame", "fqm.orthogonal_group"}


def test_benchmark_traced_names_resolve():
    unresolved = set()
    for layer, table in load_tracer().NAMED.items():
        module = importlib.import_module(f"igusa.{layer}")
        for path in table.values():
            target = module
            for part in path.split("."):
                target = getattr(target, part, None)
            if target is None:
                unresolved.add(f"{layer}.{path}")
    assert unresolved - KNOWN_MISSING == set()


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/igusa/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("demos/*.py")])


def unread_imports(path):
    """Names that ``path`` imports and no expression in it reads; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_each_check_id_is_written_once():
    # a check id written twice in the report module can carry two claims
    from igusa.report import build_report

    ids = [c.id for c in build_report("all").checks]
    assert len(ids) == 36
    tree = ast.parse((ROOT / "src/igusa/report.py").read_text(encoding="utf-8"))
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in ids]
    assert sorted(literals) == sorted(ids)
