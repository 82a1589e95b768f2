"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

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
