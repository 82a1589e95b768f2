"""Span recording for the benchmark's traced run.

Spans come only from wrappers installed around public functions of the
``igusa`` modules; the library itself is not modified.  A function is
bound in every module that imports it by name (``from .weil import
ambient_module`` copies the reference), so a wrapper replaces the original
object in every ``igusa.*`` namespace and class that binds it.

Two kinds of target are wrapped:

* the functions named in :data:`NAMED`, each reported as
  ``<layer>.<alias>.s`` and ``<layer>.<alias>.calls``;
* every other public module-level function of every layer, so that the
  time it spends is billed to its own layer rather than to its caller.

Methods that are not named (``Cyclotomic.__add__``, ``Lattice.ip``, ...)
stay unwrapped; their time is self time of the layer that called them.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import sys
import time
import types

LAYERS = ("exact", "lattices", "fqm", "weil", "obstruction", "lifting",
          "restriction", "geometry", "report", "cli")

# layer -> {alias: attribute path inside igusa.<layer>}
NAMED = {
    "exact": {
        "cyc_mul": "Cyclotomic.__mul__",
        "cyc_inverse": "Cyclotomic.inverse",
        "cycmatrix_matmul": "CycMatrix.__matmul__",
        "field_rref": "field_rref",
        "eigenphases": "matrix_eigenphase_multiplicities",
    },
    "lattices": {
        "discriminant_module": "discriminant_module",
        "smith_normal_form": "smith_normal_form",
    },
    "fqm": {
        "orthogonal_group": "orthogonal_group",
        "isotropic_planes": "isotropic_planes",
        "pairing_table": "pairing_table",
    },
    "weil": {
        "weil_generator": "weil_generator",
        "image_group": "image_group",
        "conjugacy_classes": "conjugacy_classes",
        "theta_vectors": "theta_vectors",
        "grv_apply": "GroupRingVector.apply",
        "irreducibility_check": "irreducibility_check",
    },
    "obstruction": {
        "collapsed_rep": "collapsed_rep",
        "eisenstein_G3": "eisenstein_G3",
        "f_tuple": "f_tuple",
    },
    "lifting": {
        "eta_power": "eta_power",
        "multiplier_compatibility": "multiplier_compatibility",
    },
    "restriction": {
        "heegner_restriction_cases": "heegner_restriction_cases",
        "all_v1_images": "all_v1_images",
    },
    "geometry": {
        "poly_mul": "MultiPoly.__mul__",
        "rational_curve_via_frame": "rational_curve_via_frame",
        "rnc_through_7": "rnc_through_7",
        "exact_quartic_composition": "exact_quartic_composition",
        "poly_is_squarefree": "poly_is_squarefree",
        "image_cubic_relation": "image_cubic_relation",
        "singular_inclusion_check": "singular_inclusion_check",
    },
}


def named_spans():
    """Span names of every named target, in a fixed order."""
    return [f"{layer}.{alias}" for layer, table in NAMED.items()
            for alias in table]


def import_layers():
    """Import every igusa layer and return {layer: module}."""
    return {layer: importlib.import_module(f"igusa.{layer}")
            for layer in LAYERS}


def _is_public_function(module, name, obj):
    return (not name.startswith("_")
            and isinstance(obj, (types.FunctionType,
                                 functools._lru_cache_wrapper))
            and obj.__module__ == module.__name__)


class Tracer:
    """Records (name, start, end, parent index) for every call of a wrapped
    target.  A span's index is fixed when it opens, so a parent's index is
    always below its children's; spans stay in memory until the run ends."""

    def __init__(self, named=NAMED):
        self.named = named
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self, modules):
        """Wrap the targets found in ``modules`` ({layer: module}).  Named
        targets that do not exist are listed in ``self.missing``."""
        namespaces = [m for key, m in sys.modules.items()
                      if key == "igusa" or key.startswith("igusa.")]
        targets = {}  # id(original) -> (original, span name)
        for layer, table in self.named.items():
            for alias, path in table.items():
                obj = modules.get(layer)
                for part in path.split("."):
                    obj = getattr(obj, part, None)
                if obj is None:
                    self.missing.append(f"{layer}.{alias}")
                else:
                    targets[id(obj)] = (obj, f"{layer}.{alias}")
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (_is_public_function(module, name, obj)
                        and id(obj) not in targets):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        wrappers = {key: self.wrap(name, obj)
                    for key, (obj, name) in targets.items()}
        for namespace in namespaces:
            self._patch(namespace, targets, wrappers)
            for cls in list(vars(namespace).values()):
                if (isinstance(cls, type)
                        and cls.__module__ == namespace.__name__):
                    self._patch(cls, targets, wrappers)

    def _patch(self, namespace, targets, wrappers):
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in targets and targets[id(obj)][0] is obj:
                self._patched.append((namespace, attr, obj))
                setattr(namespace, attr, wrappers[id(obj)])

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()


class FractionCounter:
    """Counts ``Fraction.__new__`` calls, the same calls a deterministic
    profile lists for ``fractions.py:__new__``."""

    def __init__(self):
        self.calls = 0
        self._original = None

    def install(self):
        self._original = vars(fractions.Fraction)["__new__"]
        original = fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            self.calls += 1
            return original(cls, *args, **kwargs)

        fractions.Fraction.__new__ = counted

    def uninstall(self):
        fractions.Fraction.__new__ = self._original


def summarize(spans, names):
    """Per-layer self time, and inclusive time and calls for ``names``.

    A layer's self time is the duration of its spans minus the part covered
    by their child spans.  Inclusive time counts only the outermost span of
    a name, so recursion is not counted twice."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    wanted = set(names)
    inclusive = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for index, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - child_time[index]
        if name not in wanted:
            continue
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += end - start
    return self_s, inclusive, calls
