"""Spans around the public functions of each homcoh layer, recorded from
outside the program.

``Tracer.install`` wraps the functions listed in ``LAYERS`` and rebinds every
``homcoh.*`` module attribute that holds one of them: the modules import each
other's functions by name (``from .exact import nullspace_basis``), so
patching only the defining module would miss most calls. Spans stay in
memory until ``write``; ``layer_metrics`` derives self times and counts.
"""

from __future__ import annotations

import fnmatch
import inspect
import json
import sys
from fractions import Fraction
from math import comb
from time import perf_counter

# layer -> (defining module, public function names or glob patterns)
LAYERS = {
    "cochain": ("homcoh.cochain", (
        "hom_cochain_basis", "lie_cochain_basis", "full_multilinear_basis",
        "morphism_cochain_space")),
    "cohomology": ("homcoh.cohomology", (
        "delta_hom_self", "delta_hom_bimodule", "delta_lie_self",
        "delta_lie_module", "delta_morphism", "d_component",
        "compute_cohomology")),
    "exact": ("homcoh.exact", (
        "rref", "nullspace_basis", "solve", "in_span", "column_rank",
        "independent_subset", "intersection_basis")),
    "deformation": ("homcoh.deformation", (
        "check_algebra_deformation", "check_morphism_deformation",
        "obstruction", "algebra_obstruction", "infinitesimal_report",
        "extend_deformation", "extend_algebra_deformation")),
    "bracket": ("homcoh.bracket", (
        "compose_after", "diamond", "comp_product", "gerstenhaber_bracket",
        "nr_bracket")),
    "algebra": ("homcoh.algebra", ("validate",)),
    "files": ("homcoh.files", (
        "load_*_file", "parse_*", "cochain_to_json",
        "morphism_cochain_to_json", "*_deformation_to_json")),
    "cli": ("homcoh.cli", ("main",)),
}

BASIS_BUILDERS = {"hom_cochain_basis", "lie_cochain_basis",
                  "full_multilinear_basis"}
DELTAS = {"delta_hom_self", "delta_hom_bimodule", "delta_lie_self",
          "delta_lie_module", "delta_morphism", "d_component"}
EXTENDS = {"extend_deformation", "extend_algebra_deformation"}

PER_LAYER_METRICS = (
    ("cochain.basis_s", "s"), ("cochain.basis_calls", "count"),
    ("cochain.unknowns", "count"), ("cochain.unique_ratio", "ratio"),
    ("cohomology.delta_s", "s"), ("cohomology.delta_calls", "count"),
    ("cohomology.delta_tuples", "count"), ("cohomology.driver_s", "s"),
    ("cohomology.unique_ratio", "ratio"),
    ("exact.eliminate_s", "s"), ("exact.calls", "count"),
    ("exact.cells", "count"), ("exact.max_bits", "bits"),
    ("deformation.check_s", "s"), ("deformation.extend_s", "s"),
    ("deformation.calls", "count"),
    ("bracket.s", "s"),
    ("algebra.validate_s", "s"), ("algebra.validate_calls", "count"),
    ("files.parse_s", "s"), ("files.serialize_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
)


def _key(value):
    """Hashable identity of an argument: the value itself when it is
    hashable (algebras and matrices are frozen dataclasses), else its id."""
    try:
        hash(value)
        return value
    except TypeError:
        return ("id", id(value))


def _cells(vectors) -> int:
    if not isinstance(vectors, (list, tuple)) or not vectors:
        return 0
    return len(vectors) * len(vectors[0])


def _max_bits(value) -> int:
    """Largest numerator or denominator bit length inside a result."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(),
                   value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((_max_bits(v) for v in value), default=0)
    reduced = getattr(value, "reduced", None)  # RrefResult
    if reduced is not None:
        return _max_bits(reduced.entries)
    return 0


def _unknowns(flavor: str, n: int, k: int, d: int) -> int:
    return (n ** k if flavor == "hom" else comb(n, k)) * d


def _measure(name: str, a: dict) -> dict:
    """Counts taken from a call's bound arguments (see NOTES.md)."""
    if name in BASIS_BUILDERS:
        flavor = a.get("flavor", "hom" if name == "hom_cochain_basis" else "lie")
        n, k, d = a["source"].dim, a["arity"], a["target_dim"]
        key = (name,) + tuple(_key(v) for v in a.values())
        return {"unknowns": _unknowns(flavor, n, k, d), "key": key}
    if name in DELTAS and name != "delta_morphism":
        algebra = a.get("A", a.get("L"))
        return {"tuples": algebra.dim ** (a["f"].arity + 1)}
    if name == "compute_cohomology":
        cx = a["complex_obj"]
        inputs = tuple(_key(getattr(cx, attr, None))
                       for attr in ("algebra", "module", "phi"))
        return {"keys": [(cx.flavor, inputs, int(d)) for d in a["degrees"]]}
    if name in ("rref", "nullspace_basis", "solve"):
        return {"cells": a["m"].rows * a["m"].cols}
    if name in ("in_span", "column_rank", "independent_subset"):
        return {"cells": _cells(a["vectors"])}
    if name == "intersection_basis":
        return {"cells": _cells(a["u_cols"]) + _cells(a["w_cols"])}
    return {}


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "op", "outer",
                 "info", "children_s")

    def __init__(self, layer, name, parent, op, outer):
        self.layer, self.name, self.parent, self.op = layer, name, parent, op
        self.outer = outer  # called from another layer or from outside
        self.start = self.end = 0.0
        self.info = None
        self.children_s = 0.0  # direct children, wrapper work included

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1  # index of the operation now running
        self.missing: list[str] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        name = fn.__name__
        signature = inspect.signature(fn)
        exact_layer = layer == "exact"

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent].layer != layer
            span = Span(layer, name, parent, self.op, outer)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if outer or not exact_layer:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = _measure(name, bound.arguments)
                if exact_layer:
                    span.info["bits"] = _max_bits(result)
            if parent >= 0:
                spans[parent].children_s += perf_counter() - entered
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def install(self):
        """Wrap every listed function and rebind it in all homcoh modules."""
        replacement = {}
        for layer, (module_name, patterns) in LAYERS.items():
            module = sys.modules[module_name]
            public = {n: v for n, v in vars(module).items()
                      if inspect.isfunction(v) and v.__module__ == module_name
                      and not n.startswith("_")}
            for pattern in patterns:
                found = fnmatch.filter(sorted(public), pattern)
                if not found:
                    self.missing.append(f"{module_name}.{pattern}")
                for n in found:
                    replacement[id(public[n])] = (public[n],
                                                  self._wrap(layer, public[n]))
        for module_name, module in list(sys.modules.items()):
            if module_name != "homcoh" and not module_name.startswith("homcoh."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path) -> None:
        rows = [[s.layer, s.name, s.start, s.end, s.parent, s.op]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "name", "start", "end", "parent",
                                  "op"], "spans": rows}, fh)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  output_bytes: int) -> dict:
    m = {name: 0 for name, _ in PER_LAYER_METRICS}
    space_keys, degree_keys = [], []
    for s in tracer.spans:
        info = s.info or {}
        layer, name, self_s = s.layer, s.name, s.self_s
        if layer == "cochain":
            m["cochain.basis_s"] += self_s
            if name in BASIS_BUILDERS:
                m["cochain.basis_calls"] += 1
                m["cochain.unknowns"] += info["unknowns"]
                space_keys.append(info["key"])
        elif layer == "cohomology":
            if name in DELTAS:
                m["cohomology.delta_s"] += self_s
                m["cohomology.delta_calls"] += 1
                m["cohomology.delta_tuples"] += info.get("tuples", 0)
            else:
                m["cohomology.driver_s"] += self_s
                degree_keys.extend(info["keys"])
        elif layer == "exact":
            m["exact.eliminate_s"] += self_s
            if s.outer:
                m["exact.calls"] += 1
                m["exact.cells"] += info["cells"]
                m["exact.max_bits"] = max(m["exact.max_bits"], info["bits"])
        elif layer == "deformation":
            key = ("deformation.extend_s" if name in EXTENDS
                   else "deformation.check_s")
            m[key] += self_s
            m["deformation.calls"] += s.outer
        elif layer == "bracket":
            m["bracket.s"] += self_s
        elif layer == "algebra":
            m["algebra.validate_s"] += self_s
            m["algebra.validate_calls"] += 1
        elif layer == "files":
            key = ("files.serialize_s" if name.endswith("_to_json")
                   else "files.parse_s")
            m[key] += self_s
        elif layer == "cli":
            m["cli.self_s"] += self_s
    if space_keys:
        m["cochain.unique_ratio"] = len(set(space_keys)) / len(space_keys)
    if degree_keys:
        m["cohomology.unique_ratio"] = len(set(degree_keys)) / len(degree_keys)
    m["cli.output_bytes"] = output_bytes
    m["trace.overhead_s"] = traced_wall - untraced_wall
    layer_time = sum(s.self_s for s in tracer.spans)
    m["trace.coverage"] = layer_time / traced_wall if traced_wall > 0 else 0
    return m
