"""JSON file formats for algebras, morphisms, and deformations, plus the
serializers used to emit reports and fixture files.

All rationals travel as strings ("p" or "p/q"); unknown fields are
rejected so that fixture files stay diffable and typo-proof.  References
to other files ("source", "target", "algebra", "morphism") resolve first
as paths relative to the referencing file, then as built-in fixture names.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebra import ASSOCIATIVE, LIE, HomAlgebra
from .cochain import MorphismCochain, MultilinearMap
from .deformation import FormalDeformation, MorphismDeformation
from .errors import ParseError
from .exact import Matrix, rational_from_string, rational_to_string
from .rep import HomMorphism


def _require_keys(obj: dict, required, optional, context: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: expected an object")
    for key in required:
        if key not in obj:
            raise ParseError(f"{context}: missing field {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{context}: unknown field {key!r}")


def _parse_matrix(rows, nrows: int, ncols: int, context: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ParseError(f"{context}: expected {nrows} rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError(f"{context}: row {i} must have {ncols} entries")
        parsed.append([rational_from_string(x) for x in row])
    return Matrix.from_rows(parsed)


def _matrix_json(m: Matrix) -> list:
    return [[rational_to_string(m.at(i, j)) for j in range(m.cols)]
            for i in range(m.rows)]


def _parse_mul_entries(entries, basis: list[str], kind: str,
                       context: str) -> list:
    dim = len(basis)
    index = {name: i for i, name in enumerate(basis)}
    mul = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for pos, entry in enumerate(entries):
        where = f"{context}: mul[{pos}]"
        _require_keys(entry, ("left", "right", "value"), (), where)
        try:
            i = index[entry["left"]]
            j = index[entry["right"]]
        except KeyError as exc:
            raise ParseError(f"{where}: unknown basis name {exc}") from None
        if (i, j) in seen:
            raise ParseError(f"{where}: duplicate product "
                             f"({entry['left']}, {entry['right']})")
        seen.add((i, j))
        value = entry["value"]
        if not isinstance(value, dict):
            raise ParseError(f"{where}: value must be an object")
        for name, lit in value.items():
            if name not in index:
                raise ParseError(f"{where}: unknown basis name {name!r}")
            mul[i][j][index[name]] = rational_from_string(lit)
    if kind == LIE:
        for i in range(dim):
            for j in range(dim):
                if (i, j) in seen and (j, i) in seen:
                    for k in range(dim):
                        if mul[i][j][k] != -mul[j][i][k]:
                            raise ParseError(
                                f"{context}: products ({basis[i]},{basis[j]}) "
                                f"and ({basis[j]},{basis[i]}) are not "
                                "antisymmetric to each other")
                elif (i, j) in seen:
                    for k in range(dim):
                        mul[j][i][k] = -mul[i][j][k]
    return mul


def parse_algebra(data, context: str = "algebra") -> HomAlgebra:
    _require_keys(data, ("name", "kind", "dim", "basis", "alpha", "mul"),
                  (), context)
    if data["kind"] not in (ASSOCIATIVE, LIE):
        raise ParseError(f"{context}: kind must be 'associative' or 'lie'")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{context}: dim must be a positive integer")
    basis = data["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or len(set(basis)) != dim):
        raise ParseError(f"{context}: basis must list {dim} distinct names")
    alpha = _parse_matrix(data["alpha"], dim, dim, f"{context}: alpha")
    mul = _parse_mul_entries(data["mul"], basis, data["kind"], context)
    return HomAlgebra(name=str(data["name"]), kind=data["kind"], dim=dim,
                      mul=mul, alpha=alpha, basis_names=tuple(basis))


def algebra_to_json(A: HomAlgebra) -> dict:
    mul = MultilinearMap.from_sparse(2, A.dim, A.dim, A.sparse.mul)
    return {"name": A.name, "kind": A.kind, "dim": A.dim,
            "basis": list(A.basis_names), "alpha": _matrix_json(A.alpha),
            "mul": _bilinear_term_json(mul, A)}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None


def _resolve_reference(ref: str, base_dir: str) -> str | None:
    """Return a path if the reference points at a readable file."""
    if os.path.isabs(ref) and os.path.isfile(ref):
        return ref
    candidate = os.path.join(base_dir, ref)
    if os.path.isfile(candidate):
        return candidate
    if os.path.isfile(ref):
        return ref
    return None


def load_algebra_reference(ref: str, base_dir: str = ".") -> HomAlgebra:
    from .fixtures import builtin_algebra

    path = _resolve_reference(ref, base_dir)
    if path is not None:
        return parse_algebra(_load_json(path), context=path)
    built = builtin_algebra(ref)
    if built is not None:
        return built
    raise ParseError(f"algebra reference {ref!r} is neither a file "
                     "nor a built-in fixture name")


def parse_morphism(data, base_dir: str = ".",
                   context: str = "morphism") -> HomMorphism:
    _require_keys(data, ("source", "target", "matrix"), (), context)
    source = load_algebra_reference(data["source"], base_dir)
    target = load_algebra_reference(data["target"], base_dir)
    if source.kind != target.kind:
        raise ParseError(f"{context}: source is {source.kind}-kind but "
                         f"target is {target.kind}-kind")
    matrix = _parse_matrix(data["matrix"], target.dim, source.dim,
                           f"{context}: matrix")
    return HomMorphism(source, target, matrix)


def morphism_to_json(phi: HomMorphism, source_ref: str,
                     target_ref: str) -> dict:
    return {"source": source_ref, "target": target_ref,
            "matrix": _matrix_json(phi.matrix)}


def load_morphism_reference(ref: str, base_dir: str = ".") -> HomMorphism:
    from .fixtures import builtin_morphism

    path = _resolve_reference(ref, base_dir)
    if path is not None:
        return parse_morphism(_load_json(path), os.path.dirname(path) or ".",
                              context=path)
    built = builtin_morphism(ref)
    if built is not None:
        return built
    raise ParseError(f"morphism reference {ref!r} is neither a file "
                     "nor a built-in fixture name")


def _parse_term_list(entries, algebra: HomAlgebra, order: int,
                     context: str) -> dict[int, MultilinearMap]:
    terms = {}
    for pos, entry in enumerate(entries):
        where = f"{context}[{pos}]"
        _require_keys(entry, ("degree", "mul"), (), where)
        degree = entry["degree"]
        if not isinstance(degree, int) or degree < 1 or degree > order:
            raise ParseError(f"{where}: degree must be in 1..{order}")
        if degree in terms:
            raise ParseError(f"{where}: duplicate degree {degree}")
        mul = _parse_mul_entries(entry["mul"], list(algebra.basis_names),
                                 algebra.kind, where)
        values = {(i, j): tuple(mul[i][j]) for i in range(algebra.dim)
                  for j in range(algebra.dim)}
        terms[degree] = MultilinearMap.from_values(
            2, algebra.dim, algebra.dim, values)
    return terms


def parse_deformation(data, base_dir: str = ".", context: str = "deformation"):
    """Returns a MorphismDeformation when the file names a morphism, else a
    bare FormalDeformation of the named algebra."""
    _require_keys(data, ("order", "terms"),
                  ("morphism", "algebra", "phi_terms", "target_terms"),
                  context)
    order = data["order"]
    if not isinstance(order, int) or order < 0:
        raise ParseError(f"{context}: order must be a non-negative integer")
    if "morphism" in data:
        phi = load_morphism_reference(data["morphism"], base_dir)
        if "algebra" in data:
            declared = load_algebra_reference(data["algebra"], base_dir)
            if declared != phi.source:
                raise ParseError(f"{context}: algebra does not match the "
                                 "morphism's source")
        terms_a = _parse_term_list(data["terms"], phi.source, order,
                                   f"{context}: terms")
        terms_b = _parse_term_list(data.get("target_terms", ()), phi.target,
                                   order, f"{context}: target_terms")
        phi_terms = {}
        for pos, entry in enumerate(data.get("phi_terms", ())):
            where = f"{context}: phi_terms[{pos}]"
            _require_keys(entry, ("degree", "matrix"), (), where)
            degree = entry["degree"]
            if not isinstance(degree, int) or degree < 1 or degree > order:
                raise ParseError(f"{where}: degree must be in 1..{order}")
            if degree in phi_terms:
                raise ParseError(f"{where}: duplicate degree {degree}")
            phi_terms[degree] = _parse_matrix(
                entry["matrix"], phi.target.dim, phi.source.dim, where)
        return MorphismDeformation.build(
            phi,
            FormalDeformation.from_terms(phi.source, order, terms_a),
            FormalDeformation.from_terms(phi.target, order, terms_b),
            phi_terms, order)
    if "algebra" not in data:
        raise ParseError(f"{context}: needs either 'morphism' or 'algebra'")
    for key in ("phi_terms", "target_terms"):
        if key in data:
            raise ParseError(f"{context}: {key} requires a morphism")
    base = load_algebra_reference(data["algebra"], base_dir)
    terms = _parse_term_list(data["terms"], base, order, f"{context}: terms")
    return FormalDeformation.from_terms(base, order, terms)


def load_deformation_file(path: str):
    return parse_deformation(_load_json(path),
                             os.path.dirname(path) or ".", context=path)


def load_algebra_file(path: str) -> HomAlgebra:
    return parse_algebra(_load_json(path), context=path)


def load_morphism_file(path: str) -> HomMorphism:
    return parse_morphism(_load_json(path), os.path.dirname(path) or ".",
                          context=path)


def _bilinear_term_json(term: MultilinearMap, algebra: HomAlgebra) -> list:
    entries = []
    for (i, j), v in term.nonzero_entries():
        if algebra.kind == LIE and j < i:
            continue
        entries.append({
            "left": algebra.basis_names[i],
            "right": algebra.basis_names[j],
            "value": {algebra.basis_names[k]: rational_to_string(c)
                      for k, c in enumerate(v) if c}})
    return entries


def algebra_deformation_to_json(d: FormalDeformation, algebra_ref: str) -> dict:
    return {"algebra": algebra_ref, "order": d.order,
            "terms": [{"degree": deg, "mul": _bilinear_term_json(t, d.base)}
                      for deg, t in d.terms]}


def morphism_deformation_to_json(md: MorphismDeformation,
                                 morphism_ref: str) -> dict:
    out = {"morphism": morphism_ref, "order": md.order,
           "terms": [{"degree": deg,
                      "mul": _bilinear_term_json(t, md.phi.source)}
                     for deg, t in md.def_a.terms]}
    if md.def_b.terms:
        out["target_terms"] = [
            {"degree": deg, "mul": _bilinear_term_json(t, md.phi.target)}
            for deg, t in md.def_b.terms]
    if md.phi_terms:
        out["phi_terms"] = [{"degree": deg, "matrix": _matrix_json(m)}
                            for deg, m in md.phi_terms]
    return out


def cochain_from_json(data, target_names=None, context="cochain") -> MultilinearMap:
    _require_keys(data, ("arity", "source", "target", "entries"), (), context)
    arity, source_dim, target_dim = data["arity"], data["source"], data["target"]
    names = (list(target_names) if target_names
             else [f"m{i + 1}" for i in range(target_dim)])
    index = {name: i for i, name in enumerate(names)}
    values = {}
    for pos, entry in enumerate(data["entries"]):
        where = f"{context}: entries[{pos}]"
        _require_keys(entry, ("args", "value"), (), where)
        t = tuple(entry["args"])
        if len(t) != arity or any(not isinstance(i, int) or not 0 <= i < source_dim
                                  for i in t):
            raise ParseError(f"{where}: bad argument tuple")
        vec = [Fraction(0)] * target_dim
        for name, lit in entry["value"].items():
            if name not in index:
                raise ParseError(f"{where}: unknown target name {name!r}")
            vec[index[name]] = rational_from_string(lit)
        values[t] = tuple(vec)
    return MultilinearMap.from_values(arity, source_dim, target_dim, values)


def cochain_to_json(m: MultilinearMap, target_names=None) -> dict:
    names = (list(target_names) if target_names
             else [f"m{i + 1}" for i in range(m.target_dim)])
    entries = []
    for t, v in m.nonzero_entries():
        entries.append({"args": list(t),
                        "value": {names[k]: rational_to_string(c)
                                  for k, c in enumerate(v) if c}})
    return {"arity": m.arity, "source": m.source_dim, "target": m.target_dim,
            "entries": entries}


def morphism_cochain_to_json(c: MorphismCochain, phi: HomMorphism) -> dict:
    return {"degree": c.degree,
            "component_source": cochain_to_json(c.comp_A,
                                                phi.source.basis_names),
            "component_target": cochain_to_json(c.comp_B,
                                                phi.target.basis_names),
            "component_connecting": cochain_to_json(c.comp_AB,
                                                    phi.target.basis_names)}


def write_builtin_files(directory: str) -> list[str]:
    """Materialize every built-in fixture as a JSON file; returns paths."""
    from . import fixtures

    os.makedirs(directory, exist_ok=True)
    written = []

    def emit(name, payload):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
        return path

    for name, builder in sorted(fixtures.BUILTIN_FIXTURES.items()):
        emit(name, algebra_to_json(builder()))
    emit("g1_2_2", algebra_to_json(fixtures.g1(2, 2)))
    emit("phi_assoc", morphism_to_json(fixtures.phi_assoc(),
                                       "a3.json", "b2.json"))
    emit("phi12_1", morphism_to_json(fixtures.phi12_1(),
                                     "g1_2_2.json", "g2.json"))
    emit("phi12_2", morphism_to_json(fixtures.phi12_2(),
                                     "g1_2_0.json", "g2.json"))
    emit("def_g1", algebra_deformation_to_json(fixtures.def_g1(),
                                               "g1_2_0.json"))
    emit("mdef_2", morphism_deformation_to_json(fixtures.mdef_2(),
                                                "phi12_2.json"))
    return written
