"""JSON file formats for algebras, morphisms, and deformations, plus the
serializers used to emit reports and fixture files.

All rationals travel as strings ("p" or "p/q"); unknown fields are
rejected so that fixture files stay diffable and typo-proof.  ``load``
resolves every reference, both a command-line argument and the fields
that name other inputs ("source", "target", "algebra", "morphism"): first
as a path relative to the referencing file's directory, then as a path
relative to the working directory, then as a built-in fixture name.

``json_text`` is the one writer of indented JSON (CLI reports and fixture
files): it writes what ``json.dumps(value, indent=2, sort_keys=True)``
writes, without that call's fallback to the pure-Python encoder.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii

from .algebra import (ASSOCIATIVE, LIE, HomAlgebra, product_table,
                      product_tensor)
from .cochain import MorphismCochain, MultilinearMap
from .deformation import (FormalDeformation, MorphismDeformation,
                          check_work_bound)
from .errors import ParseError
from .exact import Matrix, rational_from_string, rational_to_string
from .rep import HomMorphism


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a
    report holds: objects with string keys, lists, tuples, strings, ints,
    booleans and None; anything else is a ``TypeError``."""
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append the text of value to out; newline is a line break and the
    indent of the line value starts on."""
    if value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        sep = ("{" if is_dict else "[") + inner
        for item in sorted(value.items()) if is_dict else value:
            out.append(sep)
            sep = "," + inner
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"object key {key!r} is not a string")
                out.append(encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
        out.append(newline + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


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


def _expect(value, kind: type, context: str, key: str):
    """value, which the field ``key`` must give as a list or a string."""
    if not isinstance(value, kind):
        raise ParseError(f"{context}: {key} must be a "
                         + ("list" if kind is list else "string"))
    return value


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


def _linear_json(m: MultilinearMap) -> list:
    """The dense rows of a linear map."""
    return _matrix_json(Matrix.from_columns(
        [m.value_on_basis((j,)) for j in range(m.source_dim)]))


def _parse_mul_entries(entries, basis: list[str], kind: str,
                       context: str) -> dict:
    """The product table {(i, j): {k: c}} of "mul" entries, a Lie bracket
    completed (``product_table``)."""
    index = {name: i for i, name in enumerate(basis)}
    products = {}
    for pos, entry in enumerate(_expect(entries, list, context, "mul")):
        where = f"{context}: mul[{pos}]"
        _require_keys(entry, ("left", "right", "value"), (), where)
        for key in ("left", "right"):
            if not isinstance(entry[key], str) or entry[key] not in index:
                raise ParseError(f"{where}: unknown basis name "
                                 f"{entry[key]!r} in {key}")
        i, j = index[entry["left"]], index[entry["right"]]
        if (i, j) in products:
            raise ParseError(f"{where}: duplicate product "
                             f"({entry['left']}, {entry['right']})")
        if not isinstance(entry["value"], dict):
            raise ParseError(f"{where}: value must be an object")
        product = products[i, j] = {}
        for name, lit in entry["value"].items():
            if name not in index:
                raise ParseError(f"{where}: unknown basis name {name!r}")
            product[index[name]] = rational_from_string(lit)
    if kind == LIE:
        for i, j in sorted(products):
            u, w = products[i, j], products.get((j, i))
            if w is not None and any(u.get(k, 0) != -w.get(k, 0)
                                     for k in {*u, *w}):
                raise ParseError(
                    f"{context}: products ({basis[i]},{basis[j]}) and "
                    f"({basis[j]},{basis[i]}) are not antisymmetric to each "
                    "other")
    return product_table(kind, products)


def parse_algebra(data, context: str = "algebra") -> HomAlgebra:
    _require_keys(data, ("name", "kind", "dim", "basis", "alpha", "mul"),
                  (), context)
    if data["kind"] not in (ASSOCIATIVE, LIE):
        raise ParseError(f"{context}: kind must be 'associative' or 'lie'")
    dim = data["dim"]
    if type(dim) is not int or dim < 1:
        raise ParseError(f"{context}: dim must be a positive integer")
    basis = data["basis"]
    if not isinstance(basis, list) or \
            not all(isinstance(name, str) for name in basis):
        raise ParseError(f"{context}: basis must be a list of name strings")
    if len(basis) != dim or len(set(basis)) != dim:
        raise ParseError(f"{context}: basis must list {dim} distinct names")
    alpha = _parse_matrix(data["alpha"], dim, dim, f"{context}: alpha")
    mul = product_tensor(data["kind"], dim, _parse_mul_entries(
        data["mul"], basis, data["kind"], context))
    return HomAlgebra(name=_expect(data["name"], str, context, "name"),
                      kind=data["kind"], dim=dim,
                      mul=mul, alpha=alpha, basis_names=tuple(basis))


def algebra_to_json(A: HomAlgebra) -> dict:
    return {"name": A.name, "kind": A.kind, "dim": A.dim,
            "basis": list(A.basis_names), "alpha": _matrix_json(A.alpha),
            "mul": _bilinear_term_json(A.sparse.mul, A)}


def _load_json(path: str):
    def unique(pairs):  # every object of the file, its keys each once
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ParseError(f"{path}: duplicate key {key!r}")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None


EITHER = "algebra or morphism"


def load(what: str, ref: str, base_dir: str = ""):
    """The ``what`` (algebra, morphism or deformation) that ``ref`` names:
    the JSON file at ``ref`` relative to ``base_dir`` (by default, and for
    a command-line argument, the working directory), else relative to the
    working directory, else the built-in fixture of that name.  For
    ``EITHER``, a file whose object has a ``matrix`` field or a built-in
    morphism name is a morphism, anything else an algebra."""
    for path in (os.path.join(base_dir, ref), ref):
        if os.path.isfile(path):
            data = _load_json(path)
            if what == EITHER:
                what = ("morphism" if isinstance(data, dict)
                        and "matrix" in data else "algebra")
            if what == "algebra":
                return parse_algebra(data, context=path)
            parse = parse_morphism if what == "morphism" else \
                parse_deformation
            return parse(data, os.path.dirname(path), context=path)
    # imported here, not at start-up: most commands name files
    from . import fixtures

    for kind in (("morphism", "algebra") if what == EITHER else (what,)):
        built = fixtures.builtin(kind, ref)
        if built is not None:
            return built
    raise ParseError(f"{what} reference {ref!r} is neither a file nor a "
                     "built-in fixture name")


def parse_morphism(data, base_dir: str = ".",
                   context: str = "morphism") -> HomMorphism:
    _require_keys(data, ("source", "target", "matrix"), (), context)
    source, target = (load("algebra", _expect(data[key], str, context, key),
                           base_dir)
                      for key in ("source", "target"))
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


def _parse_term_list(entries, order: int, field: str, parse_value,
                     context: str) -> dict[int, MultilinearMap]:
    """{degree: term} from entries {"degree": d, field: value}, each degree
    in 1..order and none repeated; parse_value(value, where) reads a term."""
    terms = {}
    for pos, entry in enumerate(entries):
        where = f"{context}[{pos}]"
        _require_keys(entry, ("degree", field), (), where)
        degree = entry["degree"]
        if type(degree) is not int or degree < 1 or degree > order:
            raise ParseError(f"{where}: degree must be in 1..{order}")
        if degree in terms:
            raise ParseError(f"{where}: duplicate degree {degree}")
        terms[degree] = parse_value(entry[field], where)
    return terms


def _bilinear_terms(entries, algebra: HomAlgebra, order: int,
                    context: str) -> dict[int, MultilinearMap]:
    """The "mul" terms of a deformation of algebra."""
    n = algebra.dim
    return _parse_term_list(entries, order, "mul", lambda mul, where: (
        MultilinearMap.from_sparse(2, n, n, _parse_mul_entries(
            mul, list(algebra.basis_names), algebra.kind, where))),
        context)


def parse_deformation(data, base_dir: str = ".", context: str = "deformation"):
    """Returns a MorphismDeformation when the file names a morphism, else a
    bare FormalDeformation of the named algebra."""
    _require_keys(data, ("order", "terms"),
                  ("morphism", "algebra", "phi_terms", "target_terms"),
                  context)
    order = data["order"]
    if type(order) is not int or order < 0:
        raise ParseError(f"{context}: order must be a non-negative integer")
    lists = {key: _expect(data.get(key, []), list, context, key)
             for key in ("terms", "target_terms", "phi_terms")}
    refs = {key: _expect(data[key], str, context, key)
            for key in ("morphism", "algebra") if key in data}
    if "morphism" in refs:
        phi = load("morphism", refs["morphism"], base_dir)
        if "algebra" in refs:
            declared = load("algebra", refs["algebra"], base_dir)
            if declared != phi.source:
                raise ParseError(f"{context}: algebra does not match the "
                                 "morphism's source")
        terms_a = _bilinear_terms(lists["terms"], phi.source, order,
                                  f"{context}: terms")
        terms_b = _bilinear_terms(lists["target_terms"], phi.target, order,
                                  f"{context}: target_terms")
        phi_terms = _parse_term_list(
            lists["phi_terms"], order, "matrix",
            lambda rows, where: MultilinearMap.from_matrix(_parse_matrix(
                rows, phi.target.dim, phi.source.dim, where)),
            f"{context}: phi_terms")
        return check_work_bound(MorphismDeformation.build(
            phi,
            FormalDeformation.from_terms(phi.source, order, terms_a),
            FormalDeformation.from_terms(phi.target, order, terms_b),
            phi_terms, order))
    if "algebra" not in refs:
        raise ParseError(f"{context}: needs either 'morphism' or 'algebra'")
    for key in ("phi_terms", "target_terms"):
        if key in data:
            raise ParseError(f"{context}: {key} requires a morphism")
    base = load("algebra", refs["algebra"], base_dir)
    terms = _bilinear_terms(lists["terms"], base, order, f"{context}: terms")
    return check_work_bound(FormalDeformation.from_terms(base, order, terms))


def base_reference(ref: str, d) -> str:
    """The reference to write into a file extending the deformation ``d``
    that the command-line argument ``ref`` names: the algebra or morphism
    that its file names, else the name of the built-in equal to ``d``'s
    base, else ``ref`` itself."""
    if os.path.isfile(ref):
        data = _load_json(ref)
        found = data.get("morphism") or data.get("algebra")
        if found:
            return found
    from . import fixtures

    what, base = (("morphism", d.phi) if isinstance(d, MorphismDeformation)
                  else ("algebra", d.base))
    return next((name for name, build in fixtures.BUILTINS[what].items()
                 if build() == base), ref)


def _bilinear_term_json(entries: dict, algebra: HomAlgebra) -> list:
    """The nonzero products {(i, j): {k: c}} in lexicographic order of
    (i, j), for the Lie kind only those with i <= j."""
    names = algebra.basis_names
    return [{"left": names[i], "right": names[j],
             "value": {names[k]: rational_to_string(c)
                       for k, c in v.items()}}
            for (i, j), v in sorted(entries.items())
            if algebra.kind != LIE or i <= j]


def _mul_terms_json(terms, algebra: HomAlgebra) -> list:
    """The {"degree": d, "mul": products} entries of bilinear terms."""
    return [{"degree": deg, "mul": _bilinear_term_json(t.entries, algebra)}
            for deg, t in terms]


def algebra_deformation_to_json(d: FormalDeformation, algebra_ref: str) -> dict:
    return {"algebra": algebra_ref, "order": d.order,
            "terms": _mul_terms_json(d.terms, d.base)}


def morphism_deformation_to_json(md: MorphismDeformation,
                                 morphism_ref: str) -> dict:
    out = {"morphism": morphism_ref, "order": md.order,
           "terms": _mul_terms_json(md.def_a.terms, md.phi.source)}
    if md.def_b.terms:
        out["target_terms"] = _mul_terms_json(md.def_b.terms, md.phi.target)
    if md.phi_terms:
        out["phi_terms"] = [{"degree": deg, "matrix": _linear_json(m)}
                            for deg, m in md.phi_terms]
    return out


def cochain_to_json(m: MultilinearMap, target_names=None) -> dict:
    names = (list(target_names) if target_names
             else [f"m{i + 1}" for i in range(m.target_dim)])
    entries = []
    for t, v in m.nonzero_entries():
        entries.append({"args": list(t),
                        "value": {names[k]: rational_to_string(c)
                                  for k, c in v.items()}})
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
            fh.write(json_text(payload) + "\n")
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
