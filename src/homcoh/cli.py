"""Command-line interface: validate, cohomology, morphism-cohomology,
deform, and selftest, with byte-stable JSON reports.

Exit codes: 0 success, 1 mathematical failure (invalid structure, not a
cocycle, no extension, failed selftest), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import files, fixtures
from .algebra import ASSOCIATIVE, validate
from .cochain import HOM, LIE
from .cohomology import (ComplexSummary, ModuleComplex, MorphismComplex,
                         compute_cohomology, connecting_complex)
from .deformation import (MorphismDeformation, algebra_obstruction,
                          check_algebra_deformation, check_morphism_deformation,
                          extend_deformation, infinitesimal_report, obstruction,
                          solve_obstruction)
from .errors import (HomcohError, NotACocycle, ObstructionMismatch, ParseError,
                     UsageError)
from .exact import rational_to_string
from .expectations import (compare_connecting_h1, compare_h2_self,
                           g1_parameters_from_name)
from .rep import HomMorphism, check_morphism
from .selftest import run_selftest

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_arg(ref: str, what: str):
    """The ``what`` (algebra, morphism or deformation) in the file ``ref``,
    else the built-in one of that name."""
    if os.path.isfile(ref):
        return getattr(files, f"load_{what}_file")(ref)
    built = getattr(fixtures, f"builtin_{what}")(ref)
    if built is None:
        raise ParseError(f"{ref!r}: no such file or built-in {what}")
    return built


def _witness_json(witness) -> object:
    if witness is None:
        return None
    where, defect = witness
    return {"at": list(where) if isinstance(where, tuple) else where,
            "defect": [rational_to_string(x) for x in defect]}


def _parse_degrees(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ParseError(f"bad degree range {text!r}") from None
        if lo_i > hi_i:
            raise ParseError(f"empty degree range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ParseError(f"bad degree {text!r}") from None


def _record_json(record, serialize) -> dict:
    return {"n": record.degree,
            "dim_C": record.dim_cochains,
            "dim_Z": record.dim_cocycles,
            "dim_B": record.dim_coboundaries,
            "dim_H": record.dim_cohomology,
            "representatives": [serialize(r)
                                for r in record.representatives]}


def cmd_validate(args) -> int:
    """Validate an algebra or a morphism, given as a file or a built-in
    name."""
    data = phi = None
    if os.path.isfile(args.input):
        data = files._load_json(args.input)
        if "matrix" in data:
            phi = files.parse_morphism(
                data, os.path.dirname(args.input) or ".", context=args.input)
    else:
        phi = fixtures.builtin_morphism(args.input)
    if phi is not None:
        report = check_morphism(phi.source, phi.target, phi.matrix)
        payload = {"command": "validate", "type": "morphism",
                   "source": phi.source.name, "target": phi.target.name,
                   "is_valid": report.is_valid,
                   "product_ok": report.product_ok,
                   "twist_ok": report.twist_ok,
                   "product_witness": _witness_json(report.product_witness),
                   "twist_witness": _witness_json(report.twist_witness)}
        _emit(payload, args.json,
              [f"morphism {phi.source.name} -> {phi.target.name}: "
               + report.describe()])
        return EXIT_OK if report.is_valid else EXIT_MATH
    A = files.parse_algebra(data, context=args.input) if data is not None \
        else _load_arg(args.input, "algebra")
    report = validate(A)
    payload = {"command": "validate", "type": "algebra", "name": A.name,
               "kind": A.kind, "is_valid": report.is_valid,
               "multiplicative": report.multiplicative,
               "witness": _witness_json(report.witness),
               "multiplicativity_witness":
                   _witness_json(report.multiplicativity_witness)}
    _emit(payload, args.json, [f"{A.name}: {report.describe()}"])
    return EXIT_OK if report.is_valid else EXIT_MATH


def _summary_payload(summary: ComplexSummary, target_names) -> dict:
    serialize = lambda m: files.cochain_to_json(m, target_names)
    return {"flavor": summary.flavor,
            "degrees": [_record_json(r, serialize)
                        for r in summary.records],
            "warnings": list(summary.warnings)}


def cmd_cohomology(args) -> int:
    A = _load_arg(args.input, "algebra")
    if args.lie and A.kind != "lie":
        raise ParseError(f"{A.name} is not a Lie-kind algebra")
    degrees = _parse_degrees(args.degree)
    report = validate(A)
    if not report.is_valid and not args.force:
        print(f"error: {A.name} is invalid ({report.describe()}); "
              "rerun with --force for a best-effort report", file=sys.stderr)
        return EXIT_MATH
    if args.values_in:
        phi = _load_arg(args.values_in, "morphism")
        if phi.source != A:
            raise ParseError("--values-in morphism source does not match "
                             "the given algebra")
        # built on A itself, so the check of A runs once
        complex_obj = connecting_complex(
            HomMorphism(A, phi.target, phi.matrix))
        target_names = phi.target.basis_names
    else:
        complex_obj = ModuleComplex(A)
        target_names = A.basis_names
    summary = compute_cohomology(complex_obj, degrees,
                                 include_degree_zero=args.degree0)
    payload = _summary_payload(summary, target_names)
    payload["command"] = "cohomology"
    payload["algebra"] = A.name
    lines = [f"{A.name} [{summary.flavor}]"]
    for rec in summary.records:
        lines.append(f"  degree {rec.degree}: dim C = {rec.dim_cochains}, "
                     f"dim Z = {rec.dim_cocycles}, dim B = "
                     f"{rec.dim_coboundaries}, dim H = {rec.dim_cohomology}")
    for w in summary.warnings:
        lines.append(f"  warning: {w}")
    if args.compare_paper:
        p1, p2 = g1_parameters_from_name(A.name)
        comparisons = compare_h2_self(A.name, summary, p1, p2)
        payload["comparisons"] = [c.to_json() for c in comparisons]
        for c in comparisons:
            lines.append(f"  {c.status}: {c.subject} {c.quantity}: "
                         f"expected {c.expected}, computed {c.computed}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_morphism_cohomology(args) -> int:
    phi = _load_arg(args.input, "morphism")
    degrees = _parse_degrees(args.degree)
    flavor = HOM if phi.source.kind == ASSOCIATIVE else LIE
    complex_obj = MorphismComplex(phi, flavor)
    coupled = compute_cohomology(complex_obj, degrees)
    payload = {"command": "morphism-cohomology",
               "source": phi.source.name, "target": phi.target.name,
               "flavor": coupled.flavor,
               "degrees": [], "warnings": list(coupled.warnings)}
    lines = [f"morphism {phi.source.name} -> {phi.target.name} "
             f"[{coupled.flavor}]"]
    comparisons = []
    summary_a = compute_cohomology(complex_obj.source, degrees)
    summary_b = compute_cohomology(complex_obj.target, degrees)
    connecting = compute_cohomology(
        complex_obj.connecting,
        set(degrees) | {n - 1 for n in degrees} - {0})
    for n in degrees:
        rec = coupled.record(n)
        conn_at_n = connecting.record(n)
        if n >= 2:
            conn_prev_h = connecting.record(n - 1).dim_cohomology
        else:
            conn_prev_h = phi.target.dim  # arity-0 convention: whole module
        component_sum = (summary_a.record(n).dim_cohomology
                         + summary_b.record(n).dim_cohomology + conn_prev_h)
        entry = {
            "n": n,
            "coupled": _record_json(
                rec, lambda c: files.morphism_cochain_to_json(c, phi)),
            "component_dim_H": {
                "source": summary_a.record(n).dim_cohomology,
                "target": summary_b.record(n).dim_cohomology,
                "connecting_previous_degree": conn_prev_h},
            "product_formula": {
                "coupled_dim_H": rec.dim_cohomology,
                "component_sum": component_sum,
                "agree": rec.dim_cohomology == component_sum},
            "connecting_component": _record_json(
                conn_at_n,
                lambda m: files.cochain_to_json(m, phi.target.basis_names))}
        payload["degrees"].append(entry)
        lines.append(f"  degree {n}: coupled dim H = {rec.dim_cohomology} "
                     f"(dim C = {rec.dim_cochains}, dim Z = "
                     f"{rec.dim_cocycles}, dim B = {rec.dim_coboundaries})")
        lines.append(f"    component sum = {component_sum} "
                     f"({'matches' if rec.dim_cohomology == component_sum else 'differs from'} "
                     "the coupled dimension)")
        lines.append(f"    connecting component at degree {n}: dim H = "
                     f"{conn_at_n.dim_cohomology}")
        if args.compare_paper:
            comparisons.extend(compare_connecting_h1(
                phi.source.name, phi.target.name,
                conn_at_n.dim_cohomology) if n == 1 else [])
    for w in coupled.warnings:
        lines.append(f"  warning: {w}")
    if args.compare_paper:
        payload["comparisons"] = [c.to_json() for c in comparisons]
        for c in comparisons:
            lines.append(f"  {c.status}: {c.subject} {c.quantity}: "
                         f"expected {c.expected}, computed {c.computed}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _order_record_json(rec) -> dict:
    out = {"order": rec.order}
    for field in ("algebra_a", "algebra_b", "morphism_eq", "twist_eq"):
        check = getattr(rec, field)
        if check is not None:
            out[field] = {"ok": check.ok,
                          "witness": _witness_json(check.witness)}
    return out


def _deform_check(target, args) -> int:
    up_to = args.to_order
    if isinstance(target, MorphismDeformation):
        report = check_morphism_deformation(target, up_to=up_to)
        families = {
            "source": report.family_ok("algebra_a"),
            "target": report.family_ok("algebra_b"),
            "morphism": report.family_ok("morphism_eq"),
            "twist": report.family_ok("twist_eq")}
    else:
        report = check_algebra_deformation(target, up_to=up_to)
        families = {"algebra": report.family_ok("algebra_a")}
    payload = {"command": "deform-check",
               "order": target.order,
               "overall_ok": report.overall_ok,
               "families": families,
               "orders": [_order_record_json(r) for r in report.orders]}
    lines = [f"deformation of order {target.order}: "
             + ("all checks pass" if report.overall_ok
                else "some checks fail")]
    for name, ok in sorted(families.items()):
        lines.append(f"  {name}: {'ok' if ok else 'FAIL'}")
    for rec in report.orders:
        if not rec.ok():
            bad = [f for f in ("algebra_a", "algebra_b", "morphism_eq",
                               "twist_eq")
                   if getattr(rec, f) is not None and not getattr(rec, f).ok]
            lines.append(f"  order {rec.order}: failing: {', '.join(bad)}")
    _emit(payload, args.json, lines)
    return EXIT_OK if report.overall_ok else EXIT_MATH


def _deform_infinitesimal(target, args) -> int:
    if not isinstance(target, MorphismDeformation):
        theta = target.term(1)
        ok = target.complex.delta(theta).is_zero()
        payload = {"command": "deform-infinitesimal", "kind": "algebra",
                   "is_cocycle": ok,
                   "term": files.cochain_to_json(theta,
                                                 target.base.basis_names)}
        _emit(payload, args.json,
              [f"infinitesimal is {'a' if ok else 'NOT a'} 2-cocycle"])
        return EXIT_OK if ok else EXIT_MATH
    theta, verdicts, warnings = infinitesimal_report(target)
    degraded_ok = all(
        verdicts[slot] or not validate(alg).is_valid
        for slot, alg in (("source", target.phi.source),
                          ("target", target.phi.target))) and \
        verdicts["morphism"]
    payload = {"command": "deform-infinitesimal", "kind": "morphism",
               "slot_cocycle": verdicts, "warnings": warnings,
               "is_cocycle": degraded_ok,
               "cochain": files.morphism_cochain_to_json(theta, target.phi)}
    lines = [f"infinitesimal slots: source={'ok' if verdicts['source'] else 'FAIL'}, "
             f"target={'ok' if verdicts['target'] else 'FAIL'}, "
             f"connecting={'ok' if verdicts['morphism'] else 'FAIL'}"]
    lines.extend(f"warning: {w}" for w in warnings)
    _emit(payload, args.json, lines)
    return EXIT_OK if degraded_ok else EXIT_MATH


def _deform_obstruction(target, args) -> int:
    morphism = isinstance(target, MorphismDeformation)
    ob = obstruction(target) if morphism else algebra_obstruction(target)
    coboundary = solve_obstruction(target, ob) is not None
    if not morphism:
        image_zero = target.complex.delta(ob).is_zero()
        payload = {"command": "deform-obstruction", "kind": "algebra",
                   "is_cocycle": image_zero,
                   "is_coboundary": coboundary,
                   "cochain": files.cochain_to_json(ob,
                                                    target.base.basis_names)}
        _emit(payload, args.json,
              [f"obstruction: 3-cocycle={'yes' if image_zero else 'NO'}, "
               f"coboundary={'yes' if coboundary else 'no'}"])
        return EXIT_OK if image_zero else EXIT_MATH
    payload = {"command": "deform-obstruction", "kind": "morphism",
               "is_cocycle": True,
               "is_coboundary": coboundary,
               "cochain": files.morphism_cochain_to_json(ob, target.phi)}
    _emit(payload, args.json,
          ["obstruction verified as a 3-cocycle; coboundary="
           + ("yes (extension exists)" if coboundary else "no")])
    return EXIT_OK


def _deformation_base_ref(input_ref: str, target) -> str:
    """Reference string to embed in emitted deformation JSON."""
    if os.path.isfile(input_ref):
        data = files._load_json(input_ref)
        ref = data.get("morphism") or data.get("algebra")
        if ref:
            return ref
    if isinstance(target, MorphismDeformation):
        for name, builder in fixtures.BUILTIN_MORPHISMS.items():
            if builder() == target.phi:
                return name
    else:
        for name, builder in fixtures.BUILTIN_FIXTURES.items():
            if builder() == target.base:
                return name
    return input_ref


def _deform_extend(target, args) -> int:
    goal = args.to_order if args.to_order is not None else target.order + 1
    current = target
    ref = _deformation_base_ref(args.input, target)
    while current.order < goal:
        nxt = extend_deformation(current)
        if nxt is None:
            payload = {"command": "deform-extend", "extended": False,
                       "reached_order": current.order,
                       "requested_order": goal}
            _emit(payload, args.json,
                  [f"no extension: obstruction at order {current.order} "
                   "is not a coboundary"])
            return EXIT_MATH
        current = nxt
    if isinstance(current, MorphismDeformation):
        body = files.morphism_deformation_to_json(current, ref)
    else:
        body = files.algebra_deformation_to_json(current, ref)
    payload = {"command": "deform-extend", "extended": True,
               "reached_order": current.order, "deformation": body}
    _emit(payload, args.json,
          [f"extended to order {current.order}; re-verified",
           json.dumps(body, indent=2, sort_keys=True)])
    return EXIT_OK


def cmd_deform(args) -> int:
    target = _load_arg(args.input, "deformation")
    n = args.to_order
    if n is not None:
        if args.action in ("infinitesimal", "obstruction"):
            raise ParseError(f"--to-order {n}: deform {args.action} takes "
                             "no order")
        least = 0 if args.action == "check" else target.order + 1
        if n < least:
            raise ParseError(f"--to-order {n}: must be at least {least} "
                             f"for deform {args.action} of this deformation")
    if args.action == "check":
        return _deform_check(target, args)
    if args.action == "infinitesimal":
        return _deform_infinitesimal(target, args)
    if args.action == "obstruction":
        return _deform_obstruction(target, args)
    return _deform_extend(target, args)


def cmd_selftest(args) -> int:
    result = run_selftest(fast=args.fast)
    payload = {"command": "selftest", **result}
    lines = []
    for suite in result["suites"]:
        status = "ok" if suite["ok"] else "FAIL"
        lines.append(f"{suite['name']}: {status} ({suite['checks']} checks)")
        lines.extend(f"  {msg}" for msg in suite["failures"])
    lines.append("selftest: " + ("ok" if result["ok"] else "FAILED"))
    _emit(payload, args.json, lines)
    return EXIT_OK if result["ok"] else EXIT_MATH


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; parsing leaves it unchanged, so one serves."""
    parser = argparse.ArgumentParser(
        prog="homcoh",
        description="Exact cohomology and deformation calculator for "
                    "Hom-associative and Hom-Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining identities")
    p.add_argument("input", help="algebra/morphism file or built-in name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="self- or module-valued cohomology")
    p.add_argument("input", help="algebra file or built-in name")
    p.add_argument("--degree", required=True, metavar="A..B",
                   help="degree or inclusive degree range")
    p.add_argument("--values-in", metavar="MORPHISM",
                   help="coefficients in the adjoint module through this "
                        "morphism (the algebra must be its source)")
    p.add_argument("--lie", action="store_true",
                   help="assert that the input is Lie-kind")
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="proceed on invalid input (best-effort report)")
    p.add_argument("--compare-paper", action="store_true",
                   help="compare against shipped reference values")
    p.add_argument("--degree0", action="store_true",
                   help="include the optional arity-0 coboundary")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("morphism-cohomology",
                       help="coupled cohomology of a morphism")
    p.add_argument("input", help="morphism file or built-in name")
    p.add_argument("--degree", required=True, metavar="N")
    p.add_argument("--json", action="store_true")
    p.add_argument("--compare-paper", action="store_true")
    p.set_defaults(func=cmd_morphism_cohomology)

    p = sub.add_parser("deform", help="deformation checks and extensions")
    p.add_argument("action",
                   choices=("check", "infinitesimal", "obstruction", "extend"))
    p.add_argument("input", help="deformation file or built-in name")
    p.add_argument("--to-order", type=int, default=None,
                   help="check up to this order / extend to this order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fast", action="store_true",
                   help="reduced trial counts")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotACocycle, ObstructionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except UsageError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HomcohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
