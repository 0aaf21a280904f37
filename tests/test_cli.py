import json
import os
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest

from homcoh import (algebra, cli, cohomology, deformation, files, fixtures,
                    operator)
from homcoh.algebra import HomAlgebra
from homcoh.cli import build_parser, main
from homcoh.cochain import Coords
from homcoh.errors import UsageError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_valid_algebra(capsys):
    code, out, _ = run(capsys, "validate", "a3")
    assert code == 0
    assert "valid" in out


def test_validate_invalid_algebra_exit_one(capsys):
    code, out, _ = run(capsys, "validate", "g2")
    assert code == 1
    assert "f1, f2, f3" in out
    assert "1, -4, -1" in out


def test_validate_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, message in (('{"name": "x"}', "missing field"),
                          ("5", "expected an object"),
                          ("null", "expected an object")):
        bad.write_text(text)
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert message in err


def test_validate_refuses_a_key_given_twice(tmp_path, capsys):
    """A key repeated in any object of a file (the top level, a mul
    entry, a value map) is an input error (exit 2) that names the file and
    the key, whichever of the values would have won."""
    files.write_builtin_files(str(tmp_path))
    text = (tmp_path / "b2.json").read_text()
    path = tmp_path / "dup.json"
    for old, new, key in (
            ('"alpha": [', '"alpha": [["1", "0"], ["0", "1"]], "alpha": [',
             "alpha"),
            ('"left": "f1",', '"left": "f2", "left": "f1",', "left"),
            ('"f1": "1"', '"f1": "1", "f1": "2"', "f1")):
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: duplicate key {key!r}\n"


def test_validate_names_a_basis_of_non_strings(tmp_path, capsys):
    """A basis entry that is not a string is an input error (exit 2) that
    names the basis, whether or not it could be hashed."""
    path = tmp_path / "a3.json"
    files.write_builtin_files(str(tmp_path))
    data = json.loads(path.read_text())
    for basis in ([[name] for name in data["basis"]],
                  list(range(1, len(data["basis"]) + 1))):
        path.write_text(json.dumps({**data, "basis": basis}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "basis must be a list of name strings" in err


def test_validate_missing_input_exit_two(capsys):
    code, _, err = run(capsys, "validate", "nonexistent-thing")
    assert code == 2


def test_validate_morphism_file(tmp_path, capsys):
    files.write_builtin_files(str(tmp_path))
    code, out, _ = run(capsys, "validate", str(tmp_path / "phi_assoc.json"))
    assert code == 0
    assert "product equation holds" in out


def test_validate_builtin_morphism_name_matches_file(tmp_path, capsys):
    files.write_builtin_files(str(tmp_path))
    by_name = run(capsys, "validate", "phi12_2", "--json")
    by_file = run(capsys, "validate", str(tmp_path / "phi12_2.json"), "--json")
    assert by_name[0] in (0, 1)
    assert by_name[:2] == by_file[:2]
    assert json.loads(by_name[1])["type"] == "morphism"


def test_mixed_kind_morphism_file_is_an_input_error(tmp_path, capsys):
    files.write_builtin_files(str(tmp_path))
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"source": "a3.json", "target": "g1_2_3.json",
                                "matrix": [["0"] * 3] * 3}))
    for argv in (["validate", str(path)],
                 ["morphism-cohomology", str(path), "--degree", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "associative-kind" in err and "lie-kind" in err


def test_a_reference_resolves_next_to_its_file_then_in_cwd_then_builtin(
        tmp_path, monkeypatch, capsys):
    # one rule for a reference inside a file and for a command-line argument
    a3 = files.algebra_to_json(fixtures.builtin("algebra", "a3"))
    sub = tmp_path / "sub"
    sub.mkdir()
    for where, name in ((sub, "next_to_file"), (tmp_path, "in_cwd")):
        (where / "a3.json").write_text(json.dumps({**a3, "name": name}))
    monkeypatch.chdir(tmp_path)

    def validated(ref, field):
        code, out, err = run(capsys, "validate", ref, "--json")
        return json.loads(out)[field] if code == 0 else (code, err)

    def source_of(ref):
        (sub / "m.json").write_text(json.dumps({
            "source": ref, "target": "b2",
            "matrix": [["1", "1", "0"], ["-1", "-1", "0"]]}))
        return validated("sub/m.json", "source")

    assert source_of("a3.json") == "next_to_file"
    assert validated("a3.json", "name") == "in_cwd"
    (sub / "a3.json").unlink()
    assert source_of("a3.json") == "in_cwd"
    builtin = fixtures.builtin("algebra", "a3").name
    assert source_of("a3") == validated("a3", "name") == builtin
    for code, err in (source_of("missing"), validated("missing", "name")):
        assert code == 2 and "'missing'" in err


MALFORMED_FIELDS = [
    ("a3", ("name",), {"x": 1}, ["validate", "{}"]),
    ("a3", ("mul",), 5, ["validate", "{}"]),
    ("a3", ("mul",), 5, ["cohomology", "{}", "--degree", "1"]),
    ("a3", ("mul", 0, "left"), ["e1"], ["validate", "{}"]),
    ("def_g1", ("terms", 0, "mul"), 5, ["deform", "check", "{}"]),
    ("def_g1", ("terms",), 5, ["deform", "check", "{}"]),
    ("mdef_2", ("target_terms",), 5, ["deform", "check", "{}"]),
    ("mdef_2", ("phi_terms",), 5, ["deform", "check", "{}"]),
    ("phi_assoc", ("source",), ["x"], ["validate", "{}"]),
    ("phi_assoc", ("target",), ["x"],
     ["cohomology", "a3", "--degree", "1", "--values-in", "{}"]),
    ("def_g1", ("algebra",), ["x"], ["deform", "check", "{}"]),
    ("mdef_2", ("morphism",), ["x"], ["deform", "check", "{}"])]


@pytest.mark.parametrize(
    "name, path, value, argv", MALFORMED_FIELDS,
    ids=[f"{name}.{'.'.join(map(str, path))}-{argv[0]}"
         for name, path, _, argv in MALFORMED_FIELDS])
def test_malformed_fields_are_input_errors(tmp_path, capsys, name, path,
                                           value, argv):
    files.write_builtin_files(str(tmp_path))
    data = json.loads((tmp_path / f"{name}.json").read_text())
    slot = data
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, *(a.format(bad) for a in argv))
    assert (code, out) == (2, "")
    assert path[-1] in err


def test_malformed_max_arity_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("HOMCOH_MAX_ARITY", "four")
    code, _, err = run(capsys, "cohomology", "b2", "--degree", "2")
    assert code == 2
    assert "'four'" in err


def test_cohomology_command_dims(capsys):
    code, out, _ = run(capsys, "cohomology", "b2", "--degree", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    rec = payload["degrees"][0]
    assert (rec["dim_Z"], rec["dim_B"], rec["dim_H"]) == (3, 2, 1)
    assert payload["flavor"] == "hom_self"


def test_cohomology_rejects_invalid_without_force(capsys):
    code, _, err = run(capsys, "cohomology", "g2", "--degree", "2")
    assert code == 1
    assert "--force" in err
    code, out, _ = run(capsys, "cohomology", "g2", "--degree", "2", "--force",
                       "--json")
    assert code == 0
    assert json.loads(out)["warnings"]


def test_cohomology_degree_range(capsys):
    code, out, _ = run(capsys, "cohomology", "a3", "--degree", "1..2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert [d["n"] for d in payload["degrees"]] == [1, 2]


def test_cohomology_lie_flag_mismatch(capsys):
    code, _, err = run(capsys, "cohomology", "a3", "--degree", "2", "--lie")
    assert code == 2


def test_cohomology_values_in_morphism(tmp_path, capsys):
    files.write_builtin_files(str(tmp_path))
    code, out, _ = run(capsys, "cohomology", str(tmp_path / "g1_2_0.json"),
                       "--degree", "1", "--values-in",
                       str(tmp_path / "phi12_2.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"][0]["dim_H"] == 2


def test_cohomology_compare_reports_table_finding(capsys):
    code, out, _ = run(capsys, "cohomology", "g1_0_1", "--degree", "2",
                       "--json", "--compare-paper")
    assert code == 0
    payload = json.loads(out)
    comp = payload["comparisons"][0]
    assert comp["expected"] == 4
    assert comp["status"] in ("PASS", "FINDING")
    code, out, _ = run(capsys, "cohomology", "g1_2_3", "--degree", "2",
                       "--json", "--compare-paper")
    comp = json.loads(out)["comparisons"][0]
    assert comp["expected"] == 0 and comp["status"] == "PASS"


def test_morphism_cohomology_compare(capsys):
    code, out, _ = run(capsys, "morphism-cohomology", "phi12_2",
                       "--degree", "1", "--json", "--compare-paper")
    assert code == 0
    payload = json.loads(out)
    entry = payload["degrees"][0]
    assert entry["connecting_component"]["dim_H"] == 2
    statuses = {c["status"] for c in payload["comparisons"]}
    assert statuses == {"PASS"}


def test_cohomology_compare_pins_the_published_cocycle_counts(capsys):
    code, out, _ = run(capsys, "cohomology", "b2", "--degree", "2",
                       "--json", "--compare-paper")
    assert code == 0
    assert [(c["quantity"], c["expected"], c["computed"], c["status"])
            for c in json.loads(out)["comparisons"]] == [
        ("dim H^2", 1, 1, "PASS"), ("dim Z^2", 3, 3, "PASS"),
        ("dim B^2", 2, 2, "PASS")]


TEXT_REPORTS = {
    ("cohomology", "a3", "--degree", "1..3"): [
        "assoc3(a=1,b=2) [hom_self]",
        "  degree 1: dim C = 9, dim Z = 1, dim B = 0, dim H = 1",
        "  degree 2: dim C = 27, dim Z = 4, dim B = 4, dim H = 0",
        "  degree 3: dim C = 81, dim Z = 8, dim B = 8, dim H = 0"],
    ("cohomology", "g1_0_1", "--degree", "2", "--compare-paper"): [
        "g1(p1=0,p2=1) [lie_self]",
        "  degree 2: dim C = 6, dim Z = 5, dim B = 2, dim H = 3",
        "  FINDING: g1(p1=0,p2=1) dim H^2: expected 4, computed 3"],
    ("morphism-cohomology", "phi_assoc", "--degree", "1..2"): [
        "morphism assoc3(a=1,b=2) -> assoc2 [morphism_hom]",
        "  degree 1: coupled dim H = 3 (dim C = 15, dim Z = 3, dim B = 0)",
        "    component sum = 3 (matches the coupled dimension)",
        "    connecting component at degree 1: dim H = 0",
        "  degree 2: coupled dim H = 1 (dim C = 41, dim Z = 7, dim B = 6)",
        "    component sum = 1 (matches the coupled dimension)",
        "    connecting component at degree 2: dim H = 3"],
    ("morphism-cohomology", "phi12_2", "--degree", "1", "--compare-paper"): [
        "morphism g1(p1=2,p2=0) -> g2 [morphism_lie]",
        "  degree 1: coupled dim H = 5 (dim C = 13, dim Z = 5, dim B = 0)",
        "    component sum = 6 (differs from the coupled dimension)",
        "    connecting component at degree 1: dim H = 2",
        "  warning: g2: invalid lie structure: defect at (f1, f2, f3) = "
        "(1, -4, -1); twist is NOT multiplicative",
        "  PASS: g1(p1=2,p2=0) -> g2 dim H^1 of the connecting component: "
        "expected 2, computed 2"],
}


@pytest.mark.parametrize("argv", TEXT_REPORTS, ids=" ".join)
def test_text_reports_serialize_no_representative(argv, monkeypatch,
                                                  capsys):
    # text mode prints dimensions only, so it builds no JSON payload
    def refuse(*args):
        raise AssertionError("text mode serialized a representative")

    for name in ("cochain_to_json", "morphism_cochain_to_json"):
        monkeypatch.setattr(files, name, refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == TEXT_REPORTS[argv]


def test_deform_check_exit_codes(capsys):
    code, out, _ = run(capsys, "deform", "check", "def_g1", "--json")
    assert code == 0
    assert json.loads(out)["overall_ok"]
    code, out, _ = run(capsys, "deform", "check", "mdef_2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["families"]["source"]
    assert payload["families"]["morphism"]
    assert payload["families"]["twist"]
    assert not payload["families"]["target"]


def test_deform_infinitesimal(capsys):
    code, out, _ = run(capsys, "deform", "infinitesimal", "mdef_2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["slot_cocycle"]["source"]
    assert not payload["slot_cocycle"]["target"]


def test_deform_obstruction_and_extend(capsys):
    code, out, _ = run(capsys, "deform", "obstruction", "def_g1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_cocycle"] and payload["is_coboundary"]

    code, out, _ = run(capsys, "deform", "extend", "def_g1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["extended"] and payload["reached_order"] == 2
    # emitted deformation JSON re-parses
    emitted = payload["deformation"]
    parsed = files.parse_deformation(emitted, base_dir=".")
    assert parsed.order == 2


def test_deform_extend_to_order(capsys):
    code, out, _ = run(capsys, "deform", "extend", "def_g1",
                       "--to-order", "3", "--json")
    assert code == 0
    assert json.loads(out)["reached_order"] == 3


def test_deform_extend_over_an_empty_compatible_space(tmp_path, capsys):
    # abelian, twist diag(2, 3): its twist-compatible 2-cochains are all zero
    (tmp_path / "ab2.json").write_text(json.dumps({
        "name": "ab2", "kind": "lie", "dim": 2, "basis": ["e1", "e2"],
        "alpha": [["2", "0"], ["0", "3"]], "mul": []}))
    path = tmp_path / "ab2_def.json"
    path.write_text(json.dumps({"algebra": "ab2.json", "order": 1,
                                "terms": []}))
    for extra, reached in (((), 2), (("--to-order", "3"), 3)):
        code, out, _ = run(capsys, "deform", "extend", str(path), *extra,
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reached_order"] == reached
        assert payload["deformation"] == {"algebra": "ab2.json",
                                          "order": reached, "terms": []}


def test_deform_extend_stops_where_the_obstruction_is_no_coboundary(
        tmp_path, capsys):
    # l4b_e1 deformed by the second representative of its H^2
    path = tmp_path / "l4b_e1_def.json"
    path.write_text(json.dumps({"algebra": "l4b_e1", "order": 1, "terms": [
        {"degree": 1, "mul": [
            {"left": "f1", "right": "f2", "value": {"f2": "-1"}},
            {"left": "f1", "right": "f3",
             "value": {"f2": "-1/2", "f4": "3/2"}},
            {"left": "f1", "right": "f4", "value": {"f4": "-1"}},
            {"left": "f2", "right": "f3", "value": {"f2": "1"}},
            {"left": "f3", "right": "f4", "value": {"f4": "1"}}]}]}))
    code, out, _ = run(capsys, "deform", "extend", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"command": "deform-extend", "extended": False,
                               "reached_order": 1, "requested_order": 2}
    code, out, _ = run(capsys, "deform", "obstruction", str(path), "--json")
    assert code == 0 and json.loads(out)["is_coboundary"] is False


# A deformation of phi12_1 whose every extension adds a morphism term.
GROWING = {"morphism": "phi12_1", "order": 1, "terms": [], "target_terms": [
    {"degree": 1, "mul": [
        {"left": "f1", "right": "f2", "value": {"f2": "2"}},
        {"left": "f1", "right": "f3", "value": {"f2": "1"}}]}],
    "phi_terms": [{"degree": 1, "matrix": [["0", "0", "0"], ["-1", "0", "0"],
                                           ["0", "1", "0"]]}]}


def _growing_file(tmp_path) -> str:
    path = tmp_path / "growing.json"
    path.write_text(json.dumps(GROWING))
    return str(path)


def test_deform_extend_adds_a_morphism_term(tmp_path, capsys):
    code, out, _ = run(capsys, "deform", "extend", _growing_file(tmp_path),
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["extended"] and payload["reached_order"] == 2
    assert [t["degree"] for t in payload["deformation"]["phi_terms"]] == \
        [1, 2]


def test_deform_obstruction_computes_the_obstruction_once(capsys,
                                                          monkeypatch):
    calls = []
    real = deformation.obstruction

    def counted(md):
        calls.append(md.order)
        return real(md)

    for module in (cli, deformation):
        monkeypatch.setattr(module, "obstruction", counted)
    code, out, _ = run(capsys, "deform", "obstruction", "mdef_2", "--json")
    assert code == 0
    assert json.loads(out)["is_coboundary"]
    assert calls == [1]


def test_each_extension_reuses_the_complex_it_extends(capsys,
                                                      monkeypatch):
    # the base (or morphism and flavor) of a deformation does not change
    # as it is extended, so each operator is compiled once per command
    counts = {}

    def counted(name, real):
        def wrapper(*args, **kw):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kw)
        return wrapper

    for name in ("hom_operator", "hom_delta", "lie_operator",
                 "morphism_delta"):
        real = getattr(operator, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("homcoh.") and \
                    getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    code, _, _ = run(capsys, "deform", "extend", "mdef_2", "--to-order", "5",
                     "--json")
    assert code == 0
    assert counts == {"lie_operator": 6, "morphism_delta": 2}
    counts.clear()
    code, _, _ = run(capsys, "deform", "extend", "def_g1", "--to-order", "6")
    assert code == 0
    assert counts == {"lie_operator": 1}


def test_selftest_fast_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--fast", "--json")
    code2, out2, _ = run(capsys, "selftest", "--fast", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "cohomology", "b2", "--degree", "1..2", "--json")
    _, out2, _ = run(capsys, "cohomology", "b2", "--degree", "1..2", "--json")
    assert out1 == out2


def test_each_algebra_is_validated_once_per_command(monkeypatch, capsys):
    real = HomAlgebra.validity.func
    checked = []

    def counting(self):
        checked.append(self.name)
        return real(self)
    validity = cached_property(counting)
    validity.__set_name__(HomAlgebra, "validity")
    monkeypatch.setattr(HomAlgebra, "validity", validity)
    assert main(["cohomology", "a3", "--degree", "1..3", "--json"]) == 0
    assert checked == [fixtures.builtin("algebra", "a3").name]
    checked.clear()
    assert main(["cohomology", "a3", "--degree", "1..3", "--values-in",
                 "phi_assoc"]) == 0
    assert checked == [fixtures.builtin("algebra", "a3").name]
    checked.clear()
    assert main(["morphism-cohomology", "phi12_2", "--degree", "1..2"]) == 0
    phi = fixtures.builtin("morphism", "phi12_2")
    assert sorted(checked) == sorted([phi.source.name, phi.target.name])


def test_every_degree_is_checked_before_any_coboundary_is_compiled(
        monkeypatch, capsys):
    """Under HOMCOH_MAX_ARITY=2, degree 3 of 1..3 is an input error before
    the coboundaries of degrees 1 and 2 are compiled."""
    compiled = []
    hom_delta = cohomology.hom_delta

    def spy(A, left, right, d, n):
        compiled.append(n)
        return hom_delta(A, left, right, d, n)
    monkeypatch.setattr(cohomology, "hom_delta", spy)
    monkeypatch.setenv("HOMCOH_MAX_ARITY", "2")
    code, out, err = run(capsys, "cohomology", "a3", "--degree", "1..3")
    assert code == 2 and out == ""
    assert "arity 3 exceeds limit 2" in err
    assert compiled == []
    code, _, _ = run(capsys, "cohomology", "a3", "--degree", "1..2")
    assert code == 0 and compiled == [1, 2]


def test_morphism_cohomology_builds_only_the_maps_it_prints(monkeypatch,
                                                            capsys):
    """The source and target summaries are read for dim H only, so no
    representative of theirs becomes a map; text output prints none."""
    built = []
    to_full = Coords.to_full

    def counted(self, x):
        built.append(self)
        return to_full(self, x)
    monkeypatch.setattr(Coords, "to_full", counted)
    code, out, _ = run(capsys, "morphism-cohomology", "phi_assoc",
                       "--degree", "1..2", "--json")
    assert code == 0
    degrees = json.loads(out)["degrees"]
    coupled = sum(len(d["coupled"]["representatives"]) for d in degrees)
    connecting = sum(len(d["connecting_component"]["representatives"])
                     for d in degrees)
    assert (coupled, connecting) == (4, 3)
    # a coupled representative is three maps, a connecting one is one
    assert len(built) == 3 * coupled + connecting
    built.clear()
    code, _, _ = run(capsys, "morphism-cohomology", "phi_assoc", "--degree",
                     "1..2")
    assert code == 0 and built == []


def test_deform_check_rejects_a_negative_order(capsys):
    code, out, err = run(capsys, "deform", "check", "mdef_2", "--to-order",
                         "-1")
    assert code == 2
    assert "--to-order -1" in err and out == ""


def test_deform_extend_rejects_an_order_it_has_reached(capsys):
    for order in ("0", "1"):
        code, out, err = run(capsys, "deform", "extend", "mdef_2",
                             "--to-order", order)
        assert code == 2
        assert f"--to-order {order}" in err and out == ""


def test_deform_infinitesimal_rejects_an_order(capsys):
    code, out, err = run(capsys, "deform", "infinitesimal", "mdef_2",
                         "--to-order", "5")
    assert code == 2
    assert "--to-order 5" in err and out == ""


def test_deform_obstruction_rejects_an_order(capsys):
    code, out, err = run(capsys, "deform", "obstruction", "def_g1",
                         "--to-order", "5")
    assert code == 2
    assert "--to-order 5" in err and out == ""


def _refuse_deformation_work(monkeypatch):
    """Make every order check and obstruction raise, where the deformation
    module defines them and where the command line imports them."""
    def refuse(*args, **kwargs):
        raise AssertionError("an order was checked or obstructed")
    for owner, name in ((deformation, "_algebra_order_defect"),
                        (deformation, "_morphism_order_defect"),
                        (deformation, "obstruction"),
                        (deformation, "algebra_obstruction"),
                        (cli, "obstruction"), (cli, "algebra_obstruction")):
        monkeypatch.setattr(owner, name, refuse)


def test_deformation_orders_are_bounded_before_any_work(monkeypatch,
                                                        tmp_path, capsys):
    _refuse_deformation_work(monkeypatch)
    big = tmp_path / "big.json"
    big.write_text('{"algebra": "g1_2_0", "order": 20000, "terms": []}')
    runs = [(("deform", action, str(big)), "order 20000")
            for action in ("check", "infinitesimal", "obstruction", "extend")]
    runs += [(("deform", action, name, "--to-order", str(10 ** 9)),
              f"--to-order {10 ** 9}")
             for action in ("check", "extend") for name in ("mdef_2", "def_g1")]
    for argv, value in runs:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{value} exceeds the bound {deformation.MAX_ORDER}" in err
    bound = deformation.MAX_ORDER
    A = fixtures.builtin("algebra", "g1_2_0")
    assert deformation.FormalDeformation.from_terms(A, bound, {}).order \
        == bound
    with pytest.raises(UsageError, match=f"order {bound + 1}"):
        deformation.FormalDeformation.from_terms(A, bound + 1, {})
    with pytest.raises(UsageError, match=f"order {bound + 1}"):
        deformation.extend_deformation(fixtures.def_g1(), bound + 1)


def _every_degree_file(tmp_path, n: int) -> str:
    """mdef_2 with its order-1 source, target and morphism terms repeated
    at every degree 1..n."""
    data = files.morphism_deformation_to_json(fixtures.mdef_2(), "phi12_2")
    data["order"] = n
    for key in ("terms", "target_terms", "phi_terms"):
        data[key] = [dict(data[key][0], degree=k) for k in range(1, n + 1)]
    path = tmp_path / f"every_{n}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_deformation_check_work_is_bounded_while_parsed(monkeypatch,
                                                        tmp_path, capsys):
    _refuse_deformation_work(monkeypatch)

    def refuse(*args):
        raise AssertionError("an order was checked")
    monkeypatch.setattr(deformation, "order_record", refuse)
    # 201 nonzero coefficients per series: 3 * 201^2 + 201^3 tuples
    big = _every_degree_file(tmp_path, 200)
    for action in ("check", "infinitesimal", "obstruction", "extend"):
        code, out, err = run(capsys, "deform", action, big)
        assert code == 2 and out == ""
        assert ("walks 8241804 coefficient tuples, over the bound "
                f"{deformation.MAX_CHECK_TUPLES}") in err
    # 3 * 101^2 + 101^3 = 1060904 tuples are admitted
    admitted = files.load("deformation", _every_degree_file(tmp_path, 100))
    assert admitted.order == 100 and len(admitted.phi_series) == 101


def test_an_extension_is_bounded_where_it_is_checked(monkeypatch,
                                                     tmp_path):
    """The check work of GROWING grows with each order it is extended by.
    The bound holds where a file is read and where every order is checked,
    never at an order that an extension reaches."""
    monkeypatch.setattr(deformation, "MAX_CHECK_TUPLES", 60)
    extended = deformation.extend_deformation(
        files.load("deformation", _growing_file(tmp_path)), 8)
    assert extended.order == 8
    assert [d for d, _ in extended.phi_terms] == list(range(1, 9))
    with pytest.raises(UsageError, match="coefficient tuples, over the "
                                         "bound 60"):
        deformation.check_morphism_deformation(extended)


def _abelian_file(tmp_path, dim: int) -> str:
    """An abelian Lie algebra file of that dim, with identity twist."""
    path = tmp_path / f"abelian{dim}.json"
    path.write_text(json.dumps({
        "name": f"abelian{dim}", "kind": "lie", "dim": dim,
        "basis": [f"e{i + 1}" for i in range(dim)], "mul": [],
        "alpha": [["1" if i == j else "0" for j in range(dim)]
                  for i in range(dim)]}))
    return str(path)


def test_a_file_dim_is_bounded_before_its_tensor_is_built(monkeypatch,
                                                          tmp_path, capsys):
    """A dim-n algebra has n^3 structure constants; a file over the bound
    is an input error that names both, raised by ``product_tensor`` before
    it allocates anything (the bound is lowered here, so small files show
    it)."""
    monkeypatch.setattr(algebra, "MAX_TENSOR_ENTRIES", 27)
    code, out, err = run(capsys, "validate", _abelian_file(tmp_path, 4))
    assert code == 2 and out == ""
    assert "dim 4 needs 64 structure constants, over the bound 27" in err
    code, out, _ = run(capsys, "validate", _abelian_file(tmp_path, 3))
    assert code == 0 and "valid lie structure" in out


@pytest.mark.parametrize("command", ["cohomology", "morphism-cohomology"])
def test_a_degree_range_is_guarded_before_it_is_built(capsys, command):
    source = "a3" if command == "cohomology" else "phi_assoc"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, source, "--degree",
                             "1..3000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert code == 2 and out == ""
    assert "arity 3000000 exceeds limit" in err


def test_a_shared_parser_answers_as_a_fresh_process(capsys):
    argv = ["cohomology", "b2", "--degree", "1..2", "--json"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent
                                           / "src")}
    fresh = subprocess.run([sys.executable, "-m", "homcoh", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert fresh.returncode == 0
    run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:  # argparse: no --degree
        main(["cohomology", "b2"])
    assert exc.value.code == 2
    assert "--degree" in capsys.readouterr().err
    assert run(capsys, *argv)[:2] == (fresh.returncode, fresh.stdout)
    assert build_parser() is build_parser()


def _modules_after_importing_the_cli() -> list[str]:
    """The modules a fresh interpreter holds after ``import homcoh.cli``,
    without the ``site`` step, so only the package's own imports count."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent
                                           / "src")}
    probe = "import sys, homcoh.cli; print(*sorted(sys.modules))"
    fresh = subprocess.run([sys.executable, "-S", "-c", probe],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    return fresh.stdout.split()


def test_importing_the_cli_loads_only_the_engine():
    """A fresh ``import homcoh.cli`` loads no ``selftest``, no
    ``expectations`` and no ``fixtures``: what uses them imports them.  It
    does load ``deformation`` and ``bracket``, which perfbench's tracer
    looks up in ``sys.modules``."""
    loaded = _modules_after_importing_the_cli()
    assert [m for m in loaded if m.split(".")[0] == "homcoh"] == [
        "homcoh", *(f"homcoh.{m}" for m in (
            "algebra", "bracket", "cli", "cochain", "cohomology",
            "deformation", "errors", "exact", "files", "operator", "rep"))]


def test_importing_the_cli_generates_no_code():
    """The value classes are built without ``dataclasses`` (and so without
    ``inspect``), the parser's ``argparse`` is imported by ``build_parser``,
    and nothing loads ``typing``: each costs start-up time when no bytecode
    is cached."""
    unwanted = {"dataclasses", "inspect", "argparse", "typing"}
    assert unwanted & set(_modules_after_importing_the_cli()) == set()
