import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from homcoh import cli, deformation, files, fixtures
from homcoh.algebra import HomAlgebra
from homcoh.cli import build_parser, main


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
    bad.write_text('{"name": "x"}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "missing field" in err


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
    assert checked == [fixtures.builtin_algebra("a3").name]
    checked.clear()
    assert main(["cohomology", "a3", "--degree", "1..3", "--values-in",
                 "phi_assoc"]) == 0
    assert checked == [fixtures.builtin_algebra("a3").name]
    checked.clear()
    assert main(["morphism-cohomology", "phi12_2", "--degree", "1..2"]) == 0
    phi = fixtures.builtin_morphism("phi12_2")
    assert sorted(checked) == sorted([phi.source.name, phi.target.name])


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
