import json

from homcoh import files
from homcoh.cli import main


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


def test_selftest_fast_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--fast", "--json")
    code2, out2, _ = run(capsys, "selftest", "--fast", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "cohomology", "b2", "--degree", "1..2", "--json")
    _, out2, _ = run(capsys, "cohomology", "b2", "--degree", "1..2", "--json")
    assert out1 == out2
