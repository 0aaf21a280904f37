import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from homcoh import files, fixtures
from homcoh.cochain import MultilinearMap
from homcoh.errors import ParseError


def test_algebra_round_trip(tmp_path, a3, b2, g2, l4a):
    for A in (a3, b2, g2, l4a, fixtures.g1(2, 3)):
        payload = files.algebra_to_json(A)
        again = files.parse_algebra(payload)
        assert again == A


def test_algebra_file_loading(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(files.algebra_to_json(fixtures.assoc2())))
    assert files.load("algebra", str(path)) == fixtures.assoc2()


def test_unknown_field_rejected():
    payload = files.algebra_to_json(fixtures.assoc2())
    payload["extra"] = 1
    with pytest.raises(ParseError):
        files.parse_algebra(payload)


def test_malformed_rational_rejected():
    payload = files.algebra_to_json(fixtures.assoc2())
    payload["alpha"][0][0] = "1/0"
    with pytest.raises(ParseError):
        files.parse_algebra(payload)


def test_lie_antisymmetry_completion():
    payload = {
        "name": "half", "kind": "lie", "dim": 2, "basis": ["e1", "e2"],
        "alpha": [["1", "0"], ["0", "1"]],
        "mul": [{"left": "e1", "right": "e2", "value": {"e1": "1"}}],
    }
    A = files.parse_algebra(payload)
    assert A.mul[1][0] == tuple(-x for x in A.mul[0][1])


def test_lie_inconsistent_orders_rejected():
    payload = {
        "name": "bad", "kind": "lie", "dim": 2, "basis": ["e1", "e2"],
        "alpha": [["1", "0"], ["0", "1"]],
        "mul": [
            {"left": "e1", "right": "e2", "value": {"e1": "1"}},
            {"left": "e2", "right": "e1", "value": {"e1": "1"}},
        ],
    }
    with pytest.raises(ParseError):
        files.parse_algebra(payload)


def test_duplicate_product_rejected():
    payload = {
        "name": "dup", "kind": "associative", "dim": 1, "basis": ["e1"],
        "alpha": [["1"]],
        "mul": [
            {"left": "e1", "right": "e1", "value": {"e1": "1"}},
            {"left": "e1", "right": "e1", "value": {"e1": "2"}},
        ],
    }
    with pytest.raises(ParseError):
        files.parse_algebra(payload)


def test_json_decode_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": ')
    with pytest.raises(ParseError) as err:
        files.load("algebra", str(path))
    assert "line" in str(err.value)


def test_morphism_round_trip(tmp_path, phi):
    files.write_builtin_files(str(tmp_path))
    loaded = files.load("morphism", str(tmp_path / "phi_assoc.json"))
    assert loaded.matrix == phi.matrix
    assert loaded.source == phi.source
    assert loaded.target == phi.target


def test_morphism_reference_by_builtin_name(tmp_path):
    payload = {"source": "a3", "target": "b2",
               "matrix": [["1", "1", "0"], ["-1", "-1", "0"]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    loaded = files.load("morphism", str(path))
    assert loaded.source.name.startswith("assoc3")


def test_deformation_round_trip(tmp_path):
    files.write_builtin_files(str(tmp_path))
    md = files.load("deformation", str(tmp_path / "mdef_2.json"))
    expect = fixtures.mdef_2()
    assert md.phi.matrix == expect.phi.matrix
    assert md.def_a.terms == expect.def_a.terms
    assert md.def_b.terms == expect.def_b.terms
    assert md.phi_terms == expect.phi_terms

    d = files.load("deformation", str(tmp_path / "def_g1.json"))
    assert d.terms == fixtures.def_g1().terms


def test_deformation_terms_are_never_laid_out(tmp_path, monkeypatch):
    """A deformation term is read as its product table: of an algebra file
    and a deformation of it by 200 terms, only the algebra's tensor is laid
    out."""
    calls, lay_out = [], files.product_tensor

    def counting(*args):
        calls.append(args[:2])
        return lay_out(*args)

    monkeypatch.setattr(files, "product_tensor", counting)
    n, order = 40, 200
    names = [f"e{i + 1}" for i in range(n)]
    (tmp_path / "abelian.json").write_text(json.dumps({
        "name": "abelian40", "kind": "lie", "dim": n, "basis": names,
        "alpha": [[str(int(i == j)) for j in range(n)] for i in range(n)],
        "mul": []}))
    payload = {"algebra": "abelian.json", "order": order, "terms": [
        {"degree": d, "mul": [{"left": names[d % 20],
                               "right": names[20 + d % 19],
                               "value": {names[d % n]: str(d)}}]}
        for d in range(1, order + 1)]}
    path = tmp_path / "deform.json"
    path.write_text(json.dumps(payload))
    d = files.load("deformation", str(path))
    assert calls == [("lie", n)]
    assert files.algebra_deformation_to_json(d, "abelian.json") == payload


def test_deformation_morphism_field_restrictions(tmp_path):
    files.write_builtin_files(str(tmp_path))
    payload = {"algebra": "g1_2_0.json", "order": 1, "terms": [],
               "phi_terms": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        files.load("deformation", str(path))


def test_json_boolean_dim_is_rejected():
    payload = {"name": "one", "kind": "associative", "dim": True,
               "basis": ["e1"], "alpha": [["1"]], "mul": []}
    with pytest.raises(ParseError, match="dim"):
        files.parse_algebra(payload)


@pytest.mark.parametrize("name, edit", [
    ("def_g1", lambda p: p.update(order=True)),
    ("def_g1", lambda p: p["terms"][0].update(degree=True)),
    ("mdef_2", lambda p: p["target_terms"][0].update(degree=True)),
    ("mdef_2", lambda p: p["phi_terms"][0].update(degree=True)),
], ids=["order", "terms degree", "target_terms degree", "phi_terms degree"])
def test_json_booleans_are_not_deformation_integers(tmp_path, name, edit):
    files.write_builtin_files(str(tmp_path))
    path = tmp_path / f"{name}.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="order|degree"):
        files.load("deformation", str(path))


def test_cochain_json_round_trip():
    m = MultilinearMap.from_values(
        2, 3, 2, {(0, 1): (1, 0), (2, 2): (0, -2)})
    payload = files.cochain_to_json(m, ("f1", "f2"))
    assert payload == {"arity": 2, "source": 3, "target": 2, "entries": [
        {"args": [0, 1], "value": {"f1": "1"}},
        {"args": [2, 2], "value": {"f2": "-2"}}]}
    assert all("0" not in e["value"].values() for e in payload["entries"])


def test_builtin_files_are_valid_json(tmp_path):
    written = files.write_builtin_files(str(tmp_path))
    assert written
    for path in written:
        with open(path) as fh:
            json.load(fh)


# sha256 of every file ``write_builtin_files`` writes, recorded before
# ``algebra_to_json`` shared the term serializer with the deformations
BUILTIN_FILE_SHA256 = {
    "a3.json":
        "0aa0b39502d386d5ea9acd6522fc0a3b79a35eba4afa1067c62e02006bfac5ef",
    "a3_b1.json":
        "58d08358ba8b6d2e3159db5e23ad48a255b6841424c4779fa96ef56fb9a496b1",
    "b2.json":
        "fc2b805d9d03fe41b50126e3da6fa5310f65657e2e578b41f4f0c456541bef48",
    "dual_numbers.json":
        "13506ea60aefc6cf9cc7fa7505810404510787f40bb64afc376265d96adb9080",
    "g1_0_1.json":
        "cf928b49417bab3c2145250fc8d3156aaaeb3fa677c7cc69af1297b0db874a94",
    "g1_1_0.json":
        "8c428097684dddb675f73abdbbbcd345e073968b64a70765447389e8525cffa0",
    "g1_1_1.json":
        "cfad51ca9b7603281602bc7a8a8cdfd2b210ebf3f1457aebb85d8806e3ff2e9b",
    "g1_1_2.json":
        "3bfba38d2b243448d09068d80ee225018e5b6e5cd7753b671ff9129be67375c5",
    "g1_2_0.json":
        "d0f5f4bd25ff4e893ff8528c02d91aaf05702d046dca60f21b24b04700f8707a",
    "g1_2_1.json":
        "1ba3fa3f05178ed02fb21ae4e8daf40cc2301e8821259e5baf492a57e1bce6a4",
    "g1_2_1over2.json":
        "24bcd9bc19dde133fbd86bebe99fd84ed0b7c6694529643f67fdb7da8ef37e7d",
    "g1_2_3.json":
        "7c4d6de08538a3de275907bee5dbe3e325c7a148d04e7c8b1b06bffde7b85c25",
    "g1_2_m1.json":
        "e447c5007d17d070b2e2e9e3b5c5d5163886f57821f2be0dd3fd961b038deb58",
    "g1_m1_0.json":
        "4f4729f660915acc9cf4aa2e6bb68f478872f3bf04cb589565759d090b6fa5ff",
    "g1_m1_1.json":
        "dcfcf7b7dabdf4ed6de1ef28f6a25559cc68c002aca2908afd33896da3bea217",
    "g1_m1_2.json":
        "50e1fd01489db90f1326f229f9d6a3300ccb7271e4708b019327ff1ee6c68a4b",
    "g1_m1_m1.json":
        "6ca403f385cf8e742a639c3922322e195f5c5ac3db48e10c41e822a888f31987",
    "g2.json":
        "8c022df88cb9532c1aed48368244e9b55b7ac49ba8aab75847ed4efd5834c077",
    "heisenberg.json":
        "f9d7bd4240bc66f6ad44217389492f6a52e267eb7ca22ef61c11e45bd331e3c2",
    "invalid_assoc2.json":
        "406dd2a29a6bb5e2d160a3843ae151dd5ad2b9a03f52560f3a6d2314962e2464",
    "l4a.json":
        "de5c3bf300b2b33c54f79d880c90e8f337c84ba5cc71d301c9cf3e46a252fe67",
    "l4b_e1.json":
        "4a7c9e2e202c923df86a2a59833f0722062be5444b29b884a7835a2319362b27",
    "l4b_em1.json":
        "f36daf513d073266208b2e880bc55067d18881af65c1407adc39455d3d879b7f",
    "g1_2_2.json":
        "cce334bc79a7d6ec5ccaefdb686f8d52780d1c4b367b1cc3b7d091347873a84c",
    "phi_assoc.json":
        "092d6dffb055905e44350fe7abb4c69343ac7a853ded7ee3fa259bf73b087826",
    "phi12_1.json":
        "0e6a5411a72c5ace317317428a4f477f1258af73cace85a01e3a2cc70a416f97",
    "phi12_2.json":
        "152225089b4d9573d4e82db9f55b490342e844284cf09ce9e4528547920722a2",
    "def_g1.json":
        "31598cd420cff75ea15e1f6a7b85c368e72d16427ffe27bf0af32435b0160a2a",
    "mdef_2.json":
        "8a51f473d32a9c795ca826da2b6a8455777e1e4eca3486965c71312e75563331",
}


def test_builtin_files_are_pinned(tmp_path):
    written = files.write_builtin_files(str(tmp_path))
    digests = {}
    for path in written:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(
                fh.read()).hexdigest()
    assert digests == BUILTIN_FILE_SHA256


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def test_json_text_matches_json_dumps_on_every_golden_payload():
    names = sorted(os.listdir(GOLDEN_DIR))
    assert len(names) == 78
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            payload = json.loads(json.load(fh)["stdout"])
        assert files.json_text(payload) == _dumps(payload), name


def _random_payload(rng: random.Random, depth: int):
    leaves = (None, True, False, 0, -1, rng.randint(-10 ** 6, 10 ** 6),
              -(2 ** 64) - rng.randint(0, 99), 3 ** 50, "", "plain",
              "café α∂ \U0001d53d", "tab\t\"quote\"\\ \x00\x1f\n",
              "".join(chr(rng.randint(0, 0x2fff)) for _ in range(6)))
    kind = rng.randrange(4) if depth else 0
    if kind == 0:
        return rng.choice(leaves)
    size = rng.choice((0, 1, 1, 2, 3))
    items = [_random_payload(rng, depth - 1) for _ in range(size)]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    return {rng.choice(("a", "b", "B", "n", "é", "", "dim_H",
                        "x\ny")) + str(i): v for i, v in enumerate(items)}


def test_json_text_matches_json_dumps_on_random_payloads():
    rng = random.Random(71)
    for _ in range(400):
        payload = _random_payload(rng, 4)
        assert files.json_text(payload) == _dumps(payload)
    for payload in ({}, [], (), {"a": {}}, [[], {}], {"a": [[]]}, 2 ** 200):
        assert files.json_text(payload) == _dumps(payload)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), 0.5, {1, 2}, {"a": [Fraction(3)]}, [0.0], {1: "a"}],
    ids=["fraction", "float", "set", "nested fraction", "nested float",
         "integer key"])
def test_json_text_rejects_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        files.json_text(value)
