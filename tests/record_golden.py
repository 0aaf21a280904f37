"""Write the golden CLI outputs that ``test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/record_golden.py

Each file under ``tests/golden/`` holds one command: its argv, exit code
and exact stdout.  Re-record only when an output change is intended.  A
command that names a ``.json`` file runs in a directory holding the
built-in fixtures as files (``files.write_builtin_files``): ``g1_2_2.json``,
the source of ``phi12_1``, has no built-in name.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from homcoh import files, fixtures
from homcoh.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_commands() -> dict[str, list[str]]:
    """File stem -> argv for every built-in algebra, morphism and
    deformation, plus the module-valued and arity-0 paths."""
    cmds = {}
    for name in sorted(fixtures.BUILTIN_FIXTURES) + sorted(
            fixtures.BUILTIN_MORPHISMS):
        cmds[f"validate-{name}"] = ["validate", name, "--json"]
    for name in sorted(fixtures.BUILTIN_FIXTURES):
        cmds[f"cohomology-{name}"] = ["cohomology", name, "--degree", "1..3",
                                      "--json", "--force"]
    for name, morphism, degree0 in (("a3", "phi_assoc", False),
                                    ("a3", "phi_assoc", True),
                                    ("g1_2_2.json", "phi12_1", False),
                                    ("g1_2_0", "phi12_2", False),
                                    ("g1_2_0", "phi12_2", True)):
        stem = f"cohomology-{name.removesuffix('.json')}-values-in-{morphism}"
        cmds[stem + "-degree0" * degree0] = [
            "cohomology", name, "--degree", "1..3", "--values-in", morphism,
            "--json"] + ["--degree0"] * degree0
    for name, force in (("b2", False), ("heisenberg", False),
                        ("invalid_assoc2", True)):
        cmds[f"cohomology-{name}-degree0"] = [
            "cohomology", name, "--degree", "1..3", "--json",
            "--degree0"] + ["--force"] * force
    for name in sorted(fixtures.BUILTIN_MORPHISMS):
        for suffix, degrees in (("", "1..2"), ("-to-degree-3", "1..3")):
            cmds[f"morphism-cohomology-{name}{suffix}"] = [
                "morphism-cohomology", name, "--degree", degrees, "--json"]
    for name in sorted(fixtures.BUILTIN_DEFORMATIONS):
        for action in ("check", "infinitesimal", "obstruction", "extend"):
            cmds[f"deform-{action}-{name}"] = ["deform", action, name,
                                               "--json"]
    for action, name, order in (("check", "mdef_2", 9), ("check", "def_g1", 6),
                                ("check", "mdef_2", 30),
                                ("extend", "mdef_2", 5),
                                ("extend", "def_g1", 6),
                                ("extend", "mdef_2", 100)):
        cmds[f"deform-{action}-{name}-to-order-{order}"] = [
            "deform", action, name, "--to-order", str(order), "--json"]
    cmds["selftest-fast"] = ["selftest", "--fast", "--json"]
    return cmds


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if any(arg.endswith(".json") for arg in argv[1:]):
            files.write_builtin_files(workdir)
        code = main(argv)
    return code, out.getvalue()


def main_record() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, argv in golden_commands().items():
        code, stdout = run_cli(argv)
        record = {"argv": argv, "exit": code, "stdout": stdout}
        (GOLDEN_DIR / f"{stem}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{stem}: exit {code}, {len(stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
