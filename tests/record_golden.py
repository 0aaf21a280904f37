"""Write the golden CLI outputs that ``test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/record_golden.py

Each file under ``tests/golden/`` holds one command: its argv, exit code
and exact stdout.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from homcoh import fixtures
from homcoh.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_commands() -> dict[str, list[str]]:
    """File stem -> argv for every built-in algebra, morphism and
    deformation."""
    cmds = {}
    for name in sorted(fixtures.BUILTIN_FIXTURES):
        cmds[f"cohomology-{name}"] = ["cohomology", name, "--degree", "1..3",
                                      "--json", "--force"]
    for name in sorted(fixtures.BUILTIN_MORPHISMS):
        cmds[f"morphism-cohomology-{name}"] = [
            "morphism-cohomology", name, "--degree", "1..2", "--json"]
    for name in sorted(fixtures.BUILTIN_DEFORMATIONS):
        for action in ("check", "infinitesimal", "obstruction", "extend"):
            cmds[f"deform-{action}-{name}"] = ["deform", action, name,
                                               "--json"]
    return cmds


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
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
