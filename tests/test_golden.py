"""Byte-for-byte CLI outputs for every built-in fixture.

The files under ``golden/`` were recorded by ``record_golden.py``; any
change in a report, however small, fails here.
"""

import json
from pathlib import Path

import pytest

from record_golden import GOLDEN_DIR, golden_commands, run_cli

GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def test_golden_set_covers_every_fixture_command():
    assert sorted(p.stem for p in GOLDEN_FILES) == sorted(golden_commands())


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_output(path: Path):
    record = json.loads(path.read_text())
    code, stdout = run_cli(record["argv"])
    assert code == record["exit"]
    assert stdout == record["stdout"]
