"""The behaviour pins outside perfbench/: ``tests/pins.json`` holds each of
them, the tests and the CI workflow read it, and no test or workflow step
writes a digest out. A change of behaviour on purpose edits that one file and
names each old and new value in CHANGES.md."""

import json
import re
from pathlib import Path

TESTS = Path(__file__).parent
PINS = json.loads((TESTS / "pins.json").read_text())


def test_no_digest_is_written_outside_the_pin_file():
    files = [*sorted(TESTS.glob("*.py")), TESTS.parent / ".github" / "workflows" / "tests.yml"]
    found = [(f.name, m.group()) for f in files
             for m in re.finditer(r"[0-9a-fA-F]{64}", f.read_text())]
    assert found == []
