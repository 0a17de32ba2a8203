"""The behaviour pins outside perfbench/: ``tests/pins.json`` holds each of
them, the tests and the CI workflow read it, and no test or workflow step
writes a digest out. A change of behaviour on purpose edits that one file and
names each old and new value in CHANGES.md.

``call_digests`` pins the outputs of controller and twin calls: a test
hands the calls' outputs to ``assert_call_digest``, which hashes them and
compares the digest with the test's entry. Every pin assertion goes through
``assert_pinned``, whose failure names the entry and prints the value
computed, which is the new pin."""

import dataclasses
import enum
import hashlib
import json
import re
from pathlib import Path

from tabletamp.twin import TwinScene

TESTS = Path(__file__).parent
PINS = json.loads((TESTS / "pins.json").read_text())


def assert_pinned(key, got, pinned):
    """``got`` equals ``pinned``, the value at ``key`` in tests/pins.json."""
    assert got == pinned, (
        f"tests/pins.json {key}: computed {json.dumps(got)}, pinned {json.dumps(pinned)}; "
        f"a change of behaviour on purpose writes the computed value there and "
        f"names both in CHANGES.md")


def encode(value):
    """``value`` as JSON data that differs whenever a bit of it does: floats
    as ``float.hex``, an exception as its type and message, a scene as its
    role, held id and object poses, an enum member as its name and any other
    dataclass field by field."""
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, BaseException):
        return [type(value).__name__, str(value)]
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, set):
        return sorted(encode(v) for v in value)
    if isinstance(value, TwinScene):
        return [value.role, value.held_id,
                [[o.id, encode(o.pose)] for o in value.objects]]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__,
                *(encode(getattr(value, f.name)) for f in dataclasses.fields(value))]
    raise TypeError(f"no encoding for {type(value).__name__}")


def assert_call_digest(key, records):
    """The sha256 of ``encode(records)`` equals ``call_digests[key]``."""
    digest = hashlib.sha256(json.dumps(encode(records)).encode()).hexdigest()
    assert_pinned(f"call_digests[{key!r}]", digest, PINS["call_digests"].get(key))


def test_no_digest_is_written_outside_the_pin_file():
    files = [*sorted(TESTS.glob("*.py")), TESTS.parent / ".github" / "workflows" / "tests.yml"]
    found = [(f.name, m.group()) for f in files
             for m in re.finditer(r"[0-9a-fA-F]{64}", f.read_text())]
    assert found == []


def test_each_call_digest_is_checked_by_one_test_file():
    texts = {f.name: f.read_text() for f in sorted(TESTS.glob("*.py"))}
    named = {key: [name for name, text in texts.items() if f'"{key}"' in text]
             for key in PINS["call_digests"]}
    assert {key: files for key, files in named.items() if len(files) != 1} == {}
