"""The pinned-answer helper (``pins.py``) and the manifest's coverage."""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from pins import SESSION, Pins

TESTS = Path(__file__).resolve().parent
OLD, NEW = "a" * 64, "b" * 64


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({
        "digest": {"value": OLD, "covers": "a digest", "recorded": "first"},
        "floats": {"value": [0.1, 2], "covers": "two numbers", "recorded": "first"},
    }))
    return path


def test_a_mismatch_names_the_pin_and_shows_both_values(manifest):
    pins = Pins(manifest)
    pins.check("floats", (0.1, 2), "t")  # a tuple equals its JSON list
    pins.fail_moved()
    pins.check("digest", NEW, "t")
    pins.check("floats", [0.1, 3], "t")
    with pytest.raises(pytest.fail.Exception) as failure:
        pins.fail_moved()
    message = str(failure.value)
    assert "'digest'" in message and OLD in message and NEW in message
    assert "'floats'" in message and "[0.1, 3]" in message
    pins.fail_moved()  # each moved pin fails one test


def test_an_unknown_pin_fails(manifest):
    with pytest.raises(KeyError, match="nope"):
        Pins(manifest).check("nope", OLD, "t")


def test_a_rerecord_rewrites_only_the_moved_entries(manifest):
    pins = Pins(manifest, reason="on purpose")
    pins.check("digest", NEW, "t")
    pins.check("floats", [0.1, 2], "t")
    assert pins.rerecord() == [f"pin digest: {OLD} -> {NEW} (on purpose)"]
    written = json.loads(manifest.read_text())
    assert written["digest"] == {
        "value": NEW, "covers": "a digest", "recorded": "on purpose"
    }
    assert written["floats"]["recorded"] == "first"
    rerun = Pins(manifest)
    rerun.check("digest", NEW, "t")
    rerun.fail_moved()


@pytest.mark.parametrize("reason", ["", "  "])
def test_an_empty_reason_is_refused(manifest, reason):
    with pytest.raises(ValueError, match="needs a reason"):
        Pins(manifest, reason=reason)


def test_two_tests_disagreeing_on_a_pin_fail_and_record_nothing(manifest):
    pins = Pins(manifest, reason="on purpose")
    pins.check("digest", NEW, "test_one")
    with pytest.raises(pytest.fail.Exception) as failure:
        pins.check("digest", "c" * 64, "test_two")
    assert "test_one" in str(failure.value) and "test_two" in str(failure.value)
    assert pins.rerecord() == []
    assert json.loads(manifest.read_text())["digest"]["value"] == OLD


def _pin_calls():
    """``(where, pattern)`` per ``pin(name, …)`` call in ``tests/*.py``; an
    f-string name's replacement fields match any text."""
    calls = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or getattr(node.func, "id", "") != "pin":
                continue
            name, where = node.args[0], f"{path.name}:{node.lineno}"
            if isinstance(name, ast.Constant):
                pattern = re.escape(name.value)
            elif isinstance(name, ast.JoinedStr):
                pattern = "".join(
                    re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                    for part in name.values
                )
            else:
                pytest.fail(f"{where}: a pin's name is a literal or an f-string")
            calls.append((where, re.compile(pattern)))
    return calls


@pytest.mark.pinned
def test_every_entry_is_read_and_every_read_is_an_entry():
    entries = json.loads(SESSION.path.read_text())
    calls = _pin_calls()
    unread = [n for n in entries if not any(p.fullmatch(n) for _, p in calls)]
    unknown = [w for w, p in calls if not any(p.fullmatch(n) for n in entries)]
    assert (unread, unknown) == ([], [])
    for name, entry in entries.items():
        assert sorted(entry) == ["covers", "recorded", "value"], name
        assert entry["covers"] and entry["recorded"], name
        value = entry["value"]
        assert re.fullmatch("[0-9a-f]{64}", str(value)) or all(
            type(number) in (int, float) for number in value
        ), name


@pytest.mark.pinned
def test_no_pinned_literal_outside_the_manifest():
    """A sha256 hex digest or a float with 9+ decimals belongs in pins.json."""
    found = []
    for path in sorted(TESTS.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for kind, text, (line, _), _, _ in tokens:
            if (kind == tokenize.STRING and re.search("[0-9a-fA-F]{64}", text)) or (
                kind == tokenize.NUMBER and re.search(r"\.[0-9]{9}", text)
            ):
                found.append(f"{path.name}:{line}: {text}")
    assert found == []
