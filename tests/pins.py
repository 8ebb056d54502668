"""Every answer the suite holds bit for bit, kept once: ``pins.json``.

Each entry holds a value (a sha256 digest, or floats and ints, which JSON
round-trips exactly), ``covers`` and ``recorded`` (why it holds that value).
``pin(name, value)`` checks one in a ``@pytest.mark.pinned`` test.  To move
answers on purpose, ``REPRO_UPDATE_PINS="<reason>" python -m pytest -m pinned``
rewrites only the moved entries and prints one line per moved pin.
"""

import json
import os
from pathlib import Path

import pytest

UPDATE_ENV = "REPRO_UPDATE_PINS"


class Pins:
    """One run over a manifest: check values, or collect them to re-record."""

    def __init__(self, path, reason=None):
        if reason is not None and not reason.strip():
            raise ValueError(f"{UPDATE_ENV} needs a reason: the moved pins' `recorded`")
        self.path, self.reason = Path(path), reason
        self.entries = json.loads(self.path.read_text())
        self.seen = {}  # name -> (value, the test that computed it first)
        self.conflicts = set()
        self.mismatches = []  # pins the running test moved

    def check(self, name, value, test):
        entry = self.entries[name]
        value = json.loads(json.dumps(value))  # tuples become lists
        if self.reason is None:
            if value != entry["value"]:
                self.mismatches.append(
                    f"pin {name!r} moved ({entry['covers']})\n"
                    f"  {self.path.name}: {entry['value']!r}\n  this run:  {value!r}"
                )
            return
        first, by = self.seen.setdefault(name, (value, test))
        if value != first:
            self.conflicts.add(name)
            pytest.fail(f"pin {name!r}: {by} computed {first!r}, {test} {value!r}")

    def fail_moved(self):
        """Fail once, naming every pin moved since the last call."""
        moved, self.mismatches = self.mismatches, []
        if moved:
            hint = f'to move them on purpose: {UPDATE_ENV}="<reason>" pytest -m pinned'
            pytest.fail("\n".join(moved + [hint]), pytrace=False)

    def rerecord(self):
        """Write every moved pin no two tests disagree on; one line each."""
        moved = []
        for name, (value, _) in self.seen.items():
            entry = self.entries[name]
            if name not in self.conflicts and value != entry["value"]:
                moved.append(f"pin {name}: {entry['value']} -> {value} ({self.reason})")
                entry.update(value=value, recorded=self.reason)
        if moved:
            self.path.write_text(json.dumps(self.entries, indent=2) + "\n")
        return moved


SESSION = Pins(Path(__file__).with_name("pins.json"), os.environ.get(UPDATE_ENV))


def pin(name, value):
    """Check ``value`` against pin ``name``; the test fails at its end,
    naming every pin it moved."""
    test = os.environ.get("PYTEST_CURRENT_TEST", "?").rsplit(" ", 1)[0]
    SESSION.check(name, value, test)
