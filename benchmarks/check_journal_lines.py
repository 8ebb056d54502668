#!/usr/bin/env python
"""Check that every journaled line is the log encoder's text for its fact.

The ledger composes most of its lines (an offer's text, a submission's
fields, a planning pass's ``scheduled`` rows) instead of encoding a dict;
this holds each such line to the encoder it stands in for: for every line
of every ``segment-*.jsonl`` under the given directories (searched
recursively, so a cluster's per-BRP journals are all covered),
``encode(json.loads(line)) == line`` with
:data:`repro.ledger.log.encode`.  Exit 1 naming the first line that
differs, or when a directory holds no segment at all.

Usage::

    PYTHONPATH=src python benchmarks/check_journal_lines.py LEDGER_DIR [...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.ledger.log import encode


def check(directory: str | Path) -> tuple[int, str | None]:
    """``(lines checked, first failure or None)`` for one ledger tree."""
    segments = sorted(Path(directory).rglob("segment-*.jsonl"))
    if not segments:
        return 0, f"{directory}: no journal segment"
    checked = 0
    for path in segments:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            checked += 1
            if encode(json.loads(line)) != line:
                return checked, f"{path}:{lineno}: not the encoder's text"
    return checked, None


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for directory in argv:
        checked, failure = check(directory)
        if failure is not None:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"{directory}: {checked} lines, each the encoder's text")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
