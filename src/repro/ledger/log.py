"""Append-only event logs: in-memory and segmented-JSONL durable backends.

The durable backend writes one JSON object per line into numbered segment
files (``segment-00000000.jsonl``, …) and rolls to a fresh segment every
``segment_max_events`` records, so a long-running node never rewrites old
history and archival/truncation can operate on whole segments.

``append(*events)`` is the one write entry and the unit of durability: the
events of one call go out as one write of their joined lines (split only
where a segment fills, so segment files are the same whether facts arrive
one per call or a thousand) followed by what the ``fsync`` policy asks for,
once per *call*:

``"commit"``
    one flush + fsync per append call — a crash loses at most the call in
    flight: none of its lines or a prefix of them, the last one possibly
    torn (which :meth:`JsonlEventLog.replay` tolerates).
``"close"``
    one flush to the OS per append call, fsync only on close/roll.
``"never"``
    leave flushing to the runtime/OS entirely (tests, benchmarks).

The ledger journals an input fact as a call of one, and the derived
``scheduled`` facts of a whole planning pass, like the ``retire`` facts of
one expiry sweep, as one call — group commit: under ``"commit"`` a pass or
a sweep costs one fsync, not one per member.  Every line is
``encode(fact) + "\n"`` whether the log encoded the fact or its caller
composed it, and :data:`encode` is the oracle the tests hold each composer
to.  The log encodes the rare kinds (``run_*``, ``reverse``, ``withdraw``,
``duplicate``); the ledger composes the rest from templates:
:func:`~repro.ledger.codec.offer_json` an offer's text (the bytes its
content key hashes), ``OfferLedger.record_submit`` and its dead letter a
submission's line around that text, and ``OfferLedger._append_batch`` a
pass's ``scheduled`` and a sweep's ``retire`` rows.  Whatever a composer
cannot render exactly (a ``bool``, a numpy scalar, a non-finite float)
goes through :data:`encode`.  There is no batch record and no second
on-disk format.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, TextIO

from ..core.errors import DataManagementError

__all__ = ["MemoryEventLog", "JsonlEventLog", "FSYNC_MODES"]

#: The on-disk encoding of one fact (its line is this plus ``"\n"``): keys
#: sorted, so a fact's bytes do not depend on how its dict was built.
encode = json.JSONEncoder(sort_keys=True).encode

FSYNC_MODES = ("commit", "close", "never")

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"


def segment_files(directory: str | os.PathLike) -> list[Path]:
    """The segment files under ``directory``, oldest first.

    Empty when the directory holds no ledger (or does not exist) — the
    look-before-you-open check of a recovery, which must not create one.
    """
    return sorted(Path(directory).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))


class MemoryEventLog:
    """A list-backed event log: the non-durable default for tests/benches."""

    def __init__(self) -> None:
        self._events: list[dict | str] = []

    def __len__(self) -> int:
        return len(self._events)

    def append(self, *events: dict | str) -> None:
        """Append ``events`` in order.

        A ``str`` is a fact its caller already encoded (see
        :meth:`JsonlEventLog.append`); it is kept as that text until the
        log is first read, and from then on held as the dict it encodes —
        journaling to memory decodes nothing.
        """
        self._events.extend(events)

    def replay(self) -> Iterator[dict]:
        """Every event appended so far, in order."""
        events = self._events
        for index, event in enumerate(events):
            if isinstance(event, str):
                events[index] = json.loads(event)
        return iter(list(events))

    def flush(self) -> None:  # pragma: no cover - interface symmetry
        pass

    def close(self) -> None:
        pass


class JsonlEventLog:
    """Durable append-only log over segmented JSONL files in a directory."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "commit",
        segment_max_events: int = 100_000,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise DataManagementError(
                f"unknown fsync mode {fsync!r} (known: {', '.join(FSYNC_MODES)})"
            )
        if segment_max_events <= 0:
            raise DataManagementError(
                f"segment_max_events must be positive, got {segment_max_events}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_max_events = int(segment_max_events)
        self._handle: TextIO | None = None
        self._segment_index = 0
        self._segment_events = 0
        self._count = 0
        self._scan_existing()

    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"

    def segments(self) -> list[Path]:
        """Existing segment files, oldest first."""
        return segment_files(self.directory)

    def _scan_existing(self) -> None:
        """Resume appending after the last intact record on disk.

        Records are counted, not decoded: one read per segment, and a
        corrupt record mid-segment is :meth:`replay`'s to report.
        """
        segments = self.segments()
        if not segments:
            return
        for path in segments:
            raw = path.read_bytes()
            intact = _intact_prefix_length(raw)
            self._segment_events = sum(
                1 for line in raw[:intact].splitlines() if line.strip()
            )
            self._count += self._segment_events
        # ``path``, ``raw`` and ``intact`` now describe the last segment.
        self._segment_index = int(
            path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
        )
        # A torn final line (crash mid-append) would corrupt the next
        # record if we appended after it; cut the last segment back to its
        # last intact record before reopening for append.  Cut in place:
        # rewriting the file would empty it first, and a second crash
        # inside recovery would lose every acknowledged fact it held.
        if intact != len(raw):
            os.truncate(path, intact)

    def _open_for_append(self) -> TextIO:
        if self._handle is None:
            self._handle = open(
                self._segment_path(self._segment_index),
                "a",
                encoding="utf-8",
            )
        return self._handle

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def append(self, *events: dict | str) -> None:
        """Append ``events`` in order: one write, one flush/fsync per call.

        A ``str`` stands for a fact its caller already encoded — it must be
        exactly ``encode(fact)`` — and is written as it is; the ledger
        composes most of its lines that way.  A call of one such line (an
        input fact) writes it without building the list of records.
        """
        line = events[0] if len(events) == 1 else None
        if type(line) is str:
            if self._segment_events >= self.segment_max_events:
                self._roll()
            handle = self._open_for_append()
            handle.write(line + "\n")
            self._segment_events += 1
            self._count += 1
        elif not events:
            return
        else:
            records = [
                event if isinstance(event, str) else encode(event)
                for event in events
            ]
            written = 0
            while written < len(records):
                if self._segment_events >= self.segment_max_events:
                    self._roll()
                room = self.segment_max_events - self._segment_events
                chunk = records[written : written + room]
                handle = self._open_for_append()
                handle.write("\n".join(chunk) + "\n")
                self._segment_events += len(chunk)
                self._count += len(chunk)
                written += len(chunk)
        if self.fsync != "never":
            handle.flush()
            if self.fsync == "commit":
                os.fsync(handle.fileno())

    def _roll(self) -> None:
        self._close_handle()
        self._segment_index += 1
        self._segment_events = 0

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        self._close_handle()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def replay(self) -> Iterator[dict]:
        """Every intact event on disk, oldest segment first.

        A truncated final line — the signature of a crash mid-append — is
        skipped silently: by construction it is the only record that can
        be torn, and it was never acknowledged as committed.
        """
        self.flush()
        for path in self.segments():
            yield from _intact_lines(path)


def _intact_prefix_length(raw: bytes) -> int:
    """Byte length of the newline-terminated prefix of ``raw``."""
    end = raw.rfind(b"\n")
    return end + 1 if end >= 0 else 0


def _intact_lines(path: Path) -> Iterator[dict]:
    """Parsed records of ``path``; a torn, unterminated tail is ignored."""
    raw = path.read_bytes()
    intact = raw[: _intact_prefix_length(raw)]
    for lineno, line in enumerate(intact.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataManagementError(
                f"{path}:{lineno}: corrupt ledger record mid-segment ({exc})"
            ) from exc
        if not isinstance(record, dict):
            raise DataManagementError(
                f"{path}:{lineno}: ledger record is not a JSON object"
            )
        yield record
