"""Shared-memory codec for macro flex-offer snapshots (struct-of-arrays).

The parallel cluster runtime ships each BRP's committed macro snapshot
from a worker process to the parent's TSO.  As in the paper's hierarchy,
only the *macro* flex-offers travel up: the TSO treats them as ordinary
flex-offers, and the micro members stay in the worker that aggregated
them, because that worker is the one that disaggregates.  So the wire
carries the macro columns and nothing else — one int64 matrix (offer id,
start window, creation time, deadline, interned owner, profile length),
one float64 ``unit_price`` column and the concatenated ``(min, max)``
profile bounds — written as raw numpy buffers into one POSIX
shared-memory segment, and the receiver rebuilds each macro as a validated
plain :class:`~repro.core.flexoffer.FlexOffer` under the macro's
``offer_id``.  A snapshot's size is independent of how many micro offers
its macros fold.  The pipe carries only the segment name.

Lifecycle contract: the *worker* creates and writes a segment, the
*parent* decodes and unlinks it.  Segment names embed a per-run id so a
crashed run's leftovers can be swept by :func:`cleanup_run_segments` — no
leaked ``/dev/shm`` blocks.

Segments are opened as the files ``shm_open`` makes of them on Linux
(``/dev/shm``), not through ``multiprocessing.shared_memory``.  On Python
3.11 every ``SharedMemory()`` registers its name with a resource tracker —
a separate interpreter that each worker and the parent would launch mid-run
(a tenth of a CPU-second apiece, on the cores the workers need) only to be
told to forget the name again, because ownership here is an explicit
handoff and teardown by a tracker would race the parent's decode.
"""

from __future__ import annotations

import json
import math
import os
from typing import Sequence

import numpy as np

from ..core.errors import InvalidFlexOfferError, ServiceError
from ..core.flexoffer import FlexOffer, Profile

__all__ = [
    "SHM_PREFIX",
    "encode_macros",
    "decode_macros",
    "write_snapshot",
    "read_snapshot",
    "segment_name",
    "unlink_segment",
    "cleanup_run_segments",
]

#: Prefix of every segment this codec creates (the crash-sweep glob key).
SHM_PREFIX = "repro-shm"
#: Where POSIX shared-memory segments live (Linux).
_SHM_ROOT = "/dev/shm"

_CODEC_VERSION = 2
#: Sentinel for a ``None`` ``assignment_before`` (real deadlines are >= 0).
_NO_DEADLINE = -1

# int64 columns, in order: offer_id, earliest_start, latest_start,
# creation_time, assignment_before (sentinel), owner index, profile length.
_N_INT_COLS = 7


def encode_macros(macros: Sequence[FlexOffer]) -> bytes:
    """Flatten a macro snapshot's own columns into one raw buffer.

    Only the :class:`~repro.core.flexoffer.FlexOffer` surface is read, so
    an aggregate's members never enter the buffer.  The bounds come from
    each profile's bound arrays, column-stacked into the ``(min, max)``
    pairs — the bytes the pairs themselves give, without building an
    aggregate's per-slice constraint objects.
    """
    owner_index: dict[str, int] = {}
    ints = [
        (
            macro.offer_id,
            macro.earliest_start,
            macro.latest_start,
            macro.creation_time,
            _NO_DEADLINE
            if macro.assignment_before is None
            else macro.assignment_before,
            owner_index.setdefault(macro.owner, len(owner_index)),
            macro.duration,
        )
        for macro in macros
    ]
    prices = [macro.unit_price for macro in macros]
    bounds = (
        np.column_stack(
            (
                np.concatenate([macro.min_array for macro in macros]),
                np.concatenate([macro.max_array for macro in macros]),
            )
        )
        if macros
        else np.empty((0, 2))
    )
    header = json.dumps(
        {
            "version": _CODEC_VERSION,
            "macros": len(macros),
            "owners": list(owner_index),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join(
        (
            len(header).to_bytes(8, "little"),
            header,
            np.array(ints, dtype=np.int64).tobytes(),
            np.array(prices, dtype=np.float64).tobytes(),
            bounds.tobytes(),
        )
    )


def decode_macros(buffer: bytes | memoryview) -> tuple[FlexOffer, ...]:
    """Rebuild what :func:`encode_macros` flattened, as plain flex-offers.

    Every value is copied out of ``buffer`` — the integer and price columns
    into Python objects, the two bound columns into arrays of their own
    that the profiles then keep as their bound arrays (the TSO's scheduler
    reads exactly those) — so nothing returned references ``buffer``.
    """
    try:
        header_len = int.from_bytes(buffer[:8], "little")
        at = 8 + header_len
        header = json.loads(bytes(buffer[8:at]))
        version = header.get("version")
        if version != _CODEC_VERSION:
            raise ServiceError(
                f"unsupported snapshot codec version {version!r}"
            )
        owners = header["owners"]

        def take(dtype, *shape: int) -> np.ndarray:
            nonlocal at
            column = np.frombuffer(
                buffer, dtype=dtype, count=math.prod(shape), offset=at
            )
            at += column.nbytes
            return column.reshape(shape)

        ints = take(np.int64, header["macros"], _N_INT_COLS).tolist()
        prices = take(np.float64, len(ints)).tolist()
        bounds = take(np.float64, sum(row[-1] for row in ints), 2)
        lo, hi = bounds[:, 0].copy(), bounds[:, 1].copy()
    except (ValueError, KeyError) as exc:
        raise ServiceError(f"malformed snapshot buffer: {exc}") from exc

    macros: list[FlexOffer] = []
    slice_at = 0
    try:
        for (oid, est, lst, created, deadline, owner, n), price in zip(
            ints, prices
        ):
            macros.append(
                FlexOffer(
                    profile=Profile.from_arrays(
                        lo[slice_at : slice_at + n], hi[slice_at : slice_at + n]
                    ),
                    earliest_start=est,
                    latest_start=lst,
                    offer_id=oid,
                    owner=owners[owner],
                    creation_time=created,
                    assignment_before=(
                        None if deadline == _NO_DEADLINE else deadline
                    ),
                    unit_price=price,
                )
            )
            slice_at += n
    except InvalidFlexOfferError as exc:
        # A non-finite or inverted bound, or a broken start window.
        raise ServiceError(f"malformed snapshot buffer: {exc}") from exc
    return tuple(macros)


# ----------------------------------------------------------------------
def segment_name(run_id: str, worker_index: int, sequence: int) -> str:
    """Deterministic, run-scoped segment name (the crash-sweep key)."""
    return f"{SHM_PREFIX}-{run_id}-w{worker_index}-{sequence}"


def write_snapshot(macros: Sequence[FlexOffer], name: str) -> tuple[str, int]:
    """Encode ``macros`` into a fresh shared-memory segment ``name``.

    Returns ``(name, nbytes)``.  Ownership transfers to whoever decodes it
    (the parent unlinks after :func:`read_snapshot`); crash leftovers are
    swept by name prefix.  An existing segment of that name is an error.
    """
    payload = encode_macros(macros)
    fd = os.open(
        os.path.join(_SHM_ROOT, name),
        os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        0o600,
    )
    with open(fd, "wb") as segment:
        segment.write(payload)
    return name, len(payload)


def read_snapshot(name: str) -> tuple[FlexOffer, ...]:
    """Decode a snapshot segment (copy out, then decode — no unlink)."""
    with open(os.path.join(_SHM_ROOT, name), "rb") as segment:
        payload = segment.read()
    return decode_macros(payload)


def unlink_segment(name: str) -> bool:
    """Unlink one segment; False when it is already gone."""
    try:
        os.unlink(os.path.join(_SHM_ROOT, name))
    except FileNotFoundError:
        return False
    return True


def cleanup_run_segments(run_id: str) -> int:
    """Unlink every leftover segment of one run; returns how many.

    The backstop for crashed workers (or a crashed parent): segments are
    named ``{SHM_PREFIX}-{run_id}-…``, so sweeping ``/dev/shm`` by prefix
    reclaims everything the normal decode-then-unlink path missed.
    """
    prefix = f"{SHM_PREFIX}-{run_id}-"
    removed = 0
    try:
        entries = os.listdir(_SHM_ROOT)
    except OSError:
        return 0
    for entry in entries:
        if entry.startswith(prefix) and unlink_segment(entry):
            removed += 1
    return removed
