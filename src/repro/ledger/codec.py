"""JSON codec for flex-offers and ledger source-event fingerprints.

The durable log stores plain JSON objects, so a crash can never corrupt
more than the final partially-written line and any JSON tool can audit
the history.  The codec round-trips every :class:`~repro.core.flexoffer.
FlexOffer` field bit-exactly (floats survive Python's repr-based JSON
round trip), which is what makes re-execution replay deterministic.

:func:`offer_json` is the one rendering of an offer as JSON text.  The
content key hashes that text and a journaled ``submit``/``replace``/
``dead_letter`` fact carries it verbatim as its ``offer`` field, so the
key hashes exactly the bytes the fact's ``offer`` field holds on disk.
"""

from __future__ import annotations

import zlib

from ..core.errors import DataManagementError, InvalidFlexOfferError
from ..core.flexoffer import FlexOffer, Profile
from .log import encode

__all__ = [
    "offer_to_dict",
    "offer_from_dict",
    "offer_json",
    "content_key",
    "default_source_event_id",
]


def offer_to_dict(offer: FlexOffer) -> dict:
    """A JSON-serializable dict carrying every field of ``offer``."""
    return {
        "offer_id": offer.offer_id,
        "owner": offer.owner,
        "bounds": [
            [lo, hi]
            for lo, hi in zip(
                offer.profile.min_array.tolist(), offer.profile.max_array.tolist()
            )
        ],
        "earliest_start": offer.earliest_start,
        "latest_start": offer.latest_start,
        "creation_time": offer.creation_time,
        "assignment_before": offer.assignment_before,
        "unit_price": float(offer.unit_price),
    }


def offer_from_dict(data: dict) -> FlexOffer:
    """Rebuild the exact :class:`FlexOffer` encoded by :func:`offer_to_dict`.

    A record no valid offer encodes — a missing field, a non-finite or
    inverted bound, a broken start window — raises
    :class:`~repro.core.errors.DataManagementError`.
    """
    try:
        profile = Profile.from_bounds(
            (float(lo), float(hi)) for lo, hi in data["bounds"]
        )
        return FlexOffer(
            profile=profile,
            earliest_start=int(data["earliest_start"]),
            latest_start=int(data["latest_start"]),
            offer_id=int(data["offer_id"]),
            owner=str(data["owner"]),
            creation_time=int(data["creation_time"]),
            assignment_before=(
                None
                if data.get("assignment_before") is None
                else int(data["assignment_before"])
            ),
            unit_price=float(data.get("unit_price", 0.0)),
        )
    except (KeyError, TypeError, ValueError, InvalidFlexOfferError) as exc:
        raise DataManagementError(f"malformed offer record: {exc}") from exc


def offer_json(offer: FlexOffer) -> str:
    """The canonical JSON text of ``offer``: ``encode(offer_to_dict(offer))``.

    Keys sorted by the log's own encoder, so this is byte for byte what a
    fact's ``offer`` field reads on disk.
    """
    return encode(offer_to_dict(offer))


def content_key(offer: FlexOffer, text: str) -> str:
    """The content-derived idempotency key of ``offer``, whose
    :func:`offer_json` is ``text`` (rendered once by the caller, which
    journals the same text)."""
    digest = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{offer.owner}:{offer.offer_id}:{digest:08x}"


def default_source_event_id(offer: FlexOffer) -> str:
    """Content-derived idempotency key for one submission.

    A re-sent identical offer (same id, same owner, same content) maps to
    the same key and is deflected by the ledger's idempotency guard; an
    *edited* offer under the same id fingerprints differently, so
    reverse-and-replace corrections are never mistaken for duplicates.
    The key hashes :func:`offer_json`'s text — the bytes the submission's
    journaled ``offer`` field carries.
    """
    return content_key(offer, offer_json(offer))
