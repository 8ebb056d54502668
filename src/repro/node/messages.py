"""Messages exchanged between LEDMS nodes (paper §3, Communication).

"The Communication component is responsible for exchanging messages
(flex-offers, supply and demand measurements, forecasts, etc.) between the
current and other LEDMSs nodes."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["MessageType", "Message", "next_message_id", "rebase_message_ids"]

_sequence = itertools.count(1)


def next_message_id() -> int:
    """Mint the next bus message id (what ``Message`` defaults to)."""
    return next(_sequence)


def rebase_message_ids(base: int) -> None:
    """Restart the process-wide message-id counter at ``base`` + 1.

    Message ids pair a bus publish with its delivery in traces and in the
    adapter's in-flight table, so they must stay unique across every
    process feeding one cluster.  A forked worker inherits the parent's
    counter position; rebasing each worker into a disjoint band (e.g.
    ``(worker_index + 1) * 10**9``) keeps cross-process publishes distinct.
    """
    global _sequence
    if base < 0:
        raise ValueError(f"message-id base must be >= 0, got {base}")
    _sequence = itertools.count(base + 1)


class MessageType(Enum):
    """The message vocabulary of the EDMS."""

    FLEX_OFFER_SUBMIT = "flex-offer-submit"
    FLEX_OFFER_ACCEPT = "flex-offer-accept"
    FLEX_OFFER_REJECT = "flex-offer-reject"
    SCHEDULED_FLEX_OFFER = "scheduled-flex-offer"
    MACRO_FLEX_OFFER = "macro-flex-offer"
    SCHEDULED_MACRO_FLEX_OFFER = "scheduled-macro-flex-offer"
    MEASUREMENT = "measurement"
    FORECAST = "forecast"


@dataclass(frozen=True)
class Message:
    """One message on the bus.

    ``payload`` carries the domain object (a flex-offer, a scheduled
    flex-offer, a time series, …); ``issued_at`` is the slice at which the
    sender produced it.  ``trace`` optionally carries the sender's
    :class:`~repro.obs.tracing.TraceContext`, so the receiver can link its
    own spans back to the work that produced the message; it is ``None``
    on untraced runs and ignored by domain logic.  Both are keyword-only,
    so a trace context can never land in ``message_id``.
    """

    sender: str
    recipient: str
    type: MessageType
    payload: Any
    issued_at: int
    message_id: int = field(default_factory=next_message_id, kw_only=True)
    trace: Any = field(default=None, kw_only=True)
