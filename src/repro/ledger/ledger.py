"""The offer ledger: immutable facts, idempotency guard, dead-letter queue.

Every state-changing ingest path writes through an :class:`OfferLedger`:
``submit``/``withdraw`` become immutable facts, an offer edit becomes a
``reverse`` + ``replace`` event pair, committed plan starts and
retirements land as derived facts, and rejected or malformed submissions
are routed to an inspectable dead-letter queue.  An idempotency guard
keyed by ``source_event_id`` makes a duplicate submission return the
originally recorded result instead of double-counting.

Facts are plain dicts with a monotonically increasing ``seq``, a ``kind``
from :data:`FACT_KINDS`, the fractional simulated time ``at`` they were
recorded, and the recording node.  ``INPUT_KINDS`` marks the externally
driven subset — the events deterministic re-execution replays; everything
else is derived and regenerated by replay.

Constructing a ledger over a non-empty log rebuilds the idempotency map,
the dead-letter queue and the fact counters from disk, so those survive a
crash/restart boundary even before any replay runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as escape
from typing import Iterable, Iterator, NamedTuple, Sequence

from ..core.errors import DataManagementError
from ..core.flexoffer import FlexOffer
from .codec import offer_json, offer_to_dict
from .log import JsonlEventLog, MemoryEventLog, encode

__all__ = [
    "FACT_KINDS",
    "INPUT_KINDS",
    "DeadLetter",
    "RecordedResult",
    "OfferLedger",
]

FACT_KINDS = (
    "run_window",
    "run_drain",
    "submit",
    "replace",
    "reverse",
    "withdraw",
    "scheduled",
    "retire",
    "dead_letter",
    "duplicate",
)

#: The externally-driven facts a deterministic re-execution replays; all
#: other kinds are derived and will be regenerated identically.
INPUT_KINDS = ("run_window", "run_drain", "submit", "replace", "withdraw")


_INF = float("inf")


def _json(value) -> str:
    """``encode(value)`` for one field's value: ``None``, an exact ``str``
    or ``int`` and a finite ``float`` are rendered here the way the
    encoder renders them; anything else (a ``bool``, ``NaN``, a numpy
    scalar, which raises) is left to :data:`~repro.ledger.log.encode`."""
    kind = type(value)
    if value is None:
        return "null"
    if kind is str:
        return escape(value)
    if kind is int or (kind is float and -_INF < value < _INF):
        return repr(value)
    return encode(value)


class RecordedResult(NamedTuple):
    """The originally recorded outcome behind one ``source_event_id``."""

    accepted: bool
    offer_id: int
    reason: str | None


class DeadLetter(NamedTuple):
    """One rejected/malformed submission, parked with its reason."""

    seq: int
    at: float
    node: str
    offer_id: int
    owner: str
    reason: str
    offer: dict | None


class OfferLedger:
    """Append-only fact journal with idempotency and a dead-letter queue."""

    def __init__(
        self,
        log: MemoryEventLog | JsonlEventLog | None = None,
        *,
        node: str = "brp",
    ) -> None:
        self.log = log if log is not None else MemoryEventLog()
        self.node = node  # also empties the cache of composed heads
        #: True while a replay re-executes journaled inputs: suspends both
        #: the idempotency guard and fact recording (the log already holds
        #: the history being re-executed).
        self.replaying = False
        self._suspended = 0
        self._seq = 0
        self._results: dict[str, RecordedResult] = {}
        self._dead: list[DeadLetter] = []
        self.appends = 0
        self.duplicates = 0
        self._rebuild(self.log.replay())

    @property
    def node(self) -> str:
        """The name every fact records as its ``node``."""
        return self._node

    @node.setter
    def node(self, name: str) -> None:
        self._node = name
        #: ``, "kind": …, "node": …`` per fact kind, for :meth:`_shared`.
        self._heads: dict[str, str] = {}

    @classmethod
    def recover(
        cls, log: MemoryEventLog | JsonlEventLog, *, node: str = "brp"
    ) -> tuple["OfferLedger", list[dict]]:
        """A ledger over ``log`` plus the facts it was rebuilt from.

        Recovery needs both — the ledger to keep journaling, the facts to
        replay — and decoding a journal is most of what reading it costs,
        so the two share one :meth:`replay` pass of the log.
        """
        events = list(log.replay())
        ledger = cls(node=node)  # over an empty log: nothing to rebuild yet
        ledger.log = log
        ledger._rebuild(events)
        return ledger, events

    # ------------------------------------------------------------------
    # state rebuilt from the log (survives restart)
    # ------------------------------------------------------------------
    def _rebuild(self, events: Iterable[dict]) -> None:
        for event in events:
            self._seq = max(self._seq, int(event.get("seq", -1)) + 1)
            self.appends += 1
            self._absorb(event)

    def _absorb(self, event: dict) -> None:
        kind = event.get("kind")
        sid = event.get("source_event_id")
        if kind in ("submit", "replace") and sid is not None:
            self._results[sid] = RecordedResult(
                bool(event["accepted"]),
                int(event["offer_id"]),
                event.get("reason"),
            )
        elif kind == "dead_letter":
            self._dead.append(
                DeadLetter(
                    seq=int(event["seq"]),
                    at=float(event["at"]),
                    node=str(event.get("node", self.node)),
                    offer_id=int(event["offer_id"]),
                    owner=str(event.get("owner", "")),
                    reason=str(event["reason"]),
                    offer=event.get("offer"),
                )
            )
        elif kind == "duplicate":
            self.duplicates += 1

    # ------------------------------------------------------------------
    # recording gate
    # ------------------------------------------------------------------
    @property
    def recording(self) -> bool:
        """Whether derived facts (scheduled/retire/...) are journaled."""
        return not self.replaying

    @property
    def recording_inputs(self) -> bool:
        """Whether input facts and the idempotency guard are active.

        False while replaying *or* inside :meth:`suspended` — a compound
        edit journals its own correction pair, but derived facts its inner
        operations trigger (plan commits, retirements) must still land.
        """
        return not self.replaying and self._suspended == 0

    @contextmanager
    def suspended(self) -> Iterator["OfferLedger"]:
        """Suppress input-fact journaling for a compound operation.

        ``BrpRuntimeService.update`` journals one ``reverse``+``replace`` pair
        and runs its internal withdraw/submit under suspension, so the log
        records the edit as a correction pair rather than three
        overlapping facts.  Derived facts keep recording.
        """
        self._suspended += 1
        try:
            yield self
        finally:
            self._suspended -= 1

    # ------------------------------------------------------------------
    # idempotency guard
    # ------------------------------------------------------------------
    def recorded_result(self, source_event_id: str | None) -> RecordedResult | None:
        """The originally recorded outcome for this source event, if any."""
        if source_event_id is None:
            return None
        return self._results.get(source_event_id)

    def note_duplicate(
        self, source_event_id: str, *, offer_id: int, at: float
    ) -> None:
        """Journal that a duplicate submission was deflected."""
        self.duplicates += 1
        if self.recording_inputs:
            self._append(
                "duplicate",
                at=at,
                source_event_id=source_event_id,
                offer_id=offer_id,
            )

    # ------------------------------------------------------------------
    # facts
    # ------------------------------------------------------------------
    def _append(self, kind: str, *, at: float, **payload) -> dict:
        if kind not in FACT_KINDS:
            raise DataManagementError(f"unknown ledger fact kind {kind!r}")
        event = {
            "seq": self._seq,
            "kind": kind,
            "at": float(at),
            "node": self.node,
            **payload,
        }
        self._seq += 1
        self.appends += 1
        self.log.append(event)
        return event

    def record_run_window(self, start: float, end: float, *, at: float) -> dict:
        """One ``open_window`` call: lets replay re-arm sweep cadence."""
        return self._append("run_window", at=at, start=float(start), end=float(end))

    def record_run_drain(self, end: float, *, at: float) -> dict:
        """The window's closing drain (sweep + flush + forced schedule).

        Journaled by ``drain`` when a window reaches its end, so replay can
        tell a completed window from one cut short by a crash — and re-run
        the same drain at the same instant.
        """
        return self._append("run_drain", at=at, end=float(end))

    def _shared(self, kind: str, at: float) -> str:
        """``"at": …, "kind": …, "node": …`` — the leading keys every fact
        shares.  ``at`` is rendered by ``float.__repr__`` (the encoder's
        own rendering; a non-finite ``at`` goes through the encoder), the
        rest is composed once per kind and node."""
        at = float(at)
        head = self._heads.get(kind)
        if head is None:
            head = ', "kind": %s, "node": %s' % (escape(kind), _json(self._node))
            self._heads[kind] = head
        return '"at": ' + (repr(at) if -_INF < at < _INF else encode(at)) + head

    def record_submit(
        self,
        offer: FlexOffer,
        *,
        at: float,
        source_event_id: str | None,
        accepted: bool,
        reason: str | None = None,
        accepted_offer: FlexOffer | None = None,
        kind: str = "submit",
        reverses: int | None = None,
        offer_text: str | None = None,
    ) -> None:
        """One submission fact (or the ``replace`` half of an edit).

        A rejected submission is additionally routed to the dead-letter
        queue with its reason.  The outcome is recorded against
        ``source_event_id`` so later duplicates return it unchanged.

        ``offer_text`` is :func:`~repro.ledger.codec.offer_json` of
        ``offer`` when the caller already rendered it — the front door
        does, to derive the content key, which therefore hashes exactly the
        bytes this fact's ``offer`` field carries; without it the text is
        rendered here, once.  The line is one f-string in sorted-key order
        (``reverses`` included when given): the text goes in verbatim as
        ``offer``, and again as ``accepted_offer`` when the admitted offer
        is the submitted object (a clipped admission renders its own), the
        shared keys come from :meth:`_shared` and every other field from
        :func:`_json`.  The string is :data:`~repro.ledger.log.encode` of
        the fact's dict — the encoder is the oracle the tests hold it to —
        and a dead letter reuses the same text.
        """
        if kind not in ("submit", "replace"):
            raise DataManagementError(f"not a submission fact kind: {kind!r}")
        text = offer_json(offer) if offer_text is None else offer_text
        if accepted_offer is None:
            key = admitted = ""
        else:
            key = ', "accepted_offer": '
            admitted = (
                text if accepted_offer is offer else offer_json(accepted_offer)
            )
        flag = "true" if accepted else "false"
        rev = "" if reverses is None else f', "reverses": {_json(reverses)}'
        line = (
            f'{{"accepted": {flag}{key}{admitted}, {self._shared(kind, at)}, '
            f'"offer": {text}, "offer_id": {_json(offer.offer_id)}, '
            f'"reason": {_json(reason)}{rev}, "seq": {self._seq}, '
            f'"source_event_id": {_json(source_event_id)}}}'
        )
        self._seq += 1
        self.appends += 1
        self.log.append(line)
        if source_event_id is not None:
            self._results[source_event_id] = RecordedResult(
                bool(accepted), offer.offer_id, reason
            )
        if not accepted:
            self._dead_letter(offer, reason or "rejected", at, text)

    def record_reverse(
        self, offer_id: int, *, at: float, replaced_by: str | None = None
    ) -> dict:
        """The compensating half of an edit: the previous version is void."""
        return self._append(
            "reverse", at=at, offer_id=offer_id, replaced_by=replaced_by
        )

    def record_withdraw(self, offer_id: int, *, at: float) -> dict:
        return self._append("withdraw", at=at, offer_id=offer_id)

    def _append_batch(
        self, kind: str, at: float, field: str, rows: Sequence[tuple]
    ) -> None:
        """One fact per ``(offer_id, value)`` row, in one ``append`` call.

        Each fact takes the next ``seq``, exactly the facts and the order
        that one call per row would journal, all stamped with the one
        ``at``; they reach the log as one write and one flush/fsync (group
        commit).  ``field`` names the row's value, a key that sorts after
        ``seq``; an ``int`` id and value, or a value already rendered as
        JSON, go in as their ``str``.  The shared keys (:meth:`_shared`) are
        composed once per batch, so each row is one f-string over its three
        values.  Each string is what :data:`~repro.ledger.log.encode` gives
        for the fact's dict (the tests hold it to that), and the logs take
        it as such: the durable one writes it, the in-memory one decodes it
        when read.
        """
        if not rows:
            return
        head = "{" + self._shared(kind, at) + ', "offer_id": '
        tail = f', "{field}": '
        facts = [
            f'{head}{offer_id}, "seq": {seq}{tail}{value}}}'
            for seq, (offer_id, value) in enumerate(rows, self._seq)
        ]
        self._seq += len(facts)
        self.appends += len(facts)
        self.log.append(*facts)

    def record_scheduled(
        self, starts: Sequence[tuple[int, int]], *, at: float
    ) -> None:
        """Journal one planning pass's changed plan starts, as one batch.

        ``starts`` holds ``(offer_id, start)`` in commit order; each becomes
        one ``scheduled`` fact.  A pass journals about a thousand of these
        and they differ in three integers, so the fields they share are
        encoded once (:meth:`_append_batch`).
        """
        self._append_batch("scheduled", at, "start", starts)

    def record_retire(
        self, retirements: Sequence[tuple[int, str]], *, at: float
    ) -> None:
        """Journal one expiry sweep's retirements, as one batch.

        ``retirements`` holds ``(offer_id, state)`` in the order the sweep
        retires them — every ``executed`` offer before every ``expired``
        one, each in live-pool order — and each becomes one ``retire`` fact
        (:meth:`_append_batch`): one append call per sweep, not per offer.
        """
        self._append_batch(
            "retire",
            at,
            "state",
            [(offer_id, _json(state)) for offer_id, state in retirements],
        )

    def record_dead_letter(
        self, offer: FlexOffer | None, reason: str, *, at: float, offer_id: int | None = None
    ) -> None:
        """Route one rejected/malformed submission to the dead-letter queue.

        Without an offer (a record too malformed to decode) the fact carries
        ``offer_id``, or ``-1`` when none is known.
        """
        text = None if offer is None else offer_json(offer)
        self._dead_letter(offer, reason, at, text, offer_id)

    def _dead_letter(
        self,
        offer: FlexOffer | None,
        reason: str,
        at: float,
        text: str | None,
        offer_id: int | None = None,
    ) -> None:
        """Journal and queue one dead letter; ``text`` is ``offer``'s
        :func:`~repro.ledger.codec.offer_json`, spliced in as the fact's
        ``offer`` field the way :meth:`record_submit` splices it."""
        if offer is None:
            oid, owner = (-1 if offer_id is None else offer_id), ""
        else:
            oid, owner = offer.offer_id, offer.owner
        seq = self._seq
        line = (
            f'{{{self._shared("dead_letter", at)}, '
            f'"offer": {"null" if text is None else text}, '
            f'"offer_id": {_json(oid)}, "owner": {_json(owner)}, '
            f'"reason": {_json(reason)}, "seq": {seq}}}'
        )
        self._seq += 1
        self.appends += 1
        self.log.append(line)
        self._dead.append(
            DeadLetter(
                seq=seq,
                at=float(at),
                node=self.node,
                offer_id=oid,
                owner=owner,
                reason=reason,
                offer=None if offer is None else offer_to_dict(offer),
            )
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def events(self) -> Iterator[dict]:
        """Every fact in the log, in order (reads from the backend)."""
        return self.log.replay()

    def dead_letters(self) -> tuple[DeadLetter, ...]:
        """The dead-letter queue: every rejected submission, with reasons."""
        return tuple(self._dead)

    def flush(self) -> None:
        self.log.flush()

    def close(self) -> None:
        self.log.close()
