"""Causal tracing for the flex-offer runtime (Dapper-style spans).

The runtime spans four pipeline stages per BRP plus a TSO tier over a
message bus; an end-of-run metrics snapshot cannot say *where* an offer's
time went.  This module records the missing causal structure:

* :class:`Span` — a named, nested interval carrying both sim-time and
  wall-time, opened/closed around pipeline stages;
* offer-lifecycle events keyed by ``offer_id`` (submit → aggregate →
  schedule → commit/expire), deterministically sampled;
* bus and trigger-decision events;
* :class:`TraceContext` — a serializable pointer to a span that rides on
  bus messages, so a macro scheduled at the TSO links back to the BRP
  spans (and micro commitments) that produced it.

All records land in one bounded ring buffer (FIFO eviction, deterministic)
and, optionally, in a sink callable (the JSON-lines writer).  The default
tracer everywhere is :class:`NullTracer` — instrumentation call sites
guard on ``tracer.enabled``, so an untraced run pays almost nothing.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.errors import ServiceError

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "NullTracer",
    "TraceResequencer",
]


@dataclass(frozen=True)
class TraceContext:
    """A serializable pointer to a span on some node.

    Attached to bus messages so the receiver can link its own spans back
    to the sender's — the cross-node edge of the causal graph.
    """

    node: str
    span_id: int

    def as_dict(self) -> dict[str, Any]:
        return {"node": self.node, "span": self.span_id}


class Span:
    """One traced interval.  Use as a context manager via :meth:`Tracer.span`.

    Entering pushes the span on the tracer's stack (so events and child
    spans recorded inside it pick it up as their parent); exiting records
    the closing sim/wall times and emits a ``span`` event.
    """

    __slots__ = (
        "span_id",
        "name",
        "node",
        "parent_id",
        "links",
        "labels",
        "offer_ids",
        "sim_start",
        "wall_start",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        node: str,
        parent_id: int | None,
        labels: Mapping[str, str] | None,
        links: list[TraceContext],
        offer_ids: list[int],
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.node = node
        self.parent_id = parent_id
        self.labels = dict(labels) if labels else {}
        self.links = links
        self.offer_ids = offer_ids
        self.sim_start = tracer.sim_now()
        self.wall_start = tracer.wall_now()

    def link(self, ctx: TraceContext | None) -> None:
        """Add a cross-node causal edge (no-op for a missing context)."""
        if ctx is not None:
            self.links.append(ctx)

    def add_offer(self, offer_id: int) -> None:
        """Associate an offer id with this span (for trace reconstruction)."""
        self.offer_ids.append(int(offer_id))

    def context(self) -> TraceContext:
        """A :class:`TraceContext` pointing at this span."""
        return TraceContext(self.node, self.span_id)

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close_span(self)
        return False


class Tracer:
    """Recording tracer: bounded ring buffer plus optional event sink.

    Parameters
    ----------
    capacity:
        Ring-buffer size.  When full, the oldest event is evicted (FIFO —
        deterministic) and counted in :attr:`evicted`.
    sample_every:
        Offer-lifecycle sampling stride: offer events are recorded only
        when ``offer_id % sample_every == 0``.  ``1`` traces every offer;
        the modulo rule is deterministic, so a sampled offer is sampled at
        *every* stage on *every* node and its causal chain stays complete.
    sink:
        Optional callable invoked with each event dict as it is recorded
        (the JSON-lines writer).  The ring retains events either way.
    span_base:
        First span id this tracer mints.  Span ids are per-tracer, so a
        cluster spanning several processes gives each worker's tracer a
        disjoint band (e.g. ``(worker_index + 1) * 10**9``) — cross-process
        :class:`TraceContext` links then stay unambiguous when the worker
        streams merge into one trace.

    Sim time reads 0.0 until :meth:`bind_clock` attaches a driver's clock;
    wall time is :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(
        self,
        *,
        capacity: int = 65536,
        sample_every: int = 1,
        sink: Callable[[dict], None] | None = None,
        span_base: int = 1,
    ):
        if capacity <= 0:
            raise ServiceError("tracer capacity must be positive")
        if sample_every <= 0:
            raise ServiceError("tracer sample_every must be positive")
        if span_base <= 0:
            raise ServiceError("tracer span_base must be positive")
        self.capacity = capacity
        self.sample_every = sample_every
        self.evicted = 0
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._sink = sink
        self._clock: Callable[[], float] | None = None
        self._seq = 0
        self._next_span = span_base
        self._stack: list[Span] = []

    # -- time sources ---------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Bind the sim-time source (typically ``driver.now`` via lambda)."""
        self._clock = clock

    def sim_now(self) -> float:
        return float(self._clock()) if self._clock is not None else 0.0

    def wall_now(self) -> float:
        return time.perf_counter()

    # -- sampling -------------------------------------------------------
    def sampled(self, offer_id: int) -> bool:
        """Whether offer-lifecycle events for ``offer_id`` are recorded."""
        return int(offer_id) % self.sample_every == 0

    # -- span lifecycle -------------------------------------------------
    def span(
        self,
        name: str,
        *,
        node: str = "",
        labels: Mapping[str, str] | None = None,
        parent: Span | None = None,
        links: list[TraceContext] | None = None,
        offer_ids: list[int] | None = None,
    ) -> Span:
        """Open a span; use as ``with tracer.span("schedule", node=...) as s:``.

        The parent defaults to the innermost currently-open span, so
        nesting falls out of lexical structure.
        """
        if parent is not None:
            parent_id = parent.span_id
        else:
            parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(
            self,
            self._next_span,
            name,
            node,
            parent_id,
            labels,
            list(links) if links else [],
            [int(o) for o in offer_ids] if offer_ids else [],
        )
        self._next_span += 1
        return span

    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def current_context(self, node: str = "") -> TraceContext | None:
        """Context of the innermost open span (None outside any span)."""
        span = self.current_span()
        return span.context() if span is not None else None

    def _close_span(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: out-of-order close
            self._stack.remove(span)
        self._emit(
            {
                "event": "span",
                "node": span.node,
                "name": span.name,
                "span": span.span_id,
                "parent": span.parent_id,
                "links": [ctx.as_dict() for ctx in span.links],
                "labels": span.labels,
                "offer_ids": span.offer_ids,
                "sim_start": span.sim_start,
                "sim_end": self.sim_now(),
                "wall_seconds": self.wall_now() - span.wall_start,
            }
        )

    # -- event records --------------------------------------------------
    def offer_event(
        self,
        offer_id: int,
        state: str,
        *,
        node: str = "",
        detail: Mapping[str, Any] | None = None,
        force: bool = False,
    ) -> None:
        """Record an offer-lifecycle transition (subject to sampling)."""
        if not force and not self.sampled(offer_id):
            return
        span = self.current_span()
        self._emit(
            {
                "event": "offer",
                "node": node,
                "offer_id": int(offer_id),
                "state": state,
                "span": span.span_id if span is not None else None,
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    def bus_event(
        self,
        action: str,
        *,
        node: str = "",
        type: str = "",
        sender: str = "",
        recipient: str = "",
        message_id: int | None = None,
        ctx: TraceContext | None = None,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a bus publish/deliver/drop."""
        span = self.current_span()
        self._emit(
            {
                "event": "bus",
                "node": node,
                "action": action,
                "type": type,
                "sender": sender,
                "recipient": recipient,
                "message_id": message_id,
                "span": span.span_id if span is not None else None,
                "ctx": ctx.as_dict() if ctx is not None else None,
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    def trigger_event(
        self,
        *,
        node: str = "",
        fired: list[str] | None = None,
        decision: bool = False,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a trigger evaluation (which conditions fired, outcome)."""
        self._emit(
            {
                "event": "trigger",
                "node": node,
                "fired": list(fired) if fired else [],
                "decision": bool(decision),
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    def ledger_event(
        self,
        fact: str,
        offer_id: int,
        *,
        node: str = "",
        detail: Mapping[str, Any] | None = None,
        force: bool = False,
    ) -> None:
        """Record one durable-ledger append (subject to offer sampling)."""
        if not force and not self.sampled(offer_id):
            return
        self._emit(
            {
                "event": "ledger_append",
                "node": node,
                "fact": fact,
                "offer_id": int(offer_id),
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    def replay_event(
        self,
        offer_id: int,
        state: str,
        *,
        node: str = "",
        detail: Mapping[str, Any] | None = None,
        force: bool = False,
    ) -> None:
        """Record one offer restored by log replay (crash/restart boundary)."""
        if not force and not self.sampled(offer_id):
            return
        self._emit(
            {
                "event": "ledger_replay",
                "node": node,
                "offer_id": int(offer_id),
                "state": state,
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    def dlq_event(
        self,
        offer_id: int,
        reason: str,
        *,
        node: str = "",
        detail: Mapping[str, Any] | None = None,
        force: bool = False,
    ) -> None:
        """Record one submission routed to the dead-letter queue."""
        if not force and not self.sampled(offer_id):
            return
        self._emit(
            {
                "event": "dlq_routed",
                "node": node,
                "offer_id": int(offer_id),
                "reason": reason,
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    def bus_retry_event(
        self,
        *,
        node: str = "",
        type: str = "",
        sender: str = "",
        recipient: str = "",
        message_id: int | None = None,
        attempt: int = 1,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one bounded-retry attempt for an undeliverable message."""
        self._emit(
            {
                "event": "bus_retry",
                "node": node,
                "type": type,
                "sender": sender,
                "recipient": recipient,
                "message_id": message_id,
                "attempt": int(attempt),
                "sim": self.sim_now(),
                "wall": self.wall_now(),
                "detail": dict(detail) if detail else {},
            }
        )

    # -- retention ------------------------------------------------------
    def _emit(self, record: dict) -> None:
        record["seq"] = self._seq
        self._seq += 1
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(record)
        if self._sink is not None:
            self._sink(record)

    @property
    def events(self) -> tuple[dict, ...]:
        """The retained events, oldest first."""
        return tuple(self._ring)


class _NullSpan:
    """Shared no-op span: context manager with the Span surface."""

    __slots__ = ()
    span_id: str | None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def link(self, ctx) -> None:
        pass

    def add_offer(self, offer_id) -> None:
        pass

    def context(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing.

    Instrumentation call sites additionally guard loops and dict builds on
    ``tracer.enabled`` so the hot path stays within the <2% overhead
    budget (see ``benchmarks/bench_obs_overhead.py``).
    """

    enabled = False
    capacity = 0
    sample_every = 0
    evicted = 0

    def bind_clock(self, clock) -> None:
        pass

    def sampled(self, offer_id) -> bool:
        return False

    def span(self, name, **kwargs) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def current_context(self, node: str = "") -> None:
        return None

    def offer_event(self, offer_id, state, **kwargs) -> None:
        pass

    def bus_event(self, action, **kwargs) -> None:
        pass

    def trigger_event(self, **kwargs) -> None:
        pass

    def ledger_event(self, fact, offer_id, **kwargs) -> None:
        pass

    def replay_event(self, offer_id, state, **kwargs) -> None:
        pass

    def dlq_event(self, offer_id, reason, **kwargs) -> None:
        pass

    def bus_retry_event(self, **kwargs) -> None:
        pass

    @property
    def events(self) -> tuple:
        return ()


class TraceResequencer:
    """Merge several tracers' event streams into one monotone sequence.

    A multi-process cluster has one tracer per worker plus the parent's;
    each numbers its own events, so their ``seq`` fields collide and
    interleave.  The parent routes *every* record — its own tracer's sink
    output and the batches workers ship at barriers — through one
    resequencer, which rewrites ``seq`` in write order before forwarding to
    the real sink.  The result is a single JSONL stream with strictly
    increasing ``seq``, which is what the trace validator requires.
    """

    def __init__(self, sink: Callable[[dict], None]) -> None:
        self._sink = sink
        self._seq = 0
        self.written = 0
        """All-time records forwarded to the underlying sink."""

    def write(self, record: dict) -> None:
        """Rewrite ``record['seq']`` and forward it (also the sink surface)."""
        record["seq"] = self._seq
        self._seq += 1
        self.written += 1
        self._sink(record)

    __call__ = write
