"""repro.obs — observability for the BRP/TSO runtime.

Four pieces, threaded through service, cluster, bus and CLI:

* :mod:`~repro.obs.tracing` — Dapper-style spans, offer-lifecycle trace
  records, :class:`TraceContext` propagation over bus messages, bounded
  ring-buffer retention, and the no-op :class:`NullTracer` default;
* :mod:`~repro.obs.events` — the JSON-lines structured event log and its
  stable schema;
* :mod:`~repro.obs.export` — Prometheus-text and JSON metrics exposition
  (named in ``EXPORTERS`` for the CLI's ``--metrics-format``);
* :mod:`~repro.obs.inspect` — per-stage breakdowns and per-offer causal
  chains from an exported trace (the CLI ``inspect`` subcommand).

This package sits below :mod:`repro.runtime`: it imports only the core
layers, so every runtime module can instrument itself without cycles.
"""

from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    TERMINAL_OFFER_STATES,
    JsonlWriter,
    iter_events,
)
from .export import render_metrics_json, render_metrics_text, render_prometheus
from .inspect import (
    load_trace,
    offer_chain,
    render_breakdown,
    render_offer_tree,
)
from .tracing import NullTracer, Span, TraceContext, Tracer

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "TERMINAL_OFFER_STATES",
    "JsonlWriter",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "iter_events",
    "load_trace",
    "offer_chain",
    "render_breakdown",
    "render_metrics_json",
    "render_metrics_text",
    "render_prometheus",
    "render_offer_tree",
]
