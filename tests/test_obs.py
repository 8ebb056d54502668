"""Observability subsystem: tracing, event log, export, and labeled metrics.

Covers the obs package end to end:

* labeled instruments and the gauge merge-policy / histogram-stratification
  semantics of :mod:`repro.runtime.metrics` (merge-order determinism);
* :class:`~repro.obs.Tracer` span nesting, ring retention, deterministic
  sampling, and the :class:`~repro.obs.NullTracer` no-op surface;
* the JSONL event log round trip and its schema;
* trace-context propagation across a BRP -> TSO -> BRP bus round trip,
  including a mid-stream node outage (dropped deliveries are traced, the
  survivor's causal chain stays complete);
* metrics exposition (text / JSON / Prometheus) through the ``exporter``
  registry kind, and the ``inspect`` CLI subcommand.
"""

import importlib.util
import json
import pathlib
import re

import pytest

from repro.__main__ import main
from repro.core.errors import ServiceError
from repro.obs import (
    EVENT_SCHEMA,
    TERMINAL_OFFER_STATES,
    JsonlWriter,
    NullTracer,
    TraceContext,
    Tracer,
    iter_events,
    load_trace,
    offer_chain,
    render_breakdown,
    render_metrics_json,
    render_offer_tree,
    render_prometheus,
)
from repro.runtime import (
    ClusterConfig,
    ClusterRuntime,
    LoadGenerator,
    MetricsRegistry,
    ServiceConfig,
)
from repro.runtime.metrics import instrument_key


# ----------------------------------------------------------------------
# labeled metrics, gauge policies, merge determinism
# ----------------------------------------------------------------------
def test_instrument_key_sorts_labels():
    assert instrument_key("bus.sent", None) == "bus.sent"
    assert (
        instrument_key("stage.wall", {"stage": "agg", "brp": "b0"})
        == 'stage.wall{brp="b0",stage="agg"}'
    )


def test_labeled_instruments_are_distinct():
    registry = MetricsRegistry()
    registry.counter("bus.sent", labels={"type": "macro"}).inc(3)
    registry.counter("bus.sent", labels={"type": "sched"}).inc(5)
    snapshot = registry.as_dict()
    assert snapshot['bus.sent{type="macro"}'] == 3
    assert snapshot['bus.sent{type="sched"}'] == 5


def test_labeled_merge_is_label_aware():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("bus.sent", labels={"type": "macro"}).inc(2)
    b.counter("bus.sent", labels={"type": "macro"}).inc(3)
    b.counter("bus.sent", labels={"type": "sched"}).inc(7)
    merged = MetricsRegistry()
    merged.merge_from(a)
    merged.merge_from(b)
    snapshot = merged.as_dict()
    assert snapshot['bus.sent{type="macro"}'] == 5
    assert snapshot['bus.sent{type="sched"}'] == 7


def test_gauge_merge_policies():
    for policy, expected in (("sum", 12.0), ("last", 4.0), ("max", 8.0)):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", merge=policy).set(8.0)
        b.gauge("g", merge=policy).set(4.0)
        merged = MetricsRegistry()
        merged.merge_from(a)
        merged.merge_from(b)
        assert merged.gauge("g", merge=policy).value == expected, policy


def test_gauge_merge_skips_untouched_sources():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("g", merge="last").set(8.0)
    b.gauge("g", merge="last")  # never set: must not clobber with 0.0
    merged = MetricsRegistry()
    merged.merge_from(a)
    merged.merge_from(b)
    assert merged.gauge("g", merge="last").value == 8.0


def test_gauge_conflicting_merge_policy_raises():
    registry = MetricsRegistry()
    registry.gauge("g", merge="last")
    with pytest.raises(ServiceError):
        registry.gauge("g", merge="max")


def test_histogram_merge_is_order_independent_past_saturation():
    """A->B and B->A merges yield the identical retained reservoir."""

    def build():
        fast, slow = MetricsRegistry(), MetricsRegistry()
        h_fast = fast.histogram("h", reservoir_size=100)
        h_slow = slow.histogram("h", reservoir_size=100)
        for i in range(1000):
            h_fast.observe(1.0 + (i % 7) * 0.01)
            h_slow.observe(20.0 + (i % 11) * 0.01)
        return fast, slow

    fast, slow = build()
    ab = MetricsRegistry()
    ab.merge_from(fast)
    ab.merge_from(slow)
    fast2, slow2 = build()
    ba = MetricsRegistry()
    ba.merge_from(slow2)
    ba.merge_from(fast2)

    h_ab = ab.histogram("h", reservoir_size=100)
    h_ba = ba.histogram("h", reservoir_size=100)
    assert h_ab.count == h_ba.count == 2000
    assert sorted(h_ab.observations) == sorted(h_ba.observations)
    # Stratification keeps both strata represented despite saturation.
    assert h_ab.quantile(0.25) < 2.0
    assert h_ab.quantile(0.75) > 19.0


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------
def test_spans_nest_and_link():
    tracer = Tracer()
    with tracer.span("outer", node="brp-0") as outer:
        with tracer.span("inner", node="brp-0") as inner:
            assert inner.parent_id == outer.span_id
            assert tracer.current_context("brp-0") == inner.context()
            inner.link(TraceContext("tso", 99))
    events = tracer.events
    assert [e["name"] for e in events] == ["inner", "outer"]
    assert events[0]["parent"] == outer.span_id
    assert events[0]["links"] == [{"node": "tso", "span": 99}]
    assert events[1]["parent"] is None
    assert tracer.current_span() is None


def test_ring_eviction_is_fifo_and_counted():
    tracer = Tracer(capacity=3)
    for oid in range(5):
        tracer.offer_event(oid, "submitted", node="n")
    assert tracer.evicted == 2
    assert [e["offer_id"] for e in tracer.events] == [2, 3, 4]
    assert [e["seq"] for e in tracer.events] == [2, 3, 4]


def test_sampling_is_deterministic_and_forceable():
    tracer = Tracer(sample_every=10)
    for oid in (5, 10, 15, 20):
        tracer.offer_event(oid, "submitted")
    assert [e["offer_id"] for e in tracer.events] == [10, 20]
    tracer.offer_event(7, "macro_commit", force=True)
    assert tracer.events[-1]["offer_id"] == 7


def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert not tracer.enabled
    with tracer.span("anything") as span:
        span.link(TraceContext("x", 1))
        span.add_offer(3)
        assert span.context() is None
    tracer.offer_event(1, "submitted")
    tracer.bus_event("publish")
    tracer.trigger_event(node="n")
    assert tracer.events == ()
    assert not tracer.sampled(0)


def test_tracer_validation():
    with pytest.raises(ServiceError):
        Tracer(capacity=0)
    with pytest.raises(ServiceError):
        Tracer(sample_every=0)


# ----------------------------------------------------------------------
# event log round trip
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = JsonlWriter(str(path))
    tracer = Tracer(sink=writer)
    with tracer.span("stage", node="brp-0", labels={"stage": "aggregate"}):
        tracer.offer_event(42, "submitted", node="brp-0")
    writer.close()
    events = list(iter_events(str(path)))
    assert [e["event"] for e in events] == ["offer", "span"]
    for event in events:
        missing = set(EVENT_SCHEMA[event["event"]]) - set(event)
        assert not missing, missing
    assert events == list(tracer.events)


# ----------------------------------------------------------------------
# cluster round trip with a mid-stream outage
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_outage_run():
    """A 2-BRP cluster run, tracing on, with brp-1 down mid-window."""
    tracer = Tracer(capacity=400_000)
    cluster = ClusterRuntime(
        ClusterConfig.uniform(2, ServiceConfig()), tracer=tracer
    )
    cluster.driver.schedule_at(
        20.0, lambda: cluster.set_unreachable("brp-1")
    )
    cluster.driver.schedule_at(
        40.0, lambda: cluster.set_unreachable("brp-1", False)
    )
    streams = {
        name: LoadGenerator(rate_per_hour=240.0, seed=i).stream(0.0, 60.0)
        for i, name in enumerate(cluster.clients)
    }
    report = cluster.run(streams, 60.0)
    cluster.trace_shutdown()
    return cluster, tracer, report


def test_outage_run_traces_drops(traced_outage_run):
    cluster, tracer, report = traced_outage_run
    drops = [
        e
        for e in tracer.events
        if e["event"] == "bus" and e["action"] == "drop"
    ]
    assert drops, "outage window produced no traced drops"
    assert all(e["detail"]["reason"].startswith("unreachable") for e in drops)
    assert report.bus_dropped == len(drops)
    dropped_counter = sum(
        value
        for key, value in cluster.adapter.metrics.as_dict().items()
        if key.startswith("bus.dropped")
    )
    assert dropped_counter == report.bus_dropped


def test_offer_chain_survives_round_trip(traced_outage_run):
    _, tracer, _ = traced_outage_run
    events = tracer.events
    remote = [
        e
        for e in events
        if e["event"] == "offer"
        and e["state"] == "remote_commit"
        and e["node"] == "brp-0"
    ]
    assert remote, "no TSO schedule round-tripped back to brp-0"
    chain = offer_chain(events, remote[0]["offer_id"])
    states = [e.get("state") for e in chain if e["event"] == "offer"]
    for needed in ("submitted", "accepted", "aggregated", "scheduled",
                   "aggregated_into", "macro_received", "macro_scheduled",
                   "remote_commit"):
        assert needed in states, f"chain is missing {needed}"
    nodes = {e["node"] for e in chain}
    assert "tso" in nodes and "brp-0" in nodes
    # The chain crossed the bus in both directions.
    bus_types = {
        e["type"] for e in chain if e["event"] == "bus"
    }
    assert bus_types == {"macro-flex-offer", "scheduled-macro-flex-offer"}


def test_every_submission_reaches_a_terminal_state(traced_outage_run):
    _, tracer, _ = traced_outage_run
    offers = [e for e in tracer.events if e["event"] == "offer"]
    submitted = {e["offer_id"] for e in offers if e["state"] == "submitted"}
    terminal = {
        e["offer_id"]
        for e in offers
        if e["state"] in TERMINAL_OFFER_STATES
    }
    assert submitted, "no offers traced"
    assert submitted <= terminal


def test_tso_spans_link_back_to_brp_snapshots(traced_outage_run):
    _, tracer, _ = traced_outage_run
    tso_spans = [
        e
        for e in tracer.events
        if e["event"] == "span" and e["node"] == "tso"
    ]
    assert tso_spans
    linked_nodes = {
        link["node"] for span in tso_spans for link in span["links"]
    }
    assert "brp-0" in linked_nodes


def test_message_context_rides_the_bus(traced_outage_run):
    _, tracer, _ = traced_outage_run
    delivers = [
        e
        for e in tracer.events
        if e["event"] == "bus"
        and e["action"] == "deliver"
        and e["recipient"] == "tso"
    ]
    assert delivers
    assert all(e["ctx"] is not None for e in delivers)
    assert {e["ctx"]["node"] for e in delivers} <= {"brp-0", "brp-1"}


def test_breakdown_and_offer_tree_render(traced_outage_run):
    _, tracer, _ = traced_outage_run
    events = tracer.events
    breakdown = render_breakdown(events)
    assert "tso" in breakdown and "schedule" in breakdown
    remote = next(
        e
        for e in events
        if e["event"] == "offer" and e["state"] == "remote_commit"
    )
    tree = render_offer_tree(events, remote["offer_id"])
    assert "submitted" in tree and "remote_commit" in tree


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def test_prometheus_rendering():
    registry = MetricsRegistry()
    registry.counter("bus.sent", labels={"type": "macro"}).inc(4)
    registry.gauge("runtime.live_offers").set(17)
    hist = registry.histogram("stage.wall_seconds", labels={"brp": "b0"})
    for value in (0.1, 0.2, 0.3):
        hist.observe(value)
    text = render_prometheus(registry)
    assert "# TYPE bus_sent counter" in text
    assert 'bus_sent{type="macro"} 4' in text
    assert "runtime_live_offers 17" in text
    assert "# TYPE stage_wall_seconds summary" in text
    assert 'stage_wall_seconds{brp="b0",quantile="0.5"}' in text
    assert 'stage_wall_seconds_count{brp="b0"} 3' in text


def test_json_rendering_parses():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.histogram("h").observe(1.0)
    payload = json.loads(render_metrics_json(registry))
    assert payload["c"] == 2
    assert payload["h"]["count"] == 1


def test_exporters_resolve_through_registry():
    from repro.api import KIND_EXPORTER, default_registry

    registry = MetricsRegistry()
    registry.counter("c").inc(1)
    for name in ("text", "json", "prometheus"):
        render = default_registry().create(KIND_EXPORTER, name)
        assert "c" in render(registry)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_trace_and_inspect(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    metrics_json = tmp_path / "metrics.json"
    code = main(
        [
            "loadtest",
            "--rate", "40", "--duration", "24", "--seed", "1",
            "--batch", "8", "--passes", "1", "--brps", "2",
            "--trace", str(trace),
            "--metrics-json", str(metrics_json),
        ]
    )
    assert code == 0
    capsys.readouterr()
    events = load_trace(str(trace))
    assert events
    snapshot = json.loads(metrics_json.read_text())
    assert any(key.startswith("bus.") for key in snapshot)

    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "node" in out and "bus action" in out

    offer_id = next(
        e["offer_id"] for e in events if e["event"] == "offer"
    )
    assert main(["inspect", str(trace), "--offer", str(offer_id)]) == 0
    out = capsys.readouterr().out
    assert f"offer {offer_id}" in out


#: One micro offer's own events, in log order, runs of one kind collapsed:
#: admission, then (ledger on) the journaled submit, the flush that
#: aggregated it, its first plan commitment — journaled *before* the store's
#: ``scheduled`` transition, which in turn precedes every
#: ``aggregated_into``/``remote_commit`` — any number of re-plans, and at
#: most one way out.
_MICRO_OFFER_ORDER = re.compile(
    r"submitted (rejected( L:submit)?|accepted( L:submit)?"
    r"( aggregated( (L:scheduled )?scheduled"
    r"( (L:scheduled|aggregated_into|remote_commit))*)?)?"
    r"( (executed|expired|withdrawn|live_at_shutdown))?)"
)


@pytest.mark.parametrize(
    "mode",
    [
        ["--brps", "2", "--rate", "20", "--duration", "24", "--seed", "1"],
        ["--rate", "40", "--duration", "120", "--seed", "3", "--fsync", "never",
         "--ledger"],
    ],
    ids=["cluster", "ledger"],
)
def test_traced_loadtest_keeps_per_offer_event_order(mode, tmp_path, capsys):
    """Lifecycle facts reach the store in batches (one per flush, sweep and
    plan commitment pass); no offer's own event order may change because of
    it."""
    trace = tmp_path / "run.jsonl"
    if mode[-1] == "--ledger":
        mode = [*mode, str(tmp_path / "ledger")]
    assert main(
        ["loadtest", *mode, "--batch", "8", "--passes", "1", "--trace", str(trace)]
    ) == 0
    checker_path = (
        pathlib.Path(__file__).parent.parent / "benchmarks" / "check_trace_jsonl.py"
    )
    spec = importlib.util.spec_from_file_location("check_trace_jsonl", checker_path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    assert checker.check(str(trace)) == 0
    assert main(["inspect", str(trace)]) == 0
    capsys.readouterr()

    sequences: dict[tuple[str, int], list[str]] = {}
    for event in load_trace(str(trace)):
        if event["event"] == "offer":
            kind = event["state"]
        elif event["event"] == "ledger_append":
            kind = f"L:{event['fact']}"
        else:
            continue
        own = sequences.setdefault((event["node"], event["offer_id"]), [])
        if not own or own[-1] != kind:
            own.append(kind)
    micro = [" ".join(own) for own in sequences.values() if own[0] == "submitted"]
    assert len(micro) > 200
    for own in micro:
        assert _MICRO_OFFER_ORDER.fullmatch(own), own
    assert any(" scheduled aggregated_into" in own for own in micro)
    if "--brps" in mode:
        assert any(" remote_commit" in own for own in micro)
    else:
        assert any("L:scheduled scheduled" in own for own in micro)
        assert any(own.endswith(" executed") for own in micro)


def test_cli_inspect_missing_file(capsys):
    assert main(["inspect", "/nonexistent/trace.jsonl"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_log_json_streams_events(capsys):
    code = main(
        [
            "loadtest",
            "--rate", "30", "--duration", "12", "--seed", "1",
            "--batch", "8", "--passes", "1",
            "--log-json", "--trace-sample", "5",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line.strip()]
    assert lines, "no JSONL on stdout"
    for line in lines:
        record = json.loads(line)
        assert record["event"] in EVENT_SCHEMA
    # Human-facing report moved to stderr.
    assert "simulated duration" in captured.err


def test_cli_rejects_unknown_exporter(capsys):
    code = main(
        ["loadtest", "--duration", "6", "--metrics-format", "nope"]
    )
    assert code == 2
    assert "unknown exporter" in capsys.readouterr().err
