"""Fault tolerance under injected failures: floods, outages, crash/replay.

Claims to measure:

* **duplicate flood** — re-delivering a slice of the stream costs bounded
  ledger work and zero double-admissions: the idempotency guard deflects
  every duplicate and the accepted count matches the clean stream exactly;
* **outage storm** — knocking a BRP off the bus mid-run permanently loses
  no committed schedule: the adapter retries with backoff, parks what it
  must and replays everything once the node recovers, at a bounded retry
  overhead (retries per delivered message);
* **crash/replay** — crash-killing a ledgered node mid-window and
  resuming from its on-disk journal reconverges *bit-identically* with
  the uninterrupted run; the recovery cost is one pass over the log;
* **group commit** — journaling the same hostile stream to disk costs one
  ``append`` call (one write, one flush/fsync) per input fact, per
  planning pass and per expiry sweep, not per fact, and the journal's bytes
  do not depend on the fsync mode; the same stream on an in-memory log
  gives the cost of journaling one submission (its content key included).

Records land in ``BENCH_runtime.json`` under ``fault.*`` names, the last
under ``ledger.group_commit``.
Scale with ``REPRO_SCALE``; ``REPRO_BENCH_SMOKE=1`` shrinks to seconds.
"""

import hashlib
import os
import time

from conftest import smoke_mode
from repro.api import JsonlEventLog, LedmsClient, MemoryEventLog, OfferLedger
from repro.experiments import scale_factor
from repro.experiments.reporting import print_table
from repro.runtime import service as service_module
from repro.runtime import (
    BusConfig,
    ClusterConfig,
    ClusterRuntime,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
    apply_outages,
    continue_stream,
    duplicate_stream,
    parse_outage,
    remaining_arrivals,
    reorder_stream,
    run_stream_with_crash,
    state_fingerprint,
)

RATE_PER_HOUR = 100.0
DURATION_SLICES = 96.0  # one simulated day
SEED = 42
DUPLICATE_RATE = 0.2
REORDER_WINDOW = 2.0
BRPS = 3


def _duration() -> float:
    return 24.0 if smoke_mode() else DURATION_SLICES


def _rate() -> float:
    return 20.0 if smoke_mode() else RATE_PER_HOUR * scale_factor()


def _service_config() -> ServiceConfig:
    return ServiceConfig(
        scheduling=SchedulingConfig(scheduler_passes=1, seed=SEED),
        ingest=IngestConfig(batch_size=16),
    )


def _clean_stream(duration: float, seed: int = SEED):
    return list(
        LoadGenerator(rate_per_hour=_rate(), seed=seed).stream(0.0, duration)
    )


def _hostile_stream(duration: float, seed: int = SEED):
    """Same offers, redelivered and jittered: what a flaky feed looks like."""
    clean = _clean_stream(duration, seed)
    jittered = list(reorder_stream(clean, REORDER_WINDOW, seed=seed + 1))
    return clean, list(duplicate_stream(jittered, DUPLICATE_RATE, seed=seed + 2))


def test_fault_duplicate_flood(once, bench_record):
    duration = _duration()

    def run():
        clean = _clean_stream(duration)
        flooded = list(duplicate_stream(clean, DUPLICATE_RATE, seed=SEED + 2))
        baseline = LedmsClient(_service_config())
        base = baseline.run_stream(iter(clean), duration)
        client = LedmsClient(
            _service_config(), ledger=OfferLedger(MemoryEventLog())
        )
        report = client.run_stream(iter(flooded), duration)
        return clean, flooded, base, client, report

    clean, flooded, base, client, report = once(run)

    # Duplicates re-emitted with a delay that lands past the run window are
    # never submitted; the guard must deflect exactly the in-window ones.
    seen: set[int] = set()
    duplicates = 0
    for at, offer in flooded:
        if id(offer) in seen:
            if at < duration:
                duplicates += 1
        else:
            seen.add(id(offer))
    deflected = client.ledger.duplicates
    print_table(
        f"duplicate flood ({_rate():g}/h, {duration:g} slices, "
        f"rate={DUPLICATE_RATE:g})",
        ["stream", "arrivals", "accepted", "deflected", "dead letters"],
        [
            ["clean", len(clean), base.offers_accepted, "-", "-"],
            [
                "flooded",
                len(flooded),
                report.offers_accepted,
                deflected,
                len(client.dead_letters()),
            ],
        ],
    )

    # Every redelivery was deflected; admissions match the clean run exactly.
    assert deflected == duplicates
    assert report.offers_accepted == base.offers_accepted

    bench_record(
        "runtime",
        name="fault.duplicate_flood",
        workload={
            "rate_per_hour": _rate(),
            "duration_slices": duration,
            "duplicate_rate": DUPLICATE_RATE,
        },
        metrics={
            "arrivals": len(flooded),
            "duplicates_injected": len(flooded) - len(clean),
            "duplicates_in_window": duplicates,
            "duplicates_deflected": deflected,
            "double_admissions": report.offers_accepted - base.offers_accepted,
            "offers_accepted": report.offers_accepted,
            "ledger_appends": client.ledger.appends,
        },
    )


def test_fault_outage_storm(once, bench_record):
    duration = _duration()
    # Long enough that messages sent early in the outage exhaust their
    # retries and park (backoff 1+2 slices), while later sends ride out
    # the storm on retries alone — both recovery paths get exercised.
    outage = f"brp-1:{duration * 0.2:g}:{duration * 0.7:g}"

    def run():
        config = ClusterConfig.uniform(
            BRPS, _service_config(), bus=BusConfig(max_retries=2)
        )
        cluster = ClusterRuntime(config)
        apply_outages(cluster, [parse_outage(outage)])
        streams = {
            name: LoadGenerator(rate_per_hour=_rate(), seed=SEED + i).stream(
                0.0, duration
            )
            for i, name in enumerate(cluster.clients)
        }
        report = cluster.run(streams, duration)
        return cluster, report

    cluster, report = once(run)

    retry_overhead = report.bus_retries / max(1, report.bus_delivered)
    downed = cluster.clients["brp-1"].service
    print_table(
        f"outage storm ({BRPS} BRPs, outage {outage}, "
        f"{_rate():g}/h per BRP, {duration:g} slices)",
        ["metric", "value"],
        [
            ["bus delivered", report.bus_delivered],
            ["bus retries", report.bus_retries],
            ["parked replayed on recovery", report.bus_replayed],
            ["still parked at end (lost)", report.bus_parked],
            ["retry overhead (retries/delivered)", f"{retry_overhead:.3f}"],
            ["downed BRP committed schedules", downed.scheduled_total],
        ],
    )

    # The storm was real (retries fired, parked messages replayed) and no
    # committed schedule was permanently lost: nothing is still stranded
    # and the downed BRP holds live commitments after recovery.
    assert report.bus_retries > 0
    assert report.bus_replayed > 0
    assert report.bus_parked == 0
    assert downed.scheduled_total > 0
    assert retry_overhead < 1.0

    bench_record(
        "runtime",
        name="fault.outage_storm",
        workload={
            "rate_per_hour": _rate(),
            "duration_slices": duration,
            "brps": BRPS,
            "outage": outage,
        },
        metrics={
            "offers_accepted": report.offers_accepted,
            "bus_delivered": report.bus_delivered,
            "bus_retries": report.bus_retries,
            "bus_replayed": report.bus_replayed,
            "lost_committed_schedules": report.bus_parked,
            "retry_overhead": retry_overhead,
            "downed_brp_committed": downed.scheduled_total,
        },
    )


def test_fault_crash_replay(once, bench_record, tmp_path):
    duration = _duration()
    crash = duration * 0.5

    def run():
        _, hostile = _hostile_stream(duration)
        baseline = LedmsClient(
            _service_config(), ledger=OfferLedger(MemoryEventLog())
        )
        baseline.run_stream(iter(hostile), duration)
        fingerprint = state_fingerprint(baseline)
        # The measured node journals to disk with commit-fsync (the
        # durable default), dies mid-window, and is rebuilt from the log.
        log = JsonlEventLog(tmp_path / "ledger", fsync="commit")
        client = LedmsClient(_service_config(), ledger=OfferLedger(log))
        assert run_stream_with_crash(client, iter(hostile), duration, crash) is None
        resumed = LedmsClient.resume_from_ledger(
            str(tmp_path / "ledger"), _service_config()
        )
        tail = remaining_arrivals(hostile, resumed.service.now)
        report = continue_stream(resumed, tail, duration)
        return hostile, fingerprint, resumed, report

    hostile, fingerprint, resumed, report = once(run)

    replay = resumed.last_replay
    match = state_fingerprint(resumed) == fingerprint
    print_table(
        f"crash at t={crash:g} + ledger replay ({_rate():g}/h, "
        f"{duration:g} slices)",
        ["metric", "value"],
        [
            ["journaled events replayed", replay.events],
            ["input facts re-driven", replay.inputs],
            ["live offers restored", replay.live_restored],
            ["committed starts restored", replay.committed_restored],
            ["final accepted", report.offers_accepted],
            ["bit-identical with uninterrupted run", match],
        ],
    )

    assert replay.mode == "reexecute"
    assert replay.inputs > 0
    assert match

    bench_record(
        "runtime",
        name="fault.crash_replay",
        workload={
            "rate_per_hour": _rate(),
            "duration_slices": duration,
            "crash_time": crash,
            "duplicate_rate": DUPLICATE_RATE,
            "reorder_window": REORDER_WINDOW,
        },
        metrics={
            "replay_events": replay.events,
            "replay_inputs": replay.inputs,
            "live_restored": replay.live_restored,
            "committed_restored": replay.committed_restored,
            "dead_letters": replay.dead_letters,
            "offers_accepted": report.offers_accepted,
            "fingerprint_match": 1.0 if match else 0.0,
        },
    )


#: Every journaling entry the service calls (``record_dead_letter`` is only
#: reached from inside ``record_submit``, so timing it too would count twice).
_LEDGER_ENTRIES = (
    "record_run_window", "record_run_drain", "record_submit", "record_reverse",
    "record_withdraw", "record_scheduled", "record_retire", "note_duplicate",
)

#: What the service calls to derive a submission's content key — module
#: globals of ``repro.runtime.service``, timed with the entries above (a
#: name the service does not import is skipped).  Without them, moving the
#: offer's encoding from the ledger into the key would read as a saving.
_KEY_ENTRIES = ("offer_json", "content_key", "default_source_event_id")


def _journal(hostile, duration, log, monkeypatch):
    """Journal ``hostile`` to ``log``; what the journaling cost.

    ``submit_wall_s`` is the part spent on submissions — content keys plus
    ``record_submit`` — and ``us_per_submission`` divides it by the
    ``record_submit`` calls.
    """
    counts = {
        "append_calls": 0, "fsyncs": 0, "journal_wall_s": 0.0,
        "submissions": 0, "submit_wall_s": 0.0,
    }
    ledger = OfferLedger(log)

    def counted(original, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return call

    def timed(original, *keys):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                for key in keys:
                    counts[key] += elapsed

        return call

    submission = ("journal_wall_s", "submit_wall_s")
    ledger.log.append = counted(ledger.log.append, "append_calls")
    for entry in _LEDGER_ENTRIES:
        keys = submission if entry == "record_submit" else ("journal_wall_s",)
        setattr(ledger, entry, timed(getattr(ledger, entry), *keys))
    ledger.record_submit = counted(ledger.record_submit, "submissions")
    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", counted(os.fsync, "fsyncs"))
        for name in _KEY_ENTRIES:
            if hasattr(service_module, name):
                original = getattr(service_module, name)
                patch.setattr(service_module, name, timed(original, *submission))
        client = LedmsClient(_service_config(), ledger=ledger)
        t0 = time.perf_counter()
        report = client.run_stream(iter(hostile), duration)
        counts["run_wall_s"] = time.perf_counter() - t0
    ledger.close()
    counts["us_per_submission"] = (
        1e6 * counts["submit_wall_s"] / max(1, counts["submissions"])
    )
    digest = hashlib.sha256()
    if isinstance(log, JsonlEventLog):
        for segment in log.segments():
            digest.update(segment.read_bytes())
    return {
        **counts,
        "facts": ledger.appends,
        "accepted": report.offers_accepted,
        "journal_sha256": digest.hexdigest(),
    }


def test_ledger_group_commit(once, bench_record, tmp_path, monkeypatch):
    duration = _duration()
    modes = ("commit", "close", "never")

    def run():
        _, hostile = _hostile_stream(duration)
        runs = {
            mode: _journal(
                hostile, duration, JsonlEventLog(tmp_path / mode, fsync=mode),
                monkeypatch,
            )
            for mode in modes
        }
        # The in-memory log writes nothing: what is left is the encoding.
        # Best of three, the number being a few microseconds.
        runs["memory"] = min(
            (
                _journal(hostile, duration, MemoryEventLog(), monkeypatch)
                for _ in range(3)
            ),
            key=lambda counts: counts["us_per_submission"],
        )
        return runs

    runs = once(run)

    print_table(
        f"journaling one hostile stream ({_rate():g}/h, {duration:g} slices)",
        ["log", "facts", "append calls", "os.fsync calls",
         "journaling wall (s)", "us/submission", "run wall (s)"],
        [
            [
                mode,
                runs[mode]["facts"],
                runs[mode]["append_calls"],
                runs[mode]["fsyncs"],
                f"{runs[mode]['journal_wall_s']:.3f}",
                f"{runs[mode]['us_per_submission']:.2f}",
                f"{runs[mode]['run_wall_s']:.3f}",
            ]
            for mode in (*modes, "memory")
        ],
    )

    bench_record(
        "runtime",
        name="ledger.group_commit",
        workload={
            "rate_per_hour": _rate(),
            "duration_slices": duration,
            "duplicate_rate": DUPLICATE_RATE,
            "reorder_window": REORDER_WINDOW,
            "cpu_count": os.cpu_count(),
            "source": "this commit",
        },
        metrics={
            "facts": runs["commit"]["facts"],
            "offers_accepted": runs["commit"]["accepted"],
            "submissions": runs["commit"]["submissions"],
            **{
                f"{mode}.{key}": runs[mode][key]
                for mode in (*modes, "memory")
                for key in (
                    "append_calls", "fsyncs", "journal_wall_s",
                    "us_per_submission", "run_wall_s",
                )
            },
        },
    )

    # Relative only: one fsync per append call under "commit" (the window
    # rolls no segment) and none otherwise before close; a planning pass is
    # one call however many members it moved; the bytes are the mode's
    # business in no way.
    assert runs["commit"]["fsyncs"] == runs["commit"]["append_calls"]
    assert runs["close"]["fsyncs"] == runs["never"]["fsyncs"] == 0
    assert len({runs[mode]["journal_sha256"] for mode in modes}) == 1
    assert len({runs[mode]["facts"] for mode in (*modes, "memory")}) == 1
    # (A smoke stream's passes move a handful of members each: there a
    # call still carries more than one fact, but not five.)
    per_call = 1 if smoke_mode() else 5
    for mode in modes:
        assert runs[mode]["append_calls"] * per_call < runs[mode]["facts"]
