"""LEDMS store: what one flex-offer lifecycle fact costs to record.

Every admitted offer leaves four to five rows in the ``flexoffer_event``
fact table (``submitted``, ``accepted``, ``aggregated``, ``scheduled``, a
terminal state), so the per-fact cost of :class:`~repro.datamgmt.LedmsStore`
is a per-offer cost of the whole runtime.  Measured here in isolation, every
check on (types, nullability, foreign keys, unknown state/actor):

* ``store.offer_events.one_row`` — :meth:`LedmsStore.record_offer_event`,
  the form admission uses (two facts per offer, one offer at a time);
* ``store.offer_events.batch_{8,64,256}`` —
  :meth:`LedmsStore.record_offer_events` at the batch sizes a flush, a sweep
  or a plan commitment produces, building the event list included.

Each record carries ``events_per_sec``, ``us_per_event``, ``bytes_per_row``
(the fact table's column buffers as allocated, per stored row) and
``speedup_vs_row_dict`` against :data:`ROW_DICT_EVENTS_PER_SEC` — the same
one-row loop timed by this file at the last commit that stored each fact as
a validated 7-key dict (the storage the column buffers replaced).  The two
batch sizes below ~6 rows where the column-wise form loses to the one-row
form are why the store keeps both entry points; ``batch_1`` is recorded to
show it.

The recorded figures are best-of-rounds.  The assertions are not: they
compare the entry points' *medians over the interleaved rounds* with each
other, so a slow host scales both sides of every ratio — a floor against
the row-dict constant, read on another day, tripped whenever the box was
30 % slower than on that day.

Records land in ``BENCH_runtime.json``.  ``REPRO_BENCH_SMOKE=1`` shrinks the
workload and disables the ratio assertions.
"""

import os
import statistics
import sys
import time

from conftest import smoke_mode
from repro.core.timebase import TimeAxis
from repro.datamgmt import LedmsStore
from repro.experiments.reporting import print_table
from repro.runtime import LoadGenerator

#: ``record_offer_event`` throughput of the row-dict store: 6.83 us per
#: event, its best reading on the 2-core container (the figure the change
#: was sized against; re-timed with this file's loop on a busier day the
#: same commit read 8.2-9.6 us, so ratios against this constant are the
#: conservative ones).
ROW_DICT_EVENTS_PER_SEC = 1e6 / 6.83
#: Median per-event cost of the one-row form over that of a 256-row batch
#: (recorded 2.4x best-of-rounds, 2.8x on medians).
BATCH_256_VS_ONE_ROW_FLOOR = 2.0
BYTES_PER_ROW_CEILING = 64.0

STATES = ("submitted", "accepted", "aggregated", "scheduled", "executed")
#: Record label -> facts per store call (``one_row`` is the one-row form).
ROWS_PER_CALL = {"one_row": 1, "batch_1": 1, "batch_8": 8, "batch_64": 64,
                 "batch_256": 256}
SEED = 42


def _offers():
    count = 2_000 if smoke_mode() else 20_000
    return LoadGenerator(rate_per_hour=4000.0, seed=SEED).offers(0.0, 96.0)[:count]


def _store(offers) -> LedmsStore:
    store = LedmsStore(TimeAxis(15))
    for owner in dict.fromkeys(offer.owner for offer in offers):
        store.register_actor(owner, "prosumer")
    return store


def _one_row(offers) -> tuple[float, LedmsStore]:
    store = _store(offers)
    record = store.record_offer_event
    t0 = time.perf_counter()
    for now, state in enumerate(STATES):
        for offer in offers:
            record(offer.owner, offer, state, now)
    return time.perf_counter() - t0, store


def _batched(offers, size: int) -> tuple[float, LedmsStore]:
    store = _store(offers)
    record = store.record_offer_events
    t0 = time.perf_counter()
    for now, state in enumerate(STATES):
        for first in range(0, len(offers), size):
            record(
                [(o.owner, o, state) for o in offers[first:first + size]], now
            )
    return time.perf_counter() - t0, store


def _measure(offers) -> dict[str, tuple[list[float], LedmsStore]]:
    """Every round's wall time per entry point, and one filled store each.

    Every round times each entry point once, so a slow spell on the host
    costs all of them one sample instead of costing one of them all.
    """
    rounds: dict[str, tuple[list[float], LedmsStore]] = {}
    for _ in range(1 if smoke_mode() else 7):
        for label, rows in ROWS_PER_CALL.items():
            elapsed, store = (
                _one_row(offers) if label == "one_row" else _batched(offers, rows)
            )
            rounds.setdefault(label, ([], store))[0].append(elapsed)
    return rounds


def _bytes_per_row(store: LedmsStore) -> float:
    facts = store.schema.facts["flexoffer_event"]
    held = sum(sys.getsizeof(facts.column(name)) for name in facts.columns)
    return held / len(facts)


def test_store_offer_events(once, bench_record):
    offers = _offers()
    events = len(offers) * len(STATES)

    results = once(_measure, offers)

    reference = results["one_row"][1].schema.facts["flexoffer_event"]
    rows = []
    medians = {}
    for label, (timings, store) in results.items():
        elapsed = min(timings)
        medians[label] = statistics.median(timings)
        facts = store.schema.facts["flexoffer_event"]
        # Whatever the entry point, the same facts end up in the buffers.
        assert len(facts) == events
        for name in facts.columns:
            assert facts.column(name) == reference.column(name)
        assert store.state_counts()["executed"] == len(offers)
        rate = events / elapsed
        speedup = rate / ROW_DICT_EVENTS_PER_SEC
        bytes_per_row = _bytes_per_row(store)
        rows.append(
            [
                label,
                f"{rate:,.0f}",
                f"{elapsed / events * 1e6:.2f}",
                f"{speedup:.2f}x",
                f"{bytes_per_row:.1f}",
            ]
        )
        bench_record(
            "runtime",
            name=f"store.offer_events.{label}",
            workload={
                "events": events,
                "batch": ROWS_PER_CALL[label],
                "cpu_count": os.cpu_count(),
            },
            metrics={
                "events_per_sec": rate,
                "us_per_event": elapsed / events * 1e6,
                "bytes_per_row": bytes_per_row,
                "row_dict_events_per_sec": ROW_DICT_EVENTS_PER_SEC,
                "speedup_vs_row_dict": speedup,
            },
        )
        assert bytes_per_row <= BYTES_PER_ROW_CEILING
    print_table(
        f"flexoffer_event facts ({events:,} events, every check on, "
        "best of rounds)",
        ["entry point", "events/s", "us/event", "vs row-dict", "B/row"],
        rows,
    )
    if not smoke_mode():
        assert (
            medians["one_row"] / medians["batch_256"]
            >= BATCH_256_VS_ONE_ROW_FLOOR
        )
        # The crossover that justifies two entry points.
        assert medians["batch_1"] > medians["one_row"] > medians["batch_64"]
