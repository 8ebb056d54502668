"""Durable event ledger: codec, segmented log, idempotency, DLQ, replay.

Covers the offer codec's bit-exact round trip, the segmented JSONL log's
rolling/fsync/torn-tail behaviour, the ledger's idempotency guard and
dead-letter queue (including their rebuild from disk across a restart
boundary), reverse-and-replace journaling for edits, and the two replays
``LedmsClient.resume_from_ledger`` selects between (both also driven here
on a bare service, without the facade).
"""

import json
import os
import tempfile
import zlib
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import LedmsClient, SubmitResult
from repro.api.config import IngestConfig, SchedulingConfig, ServiceConfig
from repro.api.ledger import (
    FACT_KINDS,
    INPUT_KINDS,
    JsonlEventLog,
    MemoryEventLog,
    OfferLedger,
    default_source_event_id,
    offer_from_dict,
    offer_to_dict,
    reexecute,
)
from repro.core import flex_offer
from repro.ledger.codec import offer_json
from repro.core.errors import DataManagementError, ServiceError
from repro.core.timebase import TimeAxis
from repro.datamgmt.mirabel import LedmsStore
from repro.runtime import (
    BrpRuntimeService,
    LoadGenerator,
    SimulatedDriver,
    state_fingerprint,
)
from repro.runtime.triggers import AgeTrigger, AnyTrigger, CountTrigger


def _config(batch=4) -> ServiceConfig:
    return ServiceConfig(
        ingest=IngestConfig(batch_size=batch),
        scheduling=SchedulingConfig(
            horizon_slices=96,
            scheduler_passes=1,
            trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
            min_run_interval_slices=2.0,
        ),
    )


def _offer(est, tf=6, duration=2, lo=1.0, hi=2.0, **kw):
    return flex_offer(
        [(lo, hi)] * duration, earliest_start=est, latest_start=est + tf, **kw
    )


def _ledger_client(log=None):
    ledger = OfferLedger(log if log is not None else MemoryEventLog())
    return LedmsClient(_config(), ledger=ledger)


def _close_window_mid_update(service, revision):
    """Reject ``revision`` once its previous version has left the pool.

    ``update`` checks admission twice (before touching the pool, and when
    re-admitting); only a wall clock ticking past the revision's window
    between the two makes them disagree.  This injects exactly that at the
    ingest seam, on simulated time, so re-execution replay can repeat it.
    """
    admissible = service.ingest.reject_reason
    key = (revision.offer_id, revision.earliest_start)

    def reject_reason(offer, now):
        if (offer.offer_id, offer.earliest_start) == key and not service.is_live(
            offer.offer_id
        ):
            return "start window already closed"
        return admissible(offer, now)

    service.ingest.reject_reason = reject_reason


@st.composite
def _offers(draw):
    """Offers with negative, zero and mixed-sign bounds, any owner."""
    energy = st.sampled_from([0.0, -0.0, 1e-7, 0.1 + 0.2]) | st.floats(
        -1e6, 1e6, allow_nan=False
    )
    bounds = draw(
        st.lists(st.tuples(energy, energy).map(sorted), min_size=1, max_size=4)
    )
    creation = draw(st.integers(0, 50))
    earliest = creation + draw(st.integers(0, 20))
    latest = earliest + draw(st.integers(0, 10))
    return flex_offer(
        bounds,
        earliest,
        latest,
        offer_id=draw(st.integers(0, 2**62)),
        owner=draw(st.sampled_from(['o"w\\n%s', "prosumer-é✓"]) | st.text(max_size=8)),
        creation_time=creation,
        assignment_before=draw(st.none() | st.integers(earliest, latest)),
        unit_price=draw(st.floats(-10, 10, allow_nan=False)),
    )


def _clipped(offer):
    """A copy of ``offer`` with its start window cut short (as admission
    clips a late arrival): another object, other content where it can."""
    floor = max(offer.earliest_start, offer.assignment_before or 0)
    return offer.with_times(offer.earliest_start, max(floor, offer.latest_start - 1))


# ----------------------------------------------------------------------
class TestCodec:
    def test_round_trip_is_exact(self):
        offer = _offer(10, lo=0.25, hi=1.7, owner="alice", unit_price=0.31)
        back = offer_from_dict(offer_to_dict(offer))
        assert offer_to_dict(back) == offer_to_dict(offer)
        assert back.offer_id == offer.offer_id
        assert back.owner == offer.owner
        assert [
            (c.min_energy, c.max_energy) for c in back.profile
        ] == [(c.min_energy, c.max_energy) for c in offer.profile]

    def test_round_trip_survives_json(self):
        offer = _offer(3, lo=0.1, hi=0.3)
        wire = json.loads(json.dumps(offer_to_dict(offer)))
        assert offer_to_dict(offer_from_dict(wire)) == offer_to_dict(offer)

    def test_malformed_record_raises(self):
        with pytest.raises(DataManagementError):
            offer_from_dict({"offer_id": 1})

    def test_source_event_id_stable_for_identical_content(self):
        offer = _offer(10)
        clone = offer_from_dict(offer_to_dict(offer))
        assert default_source_event_id(offer) == default_source_event_id(clone)

    def test_source_event_id_differs_for_edited_content(self):
        offer = _offer(10, lo=1.0, hi=2.0)
        edited = _offer(10, lo=2.0, hi=3.0, offer_id=offer.offer_id)
        assert default_source_event_id(offer) != default_source_event_id(edited)

    @settings(max_examples=60, deadline=None)
    @given(offer=_offers())
    def test_source_event_id_hashes_the_sorted_key_json(self, offer):
        """The key's bytes are the same as ever: a crc32 over the sorted-key
        JSON of the offer's dict — the text its journaled fact carries."""
        payload = json.dumps(offer_to_dict(offer), sort_keys=True)
        assert offer_json(offer) == payload
        assert default_source_event_id(offer) == (
            f"{offer.owner}:{offer.offer_id}:"
            f"{zlib.crc32(payload.encode('utf-8')):08x}"
        )


# ----------------------------------------------------------------------
class TestJsonlEventLog:
    def test_append_replay_order(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led", fsync="never")
        for i in range(5):
            log.append({"seq": i})
        assert [e["seq"] for e in log.replay()] == list(range(5))
        assert len(log) == 5

    def test_segments_roll(self, tmp_path):
        log = JsonlEventLog(
            tmp_path / "led", fsync="never", segment_max_events=3
        )
        for i in range(8):
            log.append({"seq": i})
        log.close()
        assert len(log.segments()) == 3
        assert [e["seq"] for e in log.replay()] == list(range(8))

    def test_reopen_resumes_count_and_order(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led", segment_max_events=3)
        for i in range(4):
            log.append({"seq": i})
        log.close()
        reopened = JsonlEventLog(tmp_path / "led", segment_max_events=3)
        assert len(reopened) == 4
        reopened.append({"seq": 4})
        assert [e["seq"] for e in reopened.replay()] == list(range(5))

    def test_torn_tail_is_skipped_and_truncated(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led")
        log.append({"seq": 0})
        log.append({"seq": 1})
        log.close()
        segment = log.segments()[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"seq": 2, "torn')  # crash mid-append
        assert [e["seq"] for e in log.replay()] == [0, 1]
        # Reopening truncates the torn tail so new appends stay intact.
        reopened = JsonlEventLog(tmp_path / "led")
        assert len(reopened) == 2
        reopened.append({"seq": 2})
        assert [e["seq"] for e in reopened.replay()] == [0, 1, 2]

    def test_mid_segment_corruption_raises(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led")
        log.append({"seq": 0})
        log.close()
        segment = log.segments()[-1]
        with open(segment, "ab") as handle:
            handle.write(b"not json\n")
        with pytest.raises(DataManagementError):
            list(JsonlEventLog(tmp_path / "led").replay())

    def test_unknown_fsync_mode_raises(self, tmp_path):
        with pytest.raises(DataManagementError):
            JsonlEventLog(tmp_path / "led", fsync="sometimes")


# ----------------------------------------------------------------------
def _segment_bytes(log) -> bytes:
    return b"".join(path.read_bytes() for path in log.segments())


class _CountingHandle:
    """A segment handle that counts the calls the log makes on it."""

    def __init__(self, handle):
        self._handle = handle
        self.writes = 0
        self.flushes = 0

    def write(self, text):
        self.writes += 1
        return self._handle.write(text)

    def flush(self):
        self.flushes += 1
        self._handle.flush()

    def fileno(self):
        return self._handle.fileno()

    def close(self):
        self._handle.close()


class TestGroupCommit:
    """One ``append`` call is one write and one flush/fsync, and a batch's
    lines are the generic encoder's, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        node=st.text(max_size=12),
        at=st.floats(allow_nan=False, allow_infinity=False),
        starts=st.lists(st.tuples(st.integers(), st.integers()), max_size=6),
    )
    @example(node='b"r\\p', at=17.0, starts=[(0, -3), (-1, 0), (2**70, 2**31)])
    @example(node="brp-é", at=0.1 + 0.2, starts=[(7, 7)])
    @example(node="100%d %s %%", at=1e-7, starts=[(1, 2), (3, 4)])
    @example(node="brp", at=-0.0, starts=[])
    def test_batch_lines_equal_generic_encoding(self, node, at, starts):
        with tempfile.TemporaryDirectory() as tmp:
            durable = OfferLedger(JsonlEventLog(tmp, fsync="never"), node=node)
            memory = OfferLedger(MemoryEventLog(), node=node)
            for ledger in (durable, memory):
                ledger.record_withdraw(5, at=at)  # the batch starts at seq 1
                ledger.record_scheduled(starts, at=at)
                assert ledger.appends == 1 + len(starts)
                ledger.record_withdraw(6, at=at)  # and seq carries on after it
            events = [
                {
                    "seq": 1 + i,
                    "kind": "scheduled",
                    "at": at,
                    "node": node,
                    "offer_id": offer_id,
                    "start": start,
                }
                for i, (offer_id, start) in enumerate(starts)
            ]
            held = list(memory.events())[1:-1]
            assert held == events
            assert all(type(e["at"]) is float for e in held)
            durable.close()
            lines = _segment_bytes(durable.log).decode("utf-8").splitlines(True)
            assert lines[1:-1] == [
                json.dumps(event, sort_keys=True) + "\n" for event in events
            ]
            assert [e["seq"] for e in durable.events()] == list(
                range(len(starts) + 2)
            )

    def test_batch_rolls_segments_like_single_appends(self, tmp_path):
        events = [{"seq": i, "pad": "x" * i} for i in range(8)]
        batched = JsonlEventLog(
            tmp_path / "batched", fsync="never", segment_max_events=3
        )
        # Pre-encoded facts (what the ledger hands over for a pass) and
        # dicts mix freely in one call.
        batched.append(
            *(json.dumps(e, sort_keys=True) if e["seq"] % 2 else e for e in events)
        )
        single = JsonlEventLog(
            tmp_path / "single", fsync="never", segment_max_events=3
        )
        for event in events:
            single.append(event)
        assert len(batched) == len(single) == 8
        batched.close()
        single.close()
        assert [p.name for p in batched.segments()] == [
            p.name for p in single.segments()
        ]
        assert len(batched.segments()) == 3
        for ours, theirs in zip(batched.segments(), single.segments()):
            assert ours.read_bytes() == theirs.read_bytes()
        reopened = JsonlEventLog(tmp_path / "batched", segment_max_events=3)
        assert len(reopened) == 8
        assert list(reopened.replay()) == events

    @pytest.mark.parametrize(
        "mode, flushes, fsyncs", [("commit", 1, 1), ("close", 1, 0), ("never", 0, 0)]
    )
    def test_one_flush_and_fsync_per_append_call(
        self, tmp_path, monkeypatch, mode, flushes, fsyncs
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        log = JsonlEventLog(tmp_path / "led", fsync=mode)
        handle = log._handle = _CountingHandle(log._open_for_append())
        log.append(*({"seq": i} for i in range(5)))
        assert (handle.writes, handle.flushes, len(synced)) == (1, flushes, fsyncs)
        log.append({"seq": 5})
        log.append()  # nothing to write: no syscall either
        assert (handle.writes, handle.flushes, len(synced)) == (
            2, 2 * flushes, 2 * fsyncs,
        )
        log.close()
        assert [e["seq"] for e in log.replay()] == list(range(6))

    def test_batch_torn_mid_line_replays_the_intact_prefix(self, tmp_path):
        ledger = OfferLedger(JsonlEventLog(tmp_path / "led"))
        ledger.record_scheduled([(i, 10 + i) for i in range(5)], at=3.0)
        ledger.close()
        (segment,) = ledger.log.segments()
        lines = segment.read_bytes().splitlines(True)
        # Killed inside the pass's one write: two whole lines and a torn third.
        os.truncate(segment, len(lines[0]) + len(lines[1]) + len(lines[2]) // 2)
        assert [e["offer_id"] for e in ledger.events()] == [0, 1]
        reopened = OfferLedger(JsonlEventLog(tmp_path / "led"))
        assert reopened.appends == len(reopened.log) == 2
        assert segment.read_bytes() == lines[0] + lines[1]
        reopened.record_scheduled([(9, 9)], at=4.0)
        assert [(e["seq"], e["offer_id"]) for e in reopened.events()] == [
            (0, 0), (1, 1), (2, 9),
        ]

    def test_sweep_retirements_are_one_append(self, tmp_path):
        """An expiry sweep journals its retirements as one batch: one write
        and one flush, executed before expired, each in live-pool order,
        every line the generic encoder's."""
        ledger = OfferLedger(JsonlEventLog(tmp_path / "led", fsync="close"))
        service = BrpRuntimeService(_config(batch=100), ledger=ledger)
        # Live-pool order: lapses, runs, runs, lapses, stays.
        lapses = [_offer(200, tf=2, assignment_before=15) for _ in range(2)]
        runs = [_offer(4, tf=2) for _ in range(2)]
        stays = _offer(40, tf=4)
        for offer in (lapses[0], *runs, lapses[1], stays):
            assert service.submit(offer)
        service.run_aggregation()
        service.maybe_schedule(force=True)
        assert {o.offer_id for o in runs} <= service._scheduled
        assert not {o.offer_id for o in lapses} & service._scheduled
        service.driver.queue.clock.advance_to(20)
        first = ledger.appends
        handle = ledger.log._handle = _CountingHandle(ledger.log._open_for_append())
        assert service.sweep_expired() == 4
        assert (handle.writes, handle.flushes) == (1, 1)
        assert ledger.appends == first + 4
        assert service.live_offers == 1
        ledger.close()
        retired = [(o.offer_id, "executed") for o in runs] + [
            (o.offer_id, "expired") for o in lapses
        ]
        lines = _segment_bytes(ledger.log).decode("utf-8").splitlines(True)
        assert lines[first:] == [
            json.dumps(
                {"seq": first + i, "kind": "retire", "at": 20.0, "node": "brp",
                 "offer_id": offer_id, "state": state},
                sort_keys=True,
            ) + "\n"
            for i, (offer_id, state) in enumerate(retired)
        ]

    def test_torn_tail_is_cut_in_place_not_rewritten(self, tmp_path, monkeypatch):
        """Repairing a torn tail must never empty the segment first: a
        second crash inside recovery would lose every fact it held."""
        log = JsonlEventLog(tmp_path / "led")
        log.append({"seq": 0}, {"seq": 1})
        log.close()
        (segment,) = log.segments()
        intact = segment.read_bytes()
        with open(segment, "ab") as handle:
            handle.write(b'{"seq": 2, "torn')

        def refuse(self, data):
            raise AssertionError(f"rewrote {self} while repairing its tail")

        monkeypatch.setattr(Path, "write_bytes", refuse)
        reopened = JsonlEventLog(tmp_path / "led")
        assert len(reopened) == 2
        assert segment.read_bytes() == intact
        reopened.append({"seq": 2})
        reopened.close()
        assert [e["seq"] for e in reopened.replay()] == [0, 1, 2]
        assert segment.read_bytes() == intact + b'{"seq": 2}\n'


# ----------------------------------------------------------------------
def _capture_appends(log):
    """Record every event ``log.append`` is handed, in order."""
    handed = []
    append = log.append

    def capture(*events):
        handed.extend(events)
        append(*events)

    log.append = capture
    return handed


class TestFactEncoding:
    """A composed ``submit``/``replace``/``dead_letter`` line is the generic
    encoder's line for the fact's dict, byte for byte, and decodes to it."""

    @settings(max_examples=80, deadline=None)
    @given(
        node=st.sampled_from(['b"r\\p', "brp-é", "100%d %s %%"]) | st.text(max_size=12),
        at=st.sampled_from([-0.0, 1e-7, 0.1 + 0.2, 1e300])
        | st.floats(allow_nan=False, allow_infinity=False),
        source_event_id=st.none() | st.just('ev "1" \\ é') | st.text(max_size=12),
        reason=st.none() | st.text(max_size=12),
        accepted=st.booleans(),
        admitted=st.sampled_from(["none", "same", "clipped"]),
        kind=st.sampled_from(["submit", "replace"]),
        reverses=st.none() | st.integers(-1, 2**62),
        rendered=st.booleans(),
        offer=_offers(),
    )
    @example(
        node="brp", at=-0.0, source_event_id=None, reason=None, accepted=False,
        admitted="none", kind="submit", reverses=None, rendered=False,
        offer=flex_offer([(-2.0, 0.0), (0.0, 0.0), (-1.5, 3.0)], 3, 7,
                         offer_id=0, owner="ägent", assignment_before=5),
    )
    def test_submission_lines_equal_generic_encoding(
        self, node, at, source_event_id, reason, accepted, admitted, kind,
        reverses, rendered, offer,
    ):
        accepted_offer = {"none": None, "same": offer, "clipped": _clipped(offer)}[
            admitted
        ]
        fact = {
            "seq": 1,
            "kind": kind,
            "at": at,
            "node": node,
            "source_event_id": source_event_id,
            "offer": offer_to_dict(offer),
            "offer_id": offer.offer_id,
            "accepted": accepted,
            "reason": reason,
        }
        if accepted_offer is not None:
            fact["accepted_offer"] = offer_to_dict(accepted_offer)
        if reverses is not None:
            fact["reverses"] = reverses
        facts = [fact]
        if not accepted:
            facts.append({
                "seq": 2,
                "kind": "dead_letter",
                "at": at,
                "node": node,
                "offer_id": offer.offer_id,
                "owner": offer.owner,
                "reason": reason or "rejected",
                "offer": offer_to_dict(offer),
            })
        # Without the offer: a record too malformed to decode.
        facts.append({
            "seq": len(facts) + 1,
            "kind": "dead_letter",
            "at": at,
            "node": node,
            "offer_id": offer.offer_id,
            "owner": "",
            "reason": "malformed record",
            "offer": None,
        })
        with tempfile.TemporaryDirectory() as tmp:
            for log in (JsonlEventLog(tmp, fsync="never"), MemoryEventLog()):
                ledger = OfferLedger(log, node=node)
                ledger.record_withdraw(5, at=at)  # the submission is seq 1
                handed = _capture_appends(log)
                ledger.record_submit(
                    offer,
                    at=at,
                    source_event_id=source_event_id,
                    accepted=accepted,
                    reason=reason,
                    accepted_offer=accepted_offer,
                    kind=kind,
                    reverses=reverses,
                    offer_text=offer_json(offer) if rendered else None,
                )
                ledger.record_dead_letter(
                    None, "malformed record", at=at, offer_id=offer.offer_id
                )
                assert handed == [json.dumps(f, sort_keys=True) for f in facts]
                assert list(ledger.events())[1:] == facts
                assert ledger.appends == 1 + len(facts)
                assert [d.offer for d in ledger.dead_letters()] == [
                    f["offer"] for f in facts[1:]
                ]
                assert ledger.recorded_result(source_event_id) == (
                    None
                    if source_event_id is None
                    else (accepted, offer.offer_id, reason)
                )
                ledger.close()
            disk = JsonlEventLog(tmp)
            lines = _segment_bytes(disk).decode("utf-8").splitlines(True)
            assert lines[1:] == [json.dumps(f, sort_keys=True) + "\n" for f in facts]
            assert list(disk.replay())[1:] == facts


# ----------------------------------------------------------------------
class TestIdempotency:
    def test_duplicate_submission_returns_recorded_result(self):
        client = _ledger_client()
        offer = _offer(10)
        first = client.submit(offer)
        assert first.accepted
        live_before = len(client.service._live)
        again = client.submit(offer)
        assert isinstance(again, SubmitResult)
        assert again.accepted and again.offer_id == first.offer_id
        assert len(client.service._live) == live_before  # no double-count
        assert client.ledger.duplicates == 1
        kinds = [e["kind"] for e in client.ledger.events()]
        assert kinds.count("submit") == 1
        assert "duplicate" in kinds

    def test_duplicate_rejection_replays_original_reason(self):
        client = _ledger_client()
        bad = _offer(5, lo=0.0, hi=0.0)  # carries no energy
        first = client.submit(bad)
        assert not first.accepted
        again = client.submit(bad)
        assert not again.accepted
        assert again.reason == first.reason
        # Only the first attempt is dead-lettered.
        assert len(client.dead_letters()) == 1

    def test_explicit_source_event_id_wins_over_content(self):
        client = _ledger_client()
        first = client.submit(_offer(10), source_event_id="ev-1")
        other = _offer(30)  # different content, same declared source event
        again = client.submit(other, source_event_id="ev-1")
        assert again.offer_id == first.offer_id
        assert client.ledger.duplicates == 1

    def test_guard_survives_restart_from_disk(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led")
        client = _ledger_client(log)
        offer = _offer(10)
        first = client.submit(offer)
        client.ledger.close()
        # A fresh ledger over the same directory rebuilds the guard
        # before any replay runs.
        reopened = OfferLedger(JsonlEventLog(tmp_path / "led"))
        recorded = reopened.recorded_result(default_source_event_id(offer))
        assert recorded is not None
        assert recorded.accepted and recorded.offer_id == first.offer_id


# ----------------------------------------------------------------------
class TestFactJournal:
    def test_update_journals_reverse_and_replace_pair(self):
        # outcome -> (revision energy bounds, admission fails once the
        # previous version is out of the pool, journaled accepted flag)
        outcomes = {
            "accepted": ((2.0, 3.0), False, True),
            "rejected before touch": ((0.0, 0.0), False, False),
            "rejected after withdraw, reinstated": ((2.0, 3.0), True, False),
        }
        for outcome, ((lo, hi), closes, accepted) in outcomes.items():
            client = _ledger_client()
            first = _offer(10, lo=1.0, hi=2.0)
            client.submit(first)
            revised = _offer(12, lo=lo, hi=hi, offer_id=first.offer_id)
            if closes:
                _close_window_mid_update(client.service, revised)
            assert client.update(revised).accepted is accepted, outcome
            events = list(client.ledger.events())
            kinds = [e["kind"] for e in events]
            # An edit is one replace fact — never a withdraw+submit triple —
            # with a reverse in front of it only when the pool was touched.
            assert kinds.count("replace") == 1, outcome
            assert kinds.count("submit") == 1 and "withdraw" not in kinds, outcome
            replace = next(e for e in events if e["kind"] == "replace")
            assert replace["accepted"] is accepted, outcome
            if outcome == "rejected before touch":
                assert "reverse" not in kinds and "reverses" not in replace
            else:
                reverse = next(e for e in events if e["kind"] == "reverse")
                assert reverse["offer_id"] == first.offer_id, outcome
                assert replace["reverses"] == first.offer_id, outcome
                assert reverse["seq"] < replace["seq"], outcome
            # Whatever the outcome, the prosumer still has a live offer, and
            # the dead-letter counter moved exactly with the queue.
            assert client.query_offer(first.offer_id).live, outcome
            assert (
                client.metrics().get("ledger.dead_letters", 0)
                == len(client.dead_letters())
                == (0 if accepted else 1)
            ), outcome

    def test_rejected_update_journals_no_reverse(self):
        client = _ledger_client()
        first = _offer(10)
        client.submit(first)
        bad = _offer(12, lo=0.0, hi=0.0, offer_id=first.offer_id)
        assert not client.update(bad).accepted
        events = list(client.ledger.events())
        assert not any(e["kind"] == "reverse" for e in events)
        assert any(e["kind"] == "dead_letter" for e in events)
        # The original version stays live.
        assert first.offer_id in client.service._live

    def test_rejection_routes_to_dead_letter_queue(self):
        client = _ledger_client()
        result = client.submit(_offer(5, lo=0.0, hi=0.0))
        assert not result.accepted
        letters = client.dead_letters()
        assert len(letters) == 1
        assert letters[0].reason == result.reason
        assert letters[0].offer is not None

    def test_dead_letters_rebuild_from_disk(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led")
        client = _ledger_client(log)
        client.submit(_offer(5, lo=0.0, hi=0.0))
        client.ledger.close()
        reopened = OfferLedger(JsonlEventLog(tmp_path / "led"))
        assert len(reopened.dead_letters()) == 1

    def test_dead_letter_keeps_offer_id_zero(self):
        ledger = OfferLedger()
        ledger.record_dead_letter(None, "malformed record", at=1.0, offer_id=0)
        ledger.record_dead_letter(None, "malformed record", at=2.0)
        assert [e["offer_id"] for e in ledger.events()] == [0, -1]
        assert [d.offer_id for d in ledger.dead_letters()] == [0, -1]
        rebuilt = OfferLedger(ledger.log)
        assert [d.offer_id for d in rebuilt.dead_letters()] == [0, -1]

    def test_unknown_fact_kind_raises(self):
        ledger = OfferLedger()
        with pytest.raises(DataManagementError):
            ledger._append("telegram", at=0.0)
        with pytest.raises(DataManagementError):
            ledger.record_submit(
                _offer(10), at=0.0, source_event_id=None, accepted=True,
                kind="withdraw",
            )
        assert ledger.appends == 0

    def test_input_kinds_are_a_subset_of_fact_kinds(self):
        assert set(INPUT_KINDS) <= set(FACT_KINDS)


# ----------------------------------------------------------------------
class TestStoreReplay:
    def test_record_offer_event_requires_registered_actor(self):
        store = LedmsStore(TimeAxis(15))
        offer = _offer(10, owner="ghost")
        with pytest.raises(DataManagementError):
            store.record_offer_event("ghost", offer, "accepted", 0)

    def test_replay_offer_event_auto_registers_actor(self):
        store = LedmsStore(TimeAxis(15))
        offer = _offer(10, owner="ghost")
        store.replay_offer_event("ghost", offer, "accepted", 0)
        assert store.offer_state(offer.offer_id) == "accepted"
        # Idempotent: replaying more facts for the same actor is fine.
        store.replay_offer_event("ghost", offer, "scheduled", 1)
        assert store.offer_state(offer.offer_id) == "scheduled"


# ----------------------------------------------------------------------
class TestResumeFromLedger:
    def _run(self, log, duration=48.0):
        client = _ledger_client(log)
        stream = LoadGenerator(rate_per_hour=40, seed=3).stream(0.0, duration)
        client.run_stream(stream, duration)
        return client

    def test_reexecute_is_bit_identical(self, tmp_path):
        log = JsonlEventLog(tmp_path / "led")
        original = self._run(log)
        original.ledger.close()
        resumed = LedmsClient.resume_from_ledger(
            str(tmp_path / "led"), _config()
        )
        assert resumed.last_replay.mode == "reexecute"
        assert state_fingerprint(resumed) == state_fingerprint(original)

    def test_recovery_decodes_each_fact_once(self, tmp_path, monkeypatch):
        original = self._run(JsonlEventLog(tmp_path / "led"))
        original.ledger.close()
        facts = original.ledger.appends
        decoded = []
        real_loads = json.loads
        monkeypatch.setattr(
            json, "loads", lambda line: (decoded.append(1), real_loads(line))[1]
        )
        resumed = LedmsClient.resume_from_ledger(
            str(tmp_path / "led"), _config()
        )
        assert len(decoded) == resumed.last_replay.events == facts
        assert resumed.ledger.appends == len(resumed.ledger.log) == facts
        assert state_fingerprint(resumed) == state_fingerprint(original)

    def test_project_restores_live_pool_and_commitments(self):
        log = MemoryEventLog()
        original = self._run(log)
        # An explicit driver past the log's first instant selects projection.
        driver = SimulatedDriver(original.service.now)
        resumed = LedmsClient.resume_from_ledger(
            log, _config(), driver=driver
        )
        assert resumed.last_replay.mode == "project"
        assert sorted(resumed.service._live) == sorted(original.service._live)
        assert (
            resumed.service._committed_start == original.service._committed_start
        )
        assert (
            resumed.service.store.state_counts()
            == original.service.store.state_counts()
        )
        # A driver rewound behind the log's last instant cannot take one:
        # offers whose windows closed since would rejoin the pool.
        rewound = SimulatedDriver(original.service.now / 2)
        with pytest.raises(DataManagementError, match="cannot project"):
            LedmsClient.resume_from_ledger(log, _config(), driver=rewound)

    def test_resumed_client_keeps_journaling(self):
        log = MemoryEventLog()
        original = self._run(log)
        before = original.ledger.appends
        resumed = LedmsClient.resume_from_ledger(log, _config())
        result = resumed.submit(_offer(int(resumed.service.now) + 4))
        assert result.accepted
        assert resumed.ledger.appends > before

    def test_replay_needs_no_facade(self):
        # A bare service journals a seeded history of every front-door
        # outcome; a second bare service re-executes it from the log alone.
        log = MemoryEventLog()
        live = BrpRuntimeService(_config(), ledger=OfferLedger(log))
        stream = list(LoadGenerator(rate_per_hour=40, seed=5).stream(0.0, 24.0))
        for index, (at, offer) in enumerate(stream):
            oid, est = offer.offer_id, offer.earliest_start
            revised = _offer(est + 1, tf=offer.latest_start - est, offer_id=oid)
            if index == 4:  # the one update that loses its window mid-edit
                reinstated = revised
                _close_window_mid_update(live, revised)
            follow_up = {
                0: partial(live.submit, offer),  # duplicate
                1: partial(live.withdraw, oid),
                2: partial(live.update, revised),
                3: partial(live.update, _offer(est, lo=0.0, hi=0.0, offer_id=oid)),
            }.get(2 if index == 4 else index % 7)
            live.driver.schedule_at(at, partial(live.submit, offer))
            if follow_up is not None:
                live.driver.schedule_at(at + 0.25, follow_up)
        live.open_window((), 24.0)
        live.driver.run_until(24.0)
        live.drain(24.0)
        events = list(log.replay())
        replaces = [e for e in events if e["kind"] == "replace"]
        assert {(e["accepted"], "reverses" in e) for e in replaces} == {
            (True, True), (False, False), (False, True),
        }
        assert {"duplicate", "withdraw", "dead_letter"} <= {e["kind"] for e in events}

        fresh = BrpRuntimeService(_config(), ledger=OfferLedger(log))
        _close_window_mid_update(fresh, reinstated)
        stats = reexecute(fresh, events)
        assert stats.inputs > len(stream) and stats.live_restored == live.live_offers
        assert state_fingerprint(fresh) == state_fingerprint(live)
        assert len(log) == len(events)  # replay appended nothing

    def test_missing_ledger_directory_is_an_error_not_an_empty_node(self, tmp_path):
        typo = tmp_path / "typo"
        with pytest.raises(ServiceError, match="typo"):
            LedmsClient.resume_from_ledger(typo, _config())
        assert not typo.exists()  # and recovery created nothing
        # An empty log *object* is a legal, empty history.
        for empty in (MemoryEventLog(), OfferLedger()):
            resumed = LedmsClient.resume_from_ledger(empty, _config())
            assert resumed.last_replay.events == 0 and resumed.live_offers == 0
