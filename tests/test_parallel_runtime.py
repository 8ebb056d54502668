"""Process-parallel cluster runtime: shm codec, parity, lifecycle, traces.

Both placements run the same ``BrpHost`` under the same cluster loop, so
parity is checked once, through one helper that drives either runtime:
with TSO feedback pinned to the final drain, every placement must admit
the same offers and commit the same micro start times.  Lifecycle tests kill
workers mid-run and require zero leaked ``/dev/shm`` blocks, and the
2-worker trace must satisfy the same JSONL validator CI runs.
"""

import dataclasses
import gc
import json
import os
import pathlib
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.aggregation import AggregatedFlexOffer
from repro.aggregation.pipeline import aggregate_from_scratch
from repro.aggregation.thresholds import AggregationParameters
from repro.api import JsonlEventLog, LedmsClient, OfferLedger
from repro.core.errors import CommunicationError, ServiceError
from repro.core.flexoffer import (
    FlexOffer,
    Profile,
    flex_offer,
    rebase_offer_ids,
)
from repro.obs import JsonlWriter, Tracer
from repro.node.messages import MessageType
from repro.runtime import (
    ClusterConfig,
    ClusterRuntime,
    CountTrigger,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
    TsoConfig,
)
from repro.runtime.parallel import (
    ParallelClusterRuntime,
    ProcessBusTransport,
    WorkerCrashError,
)
from repro.runtime.shm import (
    cleanup_run_segments,
    decode_macros,
    encode_macros,
    read_snapshot,
    segment_name,
    unlink_segment,
    write_snapshot,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _macros(n_offers: int = 9, seed_start: int = 4):
    offers = [
        flex_offer(
            [(1.0 + i * 0.25, 2.0 + i * 0.5)] * (1 + i % 3),
            earliest_start=seed_start + i % 4,
            latest_start=seed_start + 6 + i % 4,
            owner=f"house-{i % 3}",
            creation_time=i % 4,
            assignment_before=None if i % 2 else seed_start + 6 + i % 4,
            unit_price=0.05 * i,
        )
        for i in range(n_offers)
    ]
    macros = aggregate_from_scratch(
        offers, AggregationParameters(start_after_tolerance=2,
                                      time_flexibility_tolerance=2)
    )
    assert macros, "aggregation produced no macros"
    return macros


def _service_config(seed: int = 7) -> ServiceConfig:
    return ServiceConfig(
        scheduling=SchedulingConfig(scheduler_passes=1, seed=seed),
        ingest=IngestConfig(batch_size=32),
    )


def _cluster_config(brps: int = 4, **tso_flat) -> ClusterConfig:
    return ClusterConfig.uniform(
        brps,
        _service_config(),
        tso=TsoConfig.from_flat(scheduler_passes=1, **tso_flat),
    )


def _streams(names, duration: float, rate: float = 40.0):
    # Rebase the process-global offer-id counter so both runtime modes
    # mint identical micro-offer ids for identical seeded streams.
    rebase_offer_ids(0)
    return {
        name: list(
            LoadGenerator(rate_per_hour=rate, seed=11 + i).stream(
                0.0, duration
            )
        )
        for i, name in enumerate(names)
    }


def _shm_residue(run_id: str) -> list[str]:
    prefix = f"repro-shm-{run_id}-"
    try:
        return [e for e in os.listdir("/dev/shm") if e.startswith(prefix)]
    except OSError:  # pragma: no cover - non-Linux
        return []


def _v1_payload() -> bytes:
    """The header an old (member-carrying) writer would have produced."""
    header = json.dumps(
        {"version": 1, "macros": 0, "members": 0, "macro_slices": 0,
         "member_slices": 0, "owners": []}
    ).encode("utf-8")
    return len(header).to_bytes(8, "little") + header


def _pairwise_encoding(macros) -> bytes:
    """The snapshot layout written from each profile's ``(min, max)`` pairs,
    walked constraint by constraint (the reference for the array encoder)."""
    owners = list(dict.fromkeys(macro.owner for macro in macros))
    header = json.dumps(
        {"version": 2, "macros": len(macros), "owners": owners},
        separators=(",", ":"),
    ).encode("utf-8")
    ints = [
        (
            m.offer_id,
            m.earliest_start,
            m.latest_start,
            m.creation_time,
            -1 if m.assignment_before is None else m.assignment_before,
            owners.index(m.owner),
            len(m.profile),
        )
        for m in macros
    ]
    pairs = [(s.min_energy, s.max_energy) for m in macros for s in m.profile]
    return b"".join(
        (
            len(header).to_bytes(8, "little"),
            header,
            np.array(ints, dtype=np.int64).tobytes(),
            np.array([m.unit_price for m in macros], dtype=np.float64).tobytes(),
            np.array(pairs, dtype=np.float64).tobytes(),
        )
    )


# ----------------------------------------------------------------------
def _columns(offer):
    """Every flex-offer field, floats as exact bit patterns."""
    return (
        offer.offer_id,
        offer.earliest_start,
        offer.latest_start,
        offer.creation_time,
        offer.assignment_before,
        offer.owner,
        offer.unit_price.hex(),
        tuple((s.min_energy.hex(), s.max_energy.hex()) for s in offer.profile),
    )


def _macro_of(member_count: int) -> AggregatedFlexOffer:
    """One fixed set of macro columns over ``member_count`` members."""
    member = flex_offer([(0.5, 1.0)], earliest_start=4, latest_start=9)
    return AggregatedFlexOffer(
        profile=Profile.from_bounds([(2.0, 4.0), (1.5, 3.5)]),
        earliest_start=4,
        latest_start=9,
        offer_id=77,
        owner="aggregate",
        unit_price=0.125,
        members=(member,) * member_count,
        offsets=(0,) * member_count,
    )


def _tso_returns(macros):
    """Send one snapshot to a fresh cluster's TSO; what it plans and sends back."""
    cluster = ClusterRuntime(
        ClusterConfig.uniform(
            1, _service_config(), tso=TsoConfig.from_flat(scheduler_passes=1)
        )
    )
    returned = []

    def capture(scheduled):
        returned.append(
            (scheduled.offer.offer_id, scheduled.start, scheduled.energies)
        )

    cluster.clients["brp-0"].service.apply_remote_schedule = capture
    cluster.adapter.send(
        "brp-0", cluster.config.tso_name, MessageType.MACRO_FLEX_OFFER,
        tuple(macros), 0,
    )
    cluster.driver.run_until(cluster.driver.now)
    report = cluster.report(duration_slices=0.0, wall_seconds=0.0)
    return returned, report.tso_plan_cost


class TestShmCodec:
    def test_round_trip_is_exact(self):
        macros = _macros() + [
            # Columns the aggregated fixture does not vary: no deadline,
            # other owners, floats whose bit patterns are easy to lose.
            flex_offer(
                [(-0.0, 0.1 + 0.2), (5e-324, 1e308)],
                earliest_start=3,
                latest_start=3,
                owner="hôtel-7",
                creation_time=1,
                unit_price=1 / 3,
            ),
            flex_offer(
                [(-2.5, -1.0)], earliest_start=0, latest_start=8, owner=""
            ),
        ]
        rebuilt = decode_macros(encode_macros(macros))
        assert [type(copy) for copy in rebuilt] == [FlexOffer] * len(macros)
        assert [_columns(c) for c in rebuilt] == [_columns(m) for m in macros]

    def test_empty_snapshot_round_trips(self):
        assert decode_macros(encode_macros([])) == ()

    def test_rejects_other_versions_and_truncated_buffers(self):
        payload = encode_macros(_macros())
        with pytest.raises(ServiceError, match="malformed snapshot"):
            decode_macros(payload[:-8])
        with pytest.raises(ServiceError, match="malformed snapshot"):
            decode_macros(payload[:12])
        with pytest.raises(ServiceError, match="codec version 1"):
            decode_macros(_v1_payload())

    @pytest.mark.pinned
    def test_bytes_equal_the_pairwise_encoding(self):
        """Bounds column-stacked from the profiles' arrays are the bytes of
        the ``(min, max)`` pairs, and an array-form macro is encoded
        without building its constraint objects."""
        item_form = _macros() + [
            flex_offer([(-0.0, 0.1 + 0.2), (5e-324, 1e308)], 3, 3, owner="b")
        ]
        array_form = [
            dataclasses.replace(
                macro,
                profile=Profile.from_arrays(
                    macro.min_array.copy(), macro.max_array.copy()
                ),
            )
            for macro in item_form
        ]
        payload = encode_macros(array_form)
        assert all(macro.profile._items is None for macro in array_form)
        assert payload == encode_macros(item_form)
        assert payload == _pairwise_encoding(item_form)
        assert encode_macros([]) == _pairwise_encoding([])

    def test_non_finite_bound_is_a_malformed_snapshot(self):
        payload = encode_macros(_macros())
        poisoned = payload[:-8] + struct.pack("<d", float("nan"))
        with pytest.raises(ServiceError, match="malformed snapshot.*finite"):
            decode_macros(poisoned)

    def test_size_is_independent_of_member_count(self):
        small, large = _macro_of(1), _macro_of(50)
        assert _columns(small) == _columns(large)
        assert encode_macros([small]) == encode_macros([large])

    def test_tso_plans_identically_from_decoded_macros(self):
        macros = _macros(40)
        original = _tso_returns(macros)
        decoded = _tso_returns(decode_macros(encode_macros(macros)))
        assert original[0], "the TSO returned no scheduled macro"
        assert decoded == original

    def test_segment_lifecycle_and_sweep(self):
        macros = _macros()
        name = segment_name("testrun", 0, 1)
        _, nbytes = write_snapshot(macros, name)
        assert nbytes == len(encode_macros(macros))
        assert [_columns(m) for m in read_snapshot(name)] == [
            _columns(m) for m in macros
        ]
        assert unlink_segment(name) is True
        assert unlink_segment(name) is False  # already gone
        # Crash sweep reclaims whatever the decode path never touched.
        write_snapshot(macros, segment_name("testrun", 1, 1))
        write_snapshot(macros, segment_name("testrun", 1, 2))
        assert cleanup_run_segments("testrun") == 2
        assert _shm_residue("testrun") == []

    def test_segments_start_no_helper_process(self):
        # multiprocessing.shared_memory would launch a resource-tracker
        # interpreter on first use, in every worker and in the parent, in
        # the middle of a run.  A fresh interpreter that writes, reads and
        # unlinks a segment must end up with no child process at all.
        probe = (
            "import os\n"
            "from repro.runtime.shm import (\n"
            "    read_snapshot, segment_name, unlink_segment, write_snapshot)\n"
            "name = segment_name('trackerprobe', 0, 1)\n"
            "write_snapshot((), name)\n"
            "assert read_snapshot(name) == ()\n"
            "assert unlink_segment(name)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child process')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "no child process"


# ----------------------------------------------------------------------
#: Every placement of the one cluster loop, by how its BRP hosts are built.
PLACEMENTS = {
    "in-process": ClusterRuntime,
    "workers=1": lambda config, **kw: ParallelClusterRuntime(config, workers=1, **kw),
    "workers=2": lambda config, **kw: ParallelClusterRuntime(config, workers=2, **kw),
}


def _run(placement: str, duration: float = 24.0, brps: int = 4, **tso_flat):
    """Run one placement on the fixed-seed streams; the runtime and its report."""
    cluster = PLACEMENTS[placement](_cluster_config(brps, **tso_flat))
    report = cluster.run(_streams(cluster.config.brps, duration), duration)
    if cluster.workers:
        assert _shm_residue(cluster.run_id) == []
    return cluster, report


class TestParity:
    def test_parallel_matches_single_thread_oracle(self):
        """Fixed seed, drain-only TSO: same accepted set, same commitments.

        The TSO's count trigger is pinned above the snapshot count so TSO
        feedback lands only in the final drain — mid-run downlink timing is
        the one place the epoch barrier differs from the in-process
        interleaving (see the runtime's docstring).
        """
        drain_only = CountTrigger(10**9)
        oracle, oracle_report = _run("in-process", trigger=drain_only)
        assert oracle_report.offers_accepted > 0 and oracle.committed_starts
        for placement in ("workers=1", "workers=2"):
            cluster, report = _run(placement, trigger=drain_only)
            assert cluster.accepted_offers == oracle.accepted_offers
            assert cluster.committed_starts == oracle.committed_starts
            assert report.offers_accepted == oracle_report.offers_accepted
            assert report.tso_plan_cost == oracle_report.tso_plan_cost
            assert report.bus_dropped == 0

    def test_default_config_admits_identically(self):
        """Under live TSO feedback the admitted offer set still matches."""
        oracle, oracle_report = _run("in-process")
        assert oracle_report.workers == 0
        assert "workers" not in oracle_report.as_text()
        for placement, workers in (("workers=1", 1), ("workers=2", 2)):
            cluster, report = _run(placement)
            assert cluster.accepted_offers == oracle.accepted_offers
            assert report.offers_submitted == oracle_report.offers_submitted
            assert report.remote_commits > 0
            assert report.workers == workers
            assert report.epochs == 6 and report.shm_segments > 0
            assert "workers" in report.as_text()


# ----------------------------------------------------------------------
class TestLifecycle:
    def _run_in_thread(self, cluster, duration=96.0, rate=60.0):
        streams = _streams(cluster.config.brps, duration, rate=rate)
        box = {}

        def target():
            try:
                box["report"] = cluster.run(streams, duration)
            except BaseException as exc:  # noqa: BLE001 - surfaced to test
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread, box

    def _wait_for_workers(self, cluster, timeout=10.0):
        # Set only after every worker installed its SIGTERM handler, so a
        # signal sent from here on cannot hit a half-started process.
        assert cluster.ready.wait(timeout), "workers never came up"
        return list(cluster._procs)

    def test_sigkill_mid_run_raises_and_leaks_nothing(self):
        cluster = ParallelClusterRuntime(_cluster_config(), workers=2)
        thread, box = self._run_in_thread(cluster)
        victim = self._wait_for_workers(cluster)[0]
        os.kill(victim.pid, signal.SIGKILL)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), WorkerCrashError)
        # Every worker is reaped and every segment of this run is swept.
        for proc in cluster._procs:
            assert not proc.is_alive()
        assert _shm_residue(cluster.run_id) == []

    def test_sigterm_drains_gracefully(self):
        cluster = ParallelClusterRuntime(_cluster_config(), workers=2)
        thread, box = self._run_in_thread(cluster)
        victim = self._wait_for_workers(cluster)[0]
        os.kill(victim.pid, signal.SIGTERM)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        # A terminated worker ends the run as a crash from the parent's
        # perspective, but its SIGTERM path unlinks its own segments, so
        # nothing is left even before the parent's sweep.
        assert isinstance(box.get("error"), WorkerCrashError)
        assert _shm_residue(cluster.run_id) == []

    def test_sigterm_landing_in_a_gc_callback_still_terminates(self):
        """An exception raised from a handler inside a gc callback is dropped
        as unraisable; the worker must exit all the same.  (hypothesis
        installs such a callback, which forked workers inherit: this is how
        the plain SIGTERM test used to fail in full-suite runs only.)"""
        parent = os.getpid()
        fired = []

        def signal_self(phase, info):
            handler_live = callable(signal.getsignal(signal.SIGTERM))
            if os.getpid() != parent and handler_live and not fired:
                fired.append(phase)
                os.kill(os.getpid(), signal.SIGTERM)
                for _ in range(1000):  # the handler runs in this frame
                    pass

        gc.callbacks.append(signal_self)
        try:
            cluster = ParallelClusterRuntime(_cluster_config(), workers=2)
            with pytest.raises(WorkerCrashError):
                cluster.run(_streams(cluster.config.brps, 24.0), 24.0)
        finally:
            gc.callbacks.remove(signal_self)
        assert _shm_residue(cluster.run_id) == []

    def test_worker_dying_between_barrier_and_release_is_a_crash(self):
        cluster = ParallelClusterRuntime(_cluster_config(brps=2), workers=2)
        release = cluster._release

        def kill_then_release(epoch):
            victim = cluster._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            release(epoch)

        cluster._release = kill_then_release
        with pytest.raises(WorkerCrashError, match="worker 0"):
            cluster.run(_streams(cluster.config.brps, 8.0), 8.0)
        assert _shm_residue(cluster.run_id) == []

    def test_worker_dying_before_ready_is_a_crash(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runtime.parallel._worker_main",
            lambda *args: os._exit(3),
        )
        cluster = ParallelClusterRuntime(_cluster_config(brps=2), workers=2)
        with pytest.raises(WorkerCrashError, match="worker 0"):
            cluster.run(_streams(cluster.config.brps, 8.0), 8.0)
        assert not cluster.ready.is_set()
        assert _shm_residue(cluster.run_id) == []

    def test_rejected_snapshot_is_unlinked_at_once(self):
        cluster = ParallelClusterRuntime(_cluster_config(brps=2), workers=2)
        name = segment_name(cluster.run_id, 0, 1)
        payload = _v1_payload()
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=len(payload)
        )
        segment.buf[: len(payload)] = payload
        segment.close()
        assert _shm_residue(cluster.run_id) == [name]
        with pytest.raises(ServiceError, match="codec version 1"):
            cluster._relay_snapshot(
                0, ("snapshot", "brp-0", 1, None, name, len(payload), 0, [])
            )
        # Reclaimed by the relay itself, not by the end-of-run sweep.
        assert _shm_residue(cluster.run_id) == []

    def test_snapshot_whose_segment_is_gone_is_a_crash(self):
        """A worker's SIGTERM path unlinks segments it already announced;
        relaying one names the worker and the segment."""
        cluster = ParallelClusterRuntime(_cluster_config(brps=2), workers=2)
        name = segment_name(cluster.run_id, 1, 1)
        assert _shm_residue(cluster.run_id) == []
        with pytest.raises(WorkerCrashError, match=rf"worker 1: .*{name}"):
            cluster._relay_snapshot(
                1, ("snapshot", "brp-1", 1, None, name, 64, 0, [])
            )
        assert cluster.shm_segments == 0

    def test_run_is_single_use_and_validates_workers(self):
        with pytest.raises(ServiceError, match="workers must be positive"):
            ParallelClusterRuntime(_cluster_config(), workers=0)
        with pytest.raises(ServiceError, match="at least one BRP"):
            ParallelClusterRuntime(_cluster_config(brps=2), workers=3)
        cluster = ParallelClusterRuntime(_cluster_config(brps=2), workers=2)
        cluster.run(_streams(cluster.config.brps, 8.0), 8.0)
        with pytest.raises(ServiceError, match="runs once"):
            cluster.run({}, 8.0)

    def test_finished_runtime_is_freed(self):
        """The atexit teardown hook lets go of the runtime once it has run."""
        cluster = ParallelClusterRuntime(_cluster_config(brps=2), workers=2)
        cluster.run(_streams(cluster.config.brps, 12.0), 12.0)
        ref = weakref.ref(cluster)
        del cluster
        gc.collect()
        assert ref() is None

    def test_transport_rejects_foreign_messages(self):
        transport = ProcessBusTransport(
            None,
            run_id="x",
            worker_index=0,
            tso_name="tso",
            tracer=Tracer(),
        )
        with pytest.raises(CommunicationError, match="only uplinks"):
            transport.send(
                "brp-0", "brp-1", MessageType.FLEX_OFFER_SUBMIT, (), 0.0
            )


# ----------------------------------------------------------------------
class TestLedgerRecovery:
    @pytest.mark.parametrize("placement", ["in-process", "workers=2"])
    def test_hosted_brp_journals_its_window_and_replays_it(
        self, tmp_path, placement
    ):
        """A hosted BRP's journal re-executes: window, sweeps, closing drain.

        What re-execution cannot reproduce is stated, not hidden: schedules
        returned by the TSO are not journaled inputs, so the resumed node
        holds its *local* plans only (fewer offers reach ``executed``).
        """

        def ledger_factory(name: str):
            return OfferLedger(JsonlEventLog(tmp_path / name), node=name)

        cluster = PLACEMENTS[placement](
            _cluster_config(brps=2), ledger_factory=ledger_factory
        )
        cluster.run(_streams(cluster.config.brps, 48.0), 48.0)
        for name in cluster.config.brps:
            resumed = LedmsClient.resume_from_ledger(
                str(tmp_path / name), _service_config(), name=name
            )
            kinds = [event["kind"] for event in resumed.ledger.events()]
            assert kinds.count("run_window") == kinds.count("run_drain") == 1
            assert kinds[0] == "run_window"
            assert resumed.last_replay.windows == [(0.0, 48.0)]
            counts = resumed.service.store.state_counts()
            stuck = {s: counts.get(s, 0) for s in ("submitted", "accepted", "aggregated")}
            assert stuck == {"submitted": 0, "accepted": 0, "aggregated": 0}
            assert counts["executed"] > 0

    def test_worker_kill_then_resume_from_ledger(self, tmp_path):
        """Per-BRP journals survive a SIGKILL and rebuild their nodes."""

        def ledger_factory(name: str):
            return OfferLedger(JsonlEventLog(tmp_path / name), node=name)

        cluster = ParallelClusterRuntime(
            _cluster_config(), workers=2, ledger_factory=ledger_factory
        )
        lifecycle = TestLifecycle()
        thread, box = lifecycle._run_in_thread(cluster)
        victims = lifecycle._wait_for_workers(cluster)
        # Let the run journal some offers (not just its window marker)
        # before the kill.
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if any(
                b'"submit"' in p.read_bytes() for p in tmp_path.rglob("*.jsonl")
            ):
                break
            time.sleep(0.02)
        os.kill(victims[0].pid, signal.SIGKILL)
        thread.join(timeout=30.0)
        assert isinstance(box.get("error"), WorkerCrashError)

        ledger_dirs = sorted(
            p.parent for p in tmp_path.rglob("*.jsonl")
        )
        assert ledger_dirs, "no worker journaled anything before the kill"
        resumed_offers = 0
        for directory in dict.fromkeys(ledger_dirs):
            resumed = LedmsClient.resume_from_ledger(
                str(directory), _service_config(), name=directory.name
            )
            counts = resumed.service.store.state_counts()
            resumed_offers += sum(counts.values())
        assert resumed_offers > 0

    def test_cli_parallel_ledger_layout(self, tmp_path):
        """``--workers`` does not move a BRP's journal: ``DIR/<name>``."""
        from repro.__main__ import EXIT_OK, main

        ledger = tmp_path / "led"
        assert (
            main(
                [
                    "loadtest", "--brps", "2", "--workers", "2",
                    "--rate", "10", "--duration", "8", "--passes", "1",
                    "--ledger", str(ledger),
                ]
            )
            == EXIT_OK
        )
        assert sorted(p.name for p in ledger.iterdir()) == ["brp-0", "brp-1"]


# ----------------------------------------------------------------------
class TestTracing:
    def test_two_worker_trace_passes_the_jsonl_validator(self, tmp_path):
        path = tmp_path / "parallel.jsonl"
        writer = JsonlWriter(str(path))
        tracer = Tracer(sink=writer)
        cluster = ParallelClusterRuntime(
            _cluster_config(), workers=2, tracer=tracer
        )
        duration = 16.0
        cluster.run(_streams(cluster.config.brps, duration), duration)
        writer.close()

        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "check_trace_jsonl.py"),
                str(path),
            ],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr or result.stdout

        # Cross-pipe pairing, checked directly: every deliver (including
        # relayed worker publishes) pairs with a publish, seq is strictly
        # monotone, and both worker id bands appear.
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        published = {
            r["message_id"]
            for r in records
            if r["event"] == "bus" and r["action"] == "publish"
        }
        delivered = {
            r["message_id"]
            for r in records
            if r["event"] == "bus" and r["action"] == "deliver"
        }
        assert delivered <= published
        uplinks = {m for m in published if m >= 10**9}
        assert any(10**9 <= m < 2 * 10**9 for m in uplinks)
        assert any(2 * 10**9 <= m < 3 * 10**9 for m in uplinks)

    def test_offer_chain_crosses_the_process_boundary(self, tmp_path):
        from repro.obs import load_trace, render_offer_tree

        path = tmp_path / "chain.jsonl"
        writer = JsonlWriter(str(path))
        cluster = ParallelClusterRuntime(
            _cluster_config(), workers=2, tracer=Tracer(sink=writer)
        )
        duration = 16.0
        cluster.run(_streams(cluster.config.brps, duration), duration)
        writer.close()
        events = load_trace(str(path))
        committed = [
            r for r in events
            if r.get("event") == "offer" and r.get("state") == "remote_commit"
        ]
        assert committed, "no offer completed the BRP→TSO→BRP loop"
        tree = render_offer_tree(events, committed[0]["offer_id"])
        assert "tso" in tree and "remote_commit" in tree
