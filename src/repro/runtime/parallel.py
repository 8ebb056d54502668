"""Process-parallel placement for the cluster runtime: BRP hosts in workers.

:class:`~repro.runtime.cluster.ClusterRuntime` defines the cluster — TSO
head, run loop, drain, metrics, report — with its one
:class:`~repro.runtime.cluster.BrpHost` on the TSO's thread, so the per-BRP
pipelines (ingest → packed aggregation → scheduling → disaggregation)
serialize on one core.  :class:`ParallelClusterRuntime` changes only *where
a host lives and when the barrier falls*; this module holds what processes
need and nothing else:

* K **worker processes** (forked, so pre-materialised arrival streams and
  configs cross for free), each running the same ``BrpHost`` over its share
  of the BRPs on a worker-local
  :class:`~repro.runtime.drivers.SimulatedDriver`; the parent hosts none;
* a :class:`ProcessBusTransport` as each worker's uplink — the
  ``BusAdapter`` send/register surface over a ``multiprocessing`` pipe;
* committed macro snapshots crossing the process boundary as raw
  struct-of-arrays numpy buffers in POSIX shared-memory segments
  (:mod:`repro.runtime.shm`) — macro columns only: as in the
  paper, micro members never leave the worker that aggregated them (it
  is the one that disaggregates), and the pipe carries segment names,
  never pickled offer graphs;
* relayed snapshots entering the parent's real
  :class:`~repro.runtime.cluster.BusAdapter` via :meth:`~repro.runtime.
  cluster.BusAdapter.forward` with their original message ids and
  :class:`~repro.obs.tracing.TraceContext`, so bus metrics, publish/deliver
  pairing and ``inspect --offer`` chains work across the pipe.

Time advances in **epochs** (bulk-synchronous): workers simulate
:attr:`ParallelClusterRuntime.epoch_slices` (4) slices of
arrivals/sweeps/local plans, then barrier; the parent
replays the epoch on the head's own driver — each relayed snapshot reaches
the TSO at the instant its BRP sent it, in send order, between the TSO's
own sweeps and runs — and returns the scheduled macros down the pipes
before releasing the next epoch.  A parallel run is reproducible
run-to-run for a fixed seed.

Determinism vs the in-process cluster: per-BRP local behaviour is
identical by construction (same host code, same streams, same seeds), and
the TSO admits the same macros at the same slices in the same order, but
TSO feedback lands at barriers instead of mid-epoch, so *mid-run*
downlink timing differs.  With TSO feedback deferred to the final drain
(a TSO count trigger above the macro count) both placements commit the
same accepted offers and the same micro start commitments.

Worker lifecycle: each worker announces ``ready`` once its SIGTERM
handler is installed (:attr:`ParallelClusterRuntime.ready` is set when
all have), so a signal sent after that always takes the graceful path;
SIGTERM unlinks the worker's unconsumed segments and exits from inside the
handler (an exception raised there can be dropped as unraisable); every
snapshot segment is unlinked by the parent as it is decoded, workers unlink anything unconsumed at exit, and the parent
sweeps the run's ``/dev/shm`` prefix on shutdown (also via ``atexit``), so
even a SIGKILL'd worker leaks nothing.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable, Iterable, Mapping

from ..core.errors import CommunicationError, ServiceError
from ..core.flexoffer import FlexOffer, rebase_offer_ids
from ..core.schedule import ScheduledFlexOffer
from ..core.timeseries import TimeSeries
from ..node.messages import Message, MessageType, next_message_id, rebase_message_ids
from ..obs.tracing import NullTracer, TraceContext, Tracer, TraceResequencer
from .cluster import BrpHost, ClusterConfig, ClusterRuntime
from .config import ServiceConfig
from .drivers import SimulatedDriver, sim_clock
from .metrics import MetricsRegistry
from .shm import (
    cleanup_run_segments,
    read_snapshot,
    segment_name,
    unlink_segment,
    write_snapshot,
)

__all__ = [
    "ParallelClusterRuntime",
    "ProcessBusTransport",
    "WorkerCrashError",
]

#: Disjoint per-worker id bands: offer ids (aggregates minted in workers),
#: bus message ids and tracer span ids must stay unique across processes.
_OFFER_ID_BAND = 10**12
_MESSAGE_ID_BAND = 10**9
_SPAN_ID_BAND = 10**9

#: Seconds the parent waits on a worker's pipe at a barrier before it
#: declares the worker crashed.
BARRIER_TIMEOUT_S = 120.0


class WorkerCrashError(ServiceError):
    """A worker process died or stopped responding mid-run."""


def _ctx_tuple(context: TraceContext | None) -> tuple[str, int] | None:
    return None if context is None else (context.node, context.span_id)


def _ctx_from(data: tuple[str, int] | None) -> TraceContext | None:
    return None if data is None else TraceContext(data[0], int(data[1]))


# ----------------------------------------------------------------------
class ProcessBusTransport:
    """Worker-side half of the process bus: the ``BusAdapter`` seam on a pipe.

    Exposes the two methods cluster wiring uses — :meth:`send` for the BRP
    publish hook and :meth:`register` for the schedule handler — so a BRP
    stack wires to it exactly as to the in-process adapter.  ``send``
    encodes the macro snapshot into a shared-memory segment and ships only
    ``(segment name, message id, trace context)`` up the pipe; the real
    aggregates (members and offsets) stay here in ``_published``.
    :meth:`deliver_scheduled` is the downlink, rebuilding
    :class:`~repro.core.schedule.ScheduledFlexOffer` payloads against those
    retained macro objects and dispatching them to the registered handler
    as bus messages.
    """

    def __init__(
        self,
        conn,
        *,
        run_id: str,
        worker_index: int,
        tso_name: str,
        tracer: Tracer | NullTracer,
    ):
        self.conn = conn
        self.run_id = run_id
        self.worker_index = worker_index
        self.tso_name = tso_name
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        self._segment_seq = itertools.count(1)
        #: Segments written but not yet confirmed consumed by the parent
        #: (cleared at each ``proceed``); unlinked at exit as a backstop.
        self._owned: set[str] = set()
        self._handlers: dict[str, Callable[[Message], None]] = {}
        # brp -> macro_id -> macro, cumulative over the run: the TSO may
        # return a schedule for any macro it ever saw, mirroring the
        # single-thread cluster where the payload *is* the object.
        self._published: dict[str, dict[int, Any]] = {}

    # -- BusAdapter surface --------------------------------------------
    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        """Attach a BRP's schedule handler under its bus name."""
        self._handlers[name] = handler

    def send(
        self,
        sender: str,
        recipient: str,
        type_: MessageType,
        payload: Any,
        now: float,
        *,
        detail: Mapping[str, Any] | None = None,
    ) -> bool:
        """Ship one macro snapshot to the parent over shared memory."""
        if recipient != self.tso_name or type_ is not MessageType.MACRO_FLEX_OFFER:
            raise CommunicationError(
                f"process transport only uplinks macro snapshots to "
                f"{self.tso_name!r}, got {type_} for {recipient!r}"
            )
        macros = tuple(payload)
        retained = self._published.setdefault(sender, {})
        for macro in macros:
            retained[macro.offer_id] = macro
        t0 = time.perf_counter()
        name = segment_name(
            self.run_id, self.worker_index, next(self._segment_seq)
        )
        self._owned.add(name)
        _, nbytes = write_snapshot(macros, name)
        self.metrics.histogram("transport.encode_seconds").observe(
            time.perf_counter() - t0
        )
        self.metrics.counter("transport.snapshots").inc()
        self.metrics.counter("transport.shm_bytes").inc(nbytes)
        context = self.tracer.current_context(sender)
        self.conn.send(
            (
                "snapshot",
                sender,
                next_message_id(),
                _ctx_tuple(context),
                name,
                nbytes,
                now,
                detail,
            )
        )
        return True

    # -- downlink -------------------------------------------------------
    def deliver_scheduled(self, items: Iterable[tuple]) -> int:
        """Dispatch parent-relayed scheduled macros to their handlers."""
        delivered = 0
        for brp, macro_id, start, energies, ctx, message_id in items:
            macro = self._published.get(brp, {}).get(macro_id)
            handler = self._handlers.get(brp)
            if macro is None or handler is None:
                # The macro retired locally before its schedule crossed the
                # pipe — the parallel analogue of a dropped bus message.
                self.metrics.counter("transport.stale_schedules").inc()
                continue
            scheduled = ScheduledFlexOffer(macro, int(start), tuple(energies))
            handler(
                Message(
                    self.tso_name,
                    brp,
                    MessageType.SCHEDULED_MACRO_FLEX_OFFER,
                    scheduled,
                    int(start),
                    message_id=message_id,
                    trace=_ctx_from(ctx),
                )
            )
            delivered += 1
        self.metrics.counter("transport.schedules_applied").inc(delivered)
        return delivered

    def confirm_consumed(self) -> None:
        """Parent released an epoch: everything announced so far is decoded."""
        self._owned.clear()

    def cleanup(self) -> None:
        """Unlink any segment the parent never consumed (exit backstop)."""
        for name in self._owned:
            unlink_segment(name)
        self._owned.clear()


# ----------------------------------------------------------------------
def _worker_main(
    worker_index: int,
    conn,
    peer_conns,
    run_id: str,
    brps: dict[str, ServiceConfig],
    streams: dict[str, list[tuple[float, FlexOffer]]],
    boundaries: list[float],
    tso_name: str,
    trace_spec: tuple[int, int] | None,
    ledger_factory: Callable[[str], Any] | None,
) -> None:
    """Worker process body: a :class:`BrpHost` for its BRP share, by epoch.

    Runs forked, so ``brps``/``streams``/``ledger_factory`` arrive by
    memory inheritance, not pickling.  The worker owns a private simulated
    driver; barriers keep it within one epoch of the parent's clock.
    """

    for peer in peer_conns:
        if peer is not conn:
            peer.close()

    # Disjoint id bands per worker: aggregate offer ids minted here meet
    # other workers' at the TSO, message ids pair publishes with deliveries
    # across processes, span ids label cross-process trace links.
    rebase_offer_ids((worker_index + 1) * _OFFER_ID_BAND)
    rebase_message_ids((worker_index + 1) * _MESSAGE_ID_BAND)

    batch: list[dict] = []
    if trace_spec is not None:
        sample_every, capacity = trace_spec
        tracer: Tracer | NullTracer = Tracer(
            capacity=capacity,
            sample_every=sample_every,
            sink=batch.append,
            span_base=(worker_index + 1) * _SPAN_ID_BAND + 1,
        )
    else:
        tracer = NullTracer()

    driver = SimulatedDriver()
    tracer.bind_clock(sim_clock(driver))
    transport = ProcessBusTransport(
        conn,
        run_id=run_id,
        worker_index=worker_index,
        tso_name=tso_name,
        tracer=tracer,
    )

    def _sigterm(signum, frame):
        # Graceful worker shutdown, finished inside the handler.  Raising
        # SystemExit and letting it unwind is not reliable: the handler runs
        # wherever the eval loop next checks for signals, and an exception
        # raised inside a gc callback or a ``__del__`` is dropped as
        # unraisable — the worker would carry on as if never signalled.
        try:
            transport.cleanup()
        finally:
            os._exit(143)

    signal.signal(signal.SIGTERM, _sigterm)
    # The handler is live: from here on a SIGTERM takes the graceful path.
    conn.send(("ready", worker_index))

    t_wall = time.perf_counter()
    end = boundaries[-1]
    try:
        host = BrpHost(
            brps,
            driver=driver,
            uplink=transport,
            tso_name=tso_name,
            tracer=tracer,
            ledger_factory=ledger_factory,
        )
        host.open(streams, end)

        def flush_traces() -> list[dict]:
            records, batch[:] = list(batch), []
            return records

        def await_release(epoch: int) -> None:
            while True:
                try:
                    request = conn.recv()
                except (EOFError, OSError):
                    raise SystemExit(1)
                kind = request[0]
                if kind == "schedule":
                    transport.deliver_scheduled(request[1])
                elif kind == "proceed" and request[1] == epoch:
                    transport.confirm_consumed()
                    return
                else:
                    raise CommunicationError(
                        f"worker {worker_index}: unexpected {kind!r} "
                        f"awaiting epoch {epoch}"
                    )

        for epoch, boundary in enumerate(boundaries):
            driver.run_until(boundary)
            conn.send(("barrier", epoch, flush_traces()))
            await_release(epoch)

        host.drain(end)
        conn.send(("drained", -1, flush_traces()))
        await_release(-1)

        host.trace_shutdown()
        result = {
            "host": host.results(end, time.perf_counter() - t_wall),
            "transport_metrics": transport.metrics,
            "trace": flush_traces(),
        }
        conn.send(("result", result))
        try:
            conn.recv()  # ("stop",) — or EOF if the parent is gone
        except (EOFError, OSError):
            pass
    except SystemExit:
        raise
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
        raise SystemExit(1)
    finally:
        transport.cleanup()
        conn.close()


# ----------------------------------------------------------------------
class ParallelClusterRuntime(ClusterRuntime):
    """The cluster with its BRP hosts in K forked worker processes.

    Same :class:`~repro.runtime.cluster.ClusterConfig`, same
    ``run(streams, duration_slices)`` loop, same
    :class:`~repro.runtime.cluster.ClusterReport` as the base class — only
    the placement hooks differ.  BRPs are assigned to ``workers`` processes
    round-robin (the parent hosts none); each worker simulates epochs of
    :attr:`epoch_slices` between barriers, and a worker silent for
    :data:`BARRIER_TIMEOUT_S` at a barrier counts as crashed.  A runtime
    runs once.

    Not supported here: wall-clock drivers (workers own simulated clocks),
    progress ticks (``report_every`` sees no BRP in the parent) and mid-run
    ``set_unreachable`` outage injection (the fault harness stays
    in-process).
    """

    #: Simulated slices per epoch between barriers.
    epoch_slices = 4.0

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        workers: int = 2,
        tracer: Tracer | NullTracer | None = None,
        tso_net_forecast: TimeSeries | None = None,
        ledger_factory: Callable[[str], Any] | None = None,
    ):
        config = config if config is not None else ClusterConfig.uniform(2)
        if workers < 1:
            raise ServiceError(f"workers must be positive, got {workers}")
        if workers > len(config.brps):
            raise ServiceError(
                f"{workers} workers for {len(config.brps)} BRPs; "
                "a worker needs at least one BRP"
            )
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ServiceError(
                "the parallel cluster runtime requires the fork start method"
            ) from exc
        super().__init__(config, tracer=tracer, tso_net_forecast=tso_net_forecast)
        self.workers = workers
        self.run_id = f"{os.getpid()}-{os.urandom(4).hex()}"
        self._ledger_factory = ledger_factory
        # Route the parent tracer's sink through a resequencer so parent
        # events and relayed worker batches form one monotone JSONL stream.
        self._reseq: TraceResequencer | None = None
        if self.tracer.enabled and self.tracer._sink is not None:
            self._reseq = TraceResequencer(self.tracer._sink)
            self.tracer._sink = self._reseq
        # Round-robin BRP ownership, in config order.
        names = list(self.config.brps)
        self.assignment: dict[int, list[str]] = {
            w: names[w :: self.workers] for w in range(self.workers)
        }
        self._worker_of = {
            name: w for w, owned in self.assignment.items() for name in owned
        }
        self._brp_rank = {name: rank for rank, name in enumerate(names)}
        #: Snapshots decoded at a barrier, awaiting :meth:`_deliver_relayed`.
        self._relayed: list[tuple] = []
        self._outbox: dict[int, list[tuple]] = {}
        for name in names:
            self.adapter.register(name, self._queue_downlink)

        self._procs: list[Any] = []
        self._conns: list[Any] = []
        self._ran = False
        self.ready = threading.Event()
        """Set once every worker has its SIGTERM handler installed."""
        self.shm_segments = 0
        self.shm_bytes = 0
        atexit.register(self._cleanup)

    def _local_brps(self) -> Mapping[str, ServiceConfig]:
        """None: every BRP lives in a worker."""
        return {}

    def _head_driver(self) -> SimulatedDriver:
        """A driver of the head's own, which replays each epoch once the
        barrier holds its snapshots, while the cluster's driver keeps pace
        with the workers."""
        return SimulatedDriver()

    # ------------------------------------------------------------------
    def _queue_downlink(self, message: Message) -> None:
        """Bus handler for every BRP name: hold the schedule for its worker."""
        name = message.recipient
        if message.type is not MessageType.SCHEDULED_MACRO_FLEX_OFFER:
            raise CommunicationError(f"{name}: unexpected {message.type}")
        scheduled = message.payload
        self._outbox.setdefault(self._worker_of[name], []).append(
            (
                name,
                scheduled.offer.offer_id,
                int(scheduled.start),
                scheduled.energies,
                _ctx_tuple(message.trace),
                message.message_id,
            )
        )

    # -- placement hooks -------------------------------------------------
    def _start(self, streams, boundaries: list[float]) -> None:
        """Fork the workers and wait for their ``ready`` handshakes.

        ``streams`` are materialised up front (forked workers inherit the
        offer objects, and parity with the in-process placement needs both
        to see the identical offers), so arbitrarily long lazy streams
        should stay in-process.
        """
        if self._ran:
            raise ServiceError("a parallel cluster runtime runs once")
        self._ran = True
        materialised = {
            name: list(streams.get(name, ())) for name in self.config.brps
        }
        trace_spec = (
            (self.tracer.sample_every, self.tracer.capacity)
            if self.tracer.enabled
            else None
        )
        all_conns = []
        for w in range(self.workers):
            parent_conn, child_conn = self._mp.Pipe()
            self._conns.append(parent_conn)
            all_conns.append(child_conn)
        for w, owned in self.assignment.items():
            proc = self._mp.Process(
                target=_worker_main,
                args=(
                    w,
                    all_conns[w],
                    all_conns,
                    self.run_id,
                    {name: self.config.brps[name] for name in owned},
                    {name: materialised[name] for name in owned},
                    boundaries,
                    self.config.tso_name,
                    trace_spec,
                    self._ledger_factory,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        for child_conn in all_conns:
            child_conn.close()
        for w in range(self.workers):
            item = self._recv(w)
            if item != ("ready", w):
                raise WorkerCrashError(
                    f"worker {w}: unexpected {item[0]!r} awaiting ready"
                )
        self.ready.set()

    # ------------------------------------------------------------------
    def _recv(self, worker: int):
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = time.monotonic() + BARRIER_TIMEOUT_S
        while True:
            if conn.poll(0.05):
                try:
                    return conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrashError(
                        f"worker {worker} (pid {proc.pid}) closed its pipe"
                    ) from exc
            if not proc.is_alive() and not conn.poll(0):
                raise WorkerCrashError(
                    f"worker {worker} (pid {proc.pid}) died with exit code "
                    f"{proc.exitcode}"
                )
            if time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"worker {worker} (pid {proc.pid}) unresponsive after "
                    f"{BARRIER_TIMEOUT_S:g}s"
                )

    def _ingest_traces(self, records: list[dict]) -> None:
        for record in records:
            if self._reseq is not None:
                self._reseq.write(record)
            else:
                self.tracer._ring.append(record)

    def _relay_snapshot(self, worker: int, item: tuple) -> None:
        """Decode one announced snapshot; :meth:`_deliver_relayed` sends it."""
        _, brp, message_id, ctx, seg, nbytes, sent_at, detail = item
        t0 = time.perf_counter()
        try:
            macros = read_snapshot(seg)
        except FileNotFoundError as exc:
            # A worker's SIGTERM path unlinks the segments it announced but
            # the parent had not decoded yet: the worker is going down.
            raise WorkerCrashError(
                f"worker {worker}: snapshot segment {seg!r} is gone"
            ) from exc
        finally:
            # A rejected buffer is reclaimed now, not at the end-of-run sweep.
            unlink_segment(seg)
        self.adapter.metrics.histogram("transport.decode_seconds").observe(
            time.perf_counter() - t0
        )
        self.shm_segments += 1
        self.shm_bytes += nbytes
        message = Message(
            brp,
            self.config.tso_name,
            MessageType.MACRO_FLEX_OFFER,
            macros,
            int(sent_at),
            message_id=message_id,
            trace=_ctx_from(ctx),
        )
        self._relayed.append((sent_at, self._brp_rank[brp], message, detail))

    def _deliver_relayed(self) -> None:
        """Send the decoded snapshots at the instants their BRPs sent them.

        In send order — time, then BRP config order, which is how the
        in-process cluster's shared driver orders same-instant publishes —
        so the TSO admits the same macros at the same slices in the same
        order under either placement.
        """
        self._relayed.sort(key=lambda relayed: relayed[:2])
        for sent_at, _, message, detail in self._relayed:
            self.tso.driver.schedule_at(
                sent_at,
                lambda message=message, detail=detail: self.adapter.forward(
                    message, detail=detail
                ),
            )
        self._relayed.clear()

    def _collect_until(self, worker: int, marker: str, epoch: int):
        """Read one worker's pipe up to its barrier, relaying snapshots."""
        while True:
            item = self._recv(worker)
            kind = item[0]
            if kind == "snapshot":
                self._relay_snapshot(worker, item)
            elif kind == "error":
                raise WorkerCrashError(
                    f"worker {worker} failed:\n{item[1]}"
                )
            elif kind == marker:
                if item[1] != epoch:
                    raise WorkerCrashError(
                        f"worker {worker} at epoch {item[1]}, "
                        f"expected {epoch}"
                    )
                self._ingest_traces(item[2])
                return
            else:
                raise WorkerCrashError(
                    f"worker {worker}: unexpected {kind!r} awaiting {marker}"
                )

    def _release(self, epoch: int) -> None:
        for w in range(self.workers):
            conn = self._conns[w]
            try:
                conn.send(("schedule", self._outbox.pop(w, [])))
                conn.send(("proceed", epoch))
            except OSError as exc:  # died after its barrier message
                raise WorkerCrashError(
                    f"worker {w} (pid {self._procs[w].pid}) closed its pipe"
                ) from exc

    def _barrier(self, epoch: int) -> None:
        """Wait for every worker at the boundary, then replay the epoch.

        The head's driver runs the epoch after the workers did: each
        relayed snapshot reaches the TSO at the instant it was sent, and
        the TSO's own sweeps and runs fall in between; the schedules it
        returns reach the workers with the release.
        """
        for w in range(self.workers):
            self._collect_until(w, "barrier", epoch)
        self._deliver_relayed()
        self.tso.driver.run_until(self.driver.now)
        self._release(epoch)

    def _final_drain(self, end: float) -> None:
        """Workers drain themselves after the last release; then the TSO."""
        for w in range(self.workers):
            self._collect_until(w, "drained", -1)
        self._deliver_relayed()
        self._drain_tso(end)
        self._release(-1)

    def _collect_results(self, duration_slices: float, wall_seconds: float) -> None:
        """Absorb each worker's results (measured on its own clocks)."""
        for w in range(self.workers):
            kind, payload = self._recv(w)[:2]
            while kind != "result":
                if kind == "error":
                    raise WorkerCrashError(f"worker {w} failed:\n{payload}")
                kind, payload = self._recv(w)[:2]
            self._ingest_traces(payload["trace"])
            self._results.update(payload["host"])
            self.adapter.metrics.merge_from(payload["transport_metrics"])
        self._stop_workers()
        # The parent's one node closes its trace at run end, as each
        # worker's host does before it exits.
        self.tso.trace_shutdown()

    def trace_shutdown(self) -> None:
        """Nothing to do: every node closed its trace as the run ended."""

    def _stop_workers(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)

    def _cleanup(self) -> None:
        """Tear down workers and sweep the run's shared-memory segments.

        Idempotent; also registered via ``atexit`` so an aborted run (or a
        crashed parent) still reclaims every ``/dev/shm`` block.  Once it has
        run, the registration is dropped: it would otherwise keep the
        finished runtime, and everything it holds, alive until exit.
        """
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        cleanup_run_segments(self.run_id)
        atexit.unregister(self._cleanup)
