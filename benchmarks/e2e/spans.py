"""Harness-side tracing: spans recorded around the calls into each layer.

The traced run rebinds public methods *on the instances the harness
built* so that every call records ``(name, start, end, parent)`` into
compact in-memory arrays.  Nothing under ``src/`` changes and the untraced
run uses none of this.  All wrap-points live in :data:`WRAP_POINTS`; one
that no longer resolves is reported and skipped, and every metric that
depends on it reads ``null`` instead of crashing the run.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Name of the root span the harness opens around the replay window.
WINDOW = "harness.window"

#: ``(layer, span name, root role, attribute path)``.  The last path
#: element is the method that gets wrapped; the ones before it are walked
#: with ``getattr`` from the root object playing ``role``.
WRAP_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("runtime.drivers", "drivers.run", "driver", "run_until"),
    ("runtime.ingest", "ingest.admit", "service", "submit_fact"),
    ("runtime.ingest", "ingest.withdraw", "service", "withdraw"),
    ("runtime.ingest", "ingest.update", "client", "update"),
    ("runtime.ingest", "ingest.submit", "service", "ingest.submit"),
    ("runtime.ingest", "ingest.retire", "service", "ingest.retire"),
    ("datamgmt", "datamgmt.record", "service", "store.record_offer_event"),
    ("aggregation", "aggregation.stage", "service", "run_aggregation"),
    ("aggregation", "aggregation.flush", "service", "ingest.flush"),
    ("aggregation", "aggregation.run", "service", "ingest.pipeline.run"),
    ("runtime.triggers", "triggers.evaluate", "service", "maybe_schedule"),
    ("runtime.service", "service.run_scheduling", "service", "run_scheduling"),
    ("runtime.service", "service.sweep", "service", "sweep_expired"),
    ("scheduling", "scheduling.plan", "service", "session.plan"),
    ("runtime.cluster", "cluster.remote_commit", "service", "apply_remote_schedule"),
    ("ledger", "ledger.record", "ledger", "record_run_window"),
    ("ledger", "ledger.record", "ledger", "record_run_drain"),
    ("ledger", "ledger.record", "ledger", "record_submit"),
    ("ledger", "ledger.record", "ledger", "record_reverse"),
    ("ledger", "ledger.record", "ledger", "record_withdraw"),
    ("ledger", "ledger.record", "ledger", "record_scheduled"),
    ("ledger", "ledger.record", "ledger", "record_retire"),
    ("ledger", "ledger.record", "ledger", "record_dead_letter"),
    ("ledger", "ledger.record", "ledger", "note_duplicate"),
    ("ledger", "ledger.write", "ledger", "log.append"),
    ("runtime.cluster", "cluster.bus_send", "cluster", "adapter.send"),
    ("runtime.cluster", "cluster.bus_send", "cluster", "adapter.forward"),
    ("runtime.cluster", "cluster.bus_dispatch", "cluster", "bus.dispatch_all"),
    ("runtime.cluster", "cluster.tso_snapshot", "cluster", "tso.receive_snapshot"),
    ("runtime.cluster", "cluster.tso_run", "cluster", "tso.run_scheduling"),
    ("scheduling", "scheduling.tso_plan", "cluster", "tso.session.plan"),
    # The parent side of the process transport has no public seam between
    # "advance one epoch" and "wait for the workers"; these four are
    # private and, like every entry here, resolve or read null.
    ("runtime.parallel", "parallel.barrier", "parallel", "_barrier"),
    ("runtime.parallel", "parallel.barrier", "parallel", "_final_drain"),
    ("runtime.parallel", "parallel.collect", "parallel", "_collect_results"),
    ("runtime.parallel", "parallel.collect", "parallel", "_stop_workers"),
    ("harness", "harness.pilot", "pilot", "tick"),
)

#: Spans whose first list/tuple argument sizes the work they did
#: (``work`` in the summary): aggregates handed to one planning run.
SIZED_BY_ARG = {"scheduling.plan": 1, "scheduling.tso_plan": 1}

LAYER_OF = {name: layer for layer, name, _, _ in WRAP_POINTS}
LAYER_OF[WINDOW] = "harness"


class SpanRecorder:
    """Append-only span store: four parallel arrays and an open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("i")
        self._stack = [-1]
        #: span name -> why no number can be given for it.
        self.unavailable: dict[str, str] = {}
        self._wrapped: set[tuple[int, str]] = set()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------------------
    def wrap(self, target: Any, attr: str, name: str) -> None:
        """Rebind ``target.attr`` so each call records one span."""
        if (id(target), attr) in self._wrapped:
            return
        self._wrapped.add((id(target), attr))
        original = getattr(target, attr)
        name_id = self._id(name)
        sized_by = SIZED_BY_ARG.get(name)
        names, parents, starts, ends, works = (
            self.name_id, self.parent, self.start, self.end, self.work,
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            works.append(
                len(args[sized_by])
                if sized_by is not None and len(args) > sized_by
                else 0
            )
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(target, attr, traced)

    def install(
        self, roots: dict[str, list[Any]], hidden: dict[str, str] | None = None
    ) -> None:
        """Wrap every resolvable :data:`WRAP_POINTS` entry under ``roots``.

        ``roots`` maps a role to the instances playing it (two BRP
        services on a cluster); a role with no instance on this workload
        (no ledger, no cluster) is simply absent and its spans read zero.
        ``hidden`` names roles whose instances exist but cannot be reached
        from the harness (BRP services inside forked workers), with the
        reason; a path that fails to resolve on a present instance is
        recorded the same way.  Either makes the span *unavailable*.
        """
        for role, reason in (hidden or {}).items():
            for _, name, its_role, _ in WRAP_POINTS:
                if its_role == role:
                    self.unavailable.setdefault(name, reason)
        for _, name, role, path in WRAP_POINTS:
            self._id(name)
            *walk, attr = path.split(".")
            for root in roots.get(role, ()):
                target = root
                for step in walk:
                    target = getattr(target, step, None)
                if target is None or not callable(getattr(target, attr, None)):
                    self.unavailable.setdefault(
                        name, f"wrap-point {role}.{path} did not resolve"
                    )
                    continue
                self.wrap(target, attr, name)

    def window(self, replay: Callable[[], Any]) -> Any:
        """Run ``replay`` under the root span."""
        index = len(self.start)
        self.name_id.append(self._id(WINDOW))
        self.parent.append(-1)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return replay()
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path) -> None:
        """Write the raw spans (flushed after the window closes)."""
        payload = {
            "names": self.names,
            "layers": {name: LAYER_OF[name] for name in self.names},
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "work": self.work.tolist(),
        }
        path.write_text(json.dumps(payload))


class Unavailable(Exception):
    """A number cannot be given; the message says why."""


class SpanSummary:
    """Per-name count / busy / self seconds derived from a recorder.

    * ``busy``  — summed duration of the name's spans, not counting a span
      nested directly inside another span of the same name;
    * ``self``  — summed duration minus the part covered by child spans.

    An unavailable name (see :meth:`SpanRecorder.install`) raises
    :class:`Unavailable`; a name that was wrapped but never called, or
    whose layer has no instance on this workload, reads zero.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        names = recorder.names
        name_id = np.asarray(recorder.name_id, dtype=np.int64)
        parent = np.asarray(recorder.parent, dtype=np.int64)
        duration = np.asarray(recorder.end) - np.asarray(recorder.start)
        covered = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        outermost = np.ones(len(duration), dtype=bool)
        outermost[has_parent] = (
            name_id[has_parent] != name_id[parent[has_parent]]
        )
        n = len(names)
        self.unavailable = dict(recorder.unavailable)
        self.span_count = len(duration)
        self._index = {name: i for i, name in enumerate(names)}
        self._tables = {
            "count": np.bincount(name_id, minlength=n),
            "busy": np.bincount(
                name_id, weights=duration * outermost, minlength=n
            ),
            "self": np.bincount(
                name_id, weights=duration - covered, minlength=n
            ),
            "work": np.bincount(
                name_id, weights=np.asarray(recorder.work), minlength=n
            ),
        }
        self._durations = {
            name: duration[name_id == i] for name, i in self._index.items()
        }

    def _check(self, name: str) -> None:
        if name in self.unavailable:
            raise Unavailable(self.unavailable[name])

    def _get(self, table: str, name: str) -> float:
        self._check(name)
        return float(self._tables[table][self._index[name]])

    def count(self, name: str) -> float:
        return self._get("count", name)

    def busy(self, name: str) -> float:
        return self._get("busy", name)

    def self_s(self, name: str) -> float:
        return self._get("self", name)

    def work(self, name: str) -> float:
        return self._get("work", name)

    def durations(self, name: str) -> np.ndarray:
        self._check(name)
        return self._durations[name]

    def layer_self(self, layer: str) -> float:
        """Summed self time of every span of ``layer``."""
        return sum(
            self.self_s(name)
            for name, its_layer in LAYER_OF.items()
            if its_layer == layer
        )
