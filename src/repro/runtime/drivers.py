"""Pluggable time drivers: one service loop, simulated or wall-clock time.

The streaming service (:class:`~repro.runtime.service.BrpRuntimeService`)
never touches a clock directly — it talks to a :class:`TimeDriver`, the
small protocol extracted from the original event loop: read ``now``,
schedule timed callbacks, and run until a horizon.  Two drivers implement
it:

* :class:`SimulatedDriver` wraps the existing
  :class:`~repro.runtime.clock.EventQueue` bit-identically — every test and
  load run stays deterministic, two runs with the same seed process the
  exact same events in the exact same order.
* :class:`WallClockDriver` maps real (monotonic) time onto the slice axis
  at a configurable ``slices_per_second`` rate and adds a **thread-safe
  inbox**: producers on other threads :meth:`~WallClockDriver.post`
  callbacks that the loop thread executes at the next opportunity, which is
  how real-time arrivals (a socket, a message bus) feed the same service
  that simulation feeds.  The time source and sleep function are
  injectable, so wall-clock behaviour is testable with a fake monotonic
  clock — deterministic, no real sleeps.

Late events cannot exist in simulation (the clock only advances by running
events) but are a fact of life under wall clock: a callback scheduled for a
slice that already passed while the loop was busy runs as soon as possible
instead of raising.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Callable, Protocol, runtime_checkable

from ..core.errors import ServiceError
from .clock import ClockError, EventQueue

__all__ = ["TimeDriver", "SimulatedDriver", "WallClockDriver", "sim_clock"]


def sim_clock(driver: "TimeDriver") -> Callable[[], float]:
    """A sim-time source reading ``driver.now``, for tracer clock binding.

    ``driver.now`` is a property, so it cannot be passed as a callable
    directly; every service binds its tracer's clock through this one
    helper instead of ad-hoc lambdas (and gets a late-bound read — the
    returned callable always reflects the driver's current time).
    """
    return lambda: driver.now


@runtime_checkable
class TimeDriver(Protocol):
    """What the service loop needs from time: read it, schedule on it, run it."""

    @property
    def now(self) -> float:
        """Current time in (fractional) slice units."""
        ...

    @property
    def processed(self) -> int:
        """Callbacks executed so far (arrivals, sweeps, posted work)."""
        ...

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the driver's time reaches ``time``."""
        ...

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` slice units from now."""
        ...

    def post(self, callback: Callable[[], None]) -> None:
        """Enqueue ``callback`` to run as soon as possible (thread-safe
        where the driver supports cross-thread producers)."""
        ...

    def run_until(self, end: float) -> int:
        """Process events until time reaches ``end``; return the count run."""
        ...


class SimulatedDriver:
    """The deterministic driver: a thin veneer over :class:`EventQueue`.

    Exposes the wrapped queue as :attr:`queue`, so simulated-time callers
    can move the clock directly (``driver.queue.clock.advance_to(...)``).
    """

    def __init__(self, start: float = 0.0, *, queue: EventQueue | None = None):
        self.queue = queue if queue is not None else EventQueue(start)

    @property
    def now(self) -> float:
        return self.queue.clock.now

    @property
    def processed(self) -> int:
        return self.queue.processed

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        self.queue.schedule_at(time, callback)

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.queue.schedule_after(delay, callback)

    def post(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current simulated time (FIFO with peers)."""
        self.queue.schedule_at(self.queue.clock.now, callback)

    def run_until(self, end: float) -> int:
        return self.queue.run_until(end)


class WallClockDriver:
    """Real-time driver: slice time advances with the monotonic clock.

    Parameters
    ----------
    slices_per_second:
        How many slice units elapse per wall second.  ``1.0`` runs the
        15-minute axis at 1 slice/second (a 900× speed-up over physical
        time); higher values compress further.
    start:
        Slice-time origin; the first :meth:`run_until` (or ``now`` read)
        anchors it to the current monotonic instant.
    monotonic / sleep:
        Injectable time source and wait function.  The defaults use
        :func:`time.monotonic` and an event-based wait so cross-thread
        :meth:`post` calls interrupt the sleep immediately; tests inject a
        fake pair and get fully deterministic wall-clock runs.
    max_wait_seconds:
        Upper bound on any single wait, so posted work is noticed promptly
        even under a custom ``sleep`` that cannot be interrupted.
    """

    def __init__(
        self,
        *,
        slices_per_second: float = 1.0,
        start: float = 0.0,
        monotonic: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        max_wait_seconds: float = 0.05,
    ):
        if slices_per_second <= 0:
            raise ServiceError(
                f"slices_per_second must be positive, got {slices_per_second}"
            )
        if max_wait_seconds <= 0:
            raise ServiceError(
                f"max_wait_seconds must be positive, got {max_wait_seconds}"
            )
        self.slices_per_second = float(slices_per_second)
        self._start = float(start)
        self._monotonic = monotonic if monotonic is not None else time.monotonic
        self._sleep = sleep
        self._max_wait = float(max_wait_seconds)
        self._origin: float | None = None
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._inbox: deque[Callable[[], None]] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self.processed = 0

    # ------------------------------------------------------------------
    def _anchor(self) -> float:
        origin = self._origin
        if origin is None:
            origin = self._origin = self._monotonic()
        return origin

    @property
    def now(self) -> float:
        """Current slice time derived from the monotonic clock."""
        elapsed = self._monotonic() - self._anchor()
        return self._start + elapsed * self.slices_per_second

    def seconds_until(self, slice_time: float) -> float:
        """Wall seconds until ``slice_time`` (negative when already past)."""
        return (slice_time - self.now) / self.slices_per_second

    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` for slice ``time``; late times run ASAP.

        Unlike the simulated queue this never raises for past times — wall
        time cannot be paused, so a handler that overran its slot simply
        fires the moment the loop sees it.
        """
        heapq.heappush(self._heap, (float(time), next(self._seq), callback))
        self._wake.set()

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise ClockError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.now + delay, callback)

    def post(self, callback: Callable[[], None]) -> None:
        """Thread-safe: enqueue ``callback`` for the loop thread to run.

        Safe to call from any thread at any point; the running loop wakes
        from its wait and drains the inbox in FIFO order before looking at
        timers again.
        """
        with self._lock:
            self._inbox.append(callback)
        self._wake.set()

    # ------------------------------------------------------------------
    def _drain_inbox(self) -> int:
        ran = 0
        while True:
            with self._lock:
                callback = self._inbox.popleft() if self._inbox else None
            if callback is None:
                return ran
            self.processed += 1
            ran += 1
            callback()

    def _wait(self, seconds: float) -> None:
        # Floor at one microsecond: a wait below float resolution of the
        # clock value could fail to advance time at all and spin forever;
        # a microsecond of real sleep at an event boundary is free.
        seconds = min(max(seconds, 1e-6), self._max_wait)
        if self._sleep is not None:
            self._sleep(seconds)
            return
        self._wake.wait(timeout=seconds)

    def run_until(self, end: float) -> int:
        """Run posted work and due timers until slice time reaches ``end``.

        Blocks (in real time) until the wall clock has carried slice time
        past every timer at or before ``end``.  Pending timers beyond
        ``end`` stay queued for a later run.
        """
        self._anchor()
        ran = 0
        while True:
            ran += self._drain_inbox()
            now = self.now
            if self._heap and self._heap[0][0] <= min(now, end):
                _, _, callback = heapq.heappop(self._heap)
                self.processed += 1
                ran += 1
                callback()
                continue
            if now >= end:
                return ran
            next_time = self._heap[0][0] if self._heap else end
            self._wake.clear()
            # Re-check under a cleared flag: a post between the drain above
            # and the clear would otherwise sleep through its wake-up.
            with self._lock:
                if self._inbox:
                    continue
            self._wait(self.seconds_until(min(next_time, end)))
