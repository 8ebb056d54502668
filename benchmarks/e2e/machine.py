"""Machine-speed reference: a fixed kernel sampled while a section is timed.

Why this exists.  The driver accepts the benchmark only if, over ten seeds,
the interquartile spread of every end-to-end metric stays inside its bound
(at most 0.25).  The reference box is a shared 2-vCPU VM whose effective
speed flips between a fast and a ~1.4x slower mode within fractions of a
second and drifts by 10-35 % over minutes (a bare Python loop shows both;
CPU time moves with wall time, so it is not steal that could be
subtracted).  The drift is slower than a whole run, so longer windows or
more repetitions inside a run do not average it out: the same work
measured 2.7 s in one run and 4.2 s in the next, and accepted offers / raw
wall spread 0.04-0.38 of its median over ten seeds (``steadiness/*.json``,
``offers_per_sec_uncorrected``) — at or past the contract's ceiling.

What does cancel it is a reference measured *while* the timed section
runs.  :func:`kernel` is a fixed amount of interpreter and numpy work that
touches nothing under ``src/``.  A :class:`Pilot` runs it

* at evenly spaced simulated times inside the replay window and inside
  recovery, as inert events on the deterministic driver (256 samples, ~5 %
  of the section, subtracted from it again; the traced run books them
  under ``harness``), and
* in a short burst right before and after set-up, which has no driver.
  (``setup_s`` as the clock read it spread 0.13-0.39 over ten seeds and its
  median moved by 19 % between two sets an hour apart.)

``speed()`` is how fast the machine was while the samples were taken,
relative to ``REFERENCE_S``.  Every wall-clock and CPU metric is reported
at reference speed (``seconds * speed``, ``rate / speed``), with the raw
window and the speed beside it
(``harness.window_raw_s``, ``harness.machine_speed``,
``repetitions.window_raw_s`` / ``.machine_speed``), so the uncorrected
figure is always one division away.  The same ten seeds then spread
0.01-0.08 on the single-process workloads.

What it cannot do.  On ``parallel_k2`` the samples run in the parent and
see nothing of the cores the two workers run on; its spread stays at
0.05-0.14 whatever the number of repetitions.
"""

from __future__ import annotations

import time
from array import array
from typing import Any

import numpy as np

#: Wall seconds of one :func:`kernel` that count as speed 1.0 (the reference
#: box in its typical state).  A constant, not a calibration: it only fixes
#: the unit of the corrected numbers, and must never change, or results
#: stop being comparable with earlier ones.
REFERENCE_S = 0.0008

#: Kernel samples per replay window / per burst.
WINDOW_SAMPLES = 256
BURST_SAMPLES = 48

_ROUNDS = 1000
_ROWS = np.random.default_rng(0).random((48, 96))


def kernel() -> float:
    """The fixed work: half dict/list/str/float churn, half small numpy ops."""
    table: dict[int, list] = {}
    total = 0.0
    for i in range(_ROUNDS):
        key = (i * 7919) % 256
        row = table.get(key)
        if row is None:
            row = table[key] = [0.0, str(key), (key, key + 1)]
        row[0] += (i * 0.5) % 7.0
        total += row[0] + len(row[1]) + row[2][1]
    for values in _ROWS:
        total += float(np.clip(values, 0.2, 0.8).cumsum()[-1])
        (values * values + total).argmin()
    return total


class Pilot:
    """Collects kernel timings; one instance per timed section."""

    def __init__(self) -> None:
        self.samples = array("d")

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def burst(self) -> None:
        for _ in range(BURST_SAMPLES):
            self.tick()

    def arm(self, driver: Any, duration: float) -> None:
        """Schedule the window's samples on ``driver`` (inert events)."""
        tick = self.tick  # the traced run may have wrapped it
        for index in range(WINDOW_SAMPLES):
            driver.schedule_at(duration * index / WINDOW_SAMPLES, tick)

    @property
    def total_s(self) -> float:
        """Wall seconds the samples themselves took."""
        return float(sum(self.samples))

    def speed(self) -> float:
        """Machine speed while the samples were taken.

        1.0 is the reference box at its typical speed; 0.8 means the
        machine ran 20 % slower than that.  A sample that was preempted
        (more than twice the median) is clipped: one 40 ms stall in a
        0.7 ms sample would otherwise outweigh every other sample.
        """
        samples = np.asarray(self.samples)
        clipped = np.minimum(samples, 2.0 * np.median(samples))
        return REFERENCE_S / float(clipped.mean())
