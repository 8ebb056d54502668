"""Poisson-arrival flex-offer streams for driving the runtime.

A deployed BRP node sees flex-offers trickle in from thousands of prosumers
rather than as one daily batch.  :class:`LoadGenerator` replays that traffic:
inter-arrival times are exponential (a Poisson process) at a configurable
rate, and each arriving offer is drawn from the same discrete archetype
distributions as :func:`repro.datagen.flexoffers.generate_flexoffer_dataset`,
so streamed populations aggregate and schedule like the paper's batch
workload.

Everything is driven by one seeded RNG: the same seed produces the exact
same ``(arrival_time, offer)`` sequence, which is what makes load tests and
benchmarks reproducible.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..core.errors import ServiceError
from ..core.flexoffer import FlexOffer
from ..core.timebase import DEFAULT_AXIS, TimeAxis
from ..datagen.flexoffers import (
    FlexOfferArchetype,
    household_archetypes,
    sample_archetype_offer,
)

__all__ = ["LoadGenerator"]


def _check_positive(name: str, value: float) -> None:
    """Refuse a non-positive or non-finite ``value``: a NaN window is empty
    and an infinite rate puts every arrival at the window's start."""
    if not (math.isfinite(value) and value > 0):
        raise ServiceError(f"{name} must be finite and positive, got {value}")


class LoadGenerator:
    """Generates a Poisson stream of archetype flex-offers.

    Parameters
    ----------
    rate_per_hour:
        Mean offer arrivals per simulated hour.
    axis:
        Time axis; arrival times are fractional slice indices on it.
    archetypes:
        Device mix; defaults to the household mix of the batch generator.
    seed / rng:
        Seed for a fresh generator, or an explicit generator (which wins).
    """

    def __init__(
        self,
        *,
        rate_per_hour: float,
        axis: TimeAxis = DEFAULT_AXIS,
        archetypes: tuple[FlexOfferArchetype, ...] = (),
        seed: int = 42,
        rng: np.random.Generator | None = None,
    ):
        _check_positive("rate_per_hour", rate_per_hour)
        self.rate_per_hour = rate_per_hour
        self.axis = axis
        self.archetypes = archetypes or household_archetypes(axis)
        self.rng = np.random.default_rng(seed) if rng is None else rng
        weights = np.array([a.weight for a in self.archetypes], dtype=float)
        self._weights = weights / weights.sum()

    @property
    def mean_interarrival_slices(self) -> float:
        """Mean gap between arrivals, in slice units."""
        return self.axis.slices_per_hour / self.rate_per_hour

    def stream(
        self, start: float, duration_slices: float
    ) -> Iterator[tuple[float, FlexOffer]]:
        """Yield ``(arrival_time, offer)`` pairs within the window.

        Arrival times are strictly increasing fractional slice indices in
        ``[start, start + duration_slices)``; each offer's ``creation_time``
        is the whole slice of its arrival and its earliest start lies at or
        after it, so the offer is always ingestible when it arrives.  A bad
        ``duration_slices`` raises here, before any arrival is drawn.
        """
        _check_positive("duration_slices", duration_slices)
        return self._arrivals(float(start), start + duration_slices)

    def _arrivals(
        self, start: float, end: float
    ) -> Iterator[tuple[float, FlexOffer]]:
        mean_gap = self.mean_interarrival_slices
        t = start + self.rng.exponential(mean_gap)
        while t < end:
            index = int(self.rng.choice(len(self.archetypes), p=self._weights))
            offer = sample_archetype_offer(
                self.archetypes[index],
                self.rng,
                axis=self.axis,
                not_before=int(t) + 1,
                creation_time=int(t),
            )
            yield t, offer
            t += self.rng.exponential(mean_gap)

    def offers(self, start: float, duration_slices: float) -> list[FlexOffer]:
        """Just the offers of :meth:`stream` (batch-compat convenience)."""
        return [offer for _, offer in self.stream(start, duration_slices)]

    def hostile_stream(
        self,
        start: float,
        duration_slices: float,
        *,
        duplicate_rate: float = 0.0,
        reorder_window: float = 0.0,
        seed: int = 0,
    ) -> Iterator[tuple[float, FlexOffer]]:
        """:meth:`stream` degraded by fault-injection transforms.

        ``duplicate_rate`` re-emits that fraction of arrivals again later
        (at-least-once delivery); ``reorder_window`` shuffles offers within
        windows that wide (out-of-order, possibly back-dated submissions).
        Reordering applies first, so re-emissions duplicate the *delivered*
        order.  Both default to off, in which case this is exactly
        :meth:`stream`.
        """
        from .faults import duplicate_stream, reorder_stream

        arrivals: Iterator[tuple[float, FlexOffer]] = self.stream(
            start, duration_slices
        )
        if reorder_window:
            arrivals = reorder_stream(arrivals, reorder_window, seed=seed)
        if duplicate_rate:
            arrivals = duplicate_stream(
                arrivals, duplicate_rate, seed=seed + 1
            )
        return arrivals
