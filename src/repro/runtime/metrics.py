"""Lightweight operational metrics for the streaming runtime.

The service loop threads one :class:`MetricsRegistry` through every stage
(ingest → aggregate → schedule → disaggregate) so a load run can report
throughput and latency without any external dependency.  Three instrument
kinds cover the need:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — last-written values (pool sizes, queue depths), with an
  explicit cross-registry merge policy (``sum`` / ``last`` / ``max``);
* :class:`Histogram` — observed distributions with exact quantiles.

Every instrument may carry **labels** — a small ``{"brp": "brp-0",
"stage": "schedule"}`` mapping — so one metric name can hold a value per
dimension combination (the per-stage/per-BRP profiling the observability
layer reports through).  Two requests with the same name but different
labels are distinct instruments; merge and aggregation are label-aware.

Histograms keep a bounded reservoir: below the bound every observation is
retained and quantiles are exact; past it, reservoir sampling keeps an
unbiased sample (deterministic — the reservoir uses its own seeded RNG, so
metric output never perturbs workload randomness).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core.errors import ServiceError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "aggregate_registries",
]

#: Valid cross-registry merge policies for gauges.
GAUGE_MERGE_POLICIES = ("sum", "last", "max")


def instrument_key(name: str, labels: Mapping[str, str] | None) -> str:
    """The registry identity of ``(name, labels)``.

    Prometheus-style: ``name`` alone without labels, otherwise
    ``name{k="v",...}`` with keys sorted — so the identity (and every
    rendered view) is independent of label insertion order.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _frozen_labels(labels: Mapping[str, str] | None) -> dict[str, str]:
    if not labels:
        return {}
    out = {}
    for key in sorted(labels):
        value = labels[key]
        if not isinstance(key, str) or not isinstance(value, str):
            raise ServiceError(
                f"metric labels must map str to str, got {key!r}={value!r}"
            )
        out[key] = value
    return out


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = _frozen_labels(labels)
        self._value = 0.0

    @property
    def key(self) -> str:
        return instrument_key(self.name, self.labels)

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ServiceError(f"counter {self.name}: negative increment {amount}")
        self._value += amount


class Gauge:
    """A value that may go up and down (pool size, queue depth).

    ``merge`` names the cross-registry aggregation policy applied by
    :meth:`MetricsRegistry.merge_from`:

    * ``sum`` — additive fleet totals (live offers, pool sizes summed
      across BRPs);
    * ``last`` — the merged-in value wins (last-written snapshots such as
      ``schedule.last_cost``, where summing across merges double-counts);
    * ``max`` — high-water marks.
    """

    __slots__ = ("name", "labels", "merge", "_value", "_touched")

    def __init__(
        self,
        name: str,
        merge: str = "sum",
        labels: Mapping[str, str] | None = None,
    ):
        if merge not in GAUGE_MERGE_POLICIES:
            raise ServiceError(
                f"gauge {name}: unknown merge policy {merge!r}; expected one "
                f"of {', '.join(GAUGE_MERGE_POLICIES)}"
            )
        self.name = name
        self.labels = _frozen_labels(labels)
        self.merge = merge
        self._value = 0.0
        self._touched = False

    @property
    def key(self) -> str:
        return instrument_key(self.name, self.labels)

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)
        self._touched = True

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount
        self._touched = True

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount
        self._touched = True

    def merge_value(self, other: "Gauge") -> None:
        """Fold another gauge's value into this one per the merge policy."""
        if not other._touched:
            return
        if self.merge == "sum":
            self._value += other._value
        elif self.merge == "last" or not self._touched:
            self._value = other._value
        else:  # max
            self._value = max(self._value, other._value)
        self._touched = True


class Histogram:
    """Observed value distribution with exact (or sampled) quantiles.

    ``reservoir_size`` bounds memory: once more observations arrive than fit,
    reservoir sampling (Vitter's algorithm R) keeps a uniform sample.  The
    count and sum always cover *every* observation.
    """

    __slots__ = ("name", "labels", "count", "total", "_values", "_capacity", "_rng")

    def __init__(
        self,
        name: str,
        reservoir_size: int = 65536,
        labels: Mapping[str, str] | None = None,
    ):
        if reservoir_size <= 0:
            raise ServiceError("reservoir_size must be positive")
        self.name = name
        self.labels = _frozen_labels(labels)
        self.count = 0
        self.total = 0.0
        self._values: list[float] = []
        self._capacity = reservoir_size
        self._rng = np.random.default_rng(0xC0FFEE)

    @property
    def key(self) -> str:
        return instrument_key(self.name, self.labels)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if len(self._values) < self._capacity:
            self._values.append(value)
        else:
            j = int(self._rng.integers(0, self.count))
            if j < self._capacity:
                self._values[j] = value

    @property
    def mean(self) -> float:
        """Mean over all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the retained observations (0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ServiceError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        return float(np.quantile(np.asarray(self._values), q))

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def observations(self) -> tuple[float, ...]:
        """The retained (possibly sampled) observations, read-only.

        What cross-registry aggregation pools to compute cluster-wide
        quantiles; below the reservoir bound this is every observation.
        """
        return tuple(self._values)

    def merge_with(self, other: "Histogram") -> None:
        """Fold another histogram's population into this one.

        Exact while the combined retained samples fit the reservoir.  Past
        it, each source keeps a share of the merged reservoir proportional
        to its share of the combined *population* (stratified, seeded,
        deterministic) — feeding one saturated source through ``observe``
        would instead let the first source's count crush the second's
        replacement probability and skew the pooled quantiles.

        The stratification applies whenever the combined retained lists
        exceed capacity — including when one side is empty or the other
        side's reservoir is larger than ours — so tail observations are
        never silently truncated.  Each source subsamples with its own
        freshly seeded RNG, which makes ``a.merge_with(b)`` and
        ``b.merge_with(a)`` retain the identical multiset: pooled quantile
        summaries are independent of merge order.
        """
        ours = list(self._values)
        theirs = list(other._values)
        count = self.count + other.count
        total = self.total + other.total
        if len(ours) + len(theirs) > self._capacity:
            population = count if count > 0 else len(ours) + len(theirs)
            keep_ours = min(
                len(ours), round(self._capacity * self.count / population)
            )
            keep_theirs = min(len(theirs), self._capacity - keep_ours)
            # Backfill: if the other side retained fewer samples than its
            # share, our side keeps the freed slots (and vice versa).
            keep_ours = min(len(ours), self._capacity - keep_theirs)
            if keep_ours < len(ours):
                rng = np.random.default_rng(0xC0FFEE)
                ours = list(rng.choice(ours, size=keep_ours, replace=False))
            if keep_theirs < len(theirs):
                rng = np.random.default_rng(0xC0FFEE)
                theirs = list(rng.choice(theirs, size=keep_theirs, replace=False))
        self._values = ours + theirs
        self.count = count
        self.total = total


def aggregate_registries(registries) -> MetricsRegistry:
    """Merge several registries into one cluster-level view.

    Used by the multi-node runtime to report fleet totals: counters sum by
    (name, labels), gauges combine per their declared merge policy, and
    histograms pool observations for cluster-wide quantiles.  The sources
    are left untouched.
    """
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge_from(registry)
    return merged


class MetricsRegistry:
    """Named instruments, created on first use.

    ``registry.counter("offers_ingested").inc()`` — the same (name, labels)
    pair always returns the same instrument; requesting an existing
    identity as a different kind is an error (it would silently fork the
    metric).
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(
        self,
        name: str,
        kind: type,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ):
        key = instrument_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = kind(
                name, labels=labels, **kwargs
            )
        elif not isinstance(instrument, kind):
            raise ServiceError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(
        self, name: str, *, labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(
        self,
        name: str,
        *,
        merge: str | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        gauge = self._get(
            name, Gauge, labels, merge=merge if merge is not None else "sum"
        )
        if merge is not None and gauge.merge != merge:
            raise ServiceError(
                f"gauge {gauge.key!r} already registered with merge policy "
                f"{gauge.merge!r}, not {merge!r}"
            )
        return gauge

    def histogram(
        self,
        name: str,
        reservoir_size: int = 65536,
        *,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        return self._get(name, Histogram, labels, reservoir_size=reservoir_size)

    # ------------------------------------------------------------------
    def items(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """``(key, instrument)`` pairs, sorted by identity key.

        The key is the instrument's full identity — ``name`` alone for
        unlabeled instruments (backward compatible), ``name{k="v"}`` for
        labeled ones.
        """
        return sorted(self._instruments.items())

    def as_dict(self) -> dict[str, float | dict[str, float]]:
        """Flat snapshot: counters/gauges as floats, histograms as summaries.

        Keys are instrument identities (labels rendered into the key).
        """
        out: dict[str, float | dict[str, float]] = {}
        for key, instrument in self.items():
            if isinstance(instrument, Histogram):
                out[key] = {
                    "count": float(instrument.count),
                    "mean": instrument.mean,
                    "p50": instrument.p50,
                    "p95": instrument.p95,
                }
            else:
                out[key] = instrument.value
        return out

    def merge_from(self, other: "MetricsRegistry", *, prefix: str = "") -> None:
        """Fold another registry's instruments into this one, by identity.

        ``prefix`` is prepended to every incoming name, so a registry can
        join under its own namespace instead of pooling with like names.

        Counters add; gauges combine per their declared merge policy
        (``sum`` by default, ``last``/``max`` where summing would
        double-count); histograms pool via :meth:`Histogram.merge_with`
        (exact while the combined samples fit the reservoir, proportionally
        stratified past it).  The merge is label-aware: instruments match
        on (name, labels), so per-BRP/per-stage series stay distinct in the
        merged view.  Mismatched instrument kinds under one identity raise,
        as they would within a single registry.
        """
        for _, instrument in other.items():
            name = prefix + instrument.name
            if isinstance(instrument, Counter):
                self.counter(name, labels=instrument.labels).inc(
                    instrument.value
                )
            elif isinstance(instrument, Gauge):
                self.gauge(
                    name,
                    merge=instrument.merge,
                    labels=instrument.labels,
                ).merge_value(instrument)
            else:
                self.histogram(name, labels=instrument.labels).merge_with(
                    instrument
                )

    def render(self) -> str:
        """Human-readable multi-line snapshot of every instrument."""
        lines: list[str] = []
        for key, instrument in self.items():
            if isinstance(instrument, Histogram):
                lines.append(
                    f"{key}: n={instrument.count} mean={instrument.mean:.6g} "
                    f"p50={instrument.p50:.6g} p95={instrument.p95:.6g}"
                )
            else:
                value = instrument.value
                text = f"{value:g}" if value == int(value) else f"{value:.6g}"
                lines.append(f"{key}: {text}")
        return "\n".join(lines)
