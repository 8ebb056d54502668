"""Slice-indexed time series — the substrate under forecasting and scheduling.

A :class:`TimeSeries` couples a numpy array of values with the slice index of
its first element.  All MIRABEL components exchange energy measurements and
forecasts as time series; keeping the start slice explicit makes alignment
errors impossible to ignore (operations on misaligned series raise
:class:`~repro.core.errors.TimeSeriesError` instead of silently shifting
data).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import TimeSeriesError

__all__ = ["TimeSeries", "zeros", "align_union"]


class TimeSeries:
    """A uniformly sampled series starting at slice ``start``.

    Values are stored as a float64 numpy array; instances are treated as
    immutable by convention (no public mutators) so they can be shared
    between components.
    """

    __slots__ = ("_start", "_values")

    def __init__(self, start: int, values: Iterable[float]):
        self._start = int(start)
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise TimeSeriesError(f"values must be 1-D, got shape {arr.shape}")
        self._values = arr

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def start(self) -> int:
        """Slice index of the first value."""
        return self._start

    @property
    def end(self) -> int:
        """Slice index one past the last value (exclusive)."""
        return self._start + len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The underlying array (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self._start == other._start and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is enough
        return id(self)

    def __repr__(self) -> str:
        head = ", ".join(f"{v:.3g}" for v in self._values[:4])
        tail = ", ..." if len(self._values) > 4 else ""
        return f"TimeSeries(start={self._start}, n={len(self)}, [{head}{tail}])"

    def at(self, slice_index: int) -> float:
        """Value at an absolute slice index."""
        if not self._start <= slice_index < self.end:
            raise TimeSeriesError(
                f"slice {slice_index} outside [{self._start}, {self.end})"
            )
        return float(self._values[slice_index - self._start])

    def covers(self, start: int, end: int) -> bool:
        """Whether the series fully covers the half-open window ``[start, end)``."""
        return self._start <= start and end <= self.end

    def window(self, start: int, end: int) -> "TimeSeries":
        """Sub-series over the half-open absolute window ``[start, end)``."""
        if not self.covers(start, end):
            raise TimeSeriesError(
                f"window [{start}, {end}) not covered by [{self._start}, {self.end})"
            )
        lo = start - self._start
        return TimeSeries(start, self._values[lo : lo + (end - start)])

    def first(self, n: int) -> "TimeSeries":
        """The first ``n`` values."""
        return TimeSeries(self._start, self._values[:n])

    def last(self, n: int) -> "TimeSeries":
        """The last ``n`` values."""
        return TimeSeries(self.end - n, self._values[len(self) - n :])

    def split(self, slice_index: int) -> tuple["TimeSeries", "TimeSeries"]:
        """Split into ``[start, slice_index)`` and ``[slice_index, end)``."""
        return self.window(self._start, slice_index), self.window(
            slice_index, self.end
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def shifted(self, offset: int) -> "TimeSeries":
        """Same values, start moved by ``offset`` slices."""
        return TimeSeries(self._start + offset, self._values)

    def extended(self, other: "TimeSeries") -> "TimeSeries":
        """Concatenate a series that begins exactly where this one ends."""
        if other.start != self.end:
            raise TimeSeriesError(
                f"cannot extend: other starts at {other.start}, expected {self.end}"
            )
        return TimeSeries(self._start, np.concatenate([self._values, other.values]))

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "TimeSeries":
        """Apply an elementwise function to the values."""
        return TimeSeries(self._start, fn(self._values))

    # ------------------------------------------------------------------
    # arithmetic (strictly aligned)
    # ------------------------------------------------------------------
    def _binary(self, other, op) -> "TimeSeries":
        if isinstance(other, TimeSeries):
            if other.start != self._start or len(other) != len(self):
                raise TimeSeriesError(
                    "misaligned operands: "
                    f"[{self._start}, {self.end}) vs [{other.start}, {other.end}); "
                    "use window()/align_union() first"
                )
            return TimeSeries(self._start, op(self._values, other.values))
        return TimeSeries(self._start, op(self._values, float(other)))

    def __add__(self, other) -> "TimeSeries":
        return self._binary(other, np.add)

    def __radd__(self, other) -> "TimeSeries":
        return self.__add__(other)

    def __sub__(self, other) -> "TimeSeries":
        return self._binary(other, np.subtract)

    def __mul__(self, other) -> "TimeSeries":
        return self._binary(other, np.multiply)

    def __rmul__(self, other) -> "TimeSeries":
        return self.__mul__(other)

    def __neg__(self) -> "TimeSeries":
        return TimeSeries(self._start, -self._values)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def total(self) -> float:
        """Sum of all values."""
        return float(self._values.sum())

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        return float(self._values.mean())

    def peak(self) -> float:
        """Maximum value."""
        return float(self._values.max())

    def absolute(self) -> "TimeSeries":
        """Elementwise absolute value."""
        return TimeSeries(self._start, np.abs(self._values))


def zeros(start: int, n: int) -> TimeSeries:
    """An all-zero series of length ``n`` starting at ``start``."""
    return TimeSeries(start, np.zeros(n))


def align_union(series: Sequence[TimeSeries]) -> list[TimeSeries]:
    """Zero-pad each series to the union of all windows.

    The result is a list of series that all share the same ``start`` and
    length and can therefore be combined arithmetically.  An empty input
    returns an empty list.
    """
    if not series:
        return []
    lo = min(s.start for s in series)
    hi = max(s.end for s in series)
    out = []
    for s in series:
        padded = np.zeros(hi - lo)
        padded[s.start - lo : s.end - lo] = s.values
        out.append(TimeSeries(lo, padded))
    return out
