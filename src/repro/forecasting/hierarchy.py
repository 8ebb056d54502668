"""Hierarchical forecasting and the configuration advisor (paper §5).

The EDMS is a hierarchy (prosumers → BRPs → TSOs) and "forecast models can be
used to aggregate or disaggregate forecast values without the need for
individual models at each system node".  The **advisor** computes, "for a
given hierarchical structure, a configuration of forecast models according to
specified accuracy and runtime constraints" [Fischer et al., BTW 2011].

A configuration assigns each node one of two modes:

* ``OWN_MODEL`` — fit and maintain a forecast model on the node's own series;
* ``AGGREGATE`` — forecast as the sum of the children's forecasts (only
  internal nodes; leaves always own a model).

The advisor backtests candidate configurations on held-out data and returns
the most accurate one whose estimated runtime (model creations are the
dominant cost) fits the constraint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Callable

import numpy as np

from ..core.errors import ForecastingError
from ..core.timeseries import TimeSeries
from .metrics import smape
from .models.base import ForecastModel

__all__ = ["NodeMode", "HierarchyNode", "Configuration", "ConfigurationAdvisor"]


class NodeMode(Enum):
    """How a node obtains its forecasts."""

    OWN_MODEL = "own-model"
    AGGREGATE = "aggregate"


@dataclass
class HierarchyNode:
    """A node of the forecasting hierarchy with its energy series."""

    name: str
    series: TimeSeries
    children: list["HierarchyNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> list["HierarchyNode"]:
        """All nodes of the subtree, parents before children."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    def internal_nodes(self) -> list["HierarchyNode"]:
        """Non-leaf nodes of the subtree."""
        return [n for n in self.walk() if not n.is_leaf]

    def validate_consistency(self, tolerance: float = 1e-6) -> None:
        """Check that every parent series is the sum of its children."""
        for node in self.internal_nodes():
            total = node.children[0].series
            for child in node.children[1:]:
                total = total + child.series
            if np.abs(total.values - node.series.values).max() > tolerance:
                raise ForecastingError(
                    f"node {node.name}: series is not the sum of its children"
                )


@dataclass
class Configuration:
    """A mode assignment for every node, plus its backtest scores."""

    modes: dict[str, NodeMode]
    root_error: float = float("nan")
    mean_error: float = float("nan")
    runtime_seconds: float = float("nan")
    model_count: int = 0


class ConfigurationAdvisor:
    """Searches mode assignments under a runtime constraint.

    Parameters
    ----------
    model_factory:
        Builds a fresh (unfitted) model for a node's series.
    horizon:
        Backtest forecast horizon (slices).
    test_fraction:
        Trailing fraction of each series held out... the last ``horizon``
        slices are always excluded from training.
    """

    def __init__(
        self,
        model_factory: Callable[[], ForecastModel],
        horizon: int,
    ) -> None:
        if horizon <= 0:
            raise ForecastingError("horizon must be positive")
        self.model_factory = model_factory
        self.horizon = horizon

    # ------------------------------------------------------------------
    def evaluate(self, root: HierarchyNode, modes: dict[str, NodeMode]) -> Configuration:
        """Backtest one configuration: fit, forecast, score every node."""
        for node in root.walk():
            if node.name not in modes:
                raise ForecastingError(f"no mode assigned to node {node.name}")
            if node.is_leaf and modes[node.name] is not NodeMode.OWN_MODEL:
                raise ForecastingError(f"leaf {node.name} must own a model")

        forecasts: dict[str, TimeSeries] = {}
        errors: dict[str, float] = {}
        t0 = time.perf_counter()
        model_count = self._forecast_subtree(root, modes, forecasts)
        runtime = time.perf_counter() - t0

        for node in root.walk():
            actual = node.series.last(self.horizon)
            errors[node.name] = smape(actual.values, forecasts[node.name].values)

        config = Configuration(dict(modes))
        config.root_error = errors[root.name]
        config.mean_error = float(np.mean(list(errors.values())))
        config.runtime_seconds = runtime
        config.model_count = model_count
        return config

    def _forecast_subtree(
        self,
        node: HierarchyNode,
        modes: dict[str, NodeMode],
        forecasts: dict[str, TimeSeries],
    ) -> int:
        """Fill ``forecasts`` bottom-up; returns the number of fitted models."""
        count = 0
        for child in node.children:
            count += self._forecast_subtree(child, modes, forecasts)

        if modes[node.name] is NodeMode.OWN_MODEL:
            train = node.series.first(len(node.series) - self.horizon)
            model = self.model_factory().fit(train)
            forecasts[node.name] = model.forecast(self.horizon)
            count += 1
        else:
            total = forecasts[node.children[0].name]
            for child in node.children[1:]:
                total = total + forecasts[child.name]
            forecasts[node.name] = total
        return count

    # ------------------------------------------------------------------
    def advise(
        self,
        root: HierarchyNode,
        *,
        max_runtime_seconds: float | None = None,
        max_models: int | None = None,
        exhaustive_limit: int = 10,
    ) -> Configuration:
        """Best configuration under the given constraints.

        Internal-node mode combinations are enumerated exhaustively up to
        ``exhaustive_limit`` internal nodes (2^k candidates); larger
        hierarchies fall back to a greedy pass that flips the aggregate
        switch where it hurts accuracy least.
        """
        internal = root.internal_nodes()
        candidates: list[Configuration] = []
        if len(internal) <= exhaustive_limit:
            for assignment in product((NodeMode.OWN_MODEL, NodeMode.AGGREGATE), repeat=len(internal)):
                modes = {n.name: NodeMode.OWN_MODEL for n in root.walk()}
                modes.update(
                    {node.name: mode for node, mode in zip(internal, assignment)}
                )
                candidates.append(self.evaluate(root, modes))
        else:
            candidates.extend(self._greedy(root, internal))

        feasible = [
            c
            for c in candidates
            if (max_runtime_seconds is None or c.runtime_seconds <= max_runtime_seconds)
            and (max_models is None or c.model_count <= max_models)
        ]
        pool = feasible or candidates  # fall back to best-effort when over budget
        return min(pool, key=lambda c: c.root_error)

    def _greedy(
        self, root: HierarchyNode, internal: list[HierarchyNode]
    ) -> list[Configuration]:
        """Greedy descent: flip one node to AGGREGATE per round, keep gains."""
        modes = {n.name: NodeMode.OWN_MODEL for n in root.walk()}
        current = self.evaluate(root, modes)
        out = [current]
        improved = True
        while improved:
            improved = False
            for node in internal:
                if modes[node.name] is NodeMode.AGGREGATE:
                    continue
                trial_modes = dict(modes)
                trial_modes[node.name] = NodeMode.AGGREGATE
                trial = self.evaluate(root, trial_modes)
                out.append(trial)
                if trial.root_error <= current.root_error:
                    modes, current, improved = trial_modes, trial, True
        return out
