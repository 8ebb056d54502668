"""Model selection with fallback (paper §5).

"We apply the [EGRV] Model and the [HWT] Model.  … If the EGRV model does
not provide accurate results, we fall back to the alternative (more robust)
HWT-Model."

:class:`FallbackModel` wraps a *primary* and a *fallback* model factory.
``fit`` holds out the trailing ``validation_slices`` of the history, fits
both candidates on the head, scores one-shot forecasts over the hold-out and
re-fits the winner on the full history.  The primary wins ties up to
``tolerance`` (a relative SMAPE margin), reflecting that EGRV is preferred
when it is *accurate enough*, not only when it is strictly better.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.errors import ForecastingError
from ..core.timeseries import TimeSeries
from .metrics import smape
from .models.base import ForecastModel, ParameterSpace

__all__ = ["FallbackModel"]


class FallbackModel(ForecastModel):
    """Primary model with automatic fallback on poor validation accuracy.

    Parameters
    ----------
    primary_factory, fallback_factory:
        Zero-argument callables building fresh (unfitted) models — typically
        an EGRV and an HWT configuration.
    validation_slices:
        Trailing hold-out used to compare the candidates (e.g. one day).
    tolerance:
        Relative margin by which the primary may lose the validation and
        still be chosen (0.1 = up to 10 % worse SMAPE is acceptable).
    """

    def __init__(
        self,
        primary_factory: Callable[[], ForecastModel],
        fallback_factory: Callable[[], ForecastModel],
        *,
        validation_slices: int = 48,
        tolerance: float = 0.1,
    ) -> None:
        if validation_slices <= 0:
            raise ForecastingError("validation_slices must be positive")
        if tolerance < 0:
            raise ForecastingError("tolerance must be non-negative")
        self.primary_factory = primary_factory
        self.fallback_factory = fallback_factory
        self.validation_slices = validation_slices
        self.tolerance = tolerance
        self._active: ForecastModel | None = None
        self._used_fallback = False
        self._validation_errors: dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def parameter_space(self) -> ParameterSpace:
        """The active model's space (primary's before the first fit)."""
        model = self._active or self.primary_factory()
        return model.parameter_space

    @property
    def is_fitted(self) -> bool:
        return self._active is not None and self._active.is_fitted

    @property
    def used_fallback(self) -> bool:
        """Whether the last :meth:`fit` selected the fallback model."""
        return self._used_fallback

    @property
    def validation_errors(self) -> dict[str, float]:
        """Hold-out SMAPE per candidate from the last :meth:`fit`."""
        return dict(self._validation_errors)

    # ------------------------------------------------------------------
    def fit(self, history: TimeSeries, params: np.ndarray | None = None) -> "FallbackModel":
        """Race both candidates on a hold-out, keep the winner.

        ``params`` (if given) is forwarded to the *primary* candidate only —
        the fallback is deliberately run with its robust defaults.
        """
        if len(history) <= self.validation_slices:
            raise ForecastingError(
                f"history must exceed validation_slices={self.validation_slices}"
            )
        train, holdout = history.split(history.end - self.validation_slices)

        def validation_error(factory, forward_params) -> float:
            try:
                model = factory().fit(train, forward_params)
                forecast = model.forecast(self.validation_slices)
            except ForecastingError:
                return float("inf")
            values = forecast.values
            if not np.all(np.isfinite(values)):
                return float("inf")
            return smape(holdout.values, values)

        primary_error = validation_error(self.primary_factory, params)
        fallback_error = validation_error(self.fallback_factory, None)
        self._validation_errors = {
            "primary": primary_error,
            "fallback": fallback_error,
        }
        if primary_error == float("inf") and fallback_error == float("inf"):
            raise ForecastingError("both candidates failed on the hold-out")

        self._used_fallback = primary_error > fallback_error * (1.0 + self.tolerance)
        if self._used_fallback:
            self._active = self.fallback_factory().fit(history)
        else:
            self._active = self.primary_factory().fit(history, params)
        return self

    def forecast(self, horizon: int) -> TimeSeries:
        self._require_fitted()
        return self._active.forecast(horizon)

    def update(self, value: float) -> float:
        self._require_fitted()
        return self._active.update(value)
