"""The one check of a runtime configuration value against its annotation.

Config sections (:mod:`repro.runtime.config`, the cluster's bus and TSO
sections) and trigger policies (:mod:`repro.runtime.triggers`) are built
from JSON files and CLI specs, so a value can have any type.
"""

from __future__ import annotations

import inspect
import math
import numbers
import types
import typing
from functools import cache
from typing import Any, Mapping

from ..core.errors import ServiceError

__all__ = ["check_fields"]

#: Annotated number type -> the values it admits (numpy scalars included).
_NUMBERS = {int: numbers.Integral, float: numbers.Real}


@cache
def _field_types(cls: type) -> tuple[tuple[str, type, bool, str], ...]:
    """Per constructor parameter of ``cls``: name, the type its values must
    have, whether ``None`` is allowed, and the annotation as written."""
    hints = typing.get_type_hints(cls.__init__)
    table = []
    for name, parameter in inspect.signature(cls).parameters.items():
        hint = hints[name]
        options = (
            typing.get_args(hint)
            if isinstance(hint, types.UnionType) else (hint,)
        )
        (kind,) = [option for option in options if option is not type(None)]
        kind = typing.get_origin(kind) or kind  # Sequence[X] -> Sequence
        annotation = str(parameter.annotation)
        table.append(
            (name, _NUMBERS.get(kind, kind), len(options) > 1, annotation)
        )
    return tuple(table)


def check_fields(section: Any, values: Mapping[str, Any] | None = None) -> None:
    """Check every constructor parameter of ``section`` against its annotation.

    The values are ``section``'s attributes, or ``values`` (the constructor's
    arguments) for a class that converts them before storing them.  A
    string ``"96"`` used to escape a range check as a ``TypeError``
    traceback, a string price was accepted and run, and a dict of
    aggregation parameters crashed mid-run.  ``bool`` is not a number here
    (no field is a flag).  A number must also be finite: a comparison
    against NaN is false either way round, so a range check alone
    (``interval <= 0``) lets it through, and a NaN time stalls the driver
    it reaches.
    """
    for name, kind, optional, annotation in _field_types(type(section)):
        value = getattr(section, name) if values is None else values[name]
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ServiceError(f"{name} must be {annotation}, got {value!r}")
        if kind is numbers.Real and not math.isfinite(value):
            raise ServiceError(f"{name} must be finite, got {value}")
