"""Metrics exposition: Prometheus text format and JSON snapshots.

Exporters take a :class:`~repro.runtime.metrics.MetricsRegistry` and return
a string.  :data:`EXPORTERS` names them for the CLI's ``--metrics-format``::

    render, _ = EXPORTERS["prometheus"]
    print(render(client.service.metrics))
"""

from __future__ import annotations

import json
import re
from typing import Mapping

__all__ = [
    "EXPORTERS",
    "render_prometheus",
    "render_metrics_json",
    "render_metrics_text",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """A valid Prometheus metric name (dots become underscores)."""
    name = _NAME_SANITIZE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_labels(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_SANITIZE.sub("_", k)}="{v}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format(value: float) -> str:
    return f"{value:g}"


def render_prometheus(registry) -> str:
    """Prometheus text exposition format (histograms as summaries)."""
    from ..runtime.metrics import Counter, Gauge, Histogram

    lines: list[str] = []
    typed: set[str] = set()
    for _, instrument in registry.items():
        name = _prom_name(instrument.name)
        if isinstance(instrument, Histogram):
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} summary")
            labels = instrument.labels
            lines.append(
                f'{name}{_prom_labels(labels, {"quantile": "0.5"})} '
                f"{_format(instrument.p50)}"
            )
            lines.append(
                f'{name}{_prom_labels(labels, {"quantile": "0.95"})} '
                f"{_format(instrument.p95)}"
            )
            lines.append(f"{name}_sum{_prom_labels(labels)} {_format(instrument.total)}")
            lines.append(f"{name}_count{_prom_labels(labels)} {instrument.count}")
        else:
            kind = "counter" if isinstance(instrument, Counter) else "gauge"
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")
            lines.append(
                f"{name}{_prom_labels(instrument.labels)} "
                f"{_format(instrument.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics_json(registry) -> str:
    """The ``as_dict()`` snapshot as pretty-printed, sorted JSON."""
    return json.dumps(registry.as_dict(), indent=2, sort_keys=True) + "\n"


def render_metrics_text(registry) -> str:
    """The human-readable ``render()`` view, newline-terminated."""
    return registry.render() + "\n"


#: ``--metrics-format`` names: name -> (render function, description).
EXPORTERS = {
    "json": (
        render_metrics_json, "pretty-printed JSON metrics snapshot (as_dict)",
    ),
    "prometheus": (
        render_prometheus,
        "Prometheus text exposition (histograms as summaries)",
    ),
    "text": (
        render_metrics_text,
        "plain key = value metrics dump (the CLI default)",
    ),
}
