"""repro-lint: AST-based checks for this repo's cross-cutting contracts.

The runtime's correctness rests on conventions no type checker sees —
tracer call sites must guard on ``tracer.enabled``, emitted event kinds
must exist in the ``EVENT_SCHEMA`` contract, component names must be keys
of their tables, sim-path code must not read wall-clock time or unseeded
RNG, shared-memory segments need an unlink path, ingest must journal
before cascading, bus messages must pass ``trace`` by keyword, and
worker/bus lifecycle code must not swallow exceptions.  Each convention is
encoded as a :class:`~tools.replint.core.Rule`; run the whole pass with::

    python -m tools.replint src/ tests/ benchmarks/

Exit codes: 0 clean, 1 findings, 2 usage error.  Suppress a single line
with ``# replint: ignore[REP003]``.
"""

from .core import Finding, Rule
from .rules import ALL_RULES

__all__ = ["ALL_RULES", "Finding", "Rule"]
