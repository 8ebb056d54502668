"""Symbol and import resolution shared by every rule.

Two layers:

* :class:`ImportResolver` — per file: maps local names through the file's
  imports so a rule can ask "what dotted origin does this call have?"
  (``np.random.default_rng`` → ``numpy.random.default_rng`` regardless of
  the alias used).
* :class:`ProjectContext` — per run: cross-module constants extracted by
  parsing the defining modules' ASTs (never importing them), so the lint
  pass works without the package importable and cannot be fooled by
  import-time side effects:

  - the event-kind vocabulary from ``src/repro/obs/events.py``
    (``EVENT_KINDS`` plus ``EVENT_SCHEMA`` keys);
  - the component names per kind: the keys of the module-level name
    tables (:data:`NAME_TABLES`).
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = ["NAME_TABLES", "ImportResolver", "ProjectContext", "find_repo_root"]

#: Component kind -> (module under ``src/repro``, name of its dict table).
NAME_TABLES = {
    "aggregation": ("aggregation/pipeline.py", "ENGINES"),
    "driver": ("runtime/drivers.py", "DRIVERS"),
    "exporter": ("obs/export.py", "EXPORTERS"),
    "trigger": ("runtime/triggers.py", "TRIGGERS"),
}


def find_repo_root(start: Path | None = None) -> Path:
    """The repo root: nearest ancestor of this file holding ``src/repro``."""
    here = start if start is not None else Path(__file__).resolve()
    for candidate in [here, *here.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return Path.cwd()


class ImportResolver:
    """Resolve a file's names through its import table.

    ``dotted(node)`` renders a ``Name``/``Attribute``/``Call``-func chain
    as a dotted string with the *leading* segment substituted by its
    import origin when known: after ``import numpy as np``,
    ``np.random.rand`` resolves to ``numpy.random.rand``; after
    ``from multiprocessing import shared_memory``,
    ``shared_memory.SharedMemory`` resolves to
    ``multiprocessing.shared_memory.SharedMemory``.  Unresolvable bases
    (``self.tracer...``) keep their literal spelling.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.modules: dict[str, str] = {}
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None and "." in alias.name:
                        # ``import a.b`` binds ``a`` but makes a.b usable.
                        self.modules[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: origin unknowable here
                    continue
                base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.names[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    # ------------------------------------------------------------------
    def dotted(self, node: ast.AST) -> str | None:
        """The dotted origin of an attribute/name chain, or ``None``."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        head = parts[0]
        if head in self.names:
            parts[0:1] = self.names[head].split(".")
        elif head in self.modules:
            parts[0:1] = self.modules[head].split(".")
        return ".".join(parts)


class ProjectContext:
    """Cross-module constants extracted from the repo's contract modules."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.event_kinds = self._extract_event_kinds()
        self.component_names = self._extract_component_names()

    # ------------------------------------------------------------------
    def _extract_event_kinds(self) -> frozenset[str]:
        path = self.root / "src" / "repro" / "obs" / "events.py"
        kinds: set[str] = set()
        for name, value in self._assignments(path):
            if name == "EVENT_KINDS" and isinstance(
                value, (ast.Tuple, ast.List, ast.Set)
            ):
                kinds.update(_strings(value.elts))
            elif name == "EVENT_SCHEMA" and isinstance(value, ast.Dict):
                kinds.update(_strings(value.keys))
        return frozenset(kinds)

    # ------------------------------------------------------------------
    def _extract_component_names(self) -> dict[str, frozenset[str]]:
        names: dict[str, frozenset[str]] = {}
        for kind, (module, table) in NAME_TABLES.items():
            path = self.root / "src" / "repro" / module
            for name, value in self._assignments(path):
                if name == table and isinstance(value, ast.Dict):
                    names[kind] = frozenset(_strings(value.keys))
        return names

    def _assignments(self, path: Path):
        """``(name, value)`` of each module-level assignment in ``path``."""
        tree = self._parse(path)
        if tree is None:
            return
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, value

    # ------------------------------------------------------------------
    @staticmethod
    def _parse(path: Path) -> ast.AST | None:
        try:
            return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (OSError, SyntaxError):
            return None


def _strings(nodes) -> list[str]:
    """The string constants among ``nodes``."""
    return [
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
