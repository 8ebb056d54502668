"""Framework core: findings, rules, suppressions, the per-file walk.

A :class:`Rule` inspects one parsed file at a time through a
:class:`FileContext`, which carries the AST (with a parent map), the raw
source lines, a per-file import resolver and the shared
:class:`~tools.replint.resolver.ProjectContext` (cross-module constants
such as the event-kind vocabulary and the component name tables).
Rules yield ``(node, message)`` pairs; the driver turns them into
:class:`Finding` records, drops suppressed lines
(``# replint: ignore[RULE-ID]`` on any line the node spans, or on a
comment line directly above it) and sorts the rest.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "FileContext",
    "Finding",
    "LintError",
    "Rule",
    "lint_paths",
    "parse_suppressions",
]

_SUPPRESS_RE = re.compile(r"#\s*replint:\s*ignore\[([^\]]+)\]")


class LintError(Exception):
    """A usage-level failure (bad path, unreadable file, ...)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored at ``path:line``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def parse_suppressions(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    A suppression comment on a line of its own also covers the next line,
    so long calls can carry the marker above instead of trailing it.
    """
    suppressed: dict[int, set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        suppressed.setdefault(number, set()).update(ids)
        if text.lstrip().startswith("#"):  # standalone comment: covers below
            suppressed.setdefault(number + 1, set()).update(ids)
    return {line: frozenset(ids) for line, ids in suppressed.items()}


class FileContext:
    """Everything a rule needs to inspect one file."""

    def __init__(self, path: Path, rel: str, source: str, project) -> None:
        from .resolver import ImportResolver

        self.path = path
        #: Path as reported in findings: relative to the repo root, POSIX.
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.project = project
        self.resolver = ImportResolver(self.tree)
        self.suppressions = parse_suppressions(self.lines)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    # ------------------------------------------------------------------
    def is_suppressed(self, node: ast.AST, rule_id: str) -> bool:
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        for line in range(start, end + 1):
            ids = self.suppressions.get(line)
            if ids and (rule_id in ids or "*" in ids):
                return True
        return False


class Rule:
    """Base class: one invariant, checked per file.

    Subclasses set :attr:`rule_id`, :attr:`title` and optionally
    :attr:`scope` — path fragments (POSIX) that must appear in the file's
    repo-relative path for the rule to apply (empty scope = every file).
    """

    rule_id: str = ""
    title: str = ""
    scope: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scope:
            return True
        return any(fragment in ctx.rel for fragment in self.scope)

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(self, ctx: FileContext) -> list[Finding]:
        if not self.applies_to(ctx):
            return []
        findings = []
        for node, message in self.check(ctx):
            if ctx.is_suppressed(node, self.rule_id):
                continue
            findings.append(
                Finding(
                    path=ctx.rel,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    rule_id=self.rule_id,
                    message=message,
                )
            )
        return findings


# ----------------------------------------------------------------------
def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the sorted set of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise LintError(f"no such path: {path}")
        if path.is_file():
            if path.suffix == ".py" and path not in seen:
                seen.add(path)
        else:
            for found in sorted(path.rglob("*.py")):
                if found not in seen:
                    seen.add(found)
    yield from sorted(seen)


def lint_paths(
    paths: Iterable[Path],
    rules: Iterable[Rule],
    *,
    root: Path,
    project,
) -> tuple[list[Finding], list[str]]:
    """Run ``rules`` over every python file under ``paths``.

    Returns ``(findings, errors)`` where ``errors`` are files that failed
    to parse (reported, but not fatal — a syntax error is pytest's job).
    """
    rules = list(rules)
    findings: list[Finding] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path, rel, source, project)
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{rel}: {exc}")
            continue
        for rule in rules:
            findings.extend(rule.run(ctx))
    findings.sort()
    return findings, errors
