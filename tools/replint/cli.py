"""Command-line entry point: ``python -m tools.replint [paths]``.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Sequence

from .core import LintError, lint_paths
from .reporters import render_text
from .resolver import ProjectContext, find_repo_root
from .rules import ALL_RULES, rules_by_id

__all__ = ["main", "run"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.replint",
        description="AST lint for the repo's cross-cutting runtime contracts.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def run(argv: Sequence[str] | None = None, stream: IO[str] | None = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rule.rule_id}  {rule.title}  [{scope}]", file=out)
        return 0

    try:
        rules = (
            rules_by_id(part.strip() for part in args.select.split(","))
            if args.select
            else ALL_RULES
        )
    except KeyError as exc:
        print(f"usage error: unknown rule id(s): {exc.args[0]}", file=out)
        return 2

    root = find_repo_root()
    paths = [Path(p) for p in args.paths]
    try:
        project = ProjectContext(root)
        findings, errors = lint_paths(paths, rules, root=root, project=project)
    except LintError as exc:
        print(f"usage error: {exc}", file=out)
        return 2

    render_text(findings, errors, out)
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)
