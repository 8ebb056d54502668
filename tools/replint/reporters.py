"""Text reporter for lint results."""

from __future__ import annotations

from typing import IO

from .core import Finding

__all__ = ["render_text"]


def render_text(
    findings: list[Finding], errors: list[str], stream: IO[str]
) -> None:
    for error in errors:
        print(f"error: {error}", file=stream)
    for finding in findings:
        print(finding.render(), file=stream)
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"replint: {len(findings)} {noun}", file=stream)
    else:
        print("replint: clean", file=stream)
