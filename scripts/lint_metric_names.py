#!/usr/bin/env python3
"""Fail CI when a metric is born undocumented, or documented but gone.

Both directions of the operator's contract in ``docs/OBSERVABILITY.md``:

- every literal metric name passed to ``counter(`` / ``gauge(`` /
  ``histogram(`` anywhere under ``src/`` must appear in the doc — a name
  that only exists in code is a dashboard nobody will ever build;
- every metric name the doc writes in backticks must still be a string
  literal somewhere under ``src/`` (directly in the ``counter(`` call or
  in a module constant passed to it) — a row for a deleted metric sends
  operators after a series that never arrives.

Dynamic names (f-strings, variables) are out of scope by construction:
only string literals are matched. In the doc, a backticked dotted name
counts as a metric when its first segment is one of the namespaces the
``counter(``/``gauge(``/``histogram(`` literals use (``rpc``, ``obs``,
...), so module paths such as ``repro.obs.trace`` are not mistaken for
metrics.

Usage: ``python scripts/lint_metric_names.py`` (exit 1 on violations).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DOC = REPO / "docs" / "OBSERVABILITY.md"

#: ``.counter("name"`` / ``.gauge('name'`` / ``.histogram(\n    "name"`` —
#: literal first arguments only, newline-tolerant.
PATTERN = re.compile(
    r"\.(counter|gauge|histogram)\(\s*\n?\s*[\"']([A-Za-z0-9_.]+)[\"']"
)

#: Any quoted dotted name in source (a metric constant's value included).
LITERAL = re.compile(r"[\"']([A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)+)[\"']")

#: A backticked dotted name in the doc, optionally with ``{labels}``.
DOC_NAME = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)(?:\{[^}`]*\})?`")


def collect_metric_names(root: Path) -> dict[str, set[str]]:
    """name -> set of ``path:line`` sites that create it."""
    sites: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in PATTERN.finditer(text):
            name = match.group(2)
            line = text.count("\n", 0, match.start()) + 1
            sites.setdefault(name, set()).add(
                f"{path.relative_to(root.parent)}:{line}"
            )
    return sites


def collect_literals(root: Path) -> set[str]:
    """Every quoted dotted name under ``root``."""
    found: set[str] = set()
    for path in root.rglob("*.py"):
        found.update(LITERAL.findall(path.read_text(encoding="utf-8")))
    return found


def documented_metric_names(doc_text: str, namespaces: set[str]) -> set[str]:
    """Backticked names in the doc that sit in a metric namespace."""
    return {
        name
        for name in DOC_NAME.findall(doc_text)
        if name.split(".", 1)[0] in namespaces
    }


def lint(src: Path, doc: Path) -> list[str]:
    """Every violation, one line each (empty when both directions hold)."""
    doc_text = doc.read_text(encoding="utf-8")
    sites = collect_metric_names(src)
    problems = [
        f"created in src/ but absent from the doc: {name}  ({site})"
        for name in sorted(sites)
        if name not in doc_text
        for site in sorted(sites[name])
    ]
    namespaces = {name.split(".", 1)[0] for name in sites}
    literals = collect_literals(src)
    problems += [
        f"named in the doc but created nowhere in src/: {name}"
        for name in sorted(documented_metric_names(doc_text, namespaces))
        if name not in literals
    ]
    return problems


def main() -> int:
    if not DOC.exists():
        print(f"missing {DOC.relative_to(REPO)}", file=sys.stderr)
        return 1
    problems = lint(SRC, DOC)
    if problems:
        print(
            f"{len(problems)} metric-name mismatch(es) between src/ and "
            f"{DOC.relative_to(REPO)}:",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"ok: metric names in src/ and {DOC.relative_to(REPO)} agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
