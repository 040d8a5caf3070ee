"""The metric-name lint (``scripts/lint_metric_names.py``) in tier-1.

``docs/OBSERVABILITY.md`` is the operator's metric contract: every
literal name created in ``src/`` must be documented, and every metric
the doc names must still be created somewhere in ``src/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lint_module():
    spec = importlib.util.spec_from_file_location(
        "lint_metric_names", REPO / "scripts" / "lint_metric_names.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_src(root: Path, code: str) -> Path:
    src = root / "src"
    src.mkdir()
    (src / "mod.py").write_text(code, encoding="utf-8")
    return src


def test_src_and_doc_agree(lint_module):
    assert lint_module.lint(lint_module.SRC, lint_module.DOC) == []


def test_undocumented_metric_fails(lint_module, tmp_path):
    src = _write_src(tmp_path, 'm.counter("obs.fresh_total")\n')
    doc = tmp_path / "doc.md"
    doc.write_text("| obs | nothing here |\n", encoding="utf-8")
    problems = lint_module.lint(src, doc)
    assert len(problems) == 1
    assert "obs.fresh_total" in problems[0] and "src/mod.py:1" in problems[0]


def test_stale_doc_row_fails(lint_module, tmp_path):
    src = _write_src(
        tmp_path,
        'm.counter("obs.stream.dropped_total")\n'
        'EVICTED = "obs.trace.index_evicted_total"\n',
    )
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`obs.stream.dropped_total{half}`, `obs.trace.index_evicted_total`,\n"
        "`obs.stream.published_total` and the module `repro.obs.stream`\n",
        encoding="utf-8",
    )
    assert lint_module.lint(src, doc) == [
        "named in the doc but created nowhere in src/: "
        "obs.stream.published_total"
    ]
