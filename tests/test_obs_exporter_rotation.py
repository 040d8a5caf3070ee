"""JsonlSpanExporter size-based rotation (max_bytes / max_files)."""

from __future__ import annotations

import json

import pytest

from repro.obs import JsonlSpanExporter, Tracer
from repro.obs.exporters import read_jsonl_spans


def _emit(exporter, n, name="op"):
    tracer = Tracer("svc", exporter=exporter)
    for i in range(n):
        with tracer.start_span(name, attributes={"i": i}):
            pass


class TestValidation:
    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSpanExporter(tmp_path / "s.jsonl", max_bytes=0)

    def test_max_files_must_be_at_least_one(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSpanExporter(tmp_path / "s.jsonl", max_bytes=10, max_files=0)


class TestRotation:
    def test_no_cap_means_no_rollover(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanExporter(path) as exporter:
            _emit(exporter, 50)
        assert exporter.rollover_paths() == []
        assert len(read_jsonl_spans(path)) == 50

    def test_rotation_produces_numbered_files(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanExporter(path, max_bytes=2000) as exporter:
            _emit(exporter, 60)
        rolled = exporter.rollover_paths()
        assert rolled, "expected at least one rollover"
        assert rolled[0].name == "spans.jsonl.1"

    def test_no_span_is_lost_or_split(self, tmp_path):
        """Every line across live + rolled files parses, and the union
        is exactly the emitted span set — rotation happens on line
        boundaries only."""
        path = tmp_path / "spans.jsonl"
        with JsonlSpanExporter(path, max_bytes=1500, max_files=50) as exporter:
            _emit(exporter, 80)
        seen = []
        files = [p for p in [path, *exporter.rollover_paths()] if p.exists()]
        for file in files:
            for line in file.read_text().splitlines():
                span = json.loads(line)  # raises on a torn line
                seen.append(span["attributes"]["i"])
        assert sorted(seen) == list(range(80))

    def test_rolled_files_are_flushed_complete(self, tmp_path):
        """The flush-on-rotate guarantee: a rolled file is fully on disk
        the moment it is renamed, even though the exporter stays open."""
        path = tmp_path / "spans.jsonl"
        exporter = JsonlSpanExporter(path, max_bytes=500)
        try:
            _emit(exporter, 40)
            # inspect WITHOUT closing the exporter
            rolled = exporter.rollover_paths()
            assert rolled
            for file in rolled:
                lines = file.read_text().splitlines()
                assert lines
                for line in lines:
                    json.loads(line)
        finally:
            exporter.close()

    def test_max_files_prunes_oldest(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanExporter(path, max_bytes=300, max_files=2) as exporter:
            _emit(exporter, 100)
        rolled = exporter.rollover_paths()
        assert len(rolled) == 2  # .1 and .2 only; older history pruned
        names = {p.name for p in rolled}
        assert names == {"spans.jsonl.1", "spans.jsonl.2"}

    def test_footprint_is_bounded(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        cap, keep = 400, 3
        with JsonlSpanExporter(path, max_bytes=cap, max_files=keep) as exporter:
            _emit(exporter, 200)
        files = [p for p in [path, *exporter.rollover_paths()] if p.exists()]
        total = sum(p.stat().st_size for p in files)
        # each file crosses the cap by at most one span line
        assert total <= (cap + 400) * (keep + 1)

    def test_spans_after_rotation_reopen_fresh_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanExporter(path, max_bytes=200) as exporter:
            _emit(exporter, 3)  # each span > 200 bytes: rotate per span
            assert path.with_name("spans.jsonl.1").exists()
            _emit(exporter, 1)
        # the post-rotation span went through a freshly opened file (it
        # crossed the cap itself, so it may already sit in a rollover);
        # either way every span survived the reopen cycles
        files = [p for p in [path, *exporter.rollover_paths()] if p.exists()]
        total = sum(len(p.read_text().splitlines()) for p in files)
        assert total == 4
