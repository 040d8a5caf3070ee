"""The diagnosis loop end to end: job→trace linkage through the
gateway journal, ``repro-ice explain`` / ``top --json``, and the SLO
alert → exemplar trace → blame-table round trip."""

from __future__ import annotations

import json

import pytest

import repro
from repro.cli import main
from repro.clock import VirtualClock
from repro.core.config import SessionConfig
from repro.gateway import Cell, Gateway, SUCCEEDED, TenantSpec
from repro.obs import JsonlSpanExporter, Tracer
from repro.obs.stream import KIND_SLO
from repro.obs.trace import current_span
from repro.rpc.context import reset_current_tenant, set_current_tenant

SPEC = {
    "strategy": {"kind": "scan-rate", "scan_rates_v_s": [0.1], "base": {}},
    "max_rounds": 1,
}
A = TenantSpec("lab-a", "key-a")


def _ok_runner(job, cell, ctx):
    return {"state": SUCCEEDED, "rounds": 1}


class TestJobTraceLinkage:
    def test_trace_id_null_until_first_run(self, tmp_path):
        with Gateway([Cell("c1")], tmp_path / "gw", tenants=[A]) as gw:
            view = gw.submit("lab-a", "key-a", SPEC)
            assert view["trace_id"] is None

    def test_execution_stamps_trace_id_in_status_view(self, tmp_path):
        with Gateway(
            [Cell("c1")], tmp_path / "gw", tenants=[A], runner=_ok_runner
        ) as gw:
            job_id = gw.submit("lab-a", "key-a", SPEC)["job_id"]
            gw.run_until_idle()
            view = gw.status("lab-a", "key-a", job_id)
        assert view["state"] == SUCCEEDED
        assert isinstance(view["trace_id"], str) and len(view["trace_id"]) == 32

    def test_trace_id_survives_gateway_restart(self, tmp_path):
        with Gateway(
            [Cell("c1")], tmp_path / "gw", tenants=[A], runner=_ok_runner
        ) as gw:
            job_id = gw.submit("lab-a", "key-a", SPEC)["job_id"]
            gw.run_until_idle()
            before = gw.status("lab-a", "key-a", job_id)["trace_id"]
        with Gateway(
            [Cell("c1")], tmp_path / "gw", tenants=[A], runner=_ok_runner
        ) as gw2:
            after = gw2.status("lab-a", "key-a", job_id)["trace_id"]
        assert after == before

    def test_trace_journalled_before_runner_starts(self, tmp_path):
        """Journal-first: the job-trace record must be durable before
        the runner touches anything — the linkage has to survive a
        crash *during* the run."""
        seen = {}

        def checking_runner(job, cell, ctx):
            from repro.durability.journal import Journal

            replay = Journal.replay_file(tmp_path / "gw" / "gateway.jsonl")
            seen["records"] = [
                r.data
                for r in replay.records
                if r.kind == "job-trace" and r.data.get("job_id") == job.job_id
            ]
            return {"state": SUCCEEDED, "rounds": 1}

        with Gateway(
            [Cell("c1")], tmp_path / "gw", tenants=[A], runner=checking_runner
        ) as gw:
            job_id = gw.submit("lab-a", "key-a", SPEC)["job_id"]
            gw.run_until_idle()
            view = gw.status("lab-a", "key-a", job_id)
        assert seen["records"], "no job-trace record on disk during the run"
        assert seen["records"][-1]["trace_id"] == view["trace_id"]

    def test_gateway_tracer_parents_runner_spans(self, tmp_path):
        """With a tracer the job runs under a ``gateway.job`` root span
        installed current, so everything the runner does joins one
        trace."""
        clock = VirtualClock()
        tracer = Tracer("gateway", clock=clock)
        observed = {}

        def observing_runner(job, cell, ctx):
            observed["current"] = current_span()
            return {"state": SUCCEEDED, "rounds": 1}

        with Gateway(
            [Cell("c1")],
            tmp_path / "gw",
            tenants=[A],
            runner=observing_runner,
            tracer=tracer,
        ) as gw:
            job_id = gw.submit("lab-a", "key-a", SPEC)["job_id"]
            gw.run_until_idle()
            view = gw.status("lab-a", "key-a", job_id)
        span = observed["current"]
        assert span is not None and span.name == "gateway.job"
        assert span.trace_id == view["trace_id"]
        (root,) = [
            s for s in tracer.finished_spans() if s.name == "gateway.job"
        ]
        assert root.parent_id is None
        assert root.attributes["tenant"] == "lab-a"

    def test_without_tracer_a_bare_trace_id_is_minted(self, tmp_path):
        with Gateway(
            [Cell("c1")], tmp_path / "gw", tenants=[A], runner=_ok_runner
        ) as gw:
            job_id = gw.submit("lab-a", "key-a", SPEC)["job_id"]
            gw.run_until_idle()
            assert gw.status("lab-a", "key-a", job_id)["trace_id"]

    def test_jobs_status_line_prints_trace(self):
        from repro.cli import _format_job_line

        line = _format_job_line(
            {
                "job_id": "j-1",
                "state": "SUCCEEDED",
                "tenant": "lab-a",
                "trace_id": "abc123",
            }
        )
        assert "trace=abc123" in line

    def test_jobs_status_line_omits_missing_trace(self):
        from repro.cli import _format_job_line

        line = _format_job_line(
            {"job_id": "j-1", "state": "QUEUED", "tenant": "lab-a",
             "trace_id": None}
        )
        assert "trace=" not in line


class TestCliTopJson:
    def test_top_json_is_machine_readable(self, capsys):
        code = main(["top", "--json", "--calls", "5", "--rounds", "1"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert set(doc) == {"view", "slo"}
        assert doc["view"]["schema"] == "repro-obsview-1"
        assert isinstance(doc["slo"], list)
        tenants = set(doc["view"]["tenants"])
        assert {"lab-a", "lab-b"} <= tenants

    def test_top_json_burst_exits_nonzero(self, capsys):
        code = main(
            [
                "top",
                "--json",
                "--calls",
                "5",
                "--rounds",
                "1",
                "--burst-tenant",
                "lab-a",
            ]
        )
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 1
        assert any(s["alerts"] for s in doc["slo"])


def _write_trace_jsonl(path, tracer):
    with JsonlSpanExporter(path) as export:
        for span in tracer.finished_spans():
            export(span)


@pytest.fixture()
def trace_file(tmp_path):
    """A two-trace JSONL export: a slow instrument-bound trace and a
    second trace whose id shares no prefix with the first."""
    clock = VirtualClock()
    tracer = Tracer("dgx-session", clock=clock)
    root = tracer.start_span("workflow.run", parent=None)
    clock.advance(0.2)
    call = tracer.start_span("rpc.call.Start", parent=root)
    clock.advance(0.1)
    instrument = tracer.start_span("instrument.Start", parent=call)
    clock.advance(2.0)
    instrument.end()
    call.end()
    clock.advance(0.1)
    root.end()
    other = tracer.start_span("other.op", parent=None)
    clock.advance(0.5)
    other.end()
    path = tmp_path / "trace.jsonl"
    _write_trace_jsonl(path, tracer)
    return path, root.trace_id, other.trace_id


class TestCliExplain:
    def test_explain_renders_blame_table(self, trace_file, capsys):
        path, trace_id, _ = trace_file
        code = main(["explain", trace_id, "--trace-jsonl", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "instrument.Start" in captured.out
        assert "coverage=100.0%" in captured.out
        # the instrument wait dominates: it is the top blame row
        first_row = captured.out.splitlines()[2]
        assert "instrument.Start" in first_row

    def test_explain_accepts_unique_prefix(self, trace_file, capsys):
        path, trace_id, _ = trace_file
        code = main(["explain", trace_id[:12], "--trace-jsonl", str(path)])
        assert code == 0

    def test_explain_json_document(self, trace_file, capsys):
        path, trace_id, _ = trace_file
        code = main(
            ["explain", trace_id, "--trace-jsonl", str(path), "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["schema"] == "repro-traceidx-1"
        assert doc["trace_id"] == trace_id

    def test_explain_unknown_trace_fails(self, trace_file, capsys):
        path, _, _ = trace_file
        code = main(["explain", "f" * 32, "--trace-jsonl", str(path)])
        assert code == 1
        assert "no spans" in capsys.readouterr().err

    def test_explain_ambiguous_prefix_fails(self, trace_file, capsys):
        path, _, _ = trace_file
        code = main(["explain", "", "--trace-jsonl", str(path)])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_explain_resolves_job_id_via_state_dir(self, tmp_path, capsys):
        clock = VirtualClock()
        tracer = Tracer("gateway", clock=clock)

        def slow_runner(job, cell, ctx):
            span = current_span()
            child = tracer.start_span("campaign.round", parent=span)
            clock.advance(3.0)
            child.end()
            return {"state": SUCCEEDED, "rounds": 1}

        state_dir = tmp_path / "gw"
        with Gateway(
            [Cell("c1")],
            state_dir,
            tenants=[A],
            runner=slow_runner,
            tracer=tracer,
        ) as gw:
            job_id = gw.submit("lab-a", "key-a", SPEC)["job_id"]
            gw.run_until_idle()
        path = tmp_path / "trace.jsonl"
        _write_trace_jsonl(path, tracer)
        code = main(
            [
                "explain",
                job_id,
                "--trace-jsonl",
                str(path),
                "--state-dir",
                str(state_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "gateway.job" in captured.out
        assert "campaign.round" in captured.out


class TestExemplarRoundTrip:
    def test_alert_exemplar_explains_to_the_blamed_op(self):
        """The full loop: an induced SLO breach produces an alert event
        carrying a kept exemplar trace id, and explaining that id blames
        an RPC op — aggregate alarm to per-request diagnosis without
        leaving the session."""
        with repro.connect(
            session=SessionConfig(trace_sample_budget=1.0)
        ) as session:
            with session.bus.subscribe(capacity=2048) as sub:
                token = set_current_tenant("lab-a")
                try:
                    for _ in range(10):
                        session.client.call_Status_JKem()
                    for _ in range(15):
                        try:
                            session.client.call_No_Such_Verb()
                        except Exception:  # noqa: BLE001 - burst is the point
                            pass
                finally:
                    reset_current_tenant(token)
                statuses = session.slo_engine.evaluate()
                assert any(s["alerts"] for s in statuses)
                alerts = [
                    e
                    for e in sub.poll()
                    if e.kind == KIND_SLO and e.name == "slo.alert"
                ]
            assert alerts, "no slo.alert event on the bus"
            exemplar_ids = [
                tid
                for e in alerts
                for tid in e.data["exemplar_trace_ids"]
            ]
            assert exemplar_ids, "alert carried no exemplar trace ids"
            trace_id = exemplar_ids[0]
            assert session.sampler.is_kept(trace_id)
            result = session.trace_index.explain(trace_id)
            assert result is not None
            assert result["blame"], "exemplar trace produced no blame rows"
            ops = {row["op"] for row in result["blame"]}
            assert any(op.startswith("rpc.") for op in ops)

    def test_sampling_off_keeps_exemplar_field_empty(self):
        with repro.connect() as session:  # no trace_sample_budget
            assert session.sampler is None
            with session.bus.subscribe(capacity=2048) as sub:
                token = set_current_tenant("lab-a")
                try:
                    for _ in range(15):
                        try:
                            session.client.call_No_Such_Verb()
                        except Exception:  # noqa: BLE001
                            pass
                finally:
                    reset_current_tenant(token)
                session.slo_engine.evaluate()
                alerts = [e for e in sub.poll() if e.kind == KIND_SLO]
            assert alerts
            assert all(e.data["exemplar_trace_ids"] == [] for e in alerts)
