"""The cross-facility scrape surface: ACL_Observability, the
aggregator, and the ``repro-ice top`` session plumbing."""

from __future__ import annotations

import pytest

import repro
from repro.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.scrape import (
    ObsAggregator,
    ObservabilityServer,
    UNTAGGED,
    VIEW_SCHEMA,
    format_top,
)
from repro.obs.stream import TelemetryBus
from repro.obs.timeseries import SCHEMA as TSDB_SCHEMA, TimeSeriesStore
from repro.rpc.context import reset_current_tenant, set_current_tenant


def _store_with_traffic(tenants=("lab-a",), errors=0):
    clock = VirtualClock()
    reg = MetricsRegistry()
    store = TimeSeriesStore(clock=clock)
    store.attach(reg)
    counter = reg.counter("rpc.client.calls_total")
    for tenant in tenants:
        for _ in range(10):
            counter.inc(status="ok", tenant=tenant)
        for _ in range(errors):
            counter.inc(status="error", tenant=tenant)
    clock.advance(1.0)
    return clock, reg, store


class TestObservabilityServer:
    def test_scrape_reply_shape(self):
        _, _, store = _store_with_traffic()
        server = ObservabilityServer(
            FlightRecorder("unit"), TelemetryBus("unit"), store
        )
        reply = server.Obs_Scrape()
        assert reply["schema"] == TSDB_SCHEMA
        assert reply["service"] == "unit"
        assert reply["gap"] == 0
        assert reply["cursor"] > 0
        assert all(r["name"] == "rpc.client.calls_total" for r in reply["rows"])

    def test_scrape_over_the_wire(self, ice):
        """The registered ACL_Observability object answers via a real
        proxy with the same cursor/gap contract."""
        from repro.obs import MetricsRegistry as Registry, Tracer

        metrics = Registry()
        ice.attach_observability(Tracer("t"), metrics)
        client = ice.client(metrics=metrics)
        try:
            client.call_Status_JKem()
        finally:
            client.close()
        obs = ice.obs_client()
        try:
            reply = obs.Obs_Scrape(cursor=0)
            assert reply["schema"] == TSDB_SCHEMA
            assert reply["service"] == "acl-daemon"
            names = {r["name"] for r in reply["rows"]}
            # the daemon-side store only carries daemon-half metrics
            assert any(n.startswith("rpc.daemon.") for n in names)
            assert not any(n.startswith("rpc.client.") for n in names)
            # cursor paging: second scrape from the cursor is empty-ish
            reply2 = obs.Obs_Scrape(cursor=reply["cursor"])
            assert reply2["gap"] == 0
        finally:
            obs.close()


class TestObsAggregator:
    def test_merges_stores_into_tenant_view(self):
        _, _, store_a = _store_with_traffic(tenants=("t1",))
        _, _, store_b = _store_with_traffic(tenants=("t1", "t2"), errors=2)
        agg = ObsAggregator()
        agg.add_store("fac-a", store_a)
        agg.add_store("fac-b", store_b)
        agg.refresh()
        view = agg.view()
        assert view["schema"] == VIEW_SCHEMA
        assert view["facilities"] == ["fac-a", "fac-b"]
        t1 = view["tenants"]["t1"]["rpc.client.calls_total"]
        assert t1["sum"] == 22  # 10 + 12
        assert sorted(t1["facilities"]) == ["fac-a", "fac-b"]
        assert t1["error_sum"] == 2
        t2 = view["tenants"]["t2"]["rpc.client.calls_total"]
        assert t2["sum"] == 12

    def test_untagged_rows_bucket_separately(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(clock=clock)
        store.attach(reg)
        reg.counter("workflow.tasks_total").inc(state="done")
        clock.advance(1.0)
        agg = ObsAggregator()
        agg.add_store("f", store)
        agg.refresh()
        assert "workflow.tasks_total" in agg.view()["tenants"][UNTAGGED]

    def test_incremental_refresh_uses_cursors(self):
        clock, reg, store = _store_with_traffic()
        agg = ObsAggregator()
        agg.add_store("f", store)
        agg.refresh()
        before = agg.view()["tenants"]["lab-a"]["rpc.client.calls_total"]["sum"]
        reg.counter("rpc.client.calls_total").inc(status="ok", tenant="lab-a")
        clock.advance(1.0)
        agg.refresh()
        after = agg.view()["tenants"]["lab-a"]["rpc.client.calls_total"]["sum"]
        assert after == before + 1  # delta only: no re-count of old rows

    def test_failed_source_is_skipped_and_counted(self):
        class Boom:
            def Obs_Scrape(self, **kwargs):
                raise ConnectionError("facility offline")

        _, _, store = _store_with_traffic()
        agg = ObsAggregator()
        agg.add_store("good", store)
        agg.add_remote("bad", Boom())
        agg.refresh()
        view = agg.view()
        assert view["failures"]["bad"] == 1
        assert view["failures"]["good"] == 0
        assert view["tenants"]["lab-a"]  # the healthy source still merged

    def test_gap_is_surfaced_per_source(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(clock=clock, export_capacity=4)
        store.attach(reg)
        agg = ObsAggregator()
        agg.add_store("f", store)
        agg.refresh()
        counter = reg.counter("c")
        for _ in range(10):
            counter.inc()
            clock.advance(1.0)
        agg.refresh()
        assert agg.view()["gaps"]["f"] > 0


class TestFormatTop:
    def _view(self):
        _, _, store = _store_with_traffic(tenants=("lab-a", "lab-b"), errors=3)
        agg = ObsAggregator()
        agg.add_store("fac", store)
        agg.refresh()
        return agg.view()

    def test_renders_tenant_rows(self):
        out = format_top(self._view())
        assert "TENANT" in out and "BURN" in out
        assert "lab-a" in out and "lab-b" in out
        assert "fac" in out  # facility listed in the header

    def test_renders_slo_alert_cell(self):
        statuses = [
            {
                "objective": "rpc-availability",
                "tenant": "lab-a",
                "alerts": ["fast"],
                "burn_fast": 20.0,
                "burn_slow": 1.0,
                "status": "alerting",
            },
            {
                "objective": "rpc-availability",
                "tenant": "lab-b",
                "alerts": [],
                "burn_fast": 0.0,
                "burn_slow": 0.0,
                "status": "ok",
            },
        ]
        out = format_top(self._view(), statuses)
        a_row = next(l for l in out.splitlines() if l.startswith("lab-a"))
        b_row = next(l for l in out.splitlines() if l.startswith("lab-b"))
        assert "ALERT[fast]" in a_row and "rpc-availability" in a_row
        assert "ok" in b_row and "ALERT" not in b_row


class TestSessionSurface:
    def test_session_scrape_and_slo(self, ice):
        with repro.connect(ice) as session:
            token = set_current_tenant("lab-x")
            try:
                session.client.call_Status_JKem()
            finally:
                reset_current_tenant(token)
            reply = session.scrape()
            assert reply["schema"] == TSDB_SCHEMA
            assert reply["service"] == "dgx-session"
            names = {r["name"] for r in reply["rows"]}
            assert any(n.startswith("rpc.client.") for n in names)
            statuses = session.slo_engine.evaluate()
            assert {s["objective"] for s in statuses} >= {"rpc-availability"}

    def test_session_top_merges_both_facilities(self, ice):
        with repro.connect(ice) as session:
            token = set_current_tenant("lab-x")
            try:
                for _ in range(3):
                    session.client.call_Status_JKem()
            finally:
                reset_current_tenant(token)
            out = session.top()
            assert "dgx-session" in out and "acl-daemon" in out
            assert "lab-x" in out

    def test_slo_subsystem_in_session_health(self, ice):
        with repro.connect(ice) as session:
            session.client.call_Status_JKem()
            report = session.health_engine.evaluate()
            assert "slo" in report.subsystems
            assert report.subsystems["slo"].status == "healthy"
