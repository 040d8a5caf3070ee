"""The gateway over the control channel: ``ACL_Gateway`` end to end.

Exercises the PROTOCOLS §1.8 wire surface: the ``tenant`` REQUEST field
(set once on the proxy, carried on every call, bound per-dispatch by
the daemon), the four ``Job_*`` verbs, gateway error codes surviving
serialization (rebuilt by class on the client), and the
:class:`~repro.gateway.GatewayClient` / ``Session.use_gateway`` client
surface over a real daemon.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    QuotaExceededError,
    ReproError,
    TenantAuthError,
    UnknownJobError,
    UnknownTenantError,
)
from repro.gateway import (
    CANCELLED,
    FEED_SCHEMA,
    SUCCEEDED,
    Cell,
    Gateway,
    GatewayClient,
    GatewayServer,
    TenantSpec,
)
from repro.rpc import Daemon, Proxy

SPEC = {
    "strategy": {"kind": "scan-rate", "scan_rates_v_s": [0.1], "base": {}},
    "max_rounds": 1,
}


def _ok_runner(job, cell, ctx):
    return {"state": CANCELLED if ctx.cancelled() else SUCCEEDED, "rounds": 1}


@pytest.fixture()
def served(tmp_path):
    gateway = Gateway(
        [Cell("c1")],
        tmp_path / "gw",
        tenants=(
            TenantSpec("lab-a", "key-a"),
            TenantSpec("lab-b", "key-b", max_active=1),
        ),
        runner=_ok_runner,
    )
    daemon = Daemon(host="127.0.0.1")
    uri = daemon.register(GatewayServer(gateway), object_id="ACL_Gateway")
    daemon.start_background()
    yield gateway, daemon, uri
    daemon.shutdown()
    gateway.close()


class TestTenantEnvelope:
    def test_proxy_tenant_rides_every_request(self, served):
        gateway, _, uri = served
        with Proxy(uri, tenant="lab-a") as proxy:
            view = proxy.Job_Submit(api_key="key-a", spec=SPEC)
            assert view["tenant"] == "lab-a"
            gateway.run_until_idle()
            assert (
                proxy.Job_Status(view["job_id"], api_key="key-a")["state"]
                == SUCCEEDED
            )

    def test_explicit_tenant_argument_still_works(self, served):
        _, _, uri = served
        with Proxy(uri) as proxy:  # no envelope tenant at all
            view = proxy.Job_Submit(
                api_key="key-a", spec=SPEC, tenant="lab-a"
            )
            assert view["tenant"] == "lab-a"

    def test_envelope_and_argument_must_agree(self, served):
        _, _, uri = served
        with Proxy(uri, tenant="lab-a") as proxy:
            with pytest.raises(TenantAuthError) as info:
                proxy.Job_Submit(api_key="key-b", spec=SPEC, tenant="lab-b")
            assert info.value.code == "GATEWAY_TENANT_AUTH"

    def test_no_tenant_anywhere_is_unknown_tenant(self, served):
        _, _, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(UnknownTenantError):
                proxy.Job_Submit(api_key="key-a", spec=SPEC)


class TestErrorCodesOverTheWire:
    def test_quota_error_rebuilds_with_stable_code(self, served):
        _, _, uri = served
        with Proxy(uri, tenant="lab-b") as proxy:
            proxy.Job_Submit(api_key="key-b", spec=SPEC)  # max_active=1
            with pytest.raises(QuotaExceededError) as info:
                proxy.Job_Submit(api_key="key-b", spec=SPEC)
            assert info.value.code == "GATEWAY_QUOTA_EXCEEDED"

    def test_cross_tenant_lookup_rebuilds_unknown_job(self, served):
        _, _, uri = served
        with Proxy(uri, tenant="lab-a") as proxy:
            view = proxy.Job_Submit(api_key="key-a", spec=SPEC)
        with Proxy(uri, tenant="lab-b") as proxy:
            with pytest.raises(UnknownJobError) as info:
                proxy.Job_Status(view["job_id"], api_key="key-b")
            assert info.value.code == "GATEWAY_UNKNOWN_JOB"


class TestGatewayClientOverRpc:
    def test_full_lifecycle_through_client(self, served):
        gateway, _, uri = served
        with GatewayClient(uri, "lab-a", "key-a") as client:
            view = client.submit(SPEC)
            assert view["state"] == "queued"
            gateway.run_until_idle()
            assert client.status(view["job_id"])["state"] == SUCCEEDED
            reply = client.poll(cursor=0)
            assert reply["schema"] == FEED_SCHEMA
            assert [e["name"] for e in reply["events"]] == [
                "job.submitted",
                "job.started",
                "job.finished",
            ]

    def test_cancel_queued_through_client(self, served):
        _, _, uri = served
        with GatewayClient(uri, "lab-a", "key-a") as client:
            view = client.submit(SPEC)
            assert client.cancel(view["job_id"])["state"] == CANCELLED


class TestSessionSurface:
    def test_session_submits_jobs_through_attached_gateway(
        self, ice, tmp_path
    ):
        import repro

        gateway = Gateway(
            {"cell-1": ice},
            tmp_path / "gw",
            tenants=(TenantSpec("lab-a", "key-a"),),
        )
        with repro.connect(ice) as session, gateway:
            client = session.use_gateway(gateway, "lab-a", "key-a")
            view = session.submit_job(
                repro.scan_rate_strategy((0.1,)), max_rounds=1
            )
            gateway.run_until_idle()
            assert client.status(view["job_id"])["state"] == SUCCEEDED
            events = client.poll()["events"]
            assert [e["name"] for e in events] == [
                "job.submitted",
                "job.started",
                "job.finished",
            ]

    def test_session_without_gateway_raises(self):
        import repro
        from repro.errors import WorkflowError

        with repro.connect() as session:
            with pytest.raises(WorkflowError):
                session.submit_job(repro.scan_rate_strategy((0.1,)))

    def test_submit_job_requires_rebuildable_strategy(self, served):
        import repro

        gateway, _, _ = served
        with repro.connect() as session:
            session.use_gateway(gateway, "lab-a", "key-a")
            with pytest.raises(ReproError):
                session.submit_job(lambda history: None)
