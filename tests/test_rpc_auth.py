"""HMAC challenge-response authentication on the control channel."""

import functools

import pytest

from repro.errors import AuthenticationError, ReproError
from repro.facility.client import ACLPyroClient
from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.net.delay import delayed_loopback
from repro.rpc import Daemon, Proxy, expose


@expose
class Service:
    def hello(self):
        return "hi"


@pytest.fixture(params=["reactor", "threaded"])
def secured(request):
    """A secret-protected daemon on each serving core — the reactor behind
    TCP, the threaded core behind a delayed loopback — and a ``Proxy``
    factory that dials it."""
    listener, factory = (
        delayed_loopback(0.0) if request.param == "threaded" else (None, None)
    )
    daemon = Daemon(secret=b"lab-secret", listener=listener)
    assert daemon.serving_mode == request.param
    uri = daemon.register(Service(), object_id="S")
    daemon.start_background()
    yield functools.partial(Proxy, uri, connection_factory=factory), daemon
    daemon.shutdown()


class TestHandshake:
    def test_correct_secret_serves(self, secured):
        connect, _ = secured
        with connect(secret=b"lab-secret") as proxy:
            assert proxy.hello() == "hi"
            assert proxy.hello() == "hi"  # handshake happens once

    def test_wrong_secret_rejected(self, secured):
        connect, _ = secured
        with connect(secret=b"wrong", timeout=2.0) as proxy:
            with pytest.raises((AuthenticationError, ReproError)):
                proxy.hello()

    @pytest.mark.parametrize("binary", ["auto", False])
    def test_missing_secret_rejected(self, secured, binary):
        # binary=False sends no HELLO, so the daemon's CHALLENGE arrives
        # where the first reply is expected: still an AuthenticationError
        connect, _ = secured
        with connect(timeout=2.0, binary=binary) as proxy:
            with pytest.raises(AuthenticationError):
                proxy.hello()

    def test_secret_against_open_daemon_fails(self):
        daemon = Daemon()
        uri = daemon.register(Service(), object_id="S")
        daemon.start_background()
        try:
            with Proxy(uri, secret=b"whatever", timeout=0.5) as proxy:
                with pytest.raises(Exception):
                    proxy.hello()
        finally:
            daemon.shutdown()

    def test_reconnect_reauthenticates(self, secured):
        connect, _ = secured
        proxy = connect(secret=b"lab-secret")
        assert proxy.hello() == "hi"
        proxy.close()
        assert proxy.hello() == "hi"
        proxy.close()

    def test_failed_auth_logged(self, secured):
        connect, daemon = secured
        with connect(secret=b"wrong", timeout=2.0) as proxy:
            with pytest.raises(Exception):
                proxy.hello()
        assert any("authentication failed" in m for m in daemon.log.messages())


class TestSecuredICE:
    def test_authorized_workflow_runs(self):
        from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow

        config = ICEConfig(control_secret=b"ornl-ice")
        with ElectrochemistryICE.build(config) as ice:
            result = run_cv_workflow(
                ice, settings=CVWorkflowSettings(e_step_v=0.002)
            )
            assert result.succeeded

    def test_unauthenticated_intruder_blocked(self):
        config = ICEConfig(control_secret=b"ornl-ice")
        with ElectrochemistryICE.build(config) as ice:
            intruder = ACLPyroClient.from_uri(
                ice.control_uri,
                connection_factory=ice.simnet.connection_factory(
                    "k200-dgx", ice.control_networks
                ),
                timeout=2.0,
            )
            with pytest.raises(Exception):
                intruder.ping()
            intruder.close()

    def test_data_channel_not_affected_by_control_secret(self):
        config = ICEConfig(control_secret=b"ornl-ice")
        with ElectrochemistryICE.build(config) as ice:
            mount = ice.mount()
            assert mount.listdir() == []
            mount.unmount()
