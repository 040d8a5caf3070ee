"""Daemon + proxy integration over real TCP sockets."""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    CommunicationError,
    InstrumentStateError,
    MethodNotExposedError,
    NamingError,
    RemoteInvocationError,
)
from repro.net.delay import delayed_loopback
from repro.rpc import Daemon, Proxy, expose, oneway
from repro.rpc.transport import Listener, TCPListener


class _BlockingAcceptListener(Listener):
    def __init__(self):
        self._inner = TCPListener("127.0.0.1", 0)

    def accept(self):
        return self._inner.accept()

    def close(self):
        self._inner.close()

    @property
    def address(self):
        return self._inner.address


@expose
class Service:
    def __init__(self):
        self.oneway_calls = 0
        self.oneway_done = threading.Event()

    def echo(self, value):
        return value

    def add(self, a, b=0):
        return a + b

    def double_array(self, array):
        return np.asarray(array) * 2

    def fail_known(self):
        raise InstrumentStateError("device is busy")

    def fail_unknown(self):
        raise KeyError("some key")

    def unserialisable(self):
        return object()

    @oneway
    def fire_and_forget(self, n):
        self.oneway_calls += n
        self.oneway_done.set()

    def _private(self):
        return "secret"


class Unexposed:
    def visible(self):
        return 1


@pytest.fixture
def served():
    service = Service()
    daemon = Daemon()
    uri = daemon.register(service, object_id="Svc")
    daemon.start_background()
    yield service, daemon, uri
    daemon.shutdown()


class TestBasicCalls:
    def test_echo(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            assert proxy.echo(41) == 41

    def test_kwargs(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            assert proxy.add(2, b=3) == 5

    def test_ndarray_payload(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            result = proxy.double_array(np.arange(5.0))
            np.testing.assert_allclose(result, np.arange(5.0) * 2)

    def test_many_sequential_calls_one_connection(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            for i in range(50):
                assert proxy.echo(i) == i

    def test_ping(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            proxy._pyro_ping()

    def test_metadata_lists_exposed_methods(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            meta = proxy._pyro_metadata()
        assert "echo" in meta["methods"]
        assert "_private" not in meta["methods"]
        assert "fire_and_forget" in meta["oneway"]


class TestErrors:
    def test_known_error_keeps_type(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(InstrumentStateError, match="device is busy"):
                proxy.fail_known()

    def test_unknown_error_becomes_remote_invocation(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(RemoteInvocationError) as excinfo:
                proxy.fail_unknown()
        assert excinfo.value.remote_type == "KeyError"
        assert "fail_unknown" in excinfo.value.remote_traceback

    def test_private_method_blocked_server_side(self, served):
        # bypass the client-side guard by calling _call directly
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(MethodNotExposedError):
                proxy._call("_private", (), {})

    def test_unknown_method(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(MethodNotExposedError):
                proxy.nonexistent()

    def test_unknown_object_id(self, served):
        _service, _daemon, uri = served
        bad = str(uri).replace("Svc", "Nope")
        with Proxy(bad) as proxy:
            with pytest.raises(NamingError):
                proxy.echo(1)

    def test_unserialisable_result_reported(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(Exception) as excinfo:
                proxy.unserialisable()
        assert "serialis" in str(excinfo.value).lower()

    def test_connection_refused(self):
        with Proxy("PYRO:X@127.0.0.1:1", timeout=1.0) as proxy:
            with pytest.raises(CommunicationError):
                proxy.anything()

    def test_call_survives_after_remote_error(self, served):
        _service, _daemon, uri = served
        with Proxy(uri) as proxy:
            with pytest.raises(InstrumentStateError):
                proxy.fail_known()
            assert proxy.echo("still alive") == "still alive"


class TestOneway:
    def test_oneway_method_executes(self, served):
        service, _daemon, uri = served
        with Proxy(uri) as proxy:
            proxy.fire_and_forget(5)
        assert service.oneway_done.wait(timeout=2.0)
        assert service.oneway_calls == 5

    def test_explicit_oneway_call_returns_none(self, served):
        service, _daemon, uri = served
        service.oneway_done.clear()
        with Proxy(uri) as proxy:
            assert proxy.fire_and_forget.oneway(3) is None
        assert service.oneway_done.wait(timeout=2.0)


class TestDaemonRegistry:
    def test_register_duplicate_id_rejected(self, served):
        _service, daemon, _uri = served
        with pytest.raises(NamingError):
            daemon.register(Service(), object_id="Svc")

    def test_unregister_then_call_fails(self):
        daemon = Daemon()
        uri = daemon.register(Service(), object_id="Temp")
        daemon.start_background()
        try:
            daemon.unregister("Temp")
            with Proxy(uri) as proxy:
                with pytest.raises(NamingError):
                    proxy.echo(1)
        finally:
            daemon.shutdown()

    def test_unregister_unknown_raises(self, served):
        _service, daemon, _uri = served
        with pytest.raises(NamingError):
            daemon.unregister("ghost")

    def test_auto_generated_object_id(self):
        daemon = Daemon()
        uri = daemon.register(Service())
        assert "obj_" in uri
        daemon.shutdown()

    def test_registered_ids_listing(self, served):
        _service, daemon, _uri = served
        assert daemon.registered_ids() == ["Svc"]

    def test_exposure_required_for_whole_class(self):
        daemon = Daemon()
        uri = daemon.register(Unexposed(), object_id="U")
        daemon.start_background()
        try:
            with Proxy(uri) as proxy:
                with pytest.raises(MethodNotExposedError):
                    proxy.visible()
        finally:
            daemon.shutdown()


class TestConcurrency:
    def test_concurrent_clients(self, served):
        _service, _daemon, uri = served
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                with Proxy(uri) as proxy:
                    for i in range(20):
                        assert proxy.echo([worker_id, i]) == [worker_id, i]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_shared_proxy_across_threads(self, served):
        _service, _daemon, uri = served
        errors: list[Exception] = []
        with Proxy(uri) as proxy:

            def worker() -> None:
                try:
                    for i in range(20):
                        assert proxy.echo(i) == i
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []


class TestLifecycle:
    def test_daemon_shutdown_closes_clients(self, served):
        _service, daemon, uri = served
        proxy = Proxy(uri)
        assert proxy.echo(1) == 1
        daemon.shutdown()
        with pytest.raises(Exception):
            proxy.echo(2)
        proxy.close()

    def test_proxy_reconnects_after_close(self, served):
        _service, _daemon, uri = served
        proxy = Proxy(uri)
        assert proxy.echo(1) == 1
        proxy.close()
        assert not proxy.connected
        assert proxy.echo(2) == 2
        proxy.close()

    def test_daemon_context_manager(self):
        with Daemon() as daemon:
            uri = daemon.register(Service(), object_id="Ctx")
            with Proxy(uri) as proxy:
                assert proxy.echo(1) == 1

    @pytest.mark.parametrize("shape", ["threaded", "delayed-loopback"])
    def test_thread_per_connection_daemon_shuts_down_promptly(self, shape):
        # both serve from a thread blocked in accept(); closing the
        # listener must wake it instead of waiting out the join deadline
        if shape == "threaded":
            # plain TCP behind a listener that offers only a blocking
            # accept, so the daemon serves it thread-per-connection
            listener, factory = _BlockingAcceptListener(), None
        else:
            listener, factory = delayed_loopback(0.0)
        daemon = Daemon(listener=listener)
        assert daemon.serving_mode == "threaded"
        uri = daemon.register(Service(), object_id="Svc")
        daemon.start_background()
        with Proxy(uri, connection_factory=factory) as proxy:
            assert proxy.echo(1) == 1
        start = time.monotonic()
        daemon.shutdown()
        assert time.monotonic() - start < 1.0
        assert daemon.quiescent is True
