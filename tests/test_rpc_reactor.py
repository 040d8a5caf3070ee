"""The selector-reactor serving core: concurrency, backpressure, dispatch.

The daemon's TCP path runs on one event-loop thread with per-connection
buffers and bounded outboxes, and dispatches every frame inline on that
thread. These tests pin the properties the rewrite must preserve
(dispatch semantics, per-connection execution order, auth, quiescent
shutdown, crash behaviour) and the ones it adds (backpressure
accounting, a lifecycle that closes the selector and wake pipe even
when the loop never ran, and never touches them after closing).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.rpc import Daemon, Proxy, expose


@expose
class Service:
    def __init__(self):
        self.seen: list[int] = []
        self._lock = threading.Lock()

    def echo(self, value):
        return value

    def bulk(self, n: int) -> bytes:
        return b"\x5a" * n

    def record(self, i: int) -> int:
        with self._lock:
            self.seen.append(i)
        return i


def _serve(**kwargs):
    daemon = Daemon(host="127.0.0.1", **kwargs)
    service = Service()
    uri = daemon.register(service, object_id="Svc")
    daemon.start_background()
    return daemon, service, uri


class TestReactorServing:
    def test_tcp_daemon_serves_on_reactor(self):
        daemon, _, uri = _serve()
        try:
            assert daemon.serving_mode == "reactor"
            with Proxy(uri) as proxy:
                assert proxy.echo(41) == 41
        finally:
            daemon.shutdown()
        assert daemon.quiescent

    def test_many_concurrent_clients(self):
        daemon, _, uri = _serve()
        errors: list[Exception] = []

        def storm(worker: int):
            try:
                with Proxy(uri) as proxy:
                    for i in range(25):
                        assert proxy.echo((worker, i)) == (worker, i)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=storm, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert daemon.call_count == 8 * 25
        finally:
            daemon.shutdown()

    def test_auth_and_binary_negotiation_compose(self):
        # the challenge-response runs on the same binary wire as the calls
        daemon, _, uri = _serve(secret=b"s3cret")
        try:
            with Proxy(uri, secret=b"s3cret") as proxy:
                trace = proxy.echo(np.arange(100.0))
                np.testing.assert_array_equal(trace, np.arange(100.0))
        finally:
            daemon.shutdown()

    def test_shutdown_is_quiescent_with_open_clients(self):
        daemon, _, uri = _serve()
        proxy = Proxy(uri)
        try:
            assert proxy.echo(1) == 1
        finally:
            daemon.shutdown()
            proxy.close()
        assert daemon.quiescent
        assert not daemon.crashed

    def test_crash_frees_the_port_for_a_successor(self):
        daemon, _, uri = _serve()
        host, port = daemon.address
        with Proxy(uri) as proxy:
            proxy.echo(1)
            daemon.crash()
        assert daemon.crashed
        successor = Daemon(host=host, port=port)
        successor.register(Service(), object_id="Svc")
        successor.start_background()
        try:
            with Proxy(uri) as proxy:
                assert proxy.echo(2) == 2
        finally:
            successor.shutdown()

    def test_unstarted_daemon_shutdown_closes_its_descriptors(self):
        # building a TCP daemon opens the reactor's selector and wake
        # pipe; a daemon shut down before it ever served must close them
        # itself, because no loop thread exists to do it on its way out
        daemon = Daemon(host="127.0.0.1")
        reactor = daemon._reactor
        pipe_fds = (reactor._wake_r, reactor._wake_w)
        for fd in pipe_fds:
            os.fstat(fd)
        daemon.shutdown()
        for fd in pipe_fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert reactor._selector.get_map() is None  # closed

    def test_stop_before_the_loop_thread_runs_still_ends_it(self, monkeypatch):
        # start_background() can return before its thread runs; a stop()
        # landing in that window must still end the loop, or shutdown
        # waits out its join deadline and reports quiescent=False
        gate = threading.Event()

        class LateThread(threading.Thread):
            def run(self):
                gate.wait(5.0)
                super().run()

        daemon = Daemon(host="127.0.0.1")
        with monkeypatch.context() as patch:
            patch.setattr(threading, "Thread", LateThread)
            daemon.start_background()
        reactor = daemon._reactor
        reactor.stop()
        gate.set()
        try:
            assert reactor.join(timeout=2.0)
        finally:
            daemon.shutdown()

    def test_crash_before_the_loop_thread_runs_still_closes_its_descriptors(
        self, monkeypatch
    ):
        # a crash() in the same window closes the listener before the loop
        # thread sets it up; the thread must still close the selector and
        # the wake pipe on its way out, and end without an error
        gate = threading.Event()
        thread_errors = []

        class LateThread(threading.Thread):
            def run(self):
                gate.wait(5.0)
                super().run()

        daemon = Daemon(host="127.0.0.1")
        with monkeypatch.context() as patch:
            patch.setattr(threading, "Thread", LateThread)
            daemon.start_background()
        reactor = daemon._reactor
        pipe_fds = (reactor._wake_r, reactor._wake_w)
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        daemon.crash()
        gate.set()
        assert reactor.join(timeout=2.0)
        assert thread_errors == []
        for fd in pipe_fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert reactor._selector.get_map() is None  # closed

    def test_shutdown_after_crash_leaves_reused_descriptors_alone(
        self, tmp_path
    ):
        # the crashed loop closes its wake pipe on the way out; a later
        # shutdown() must not write its wake byte into whatever file the
        # process opens next under the same descriptor number
        daemon, _, uri = _serve()
        with Proxy(uri) as proxy:
            proxy.echo(1)
        reactor = daemon._reactor
        wake_w = reactor._wake_w
        daemon.crash()
        assert reactor.join(timeout=2.0)
        with pytest.raises(OSError):
            os.fstat(wake_w)  # closed, so the number is free to reuse
        victim = tmp_path / "unrelated.bin"
        fd = os.open(victim, os.O_WRONLY | os.O_CREAT)
        os.dup2(fd, wake_w)
        try:
            daemon.shutdown()
        finally:
            os.close(wake_w)
            os.close(fd)
        assert victim.read_bytes() == b""


class TestBackpressure:
    def test_oversized_replies_count_backpressure(self):
        metrics = MetricsRegistry()
        # any reply bigger than the bound must pause the connection's
        # reads until the client drains it
        daemon, _, uri = _serve(max_outbox_bytes=4096)
        daemon.metrics = metrics
        try:
            with Proxy(uri, max_inflight=8) as proxy:
                with proxy.pipeline() as pipe:
                    pending = [pipe.call("bulk", 64 * 1024) for _ in range(6)]
                    results = [p.result() for p in pending]
            assert all(len(r) == 64 * 1024 for r in results)
            assert daemon.backpressure_total >= 1
            assert (
                metrics.counter("rpc.server.backpressure_total").total() >= 1
            )
        finally:
            daemon.shutdown()

    def test_connections_gauge_returns_to_zero(self):
        import time

        metrics = MetricsRegistry()
        daemon, _, uri = _serve()
        daemon.metrics = metrics
        try:
            with Proxy(uri) as proxy:
                proxy.echo(1)
                assert (
                    metrics.gauge("rpc.server.connections_active").value() >= 1
                )
            # the reactor notices the disconnect on its next loop pass
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if metrics.gauge("rpc.server.connections_active").value() == 0:
                    break
                time.sleep(0.01)
            assert metrics.gauge("rpc.server.connections_active").value() == 0
        finally:
            daemon.shutdown()


class TestInlineDispatch:
    def test_pipelined_calls_execute_in_issue_order(self):
        daemon, service, uri = _serve()
        try:
            with Proxy(uri, max_inflight=16) as proxy:
                with proxy.pipeline() as pipe:
                    pending = [pipe.call("record", i) for i in range(50)]
                    results = [p.result() for p in pending]
            assert results == list(range(50))
            # one connection: execution order must match issue order
            assert service.seen == list(range(50))
        finally:
            daemon.shutdown()

    def test_client_death_mid_burst_does_not_wedge_dispatch(self):
        # a client that dies with a pipelined burst in flight (requests
        # dispatched, replies undeliverable) must not stall the loop:
        # other clients keep getting served afterwards
        daemon, _, uri = _serve()
        try:
            victim = Proxy(uri, max_inflight=16)
            pipe = victim.pipeline()
            for _ in range(12):
                pipe.call("bulk", 256 * 1024)
            # abrupt death: the socket closes with every reply pending
            victim._conn.close()
            victim._conn = None

            with Proxy(uri) as survivor:
                for i in range(20):
                    assert survivor.echo(i) == i
        finally:
            daemon.shutdown()
