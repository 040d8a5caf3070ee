"""Request pipelining: demuxed replies and bursts (PROTOCOLS §1.4).

Covers the ISSUE-3 tentpole and its proxy satellites:

- seq-correlated demultiplexing with multiple REQUEST frames in flight;
- multi-threaded use of one shared proxy, with and without pipelining
  (interleaved calls, correct reply correlation, no error cross-talk);
- the in-flight window as backpressure, including single-thread bursts
  deeper than the window;
- `Pipeline` semantics (drain on exit, error isolation, idempotency
  keys, span parenting);
- the `_pyro_metadata` copy fix and the byte-counter capture fix;
- the `rpc.client.inflight` gauge.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReproError
from repro.net.delay import delayed_loopback
from repro.obs import MetricsRegistry, Tracer
from repro.rpc import Daemon, PendingReply, Pipeline, Proxy, expose


@expose
class EchoService:
    def __init__(self):
        self.lock = threading.Lock()
        self.calls = 0

    def echo(self, value):
        with self.lock:
            self.calls += 1
        return value

    def add(self, a, b):
        return a + b

    def fail(self, message):
        raise ValueError(message)

    def payload(self, size):
        return b"x" * size


@pytest.fixture()
def service_daemon():
    daemon = Daemon(host="127.0.0.1", port=0)
    service = EchoService()
    uri = daemon.register(service, object_id="Echo")
    daemon.start_background()
    yield uri, service, daemon
    daemon.shutdown()


class TestPipelinedProxy:
    def test_max_inflight_validation(self):
        with pytest.raises(ValueError):
            Proxy("PYRO:X@127.0.0.1:1", max_inflight=0)

    def test_default_is_serial(self, service_daemon):
        uri, _service, _daemon = service_daemon
        with Proxy(uri) as proxy:
            assert proxy.max_inflight == 1
            with pytest.raises(ValueError):
                proxy.pipeline()

    def test_single_thread_burst_deeper_than_window(self, service_daemon):
        """Issuing more calls than the window drains replies inline."""
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=3) as proxy:
            with proxy.pipeline() as pipe:
                pending = [pipe.call("add", i, 100) for i in range(20)]
                assert [p.result() for p in pending] == [
                    i + 100 for i in range(20)
                ]

    def test_results_collectable_out_of_order(self, service_daemon):
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=8) as proxy:
            with proxy.pipeline() as pipe:
                pending = [pipe.call("echo", i) for i in range(8)]
                assert [p.result() for p in reversed(pending)] == list(
                    reversed(range(8))
                )

    def test_result_is_idempotent(self, service_daemon):
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=2) as proxy:
            with proxy.pipeline() as pipe:
                reply = pipe.call("echo", "x")
                assert reply.result() == "x"
                assert reply.result() == "x"
                assert reply.done

    def test_remote_error_isolated_to_its_call(self, service_daemon):
        """One failing call in a burst must not poison its neighbours."""
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            with proxy.pipeline() as pipe:
                before = pipe.call("echo", "before")
                bad = pipe.call("fail", "kapow")
                after = pipe.call("echo", "after")
                assert before.result() == "before"
                with pytest.raises(ReproError, match="kapow"):
                    bad.result()
                with pytest.raises(ReproError, match="kapow"):
                    bad.result()  # cached error, same outcome
                assert after.result() == "after"
            # proxy remains usable after a remote error
            assert proxy.echo("still alive") == "still alive"

    def test_uncollected_error_raises_at_exit(self, service_daemon):
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            with pytest.raises(ReproError, match="kapow"):
                with proxy.pipeline() as pipe:
                    pipe.call("fail", "kapow")
            # an error already handled by the caller is not re-raised
            with proxy.pipeline() as pipe:
                bad = pipe.call("fail", "kapow")
                with pytest.raises(ReproError):
                    bad.result()

    def test_pipelined_ping_and_metadata(self, service_daemon):
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            proxy._pyro_ping()
            assert "echo" in proxy._pyro_metadata()["methods"]

    def test_plain_calls_on_pipelined_proxy(self, service_daemon):
        """Ordinary attribute calls work on a pipelined proxy too."""
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            assert proxy.add(2, 3) == 5
            assert proxy.echo("plain") == "plain"


class TestSharedProxyThreads:
    @pytest.mark.parametrize("max_inflight", [1, 8])
    def test_interleaved_calls_correlate(self, service_daemon, max_inflight):
        """Many threads on one proxy: every reply matches its request."""
        uri, _service, _daemon = service_daemon
        proxy = Proxy(uri, max_inflight=max_inflight)
        results: dict[int, list] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                results[worker_id] = [
                    proxy.add(worker_id * 1000, j) for j in range(40)
                ]
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        proxy.close()
        assert not errors
        for worker_id in range(8):
            assert results[worker_id] == [
                worker_id * 1000 + j for j in range(40)
            ]

    @pytest.mark.parametrize("max_inflight", [1, 8])
    def test_no_error_cross_talk(self, service_daemon, max_inflight):
        """A thread's remote error never leaks into another thread."""
        uri, _service, _daemon = service_daemon
        proxy = Proxy(uri, max_inflight=max_inflight)
        outcomes: dict[int, object] = {}
        barrier = threading.Barrier(6)

        def worker(worker_id: int) -> None:
            barrier.wait()
            for iteration in range(20):
                if worker_id % 2 == 0:
                    try:
                        proxy.fail(f"w{worker_id}-i{iteration}")
                        outcomes[worker_id] = "no-error"
                        return
                    except ReproError as exc:
                        if f"w{worker_id}-" not in str(exc):
                            outcomes[worker_id] = f"wrong error: {exc}"
                            return
                else:
                    value = proxy.echo((worker_id, iteration))
                    if tuple(value) != (worker_id, iteration):
                        outcomes[worker_id] = f"wrong reply: {value}"
                        return
            outcomes[worker_id] = "ok"

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        proxy.close()
        assert all(v == "ok" for v in outcomes.values()), outcomes

    def test_threads_overlap_round_trips_when_pipelined(self):
        """At 10 ms RTT, 4 threads sharing a pipelined proxy finish in
        far less than 4x the serial time (their RTTs overlap)."""
        import time

        listener, factory = delayed_loopback(0.005)
        daemon = Daemon(listener=listener)
        uri = daemon.register(EchoService(), object_id="Echo")
        daemon.start_background()
        try:
            proxy = Proxy(uri, connection_factory=factory, max_inflight=8)
            proxy.echo("warm")  # connect before timing
            barrier = threading.Barrier(4)

            def worker() -> None:
                barrier.wait()
                for _ in range(4):
                    proxy.echo("x")

            threads = [threading.Thread(target=worker) for _ in range(4)]
            start = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.monotonic() - start
            proxy.close()
            # serial would be 16 calls x 10 ms = 160 ms; overlapped
            # threads need roughly 4 rounds of 10 ms
            assert elapsed < 0.120, f"no overlap: {elapsed * 1000:.0f} ms"
        finally:
            daemon.shutdown()


class TestSatelliteFixes:
    def test_metadata_returns_a_copy(self, service_daemon):
        """Mutating the returned metadata must not poison the cache."""
        uri, _service, _daemon = service_daemon
        for max_inflight in (1, 4):
            with Proxy(uri, max_inflight=max_inflight) as proxy:
                first = proxy._pyro_metadata()
                first["methods"].append("injected")
                first["poison"] = True
                second = proxy._pyro_metadata()
                assert "injected" not in second["methods"]
                assert "poison" not in second

    @pytest.mark.parametrize("max_inflight", [1, 4])
    def test_byte_counters_attributed_per_method(
        self, service_daemon, max_inflight
    ):
        """Concurrent calls attribute wire bytes to the right method and
        drop nothing: per-method counters sum to the connection totals,
        ONEWAY frames included, at every window."""
        uri, _service, _daemon = service_daemon
        metrics = MetricsRegistry()
        listener, factory = delayed_loopback(0.0)
        daemon = Daemon(listener=listener)
        uri = daemon.register(EchoService(), object_id="Echo")
        daemon.start_background()
        try:
            proxy = Proxy(
                uri,
                connection_factory=factory,
                metrics=metrics,
                max_inflight=max_inflight,
            )
            barrier = threading.Barrier(4)

            def worker(worker_id: int) -> None:
                barrier.wait()
                for _ in range(10):
                    if worker_id % 2 == 0:
                        proxy.payload(2048)
                    else:
                        proxy.echo("tiny")
                        proxy.echo.oneway("tiny")

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            conn = proxy._conn
            sent = metrics.counter("rpc.client.bytes_sent_total")
            received = metrics.counter("rpc.client.bytes_received_total")
            total_sent = sent.value(method="payload") + sent.value(
                method="echo"
            )
            total_received = received.value(method="payload") + received.value(
                method="echo"
            )
            assert total_sent == conn.bytes_sent
            assert total_received == conn.bytes_received
            # the big replies belong to payload, not echo
            assert received.value(method="payload") > 20 * 2048
            assert received.value(method="echo") < received.value(
                method="payload"
            )
            proxy.close()
        finally:
            daemon.shutdown()


class TestObservability:
    def test_inflight_gauge_returns_to_zero(self, service_daemon):
        uri, _service, _daemon = service_daemon
        for max_inflight in (1, 4):
            metrics = MetricsRegistry()
            with Proxy(uri, metrics=metrics, max_inflight=max_inflight) as proxy:
                proxy.echo("x")
                if max_inflight > 1:
                    with proxy.pipeline() as pipe:
                        pending = [pipe.call("echo", i) for i in range(6)]
                        for reply in pending:
                            reply.result()
                gauge = metrics.gauge("rpc.client.inflight")
                assert gauge.value() == 0

    def test_burst_spans_share_parent(self, service_daemon):
        """Every pipelined call's span parents under the span current at
        issue time, not under the previous call in the burst."""
        uri, _service, _daemon = service_daemon
        tracer = Tracer()
        with Proxy(uri, tracer=tracer, max_inflight=4) as proxy:
            with tracer.start_as_current_span("burst-root") as root:
                with proxy.pipeline() as pipe:
                    pending = [pipe.call("echo", i) for i in range(5)]
                    for reply in pending:
                        reply.result()
        spans = tracer.find("rpc.call.echo")
        assert len(spans) == 5
        assert {span.parent_id for span in spans} == {root.context.span_id}
        assert all(span.attributes.get("rpc.pipelined") for span in spans)

    def test_burst_metrics_status_labels(self, service_daemon):
        uri, _service, _daemon = service_daemon
        metrics = MetricsRegistry()
        with Proxy(uri, metrics=metrics, max_inflight=4) as proxy:
            with proxy.pipeline() as pipe:
                good = [pipe.call("echo", i) for i in range(3)]
                bad = pipe.call("fail", "nope")
                for reply in good:
                    reply.result()
                with pytest.raises(ReproError):
                    bad.result()
        calls = metrics.counter("rpc.client.calls_total")
        assert calls.value(method="echo", status="ok") == 3
        assert calls.value(method="fail", status="error") == 1


class TestIdempotentPipeline:
    def test_keys_attached_and_deduplicated_by_daemon(self, service_daemon):
        """idempotent=True bursts carry per-call keys the daemon dedups."""
        uri, service, daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            pipe = proxy.pipeline(idempotent=True)
            reply = pipe.call("echo", "first", _idempotency_key="fixed-key")
            assert reply.result() == "first"
            calls_before = service.calls
            # same key again: daemon replays the recorded outcome
            replay = pipe.call("echo", "second", _idempotency_key="fixed-key")
            assert replay.result() == "first"
            assert service.calls == calls_before
            assert daemon.replay_count >= 1
            pipe.drain()

    def test_auto_keys_are_unique(self, service_daemon):
        uri, service, _daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            with proxy.pipeline(idempotent=True) as pipe:
                pending = [pipe.call("echo", i) for i in range(5)]
                assert [p.result() for p in pending] == list(range(5))
            assert service.calls >= 5  # nothing was wrongly deduplicated


class TestTransportFailure:
    def test_inflight_calls_fail_and_proxy_recovers(self, service_daemon):
        """Killing the connection fails pending calls with per-waiter
        errors; the proxy reconnects on the next call."""
        uri, _service, _daemon = service_daemon
        with Proxy(uri, max_inflight=4) as proxy:
            assert proxy.echo("up") == "up"
            # sabotage: close the socket under the proxy
            proxy._conn.close()
            with pytest.raises(ReproError):
                proxy.echo("down")
            assert proxy.echo("back") == "back"

    def test_exports(self):
        import repro.rpc as rpc

        assert rpc.Pipeline is Pipeline
        assert rpc.PendingReply is PendingReply
