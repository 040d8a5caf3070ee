"""Pipelining speedup gate at a simulated WAN round trip (ISSUE 3).

Runs the two RTT-bound hot paths — a 16-call RPC burst and a multi-chunk
``Mount`` file fetch — serially and pipelined over a loopback transport
with a real 10 ms round trip (5 ms propagation each way, delays
overlapping as on a physical link; see :mod:`repro.net.delay`). Each
pipelined path must beat its serial baseline by the gate ratio.

Expected shape of the numbers: a serial N-call path costs
``N × (RTT + proc)``; pipelined it costs ``RTT + N × proc``, so at 10 ms
RTT and 16 calls the ideal ratio approaches 16×. The gate is 3× to stay
robust on noisy CI runners.

Numbers are written to ``pipelining-report.json`` for the CI artifact.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from pathlib import Path

import pytest

from repro.datachannel.mount import Mount
from repro.datachannel.share import FileShareService
from repro.net.delay import delayed_loopback
from repro.rpc import Daemon, Proxy, expose

ONE_WAY_S = 0.005  # 10 ms RTT
BURST = 16
GATE_RATIO = 3.0
READ_SIZE = 16 * 1024  # both arms fetch with the same granularity
N_CHUNKS = 16


@expose
class BenchService:
    def ping2(self) -> str:
        return "pong"


@pytest.fixture()
def delayed_daemon():
    listener, factory = delayed_loopback(ONE_WAY_S)
    daemon = Daemon(listener=listener)
    uri = daemon.register(BenchService(), object_id="Bench")
    thread = threading.Thread(target=daemon.request_loop, daemon=True)
    thread.start()
    yield uri, factory
    daemon.shutdown()


@pytest.fixture()
def delayed_share(tmp_path):
    share_root = tmp_path / "share"
    share_root.mkdir()
    payload = bytes(range(256)) * (N_CHUNKS * READ_SIZE // 256)
    (share_root / "measurement.bin").write_bytes(payload)
    listener, factory = delayed_loopback(ONE_WAY_S)
    daemon = Daemon(listener=listener)
    uri = daemon.register(
        FileShareService(share_root, share_name="bench"), object_id="Share"
    )
    thread = threading.Thread(target=daemon.request_loop, daemon=True)
    thread.start()
    yield uri, factory, payload
    daemon.shutdown()


def _report(name: str, serial_s: float, pipelined_s: float) -> float:
    ratio = serial_s / pipelined_s
    path = Path("pipelining-report.json")
    report = json.loads(path.read_text()) if path.exists() else {}
    report[name] = {
        "rtt_ms": ONE_WAY_S * 2 * 1000,
        "serial_ms": round(serial_s * 1000, 2),
        "pipelined_ms": round(pipelined_s * 1000, 2),
        "speedup": round(ratio, 2),
        "gate": GATE_RATIO,
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"\n{name}: serial {serial_s * 1000:.1f} ms, "
        f"pipelined {pipelined_s * 1000:.1f} ms -> {ratio:.1f}x"
    )
    return ratio


def test_rpc_burst_speedup(delayed_daemon):
    """A 16-call burst must run >=3x faster pipelined at 10 ms RTT."""
    uri, factory = delayed_daemon

    with Proxy(uri, connection_factory=factory) as proxy:
        proxy.ping2()  # connect outside the timed region
        start = time.monotonic()
        for _ in range(BURST):
            proxy.ping2()
        serial_s = time.monotonic() - start

    with Proxy(uri, connection_factory=factory, max_inflight=BURST) as proxy:
        proxy.ping2()
        start = time.monotonic()
        with proxy.pipeline() as pipe:
            pending = [pipe.call("ping2") for _ in range(BURST)]
            replies = [p.result() for p in pending]
        pipelined_s = time.monotonic() - start

    assert replies == ["pong"] * BURST
    ratio = _report("rpc_burst_16", serial_s, pipelined_s)
    assert ratio >= GATE_RATIO, (
        f"pipelined burst only {ratio:.2f}x faster (gate {GATE_RATIO}x)"
    )


def test_mount_fetch_speedup(delayed_share):
    """A multi-chunk Mount fetch must run >=3x faster pipelined.

    Each timed arm starts from a freshly collected heap: a full garbage
    collection of the test process (tens of ms) landing inside one arm
    times the collector, not the fetch.
    """
    uri, factory, payload = delayed_share

    serial_proxy = Proxy(uri, connection_factory=factory, timeout=60.0)
    serial_mount = Mount(serial_proxy, read_size=READ_SIZE)
    serial_mount.exists("measurement.bin")  # connect outside timing
    gc.collect()
    start = time.monotonic()
    serial_data = serial_mount.read_bytes("measurement.bin", verify=True)
    serial_s = time.monotonic() - start
    serial_mount.unmount()

    piped_proxy = Proxy(
        uri, connection_factory=factory, timeout=60.0, max_inflight=N_CHUNKS + 2
    )
    piped_mount = Mount(piped_proxy, read_size=READ_SIZE)
    piped_mount.exists("measurement.bin")
    gc.collect()
    start = time.monotonic()
    piped_data = piped_mount.read_bytes("measurement.bin", verify=True)
    pipelined_s = time.monotonic() - start
    piped_mount.unmount()

    assert serial_data == payload
    assert piped_data == payload
    ratio = _report("mount_fetch_16_chunks", serial_s, pipelined_s)
    assert ratio >= GATE_RATIO, (
        f"pipelined fetch only {ratio:.2f}x faster (gate {GATE_RATIO}x)"
    )
