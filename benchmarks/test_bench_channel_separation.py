"""CH1 — the channel-separation design claim (paper §3.1).

"The separation of the network channels alleviates the delays of control
commands transferred over the shared ICE network."

Method: run control-command pings while a bulk measurement transfer
saturates the data path, on ecosystems that differ only in
``channel_mode``. On the shared topology every control frame queues
behind 256 KiB data chunks on the same links; on the dedicated topology
it never does.

Expected shape: under bulk load, shared-channel control latency degrades
by a large factor (roughly the serialisation time of a data chunk on the
bottleneck link); separated channels hold their unloaded latency. This
is the crossover the paper's design buys.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.facility.workstation import WorkstationConfig
from repro.net.links import LinkSpec


def _slow_wan_config(mode: str) -> ICEConfig:
    # a modest cross-facility pipe makes contention visible on a laptop run
    return ICEConfig(
        workstation=WorkstationConfig(),
        channel_mode=mode,
        wan_link=LinkSpec(latency_s=0.002, bandwidth_bps=200e6),
    )


@pytest.fixture(
    scope="module",
    params=["separate", "shared", "priority"],
    ids=["separate", "shared", "priority"],
)
def ecosystem(request):
    ice = ElectrochemistryICE.build(_slow_wan_config(request.param))
    # stage a bulk file on the share (a long multi-cycle acquisition)
    payload = np.random.default_rng(0).bytes(6 * 1024 * 1024)
    (ice.measurement_dir / "bulk.bin").write_bytes(payload)
    yield request.param, ice
    ice.shutdown()


def _measure_control_latency(client, samples: int = 30) -> np.ndarray:
    latencies = np.empty(samples)
    for index in range(samples):
        start = time.perf_counter()
        client.ping()
        latencies[index] = time.perf_counter() - start
    return latencies


def test_ch1_contention_table(benchmark, ecosystem):
    """The headline table: control latency with and without bulk load,
    across three designs — shared FCFS, priority-queued shared (QoS), and
    physically separate channels (the paper's)."""
    mode, ice = ecosystem
    client = ice.client()
    mount = ice.mount()

    quiet = benchmark.pedantic(
        lambda: _measure_control_latency(client), rounds=1, iterations=1
    )

    stop = threading.Event()

    def bulk_reader():
        while not stop.is_set():
            mount.read_bytes("bulk.bin")

    thread = threading.Thread(target=bulk_reader, daemon=True)
    thread.start()
    time.sleep(0.05)  # let the transfer ramp up
    loaded = _measure_control_latency(client)
    stop.set()
    thread.join(timeout=30.0)

    print(f"\n--- CH1 ({mode} channels) control-command latency ---")
    print(f"{'condition':<18} {'p50 (ms)':>10} {'p95 (ms)':>10}")
    for name, values in (("quiet", quiet), ("under bulk load", loaded)):
        print(
            f"{name:<18} {np.percentile(values, 50)*1e3:>10.2f} "
            f"{np.percentile(values, 95)*1e3:>10.2f}"
        )
    degradation = np.percentile(loaded, 50) / np.percentile(quiet, 50)
    print(f"median degradation factor: {degradation:.1f}x")

    mount.unmount()
    client.close()

    if mode == "separate":
        # dedicated channels: bulk load must not blow up control latency
        assert degradation < 3.0
    elif mode == "priority":
        # QoS: control waits at most one in-flight data chunk per hop —
        # bounded degradation, cheaper than pulling new fibre
        assert degradation < 3.5
    else:
        # shared FCFS: control frames queue behind 256 KiB data chunks
        assert degradation > 3.0


def test_bench_control_ping_quiet(benchmark, ecosystem):
    """Baseline ping latency on each topology (no competing traffic)."""
    _mode, ice = ecosystem
    client = ice.client()
    benchmark(client.ping)
    client.close()
