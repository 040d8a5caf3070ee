"""The per-call write path on a TCP-loopback session: every metric write,
span, feed event and dedup record still lands, each on its own ICE half;
plus the buffered serial reads and the temp dirs a session or workflow
leaves behind.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path

import pytest

import repro
from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow
from repro.durability.journal import Journal
from repro.errors import SerialTimeoutError
from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.logging_utils import MAX_EVENTS, EventLog
from repro.obs.metrics import is_daemon_side_metric
from repro.obs.trace import DAEMON_SPAN_PREFIXES
from repro.serialio.port import create_port_pair

#: the six control verbs, each with the arguments a caller sends
CONTROL = {
    "Status_JKem": (),
    "Read_Flow_MFC": (1,),
    "Cell_Status": (),
    "Probe_Status_SP200": (),
    "Set_Flow_MFC": (1, 42.5),
    "Set_Rate_SyringePump": (1, 2.5),
}

#: the registry writes of one keyed control call
KEYED_CALL_WRITES = sorted(
    [
        "rpc.client.calls_total",
        "rpc.client.call_latency_s",
        "rpc.client.inflight",
        "rpc.client.inflight",
        "rpc.daemon.calls_total",
        "rpc.daemon.dispatch_latency_s",
        "durability.dedup_journal_records_total",
    ]
)


@pytest.fixture(scope="module")
def plane():
    """A TCP ICE, a session on it, and one acquired ``.mpt`` file."""
    ice = ElectrochemistryICE.build(ICEConfig(transport="tcp"))
    session = repro.connect(ice)
    try:
        session.fill_cell(5.0)
        session.run_cv(save_as="write-path")
        name = ice.workstation.eclab.last_measurement_path.name
        yield session, ice, name
    finally:
        session.close()
        ice.shutdown()


def _operations(session, name):
    client, mount = session.client, session.datachannel
    ops = {
        verb: (lambda v=verb, a=args: getattr(client, f"call_{v}")(*a))
        for verb, args in CONTROL.items()
    }
    ops["read_bytes"] = lambda: mount.read_bytes(name)
    ops["read_voltammogram"] = lambda: mount.read_voltammogram(name)
    return ops


def _observe(session, call):
    """Run ``call``; return the metric writes and spans it made."""
    writes: list[str] = []
    spans: list = []
    remove_listener = session.metrics.add_update_listener(
        lambda name, kind, labels, value: writes.append(name)
    )
    remove_sink = session.tracer.add_sink(spans.append)
    try:
        call()
    finally:
        remove_sink()
        remove_listener()
    return writes, spans


def _is_daemon_span(name: str) -> bool:
    return name.startswith(DAEMON_SPAN_PREFIXES)


class TestKeyedControlCall:
    @pytest.mark.parametrize("verb", sorted(CONTROL))
    def test_writes_and_spans(self, plane, verb):
        session, _, name = plane
        writes, spans = _observe(session, _operations(session, name)[verb])
        assert sorted(writes) == KEYED_CALL_WRITES
        dgx = sorted(s.name for s in spans if not _is_daemon_span(s.name))
        acl = sorted(s.name for s in spans if _is_daemon_span(s.name))
        assert dgx == [f"rpc.call.{verb}", f"rpc.resilient.{verb}"]
        assert acl == [f"instrument.{verb}", f"rpc.dispatch.{verb}"]
        assert len({s.trace_id for s in spans}) == 1

    def test_every_keyed_call_appends_one_dedup_record(self, plane):
        session, ice, name = plane
        journal = ice.durability_dir / "control-dedup.jsonl"
        before = len(Journal.replay_file(journal).records)
        ops = _operations(session, name)
        calls = 0
        for _ in range(3):
            for verb in sorted(CONTROL):
                ops[verb]()
                calls += 1
        replay = Journal.replay_file(journal)
        assert not replay.torn_tail
        assert len(replay.records) - before == calls


class TestHalves:
    @pytest.mark.parametrize(
        "op", sorted(CONTROL) + ["read_bytes", "read_voltammogram"]
    )
    def test_each_half_holds_exactly_its_own_records(self, plane, op):
        session, ice, name = plane
        halves = {
            "dgx": (session.bus, session.recorder, session.timeseries),
            "acl": (ice.telemetry_bus, ice.recorder, ice.obs_store),
        }
        cursors = {h: bus.latest_seq for h, (bus, _, _) in halves.items()}
        rows = {h: store.scrape(cursor=0)[1] for h, (_, _, store) in halves.items()}
        writes, spans = _observe(session, _operations(session, name)[op])
        trace_ids = {s.trace_id for s in spans}
        expected = {
            "dgx": sorted(s.name for s in spans if not _is_daemon_span(s.name)),
            "acl": sorted(s.name for s in spans if _is_daemon_span(s.name)),
        }
        assert expected["dgx"] and expected["acl"]
        for half, (bus, recorder, store) in halves.items():
            events, _, gap = bus.read_since(cursors[half], max_events=4096)
            assert gap == 0
            fed = sorted(
                e.name for e in events if e.kind == "span" and e.trace_id in trace_ids
            )
            assert fed == expected[half], half
            dumped = sorted(
                s["name"]
                for s in recorder.snapshot()["spans"]
                if s["trace_id"] in trace_ids
            )
            assert dumped == expected[half], half
            scraped = {r["name"] for r in store.scrape(cursor=rows[half])[0]}
            mine = {w for w in writes if is_daemon_side_metric(w) == (half == "acl")}
            assert scraped == mine, half
        # the session feed streams every write, whichever half made it
        events, _, _ = session.bus.read_since(cursors["dgx"], max_events=4096)
        assert sorted(e.name for e in events if e.kind == "metric") == sorted(writes)
        daemon_events, _, _ = ice.telemetry_bus.read_since(cursors["acl"], 4096)
        assert not [e for e in daemon_events if e.kind == "metric"]

    def test_feed_seq_strictly_increases(self, plane):
        session, ice, name = plane
        for op in _operations(session, name).values():
            op()
        for bus in (session.bus, ice.telemetry_bus):
            events, _, _ = bus.read_since(0, max_events=100_000)
            seqs = [e.seq for e in events]
            assert seqs and all(b == a + 1 for a, b in zip(seqs, seqs[1:]))

    def test_span_set_after_end_does_not_alter_its_feed_event(self, plane):
        session, _, _ = plane
        cursor = session.bus.latest_seq
        span = session.tracer.start_span("test.late", attributes={"k": 1})
        span.end()
        span.set_attribute("k", 2)
        span.set_attribute("late", True)
        span.add_event("late")
        span.end("ERROR")
        events, _, _ = session.bus.read_since(cursor)
        (event,) = [e for e in events if e.name == "test.late"]
        assert event.data["attributes"] == {"k": 1, "service": "dgx-session"}
        assert event.data["status"] == "OK"
        (dumped,) = [
            s for s in session.recorder.snapshot()["spans"]
            if s["span_id"] == span.span_id
        ]
        assert dumped["attributes"] == {"k": 1, "service": "dgx-session"}
        assert dumped["events"] == []


class TestBufferedSerialReads:
    def test_back_to_back_replies_come_one_at_a_time(self):
        host, device = create_port_pair("COM9", timeout=0.5)
        device.write(b"OK 1\r\nOK 22\r\n")
        assert host.read_until(b"\r\n") == b"OK 1\r\n"
        assert host.in_waiting() == len(b"OK 22\r\n")
        assert host.read_until(b"\r\n") == b"OK 22\r\n"
        assert host.in_waiting() == 0

    def test_terminator_split_across_two_writes(self):
        host, device = create_port_pair("COM9", timeout=2.0)
        device.write(b"OK 3\r")
        later = threading.Timer(0.05, device.write, args=(b"\nOK 4",))
        later.start()
        try:
            assert host.read_until(b"\r\n") == b"OK 3\r\n"
        finally:
            later.join()
        assert host.read(16) == b"OK 4"

    def test_timeout_and_max_bytes_as_before(self):
        host, device = create_port_pair("COM9", timeout=0.05)
        device.write(b"partial")
        with pytest.raises(SerialTimeoutError, match="after 7 bytes"):
            host.read_until(b"\r\n")
        device.write(b"abcdefgh\r\n")
        with pytest.raises(ValueError, match="max_bytes=4"):
            host.read_until(b"\r\n", max_bytes=4)
        # the first max_bytes + 1 bytes are consumed, the rest stay
        assert host.read_until(b"\r\n") == b"fgh\r\n"
        # a reply of exactly max_bytes + 1 bytes still ends well
        device.write(b"abc\r\n")
        assert host.read_until(b"\r\n", max_bytes=4) == b"abc\r\n"


class TestBoundedEventLog:
    def test_keeps_the_newest_events(self):
        log = EventLog()
        seen: list[str] = []
        log.subscribe(lambda e: seen.append(e.message))
        for i in range(MAX_EVENTS + 5):
            log.emit("s", "k", str(i))
        assert len(log) == MAX_EVENTS
        assert log.messages()[0] == "5"
        assert log.messages()[-1] == str(MAX_EVENTS + 4)
        assert len(seen) == MAX_EVENTS + 5


def _temp_dirs(prefix: str) -> set[Path]:
    return set(Path(tempfile.gettempdir()).glob(f"{prefix}*"))


class TestTempDirs:
    def test_session_removes_its_cache_dir(self, ice_tcp):
        before = _temp_dirs("session-cache-")
        with repro.connect(ice_tcp) as session:
            assert session.flight_dir.parent in _temp_dirs("session-cache-")
        assert _temp_dirs("session-cache-") == before

    def test_default_flight_dump_survives_close(self, ice_tcp):
        with repro.connect(ice_tcp) as session:
            cache = session.flight_dir.parent
            (cache / "fetched.mpt").write_text("cached")
            dump = session.dump_flight("close-test")
        assert dump.is_file()
        assert sorted(p.name for p in cache.iterdir()) == ["flight-recorder"]
        assert cache in _temp_dirs("session-cache-")
        shutil.rmtree(cache)

    def test_uri_session_removes_its_flight_dir(self, ice_tcp):
        before = _temp_dirs("session-flightrec-")
        with repro.connect(ice_tcp.control_uri) as session:
            assert session.flight_dir in _temp_dirs("session-flightrec-")
        assert _temp_dirs("session-flightrec-") == before

    def test_uri_session_flight_dump_survives_close(self, ice_tcp):
        with repro.connect(ice_tcp.control_uri) as session:
            dump = session.dump_flight("close-test")
        assert dump.is_file()
        assert dump.parent == session.flight_dir
        shutil.rmtree(session.flight_dir)

    def test_caller_cache_dir_is_never_touched(self, ice_tcp, tmp_path):
        (tmp_path / "keep.txt").write_text("mine")
        with repro.connect(ice_tcp, cache_dir=tmp_path):
            pass
        assert (tmp_path / "keep.txt").read_text() == "mine"

    def test_workflow_leaves_no_cache_dir(self, ice):
        before = _temp_dirs("dgx-cache-")
        result = run_cv_workflow(ice, settings=CVWorkflowSettings(e_step_v=0.01))
        assert result.succeeded
        assert _temp_dirs("dgx-cache-") == before

    def test_failed_workflow_leaves_no_cache_dir(self, ice):
        before = _temp_dirs("dgx-cache-")
        # 25 mL overflows the cell: task C fails and the teardowns run
        result = run_cv_workflow(
            ice, settings=CVWorkflowSettings(e_step_v=0.01, fill_volume_ml=25.0)
        )
        assert not result.succeeded
        assert _temp_dirs("dgx-cache-") == before
