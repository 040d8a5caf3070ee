"""Pipelined read-ahead chunk fetch through :class:`Mount` (ISSUE 3).

A mount whose proxy allows more than one in-flight request fetches every
chunk of a file in one burst; these tests pin down that the pipelined
path returns byte-identical data to the serial path across file shapes,
that ``verify=`` checksum semantics survive, and that the
``pipeline_depth`` knob on :meth:`ElectrochemistryICE.mount` reaches the
share proxy.
"""

from __future__ import annotations

import threading

import pytest

from repro.datachannel.mount import Mount
from repro.datachannel.share import CHUNK_SIZE, FileShareService
from repro.errors import DataChannelError
from repro.rpc import Daemon, Proxy


@pytest.fixture()
def share(tmp_path):
    root = tmp_path / "share"
    root.mkdir()
    daemon = Daemon(host="127.0.0.1", port=0)
    uri = daemon.register(
        FileShareService(root, share_name="test"), object_id="Share"
    )
    daemon.start_background()
    yield root, uri
    daemon.shutdown()


def _mount(uri, depth=1, **kwargs) -> Mount:
    return Mount(Proxy(uri, timeout=30.0, max_inflight=depth), **kwargs)


FILE_SHAPES = {
    "empty": b"",
    "tiny": b"hello",
    "one_byte_short_of_chunk": b"a" * (CHUNK_SIZE - 1),
    "exactly_one_chunk": b"b" * CHUNK_SIZE,
    "multi_chunk": bytes(range(256)) * (3 * CHUNK_SIZE // 256) + b"tail",
    "exact_multi_chunk": b"c" * (2 * CHUNK_SIZE),
}


class TestPipelinedReads:
    @pytest.mark.parametrize("shape", sorted(FILE_SHAPES))
    def test_matches_serial_bytes(self, share, shape):
        root, uri = share
        payload = FILE_SHAPES[shape]
        (root / "data.bin").write_bytes(payload)
        serial = _mount(uri, depth=1)
        piped = _mount(uri, depth=6)
        try:
            assert serial.read_bytes("data.bin") == payload
            assert piped.read_bytes("data.bin") == payload
            assert piped.bytes_fetched == len(payload)
        finally:
            serial.unmount()
            piped.unmount()

    @pytest.mark.parametrize("depth", [1, 6])
    def test_verify_checksum(self, share, depth):
        root, uri = share
        payload = b"d" * (2 * CHUNK_SIZE + 17)
        (root / "data.bin").write_bytes(payload)
        mount = _mount(uri, depth=depth)
        try:
            assert mount.read_bytes("data.bin", verify=True) == payload
        finally:
            mount.unmount()

    def test_verify_mismatch_raises(self, share, monkeypatch):
        root, uri = share
        (root / "data.bin").write_bytes(b"e" * (CHUNK_SIZE + 5))
        mount = _mount(uri, depth=6)
        try:
            import hashlib as real_hashlib

            import repro.datachannel.mount as mount_module

            class WrongHashlib:
                @staticmethod
                def sha256(data=b""):
                    return real_hashlib.sha256(b"corrupted")

            # rebind only the mount module's hashlib, so the in-process
            # share service still computes the true checksum
            monkeypatch.setattr(mount_module, "hashlib", WrongHashlib)
            with pytest.raises(DataChannelError, match="checksum"):
                mount.read_bytes("data.bin", verify=True)
        finally:
            mount.unmount()

    def test_file_grown_after_stat_still_complete(self, share):
        """If chunks all come back full, the tail is re-read serially."""
        root, uri = share
        payload = b"f" * (2 * CHUNK_SIZE)  # exact multiple: triggers tail
        (root / "data.bin").write_bytes(payload)
        mount = _mount(uri, depth=6)
        try:
            assert mount.read_bytes("data.bin") == payload
        finally:
            mount.unmount()

    def test_smaller_read_size(self, share):
        root, uri = share
        payload = bytes(range(256)) * 64  # 16 KiB
        (root / "data.bin").write_bytes(payload)
        serial = _mount(uri, depth=1, read_size=4096)
        piped = _mount(uri, depth=8, read_size=4096)
        try:
            assert serial.read_bytes("data.bin") == payload
            assert piped.read_bytes("data.bin", verify=True) == payload
        finally:
            serial.unmount()
            piped.unmount()

    def test_read_size_validation(self, share):
        _root, uri = share
        with pytest.raises(ValueError):
            _mount(uri, read_size=0)
        clamped = _mount(uri, read_size=10 * CHUNK_SIZE)
        try:
            assert clamped.read_size == CHUNK_SIZE
        finally:
            clamped.unmount()

    def test_fetch_and_voltammogram_on_pipelined_mount(self, share, tmp_path):
        root, uri = share
        payload = b"g" * (CHUNK_SIZE + 100)
        (root / "sub").mkdir()
        (root / "sub" / "data.bin").write_bytes(payload)
        mount = Mount(
            Proxy(uri, timeout=30.0, max_inflight=4),
            cache_dir=tmp_path / "cache",
        )
        try:
            local = mount.fetch("sub/data.bin")
            assert local.read_bytes() == payload
        finally:
            mount.unmount()

    def test_concurrent_readers_on_one_pipelined_mount(self, share):
        """Multiple threads reading distinct files through one mount."""
        root, uri = share
        payloads = {}
        for index in range(4):
            data = bytes([index]) * (CHUNK_SIZE + index * 1000 + 1)
            (root / f"file{index}.bin").write_bytes(data)
            payloads[index] = data
        mount = _mount(uri, depth=8)
        failures: list[str] = []

        def worker(index: int) -> None:
            for _ in range(3):
                got = mount.read_bytes(f"file{index}.bin", verify=True)
                if got != payloads[index]:
                    failures.append(f"file{index}: wrong bytes")
                    return

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
        finally:
            mount.unmount()


@pytest.fixture()
def served_share(tmp_path):
    """(root, uri, daemon, service) of a share served over TCP."""
    root = tmp_path / "share"
    root.mkdir()
    service = FileShareService(root, share_name="test")
    daemon = Daemon(host="127.0.0.1", port=0)
    uri = daemon.register(service, object_id="Share")
    daemon.start_background()
    yield root, uri, daemon, service
    daemon.shutdown()


class TestVerifiedReads:
    """A verified read starts with ``read_head``: the first chunk, the
    file's size and its SHA-256 in one share call."""

    @pytest.mark.parametrize("depth", [1, 6])
    @pytest.mark.parametrize("shape", sorted(FILE_SHAPES))
    def test_every_shape_verifies(self, share, shape, depth):
        root, uri = share
        payload = FILE_SHAPES[shape]
        (root / "data.bin").write_bytes(payload)
        mount = _mount(uri, depth=depth)
        try:
            assert mount.read_bytes("data.bin", verify=True) == payload
            assert mount.bytes_fetched == len(payload)
        finally:
            mount.unmount()

    @pytest.mark.parametrize("depth", [1, 6])
    def test_single_chunk_file_costs_one_share_call(self, served_share, depth):
        root, uri, daemon, _service = served_share
        (root / "cv.mpt").write_bytes(b"h" * 5000)
        mount = _mount(uri, depth=depth)
        try:
            before = daemon.call_count
            assert mount.read_bytes("cv.mpt", verify=True) == b"h" * 5000
            assert daemon.call_count - before == 1
        finally:
            mount.unmount()

    @pytest.mark.parametrize("depth", [1, 6])
    def test_further_chunks_cost_no_stat_and_no_checksum(
        self, served_share, depth
    ):
        root, uri, daemon, _service = served_share
        (root / "data.bin").write_bytes(b"i" * (3 * CHUNK_SIZE))
        mount = _mount(uri, depth=depth)
        try:
            before = daemon.call_count
            mount.read_bytes("data.bin", verify=True)
            # read_head plus the two further chunks, nothing else
            assert daemon.call_count - before == 3
        finally:
            mount.unmount()

    @pytest.mark.parametrize("depth", [1, 6])
    def test_file_rewritten_between_chunks_fails_verification(
        self, served_share, monkeypatch, depth
    ):
        from repro.obs import MetricsRegistry

        root, uri, _daemon, service = served_share
        path = root / "data.bin"
        path.write_bytes(b"j" * (2 * CHUNK_SIZE + 9))
        real = service.read_head

        def head_then_rewrite(relative, size):
            head = real(relative, size)
            path.write_bytes(b"k" * (2 * CHUNK_SIZE + 9))
            return head

        monkeypatch.setattr(service, "read_head", head_then_rewrite)
        metrics = MetricsRegistry()
        mount = _mount(uri, depth=depth, metrics=metrics)
        try:
            with pytest.raises(DataChannelError, match="checksum mismatch"):
                mount.read_bytes("data.bin", verify=True)
            failures = metrics.get("datachannel.verify_failures_total")
            assert failures is not None
            assert failures.value(path="data.bin") == 1
        finally:
            mount.unmount()


class TestICEPipelineDepth:
    def test_mount_knob_reaches_proxy(self, ice):
        mount = ice.mount(pipeline_depth=4)
        try:
            assert mount._proxy.max_inflight == 4
            names = [record.path for record in mount.listdir("")]
            assert isinstance(names, list)
        finally:
            mount.unmount()

    def test_mount_default_stays_serial(self, ice):
        mount = ice.mount()
        try:
            assert mount._proxy.max_inflight == 1
        finally:
            mount.unmount()

    def test_pipelined_mount_reads_measurement(self, ice):
        """End to end over the sim network: run a workflow, then fetch
        its measurement file through a pipelined mount."""
        from repro.core import CVWorkflowSettings, run_cv_workflow

        result = run_cv_workflow(
            ice, settings=CVWorkflowSettings(e_step_v=0.002)
        )
        assert result.succeeded
        serial_mount = ice.mount()
        piped_mount = ice.mount(pipeline_depth=6)
        try:
            serial_bytes = serial_mount.read_bytes(
                result.measurement_file, verify=True
            )
            piped_bytes = piped_mount.read_bytes(
                result.measurement_file, verify=True
            )
            assert piped_bytes == serial_bytes
        finally:
            serial_mount.unmount()
            piped_mount.unmount()
