"""File share service + mount, over real RPC."""

import threading
import time

import numpy as np
import pytest

from repro.datachannel import (
    FileShareService,
    MeasurementWatcher,
    Mount,
    write_mpt,
)
from repro.errors import (
    AccessDeniedError,
    DataChannelError,
    RemoteFileNotFoundError,
    ShareNotMountedError,
)
from repro.rpc import Daemon, Proxy


@pytest.fixture
def share_setup(tmp_path):
    root = tmp_path / "export"
    root.mkdir()
    (root / "hello.txt").write_text("hello world")
    (root / "sub").mkdir()
    (root / "sub" / "nested.txt").write_text("nested")
    service = FileShareService(root)
    daemon = Daemon()
    uri = daemon.register(service, object_id="Share")
    daemon.start_background()
    cache = tmp_path / "cache"
    mount = Mount(Proxy(uri), cache_dir=cache)
    yield root, service, mount
    mount.unmount()
    daemon.shutdown()


class TestService:
    def test_info(self, share_setup):
        _, _, mount = share_setup
        assert mount.info()["share_name"] == "measurements"

    def test_listdir(self, share_setup):
        _, _, mount = share_setup
        names = {stat.path for stat in mount.listdir()}
        assert names == {"hello.txt", "sub"}

    def test_listdir_subdirectory(self, share_setup):
        _, _, mount = share_setup
        stats = mount.listdir("sub")
        assert [s.path for s in stats] == ["sub/nested.txt"]

    def test_stat(self, share_setup):
        _, _, mount = share_setup
        stat = mount.stat("hello.txt")
        assert stat.size == len("hello world")
        assert not stat.is_dir

    def test_exists(self, share_setup):
        _, _, mount = share_setup
        assert mount.exists("hello.txt")
        assert not mount.exists("ghost.txt")

    def test_missing_file(self, share_setup):
        _, _, mount = share_setup
        with pytest.raises(RemoteFileNotFoundError):
            mount.stat("ghost.txt")
        with pytest.raises(RemoteFileNotFoundError):
            mount.read_bytes("ghost.txt")

    @pytest.mark.parametrize(
        "path", ["../secret", "..", "/etc/passwd", "sub/../../x", "c:evil"]
    )
    def test_traversal_blocked(self, share_setup, path):
        _, _, mount = share_setup
        with pytest.raises(AccessDeniedError):
            mount.read_bytes(path)

    def test_negative_offset_rejected(self, share_setup):
        root, service, _ = share_setup
        with pytest.raises(AccessDeniedError):
            service.read_chunk("hello.txt", -1, 10)

    def test_export_root_must_exist(self, tmp_path):
        with pytest.raises(AccessDeniedError):
            FileShareService(tmp_path / "nope")

    def test_counters(self, share_setup):
        _, service, mount = share_setup
        mount.read_bytes("hello.txt")
        assert service.reads_served >= 1
        assert service.bytes_served >= len("hello world")


class TestMount:
    def test_read_text(self, share_setup):
        _, _, mount = share_setup
        assert mount.read_text("hello.txt") == "hello world"

    def test_read_with_verify(self, share_setup):
        _, _, mount = share_setup
        assert mount.read_bytes("hello.txt", verify=True) == b"hello world"

    def test_large_file_chunked(self, share_setup):
        root, _, mount = share_setup
        blob = bytes(range(256)) * 4096  # 1 MiB, > chunk size
        (root / "big.bin").write_bytes(blob)
        assert mount.read_bytes("big.bin", verify=True) == blob

    def test_fetch_caches_locally(self, share_setup):
        _, _, mount = share_setup
        local = mount.fetch("sub/nested.txt")
        assert local.read_text() == "nested"
        assert "cache" in str(local)

    def test_fetch_without_cache_dir(self, share_setup):
        _, _, mount = share_setup
        bare = Mount(mount._proxy, cache_dir=None)
        with pytest.raises(DataChannelError):
            bare.fetch("hello.txt")

    def test_unmounted_access_raises(self, share_setup):
        _, _, mount = share_setup
        mount.unmount()
        with pytest.raises(ShareNotMountedError):
            mount.listdir()
        assert not mount.mounted

    def test_read_voltammogram(self, share_setup, reference_voltammogram):
        root, _, mount = share_setup
        write_mpt(root / "cv.mpt", reference_voltammogram)
        loaded = mount.read_voltammogram("cv.mpt")
        np.testing.assert_allclose(
            loaded.current_a, reference_voltammogram.current_a, rtol=1e-5
        )

    def test_read_voltammogram_verifies_without_cache_dir(
        self, share_setup, reference_voltammogram, monkeypatch
    ):
        root, service, mount = share_setup
        write_mpt(root / "cv.mpt", reference_voltammogram)
        bare = Mount(mount._proxy, cache_dir=None)
        monkeypatch.setattr(service, "checksum", lambda relative: "0" * 64)
        with pytest.raises(DataChannelError, match="checksum mismatch"):
            bare.read_voltammogram("cv.mpt")

    def test_bytes_fetched_accounting(self, share_setup):
        _, _, mount = share_setup
        before = mount.bytes_fetched
        mount.read_bytes("hello.txt")
        assert mount.bytes_fetched == before + len("hello world")


class TestWatcher:
    def test_poll_detects_new_file(self, share_setup, reference_voltammogram):
        root, _, mount = share_setup
        watcher = MeasurementWatcher(mount, pattern="*.mpt", interval_s=0.02)
        watcher.snapshot()
        assert watcher.poll() == []
        write_mpt(root / "new.mpt", reference_voltammogram)
        changed = watcher.poll()
        assert [s.path for s in changed] == ["new.mpt"]
        # unchanged on the next poll
        assert watcher.poll() == []

    def test_poll_detects_modification(self, share_setup):
        root, _, mount = share_setup
        (root / "grow.mpt").write_text("v1")
        watcher = MeasurementWatcher(mount, pattern="*.mpt", interval_s=0.02)
        watcher.snapshot()
        (root / "grow.mpt").write_text("v2 longer")
        assert [s.path for s in watcher.poll()] == ["grow.mpt"]

    def test_pattern_filters(self, share_setup):
        root, _, mount = share_setup
        watcher = MeasurementWatcher(mount, pattern="*.mpt", interval_s=0.02)
        watcher.snapshot()
        (root / "note.txt").write_text("not a measurement")
        assert watcher.poll() == []

    def test_wait_for_appearing_file(self, share_setup, reference_voltammogram):
        root, _, mount = share_setup
        watcher = MeasurementWatcher(mount, pattern="*.mpt", interval_s=0.02)

        def writer():
            import time

            time.sleep(0.1)
            write_mpt(root / "later.mpt", reference_voltammogram)

        thread = threading.Thread(target=writer)
        thread.start()
        stat = watcher.wait_for("later.mpt", timeout_s=5.0)
        thread.join()
        assert stat.path == "later.mpt"

    def test_wait_for_timeout(self, share_setup):
        _, _, mount = share_setup
        watcher = MeasurementWatcher(mount, interval_s=0.02)
        with pytest.raises(DataChannelError, match="did not appear"):
            watcher.wait_for("never.mpt", timeout_s=0.1)

    def test_background_callback(self, share_setup, reference_voltammogram):
        root, _, mount = share_setup
        watcher = MeasurementWatcher(mount, pattern="*.mpt", interval_s=0.02)
        watcher.snapshot()
        seen: list[str] = []
        event = threading.Event()

        def callback(stat):
            seen.append(stat.path)
            event.set()

        watcher.start(callback)
        try:
            write_mpt(root / "bg.mpt", reference_voltammogram)
            assert event.wait(timeout=5.0)
        finally:
            watcher.stop()
        assert "bg.mpt" in seen

    def test_double_start_rejected(self, share_setup):
        _, _, mount = share_setup
        watcher = MeasurementWatcher(mount, interval_s=0.05)
        watcher.start(lambda s: None)
        try:
            with pytest.raises(DataChannelError):
                watcher.start(lambda s: None)
        finally:
            watcher.stop()

    def test_bad_interval(self, share_setup):
        _, _, mount = share_setup
        with pytest.raises(DataChannelError):
            MeasurementWatcher(mount, interval_s=0.0)


class TestWatcherErrorEscalation:
    def test_on_error_fires_once_after_consecutive_failures(self, share_setup):
        _, _, mount = share_setup
        watcher = MeasurementWatcher(mount, interval_s=0.01)
        failures: list[Exception] = []
        notified = threading.Event()

        def broken_poll():
            raise DataChannelError("share went away")

        watcher.poll = broken_poll

        def on_error(exc):
            failures.append(exc)
            notified.set()

        watcher.start(lambda s: None, on_error=on_error, error_threshold=3)
        try:
            assert notified.wait(timeout=5.0)
            time.sleep(0.1)  # more failing ticks must not re-notify
        finally:
            watcher.stop()
        assert len(failures) == 1
        assert watcher.failure_streak >= 3

    def test_clean_poll_resets_streak_and_rearms(self, share_setup):
        _, _, mount = share_setup
        watcher = MeasurementWatcher(mount, interval_s=0.01)
        notifications = []
        second_streak = threading.Event()
        state = {"mode": "fail", "polls": 0}

        def scripted_poll():
            state["polls"] += 1
            if state["mode"] == "fail":
                raise DataChannelError("flaky share")
            return []

        watcher.poll = scripted_poll

        def on_error(exc):
            notifications.append(exc)
            if len(notifications) == 2:
                second_streak.set()

        watcher.start(lambda s: None, on_error=on_error, error_threshold=2)
        try:
            # first streak notifies; a clean stretch resets; second streak
            # notifies again
            while len(notifications) < 1:
                time.sleep(0.005)
            state["mode"] = "ok"
            while watcher.failure_streak != 0:
                time.sleep(0.005)
            state["mode"] = "fail"
            assert second_streak.wait(timeout=5.0)
        finally:
            watcher.stop()
        assert len(notifications) == 2

    def test_bad_threshold_rejected(self, share_setup):
        _, _, mount = share_setup
        watcher = MeasurementWatcher(mount, interval_s=0.01)
        with pytest.raises(DataChannelError):
            watcher.start(lambda s: None, error_threshold=0)

    def test_on_error_exception_does_not_kill_the_loop(self, share_setup):
        _, _, mount = share_setup
        watcher = MeasurementWatcher(mount, interval_s=0.01)

        def broken_poll():
            raise DataChannelError("down")

        watcher.poll = broken_poll

        def bad_on_error(exc):
            raise RuntimeError("pager is broken too")

        watcher.start(lambda s: None, on_error=bad_on_error, error_threshold=1)
        try:
            time.sleep(0.1)
            assert watcher._thread.is_alive()
        finally:
            watcher.stop()
