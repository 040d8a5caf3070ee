"""Client side of the file share: the mounted view.

A :class:`Mount` wraps a proxy to a :class:`FileShareService` and offers
pathlib-flavoured access plus an optional local cache directory, mirroring
how the paper's DGX sees the control agent's measurement folder as local
files once CIFS is mounted.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.errors import DataChannelError, ShareNotMountedError
from repro.obs.trace import child_span
from repro.rpc.proxy import Proxy
from repro.datachannel.formats import read_mpt
from repro.datachannel.share import CHUNK_SIZE, FileStat


class Mount:
    """A mounted remote share.

    Every ``read_chunk`` reply carries its chunk as a raw blob on the
    binary wire (PROTOCOLS §1.7), not as base64 inside JSON.

    Args:
        proxy: connected proxy to the share service.
        cache_dir: local directory for :meth:`fetch`; created on demand.
        read_size: request granularity for chunked reads, in bytes. The
            server clamps each ``read_chunk`` to its own ``CHUNK_SIZE``,
            so values above that are ineffective; smaller values mean
            more, smaller frames — which pipelining turns into deeper
            read-ahead on high-latency links.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            checksum-verify failures count into
            ``datachannel.verify_failures_total`` (a health-rule input).
    """

    def __init__(
        self,
        proxy: Proxy,
        cache_dir: str | Path | None = None,
        read_size: int = CHUNK_SIZE,
        metrics=None,
    ):
        if read_size < 1:
            raise ValueError(f"read_size must be >= 1, got {read_size}")
        self._proxy: Proxy | None = proxy
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.read_size = min(read_size, CHUNK_SIZE)
        self.bytes_fetched = 0
        self.metrics = metrics

    # -- lifecycle -----------------------------------------------------------
    @property
    def mounted(self) -> bool:
        return self._proxy is not None

    def unmount(self) -> None:
        """Drop the connection; further access raises."""
        if self._proxy is not None:
            self._proxy.close()
            self._proxy = None

    def _service(self) -> Proxy:
        if self._proxy is None:
            raise ShareNotMountedError("share is not mounted")
        return self._proxy

    # -- directory operations -----------------------------------------------
    def info(self) -> dict:
        return self._service().info()

    def listdir(self, relative: str = "") -> list[FileStat]:
        """Stat records for a directory."""
        return [FileStat(**record) for record in self._service().listdir(relative)]

    def stat(self, relative: str) -> FileStat:
        return FileStat(**self._service().stat(relative))

    def exists(self, relative: str) -> bool:
        return bool(self._service().exists(relative))

    # -- file access -------------------------------------------------------
    def _read_serial(
        self, service, relative: str, offset: int = 0, end: int | None = None
    ) -> list[bytes]:
        """Chunk-at-a-time fetch loop from ``offset`` to the first short
        chunk, or to ``end`` when the caller knows the file's size."""
        size = self.read_size
        chunks: list[bytes] = []
        while end is None or offset < end:
            chunk = service.read_chunk(relative, offset, size)
            if not chunk:
                break
            chunks.append(chunk)
            offset += len(chunk)
            if len(chunk) < size:
                break
        return chunks

    def _read_pipelined(
        self, service, relative: str, offset: int = 0, end: int | None = None
    ) -> list[bytes]:
        """Read-ahead fetch: every ``read_chunk`` from ``offset`` to
        ``end`` in flight at once.

        All chunk requests go down the pipe back-to-back — the whole
        file costs one round trip plus the transfers instead of one
        round trip per chunk. Without ``end`` a ``stat`` sizes the file,
        and if it grew after the stat (a measurement still being
        written), a serial tail loop picks up the extra chunks. A
        verified read passes the size its digest covers and reads no
        further.
        """
        read_size = self.read_size
        tail = end is None
        if tail:
            end = int(service.stat(relative)["size"])
        n_chunks = max(1, -(-(end - offset) // read_size))
        with service.pipeline() as pipe:
            pending = [
                pipe.call("read_chunk", relative, offset + i * read_size, read_size)
                for i in range(n_chunks)
            ]
            chunks = [p.result() for p in pending]
        # truncate at the first short/empty chunk (file shrank mid-read)
        out: list[bytes] = []
        for chunk in chunks:
            if not chunk:
                break
            out.append(chunk)
            if len(chunk) < read_size:
                break
        else:
            if tail:
                # every chunk came back full — the file may have grown
                out.extend(
                    self._read_serial(
                        service, relative, offset + n_chunks * read_size
                    )
                )
        return out

    def read_bytes(self, relative: str, verify: bool = False) -> bytes:
        """Read a whole remote file (chunked under the hood).

        When the mount's proxy was built with ``max_inflight > 1`` the
        chunk fetches are pipelined (each ``read_chunk`` is issued before
        the previous reply lands); otherwise the classic serial loop
        runs. Both paths return identical bytes.

        Args:
            verify: check the assembled bytes against the server's
                SHA-256 and raise on mismatch. The first chunk, the
                file's size and its digest arrive in one ``read_head``
                call, so a file of one chunk costs one round trip.
        """
        service = self._service()
        depth = getattr(service, "max_inflight", 1)
        pipelined = isinstance(depth, int) and depth > 1
        with child_span("datachannel.read", path=relative) as span:
            head = service.read_head(relative, self.read_size) if verify else None
            if head is not None:
                first, size = head["data"], head["size"]
                chunks = [first]
                if len(first) == self.read_size and size > len(first):
                    rest = self._read_pipelined if pipelined else self._read_serial
                    chunks += rest(service, relative, len(first), size)
            elif pipelined:
                chunks = self._read_pipelined(service, relative)
            else:
                chunks = self._read_serial(service, relative)
            data = b"".join(chunks)
            self.bytes_fetched += len(data)
            if span is not None:
                span.set_attribute("bytes", len(data))
                span.set_attribute("pipelined", pipelined)
            if head is not None:
                expected = head["sha256"]
                actual = hashlib.sha256(data).hexdigest()
                if actual != expected:
                    if self.metrics is not None:
                        self.metrics.counter(
                            "datachannel.verify_failures_total",
                            "mount reads whose SHA-256 did not match the server's",
                        ).inc(path=relative)
                    raise DataChannelError(
                        f"checksum mismatch for {relative!r}: "
                        f"{actual[:12]} != {expected[:12]}"
                    )
        return data

    def read_text(self, relative: str, encoding: str = "utf-8") -> str:
        return self.read_bytes(relative).decode(encoding)

    def fetch(self, relative: str, verify: bool = True) -> Path:
        """Copy a remote file into the cache directory; returns local path."""
        if self.cache_dir is None:
            raise DataChannelError("mount has no cache directory configured")
        return self._cache(relative, self.read_bytes(relative, verify=verify))

    def _cache(self, relative: str, data: bytes) -> Path:
        local = self.cache_dir / relative
        local.parent.mkdir(parents=True, exist_ok=True)
        local.write_bytes(data)
        return local

    def read_voltammogram(self, relative: str):
        """Fetch, verify and parse an ``.mpt`` measurement in one call.

        The bytes are checked against the server's SHA-256, written to
        the cache directory when the mount has one (as by :meth:`fetch`),
        and parsed in memory.
        """
        data = self.read_bytes(relative, verify=True)
        if self.cache_dir is not None:
            self._cache(relative, data)
        return read_mpt(data)
