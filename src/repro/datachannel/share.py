"""Server side of the file share (the CIFS stand-in).

:class:`FileShareService` is an RPC-exposed object that exports one root
directory read-only: directory listing, stat, chunked reads, checksums,
and a file's first chunk together with its size and checksum, which
opens a verified whole-file read in one round trip. Registered on its
own daemon/port it forms the data channel, physically separate from the
control channel.

Path handling is strict: every client path is resolved inside the export
root; traversal attempts raise :class:`~repro.errors.AccessDeniedError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import AccessDeniedError, RemoteFileNotFoundError
from repro.rpc.expose import expose


@dataclass(frozen=True)
class FileStat:
    """Stat record for one remote entry."""

    path: str
    size: int
    mtime: float
    is_dir: bool

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "size": self.size,
            "mtime": self.mtime,
            "is_dir": self.is_dir,
        }


#: Chunk size for streamed reads: large enough to amortise the frame
#: overhead, small enough to keep control-channel-style latencies sane
#: when a link is shared (benchmark CH1 relies on this being realistic).
CHUNK_SIZE = 256 * 1024


def _hash_rest(handle, digest) -> int:
    """Feed the rest of an open file into ``digest``; returns its length."""
    total = 0
    for block in iter(lambda: handle.read(1 << 20), b""):
        digest.update(block)
        total += len(block)
    return total


@expose
class FileShareService:
    """Read-only export of ``root``.

    Args:
        root: directory to export; must exist.
        share_name: advertised name (metadata only).
    """

    def __init__(self, root: str | Path, share_name: str = "measurements"):
        self._root = Path(root).resolve()
        if not self._root.is_dir():
            raise AccessDeniedError(f"export root {self._root} is not a directory")
        self.share_name = share_name
        self.reads_served = 0
        self.bytes_served = 0
        #: optional repro.obs.MetricsRegistry (assign after construction)
        self.metrics = None

    # -- path safety -----------------------------------------------------------
    def _resolve(self, relative: str) -> Path:
        if relative.startswith(("/", "\\")) or ":" in relative:
            raise AccessDeniedError(f"absolute paths are not allowed: {relative!r}")
        candidate = (self._root / relative).resolve()
        if candidate != self._root and self._root not in candidate.parents:
            raise AccessDeniedError(f"path escapes the share: {relative!r}")
        return candidate

    # -- exposed operations --------------------------------------------------
    def info(self) -> dict:
        """Share metadata."""
        return {"share_name": self.share_name, "root": str(self._root)}

    def listdir(self, relative: str = "") -> list[dict]:
        """Stat records of entries under ``relative`` (non-recursive)."""
        directory = self._resolve(relative) if relative else self._root
        if not directory.is_dir():
            raise RemoteFileNotFoundError(f"not a directory: {relative!r}")
        records = []
        for entry in sorted(directory.iterdir()):
            stat = entry.stat()
            records.append(
                FileStat(
                    path=str(entry.relative_to(self._root)),
                    size=stat.st_size if entry.is_file() else 0,
                    mtime=stat.st_mtime,
                    is_dir=entry.is_dir(),
                ).to_dict()
            )
        return records

    def stat(self, relative: str) -> dict:
        """Stat one entry."""
        target = self._resolve(relative)
        if not target.exists():
            raise RemoteFileNotFoundError(f"no such file: {relative!r}")
        stat = target.stat()
        return FileStat(
            path=relative,
            size=stat.st_size if target.is_file() else 0,
            mtime=stat.st_mtime,
            is_dir=target.is_dir(),
        ).to_dict()

    def exists(self, relative: str) -> bool:
        """Does the entry exist inside the share?"""
        try:
            return self._resolve(relative).exists()
        except AccessDeniedError:
            raise

    def _file(self, relative: str) -> Path:
        target = self._resolve(relative)
        if not target.is_file():
            raise RemoteFileNotFoundError(f"no such file: {relative!r}")
        return target

    def _served(self, data: bytes) -> bytes:
        self.reads_served += 1
        self.bytes_served += len(data)
        if self.metrics is not None:
            self.metrics.counter(
                "datachannel.share.reads_total", "chunk reads served"
            ).inc(share=self.share_name)
            self.metrics.counter(
                "datachannel.share.bytes_total", "bytes served"
            ).inc(len(data), share=self.share_name)
        return data

    def read_chunk(self, relative: str, offset: int, size: int = CHUNK_SIZE) -> bytes:
        """Read up to ``size`` bytes starting at ``offset``."""
        if offset < 0 or size < 0:
            raise AccessDeniedError("offset/size must be non-negative")
        with self._file(relative).open("rb") as handle:
            handle.seek(offset)
            return self._served(handle.read(min(size, CHUNK_SIZE)))

    def checksum(self, relative: str) -> str:
        """SHA-256 of the whole file (transfer-integrity check)."""
        digest = hashlib.sha256()
        with self._file(relative).open("rb") as handle:
            _hash_rest(handle, digest)
        return digest.hexdigest()

    def read_head(self, relative: str, size: int = CHUNK_SIZE) -> dict:
        """The first ``size`` bytes of a file, with the whole file's size
        and SHA-256 (``{"data", "size", "sha256"}``).

        All three are read from one open handle, so a verified mount
        read needs no ``stat`` and no ``checksum`` round trip of its own.
        """
        if size < 0:
            raise AccessDeniedError("size must be non-negative")
        with self._file(relative).open("rb") as handle:
            data = handle.read(min(size, CHUNK_SIZE))
            digest = hashlib.sha256(data)
            total = len(data) + _hash_rest(handle, digest)
        return {"data": self._served(data), "size": total, "sha256": digest.hexdigest()}
