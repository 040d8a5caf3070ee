"""EC-Lab-style ``.mpt`` measurement files.

The real SP200 writes text files with a header block followed by
tab-separated columns; this module reproduces that shape closely enough
that an electrochemist would recognise it, while keeping the parse strict
and the round trip lossless for everything a
:class:`~repro.chemistry.voltammogram.Voltammogram` carries.

Layout::

    EC-Lab ASCII FILE
    Nb header lines : 12

    Technique : CV
    meta.scan_rate_v_s : 0.1
    ...

    time/s<TAB>Ewe/V<TAB><I>/A<TAB>cycle number
    0.01<TAB>0.201<TAB>1.1e-07<TAB>0
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import FileFormatError
from repro.chemistry.voltammogram import Voltammogram

_SIGNATURE = "EC-Lab ASCII FILE"
_COLUMNS = "time/s\tEwe/V\t<I>/A\tcycle number"


def write_mpt(path: str | Path, voltammogram: Voltammogram) -> Path:
    """Write a voltammogram to ``path`` in ``.mpt`` form.

    Metadata values are JSON-encoded per line so arbitrary (JSON-able)
    metadata survives; non-encodable values are stringified.
    """
    path = Path(path)
    meta_lines = []
    for key, value in sorted(voltammogram.metadata.items()):
        try:
            encoded = json.dumps(value)
        except (TypeError, ValueError):
            encoded = json.dumps(str(value))
        meta_lines.append(f"meta.{key} : {encoded}")
    technique = voltammogram.metadata.get("technique", "CV")
    header = [
        _SIGNATURE,
        # signature + count line + blank + technique + metas + blank + columns
        f"Nb header lines : {len(meta_lines) + 6}",
        "",
        f"Technique : {technique}",
        *meta_lines,
        "",
        _COLUMNS,
    ]
    body = np.column_stack(
        [
            voltammogram.time_s,
            voltammogram.potential_v,
            voltammogram.current_a,
            voltammogram.cycle_index.astype(np.float64),
        ]
    )
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(header) + "\n")
        np.savetxt(handle, body, fmt=["%.6e", "%.6e", "%.6e", "%d"], delimiter="\t")
    return path


def read_mpt(source: str | Path | bytes) -> Voltammogram:
    """Parse an ``.mpt`` file, or its bytes, back into a voltammogram.

    A mount passes the bytes it fetched, so a read over the data channel
    never goes back to the disk to parse.

    Raises:
        FileFormatError: missing signature, malformed header, or bad body.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        path = f"<{len(source)} bytes of .mpt>"
        try:
            text = bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    else:
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FileFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != _SIGNATURE:
        raise FileFormatError(f"{path} is not an EC-Lab ASCII file")
    if len(lines) < 2 or not lines[1].startswith("Nb header lines :"):
        raise FileFormatError(f"{path}: missing header-count line")
    try:
        n_header = int(lines[1].split(":")[1])
    except (IndexError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad header count") from exc
    if n_header < 6 or n_header > len(lines):
        raise FileFormatError(f"{path}: header count {n_header} out of range")

    metadata: dict[str, Any] = {}
    for line in lines[2 : n_header - 1]:
        line = line.strip()
        if not line or line.startswith("Technique :"):
            continue
        if line.startswith("meta.") and " : " in line:
            key, _, raw = line.partition(" : ")
            try:
                metadata[key[len("meta.") :]] = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FileFormatError(
                    f"{path}: unparseable metadata line {line!r}"
                ) from exc

    column_line = lines[n_header - 1].strip()
    if column_line != _COLUMNS.replace("\t", "\t").strip():
        # normalise: compare field lists to be whitespace tolerant
        if column_line.split("\t") != _COLUMNS.split("\t"):
            raise FileFormatError(
                f"{path}: unexpected column header {column_line!r}"
            )

    body_lines = [line for line in lines[n_header:] if line.strip()]
    if not body_lines:
        data = np.empty((0, 4))
    else:
        try:
            data = np.loadtxt(body_lines, delimiter="\t", ndmin=2)
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad data body: {exc}") from exc
    if data.size and data.shape[1] != 4:
        raise FileFormatError(
            f"{path}: expected 4 columns, found {data.shape[1]}"
        )
    if data.size == 0:
        data = data.reshape(0, 4)
    return Voltammogram(
        time_s=data[:, 0],
        potential_v=data[:, 1],
        current_a=data[:, 2],
        cycle_index=data[:, 3].astype(np.int64),
        metadata=metadata,
    )
