"""Binary cache files for preprocessing artifacts.

Each cache is a small envelope: a magic line naming the format version, a
JSON header with the hashes the payload was built from, and the payload in
the caller's `Codec` (`PICKLE` by default; the described catalog uses JSON).
A loader returns None whenever the magic or the expected header does not
match, and also when the payload does not decode (a corrupt file, a class the
code no longer has), which makes "rebuild on mismatch" the caller's one-liner.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple

VALUE_INDEX_MAGIC = b"QCWVIDX1"
CONTEXT_STORE_MAGIC = b"QCWCTXS1"
CATALOG_MAGIC = b"QCWCATL1"
_HEADER_LIMIT = 1 << 20


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def description_digest(directory: str | Path | None) -> str | None:
    """SHA-256 over the sorted `*.csv` names and bytes in `directory`, the
    files description ingestion reads; None when there is no directory."""
    if directory is None or not Path(directory).is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.csv"), key=lambda p: p.name):  # Path < is slow
        try:
            data = path.read_bytes()
        except OSError:  # ingestion skips an unreadable file, so hash it like an empty one
            data = b""
        h.update(f"{path.name}\0{len(data)}\0".encode("utf-8") + data)
    return h.hexdigest()


def config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


class Codec(NamedTuple):
    """How a payload is written to, and read back from, an open binary file."""
    dump: Callable[[object, BinaryIO], object]
    load: Callable[[BinaryIO], object]


PICKLE = Codec(lambda payload, fh: pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL), pickle.load)


def save_envelope(path: str | Path, magic: bytes, header: dict, payload, codec=PICKLE) -> None:
    """Stream the envelope into a temporary sibling, then move it into place,
    so `path` never holds a partly written file."""
    path = Path(path)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + b"\n")
            fh.write(len(header_bytes).to_bytes(8, "big"))
            fh.write(header_bytes)
            codec.dump(payload, fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_envelope(path: str | Path, magic: bytes, expected_header: dict, codec=PICKLE):
    """Payload if the file exists, its magic and header match and it decodes, else None."""
    p = Path(path)
    if not p.is_file():
        return None
    try:
        with open(p, "rb") as fh:
            if fh.read(len(magic) + 1) != magic + b"\n":
                return None
            size = int.from_bytes(fh.read(8), "big")
            if size > _HEADER_LIMIT:
                return None
            header = json.loads(fh.read(size).decode("utf-8"))
            if header != expected_header:
                return None
            return codec.load(fh)
    except Exception:  # unreadable, or corrupt in any way decoding can fail
        return None
