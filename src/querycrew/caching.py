"""Cache files for preprocessing artifacts, opened by mapping, never decoded
as objects.

Each cache is one envelope file:

    magic line | 8-byte big-endian header size | JSON header | document | arrays

The header is `{"key": ..., "arrays": [[name, dtype, shape, offset], ...]}`:
the hashes the artifact was built from, and a table of named raw arrays,
each with its numpy dtype string, its shape and its byte offset from the end
of the header. The document is UTF-8 JSON with no fact that the catalog or
the key fixes (the catalog itself, the index's separator, the store's `{}`);
it runs to the first array, or to the end of the file. Header and document
are padded with spaces so that every array starts at a multiple of ALIGN
bytes and the file ends where its last array ends. The loader maps the file
read-only and views each array in place (`np.frombuffer` over an
`ACCESS_READ` map), so the arrays are not writeable and nothing is read
whole; only the header and the document are parsed. Nothing is executed.

A loader returns None whenever the magic or the key does not match, the
table does not fit the file, or `decode` raises, which makes "rebuild on
mismatch" the caller's one-liner. A truncated or extended file is a miss.
Residual risk: the loader does not read the arrays whole, so a flipped bit
inside them (the value index's band keys, say) still loads, as a different
artifact.

A cache is written to a temporary sibling and moved into place by rename,
never written in place: a reader may still map the previous file, and a
mapped file truncated under its reader faults on the next access.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

VALUE_INDEX_MAGIC = b"QCWVIDX4"
CONTEXT_STORE_MAGIC = b"QCWCTXS4"
CATALOG_MAGIC = b"QCWCATL2"
ALIGN = 64
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


def config_hash(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def save_envelope(
    path: str | Path,
    magic: bytes,
    header: dict,
    document,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Write `document` (JSON) and `arrays` (raw, as they are in memory) into
    a temporary sibling, then move it into place, so `path` never holds a
    partly written file."""
    path = Path(path)
    arrays = arrays or {}
    doc = json.dumps(
        document, ensure_ascii=False, check_circular=False, separators=(",", ":")
    ).encode("utf-8")
    table, end = [], len(doc)
    for name, array in arrays.items():
        offset = end + -end % ALIGN
        table.append([name, array.dtype.str, list(array.shape), offset])
        end = offset + array.nbytes
    head = json.dumps({"key": header, "arrays": table}, sort_keys=True).encode("utf-8")
    head += b" " * (-(len(magic) + 9 + len(head)) % ALIGN)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + b"\n" + len(head).to_bytes(8, "big") + head)
            fh.write(doc)
            end = len(doc)
            for (_name, _dtype, _shape, offset), array in zip(table, arrays.values()):
                fh.write(b" " * (offset - end))
                fh.write(np.ascontiguousarray(array).data)
                end = offset + array.nbytes
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _parts(document, arrays: dict[str, np.ndarray]):
    return document, arrays


def load_envelope(
    path: str | Path,
    magic: bytes,
    expected_header: dict,
    decode: Callable[[object, dict[str, np.ndarray]], object] = _parts,
):
    """`decode(document, arrays)` if the file exists, its magic and key match,
    its array table fits the file exactly and `decode` does not raise, else
    None. The header and the document are read; the arrays are read-only
    views of the mapped file, which stays mapped while any of them lives."""
    try:
        with open(path, "rb") as fh:
            if fh.read(len(magic) + 1) != magic + b"\n":
                return None
            size = int.from_bytes(fh.read(8), "big")
            if size > _HEADER_LIMIT:
                return None
            header = json.loads(fh.read(size))
            if header["key"] != expected_header:
                return None
            start, file_size = len(magic) + 9 + size, os.fstat(fh.fileno()).st_size
            table = header["arrays"]
            document = json.loads(fh.read(table[0][3] if table else file_size - start))
            arrays, end = {}, 0
            if table:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            for name, dtype, shape, offset in table:
                dtype = np.dtype(dtype)
                count = int(np.prod(shape, dtype=np.int64))
                if (min(shape, default=0) < 0 or offset < end
                        or start + offset + count * dtype.itemsize > file_size):
                    return None
                arrays[name] = np.frombuffer(mapped, dtype, count, start + offset).reshape(shape)
                end = offset + count * dtype.itemsize
            if table and start + end != file_size:
                return None
        return decode(document, arrays)
    except Exception:  # unreadable, or corrupt in any way parsing or decoding can fail
        return None
