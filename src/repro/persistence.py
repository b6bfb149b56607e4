"""Saving and loading built indexes, crash-safely.

The survey's §5 frames index construction as the expensive phase —
minutes to hours at scale — which makes persisting a built index across
sessions a basic adoption requirement for a GDBMS.  This module provides
a small versioned container around pickle: a magic header so stray files
fail fast, a format version for forward compatibility, and the index
class name recorded for inspection without unpickling.

Durability (format v2):

* **Atomic writes** — :func:`save_index` writes to a temp file in the
  destination directory, flushes and ``fsync``\\ s it, then atomically
  ``os.replace``\\ s it into place (and best-effort fsyncs the
  directory), so a crash mid-save leaves either the old file or the new
  one, never a torn hybrid.
* **Checksum footer** — the file ends with a SHA-256 digest of
  everything before it; :func:`load_index` verifies the digest *before*
  unpickling and raises :class:`PersistenceError` with the path and the
  expected/actual digests instead of decoding garbage.
* **One format** — the pre-checksum v1 layout is no longer read; a v1
  file raises :class:`PersistenceError` naming its version.

``persistence.read`` is a chaos injection point: an installed
:class:`~repro.resilience.ChaosPolicy` can corrupt or fail the raw read,
and the checksum machinery must turn that into a typed error.

Only load files you created: the payload is a pickle.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
from pathlib import Path

from repro.core.base import LabelConstrainedIndex, ReachabilityIndex
from repro.errors import PersistenceError
from repro.resilience.chaos import chaos_point

__all__ = [
    "PersistenceError",
    "save_index",
    "load_index",
    "peek_index_info",
    "serialized_size_bytes",
    "write_checksummed_blob",
    "read_checksummed_blob",
]

_MAGIC = b"REPRO-INDEX"
_VERSION = 2
_FOOTER_MAGIC = b"REPROSUM"
_DIGEST_BYTES = hashlib.sha256().digest_size
_FOOTER_BYTES = len(_FOOTER_MAGIC) + _DIGEST_BYTES


def write_checksummed_blob(path: str | Path, body: bytes) -> None:
    """Atomically write ``body`` + a SHA-256 checksum footer to ``path``.

    The v2 durability recipe, factored out so other durable artifacts
    (the WAL's checkpoints) share it: same-directory temp file, write +
    flush + ``fsync``, atomic ``os.replace``, best-effort directory
    fsync.  A crash mid-write leaves the old file or the new one, never
    a torn hybrid.
    """
    path = Path(path)
    footer = _FOOTER_MAGIC + hashlib.sha256(body).digest()
    directory = path.parent if str(path.parent) else Path(".")
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "wb") as sink:
            sink.write(body)
            sink.write(footer)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def read_checksummed_blob(path: str | Path, chaos: str | None = None) -> bytes:
    """Read a file written by :func:`write_checksummed_blob`, verified.

    The checksum footer is validated before the body is returned; any
    mismatch raises :class:`PersistenceError` with both digests.
    ``chaos`` optionally names an injection point to fire on the raw
    bytes, so corruption drills exercise this exact detection path.
    """
    path = Path(path)
    with open(path, "rb") as source:
        data = source.read()
    if chaos is not None:
        data = chaos_point(chaos, data)
    if len(data) < _FOOTER_BYTES or data[
        len(data) - _FOOTER_BYTES : len(data) - _DIGEST_BYTES
    ] != _FOOTER_MAGIC:
        raise PersistenceError(
            f"{path}: truncated file (checksum footer missing)"
        )
    footer_at = len(data) - _FOOTER_BYTES
    expected = data[footer_at + len(_FOOTER_MAGIC) :]
    actual = hashlib.sha256(data[:footer_at]).digest()
    if actual != expected:
        raise PersistenceError(
            f"{path}: checksum mismatch — the file is corrupt "
            f"(expected sha256 {expected.hex()}, got {actual.hex()})"
        )
    return data[:footer_at]


def save_index(
    index: ReachabilityIndex | LabelConstrainedIndex, path: str | Path
) -> None:
    """Serialise a built index (graph included) to ``path``, atomically.

    The bytes hit a same-directory temp file first (write + flush +
    ``fsync``), then ``os.replace`` moves them into place — readers of
    ``path`` never observe a partial file, even across a crash.
    """
    if not isinstance(index, (ReachabilityIndex, LabelConstrainedIndex)):
        raise PersistenceError(
            f"save_index expects an index, got {type(index).__name__}"
        )
    name = type(index).__name__.encode()
    body = (
        _MAGIC
        + _VERSION.to_bytes(2, "big")
        + len(name).to_bytes(2, "big")
        + name
        + pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    )
    write_checksummed_blob(path, body)


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds (e.g. Windows)
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def _read_header(source: io.BufferedIOBase) -> tuple[str, int]:
    magic = source.read(len(_MAGIC))
    if magic != _MAGIC:
        raise PersistenceError("not a repro index file (bad magic)")
    version = int.from_bytes(source.read(2), "big")
    if version != _VERSION:
        raise PersistenceError(
            f"unsupported index-file version {version} (supported: {_VERSION})"
        )
    name_len = int.from_bytes(source.read(2), "big")
    return source.read(name_len).decode(), version


def peek_index_info(path: str | Path) -> dict[str, object]:
    """Read the header (class name, version) without unpickling the body."""
    with open(path, "rb") as source:
        class_name, version = _read_header(source)
    return {"class_name": class_name, "version": version}


def serialized_size_bytes(
    index: ReachabilityIndex | LabelConstrainedIndex, include_graph: bool = True
) -> int:
    """The pickled size of an index, in bytes.

    A concrete counterpart to the abstract entry counts — §5 reports BFL
    index sizes in "a few hundred megabytes" at millions of vertices, and
    this is the number that claim scales down to.  With
    ``include_graph=False`` the indexed graph's own representation is
    subtracted out, approximating the pure label payload.
    """
    total = len(pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL))
    if include_graph:
        return total
    graph_bytes = len(pickle.dumps(index.graph, protocol=pickle.HIGHEST_PROTOCOL))
    return max(0, total - graph_bytes)


def load_index(path: str | Path) -> ReachabilityIndex | LabelConstrainedIndex:
    """Load an index previously written by :func:`save_index`.

    The header is checked first (bad magic and unsupported versions —
    the unchecksummed v1 layout included — fail fast and typed), then
    the checksum footer is verified before any unpickling; a mismatch
    (torn write, bit rot, injected corruption) raises
    :class:`PersistenceError` carrying the path and both digests.
    """
    path = Path(path)
    with open(path, "rb") as source:
        _read_header(source)
        payload_start = source.tell()
    payload = read_checksummed_blob(path, chaos="persistence.read")[payload_start:]
    try:
        index = pickle.loads(payload)
    except Exception as exc:
        raise PersistenceError(
            f"{path}: index payload failed to unpickle ({exc})"
        ) from exc
    if not isinstance(index, (ReachabilityIndex, LabelConstrainedIndex)):
        raise PersistenceError(
            f"file decoded to {type(index).__name__}, not an index"
        )
    return index
