"""Chunked, per-chunk-compressed blob store.

Blobs live beside the document log in ``blobs/``, one file per chunk named
``<blob_id>.<chunk_index>``. ``BlobStore.put`` is the only code that writes
chunks, in-process and for uploads over the wire alike (the engine's
``put_blob`` calls it under the engine lock). It takes only the data: every
blob is cut into ``CHUNK_SIZE`` chunks and stored with ``CODEC_ZLIB``. The
pointer records everything needed to read the blob back, chunk size and
codec included; ``assemble`` rebuilds it from its stored chunks, wherever
they are read from, and re-verifies the sha-256 of the payload, so
corruption surfaces as ChecksumMismatch rather than bad bytes. It reads a
pointer of any chunk size and of either codec, so blobs that older stores
wrote with other settings (``CODEC_NONE`` chunks stored raw) still read.

Blob ids are content-addressed (digest + chunking parameters), which makes
re-uploads of identical content idempotent.

A ``CODEC_ZLIB`` chunk is stored as one zlib stream whose level is chosen
per chunk: the chunk's first ``PROBE`` bytes are compressed at level 1, and
if that does not make them shorter the chunk is stored at level 0, otherwise
at level 6. Level 0 writes deflate stored blocks (each a LEN/NLEN header
and the raw bytes) inside the same zlib header and adler32 trailer, so
``assemble`` reads both forms, and chunks written before the probe, alike
with ``zlib.decompress`` and still detects a damaged chunk. The probe costs
a few percent of a level-6 pass and spares incompressible data (random
bytes, encoded images, packed floats) the whole pass, which gives nothing
back on them. The trade-off: a chunk whose first ``PROBE`` bytes do not
compress is stored uncompressed even if its tail would compress.
"""

from __future__ import annotations

import errno
import os
import re
import zlib
from pathlib import Path

from forge.errors import ChecksumMismatch, EmptyBlob, InvalidArgument, NotFound, StorageFull
from forge.store.types import (
    CHUNK_SIZE,
    CODEC_ZLIB,
    BlobPointer,
    blob_id_for,
    ceil_div,
    checksum_of,
)


_BLOB_ID = re.compile(r"[0-9a-f]{32}")  # the form blob_id_for gives
PROBE = 4096  # bytes of a chunk compressed at level 1 to choose its level


def _deflate(raw: bytes) -> bytes:
    """The stored form of a ``CODEC_ZLIB`` chunk: level 0 when its first
    ``PROBE`` bytes do not shrink at level 1, level 6 otherwise."""
    head = raw[:PROBE]
    return zlib.compress(raw, 6 if len(zlib.compress(head, 1)) < len(head) else 0)


def assemble(ptr: BlobPointer, read_chunk) -> bytes:
    """The verified bytes of the blob ``ptr``, from its stored chunks as
    ``read_chunk(blob_id, index)`` returns them. The pointer's codec was
    checked when it was built."""
    parts = []
    for index in range(ptr.chunk_count):
        raw = read_chunk(ptr.blob_id, index)
        if ptr.codec_id == CODEC_ZLIB:
            try:
                raw = zlib.decompress(raw)
            except zlib.error as exc:
                raise ChecksumMismatch(f"blob {ptr.blob_id}: chunk {index} does not "
                                       f"decompress: {exc}") from exc
        expected = min(ptr.chunk_size, ptr.total_size - index * ptr.chunk_size)
        if len(raw) != expected:
            raise ChecksumMismatch(f"blob {ptr.blob_id}: chunk {index} holds {len(raw)} "
                                   f"bytes, expected {expected}")
        parts.append(raw)
    data = b"".join(parts)
    if checksum_of(data) != ptr.checksum:
        raise ChecksumMismatch(f"blob {ptr.blob_id}: digest mismatch")
    return data


class BlobStore:
    def __init__(self, root: Path, *, fsync: bool = True):
        self.root = root
        self.fsync = fsync
        root.mkdir(parents=True, exist_ok=True)

    def _chunk_path(self, blob_id: str, index: int) -> Path:
        # ids and indexes can come off the wire: never let them name a path
        if not (type(blob_id) is str and _BLOB_ID.fullmatch(blob_id)
                and type(index) is int and index >= 0):
            raise InvalidArgument(f"no blob chunk {blob_id!r}.{index!r}")
        return self.root / f"{blob_id}.{index}"

    def put(self, data: bytes) -> BlobPointer:
        if not data:
            raise EmptyBlob("blobs must be non-empty")
        checksum = checksum_of(data)
        ptr = BlobPointer(
            blob_id=blob_id_for(checksum, CHUNK_SIZE, CODEC_ZLIB),
            total_size=len(data),
            chunk_count=ceil_div(len(data), CHUNK_SIZE),
            chunk_size=CHUNK_SIZE,
            codec_id=CODEC_ZLIB,
            checksum=checksum,
        )
        if self._complete(ptr):
            return ptr  # identical content already stored
        for index in range(ptr.chunk_count):
            raw = data[index * CHUNK_SIZE:(index + 1) * CHUNK_SIZE]
            self._write_chunk(ptr.blob_id, index, _deflate(raw))
        return ptr

    def get(self, ptr: BlobPointer) -> bytes:
        return assemble(ptr, self.read_chunk)

    def read_chunk(self, blob_id: str, index: int) -> bytes:
        """Raw stored (possibly compressed) chunk bytes."""
        try:
            return self._chunk_path(blob_id, index).read_bytes()
        except FileNotFoundError:
            raise NotFound(f"blob chunk {blob_id}.{index} not found") from None

    def _complete(self, ptr: BlobPointer) -> bool:
        return all(self._chunk_path(ptr.blob_id, i).exists() for i in range(ptr.chunk_count))

    def _write_chunk(self, blob_id: str, index: int, stored: bytes) -> None:
        path = self._chunk_path(blob_id, index)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(stored)
                f.flush()
                if self.fsync:
                    os.fsync(f.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFull("blob device full") from exc
            raise

    def collect_garbage(self, live_ids: set[str]) -> int:
        """Delete chunk files of blobs not in ``live_ids``; returns files removed."""
        removed = 0
        for path in self.root.iterdir():
            blob_id = path.name.split(".", 1)[0]
            if blob_id not in live_ids:
                path.unlink(missing_ok=True)
                removed += 1
        return removed
