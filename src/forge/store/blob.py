"""Chunked, per-chunk-compressed blob store, kept in an append-only blob log.

Blobs live beside the document log in ``blobs/``, as the frames of a log of
their own: ``segment-NNNNNN.log`` files written through log.py's
``LogWriter``, framed as the document log is (``u32 length | u32 crc32 |
body``). A frame's body is one chunk: the blob id's 16 raw bytes, the chunk
index (u32), the time the chunk was written (f64 seconds on the wall clock)
and the chunk's stored bytes. ``BlobStore.put`` writes chunks, in-process
and for uploads over the wire alike (the engine's ``put_blob`` calls it
under the engine lock, which also keeps it apart from ``collect_garbage``).
It takes only the data: every blob is cut into ``CHUNK_SIZE`` chunks and
stored with ``CODEC_ZLIB``, and the frames of its new chunks go in one
append, one write and, with fsync on, one ``fdatasync``, whatever their
count. No blob segment exists before the first put, and no blob directory
before the first put of a new store.

A map in memory serves reads, dedupe and collection: it takes
``(blob_id, index)`` to the chunk's newest frame, as ``(segment, offset,
size, written)``. Open rebuilds it by a walk that reads each frame's header
and the head of its body, never a chunk (``log.walk``), and checks no CRC; a
later frame of a chunk replaces an earlier one. A read is one ``pread`` of
the frame and a CRC check, and a frame that does not check raises
ChecksumMismatch. The pointer records everything needed to read the blob
back, chunk size and codec included; ``assemble`` rebuilds it from its
stored chunks, wherever they are read from, and re-verifies the sha-256 of
the payload, so corruption surfaces as ChecksumMismatch rather than bad
bytes. It reads a pointer of any chunk size and of either codec, so blobs
that older stores wrote with other settings (``CODEC_NONE`` chunks stored
raw) still read.

Blob ids are content-addressed (digest + chunking parameters), which makes
re-uploads of identical content idempotent: a put whose chunks are all
stored and check writes nothing, and one that finds a chunk missing or
damaged writes that chunk again.

Garbage collection (``collect_garbage``, run by compaction) drops the chunks
no live document references, but spares a chunk written within
``GC_GRACE_S`` of now: a blob is put before the document that references it,
and over the wire that gap is a whole round trip, so a compaction in between
must not take the blob. A chunk's age is its written time, on the wall
clock, not the store's clock. A put that finds its chunks already stored
sets their written time in the map to now, so re-putting an old
unreferenced blob makes it young again; that refresh lives in memory only,
and after a restart the chunk is as old as its frame says. Space comes back
by segment cleaning (Rosenblum & Ousterhout, "The Design and Implementation
of a Log-Structured File System", 1992). A segment that holds no kept chunk
is unlinked. A segment whose garbage is at least half its bytes has its kept
frames appended to the active segment (which is rolled first if it is one
of them) and synced, each copy carrying the chunk's written time from the
map, and is then unlinked; the directory is fsynced after the unlinks. So a
collection copies no more bytes than it frees. Reads run outside the engine
lock, so ``read_chunk`` and the collector's unlinks share the store's lock.

Stores written before the blob log kept one file per chunk, named
``<blob_id>.<chunk_index>``. Open appends each such file as a frame whose
written time is the file's mtime and syncs them; only then does it unlink
them and any ``.tmp`` file a crashed write left, and fsync the directory. A
crash at any step leaves files that the next open migrates again, and their
duplicate frames resolve to the newest. Once migrated, a store's blobs do
not read on a build from before the blob log.

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

import contextlib
import os
import re
import struct
import threading
import time
import zlib
from pathlib import Path

from forge.errors import ChecksumMismatch, EmptyBlob, InvalidArgument, NotFound
from forge.store import log as logio
from forge.store.types import (
    CHUNK_SIZE,
    CODEC_ZLIB,
    BlobPointer,
    blob_id_for,
    ceil_div,
    checksum_of,
)


_BLOB_ID = re.compile(r"[0-9a-f]{32}")  # the form blob_id_for gives
_CHUNK_FILE = re.compile(r"([0-9a-f]{32})\.(\d+)(\.tmp)?")  # a chunk file of the old layout
_HEAD = struct.Struct("<16sId")  # a frame body's head: raw blob id, chunk index, written time
PROBE = 4096  # bytes of a chunk compressed at level 1 to choose its level
GC_GRACE_S = 3600  # an unreferenced chunk younger than this survives collection
BATCH_BYTES = 8 * 1024 * 1024  # chunk bytes a migration or a cleaning appends at a time


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


def _check(blob_id: str, index: int) -> None:
    # ids and indexes can come off the wire
    if not (type(blob_id) is str and _BLOB_ID.fullmatch(blob_id)
            and type(index) is int and index >= 0):
        raise InvalidArgument(f"no blob chunk {blob_id!r}.{index!r}")


class BlobStore:
    def __init__(self, root: Path, *, fsync: bool = True):
        self.root = root
        self.fsync = fsync
        self._lock = threading.Lock()
        # (blob_id, index) -> (segment, offset, size, written) of its newest frame
        self._chunks: dict[tuple[str, int], tuple[int, int, int, float]] = {}
        self._sizes: dict[int, int] = {}  # segment number -> bytes of its frames
        self._readers: dict[int, int] = {}  # segment number -> read-only fd
        self._log: logio.LogWriter | None = None  # opened by the first append
        try:
            names = os.listdir(root)
        except FileNotFoundError:
            return
        if names:
            for number, offset, size, head in logio.walk(root, _HEAD.size):
                raw_id, index, written = _HEAD.unpack(head)
                self._chunks[raw_id.hex(), index] = (number, offset, size, written)
                self._sizes[number] = offset + size
            self._migrate([m for m in map(_CHUNK_FILE.fullmatch, names) if m])

    def _migrate(self, found: list[re.Match]) -> None:
        """Append the chunk files of the old layout as frames, then unlink
        them (the module docstring)."""
        if not found:
            return
        try:
            self._append_batched(
                _HEAD.pack(bytes.fromhex(match[1]), int(match[2]),
                           (self.root / match[0]).stat().st_mtime)
                + (self.root / match[0]).read_bytes()
                for match in found if not match[3])  # a .tmp was never renamed into a chunk
            for match in found:
                (self.root / match[0]).unlink()
            logio.sync_dir(self.root)
        finally:
            self.close()  # the first put opens the log again

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
        now = time.time()
        missing = []
        with self._lock:
            for index in range(ptr.chunk_count):
                key = (ptr.blob_id, index)
                if self._body(key) is None:
                    missing.append(index)
                else:
                    self._chunks[key] = self._chunks[key][:3] + (now,)  # young again
        if missing:
            raw_id = bytes.fromhex(ptr.blob_id)
            self._append([_HEAD.pack(raw_id, index, now)
                          + _deflate(data[index * CHUNK_SIZE:(index + 1) * CHUNK_SIZE])
                          for index in missing])
        return ptr

    def get(self, ptr: BlobPointer) -> bytes:
        return assemble(ptr, self.read_chunk)

    def read_chunk(self, blob_id: str, index: int) -> bytes:
        """Raw stored (possibly compressed) chunk bytes, from a frame whose
        CRC checks."""
        _check(blob_id, index)
        with self._lock:
            if (blob_id, index) not in self._chunks:
                raise NotFound(f"blob chunk {blob_id}.{index} not found")
            body = self._body((blob_id, index))
        if body is None:
            raise ChecksumMismatch(f"blob chunk {blob_id}.{index}: frame CRC mismatch")
        return bytes(body[_HEAD.size:])

    def _body(self, key: tuple[str, int]) -> memoryview | None:
        """The body of chunk ``key``'s frame, or None when the chunk is not
        stored or its frame does not check. Called under the lock."""
        entry = self._chunks.get(key)
        if entry is None:
            return None
        number, offset, size, _ = entry
        fd = self._readers.get(number)
        if fd is None:
            fd = self._readers[number] = os.open(logio.segment_path(self.root, number),
                                                 os.O_RDONLY)
        return logio.read_frame(fd, offset, size)

    def _writer(self) -> logio.LogWriter:
        if self._log is None:
            with contextlib.suppress(FileExistsError):
                self.root.mkdir()
                logio.sync_dir(self.root.parent)  # the directory is durable before its segment
            self._log = logio.LogWriter(self.root, fsync=self.fsync)
        return self._log

    def _append(self, bodies: list) -> None:
        """Append ``bodies`` as frames in one write and one sync, then point
        the chunk each one holds at its frame."""
        number, offset = self._writer().append(*bodies)
        with self._lock:
            for body in bodies:
                raw_id, index, written = _HEAD.unpack_from(body)
                size = logio.FRAME_HEADER_BYTES + len(body)
                self._chunks[raw_id.hex(), index] = (number, offset, size, written)
                offset += size
            self._sizes[number] = offset

    def _append_batched(self, bodies) -> None:
        """Append ``bodies`` as frames, about BATCH_BYTES at a time."""
        batch, size = [], 0
        for body in bodies:
            batch.append(body)
            size += len(body)
            if size >= BATCH_BYTES:
                self._append(batch)
                batch, size = [], 0
        if batch:
            self._append(batch)

    def collect_garbage(self, live_ids: set[str]) -> int:
        """Drop the chunks of blobs not in ``live_ids`` that are older than
        GC_GRACE_S, and clean the segments that leaves at least half garbage
        (the module docstring); returns the chunks dropped."""
        old = time.time() - GC_GRACE_S
        with self._lock:
            dead = [key for key, entry in self._chunks.items()
                    if key[0] not in live_ids and entry[3] < old]
            for key in dead:
                del self._chunks[key]
            kept = dict.fromkeys(self._sizes, 0)
            for number, _, size, _ in self._chunks.values():
                kept[number] += size
            victims = {number for number, size in self._sizes.items()
                       if 2 * kept[number] <= size}
            moving = sorted((entry, key) for key, entry in self._chunks.items()
                            if entry[0] in victims)
        if not victims:
            return len(dead)
        if self._writer().number in victims:
            self._log.roll()
        self._append_batched(self._copies(moving))
        with self._lock:
            for number in victims:
                fd = self._readers.pop(number, None)
                if fd is not None:
                    os.close(fd)
                del self._sizes[number]
                logio.segment_path(self.root, number).unlink()
        logio.sync_dir(self.root)
        return len(dead)

    def _copies(self, moving):
        """The bodies of the frames ``moving`` lists, each carrying its
        chunk's written time from the map. A frame that does not check is
        dropped from the map instead: no copy may give it a CRC that checks."""
        for (_, _, _, written), key in moving:
            with self._lock:
                body = self._body(key)
                if body is None:
                    del self._chunks[key]
                    continue
            yield _HEAD.pack(bytes.fromhex(key[0]), key[1], written) + body[_HEAD.size:]

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None
            for fd in self._readers.values():
                os.close(fd)
            self._readers.clear()
