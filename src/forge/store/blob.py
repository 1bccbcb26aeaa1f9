"""Chunked, per-chunk-compressed blob store.

Blobs live beside the document log in ``blobs/``, one file per chunk named
``<blob_id>.<chunk_index>``. The pointer records everything needed to read
the blob back; a full read always re-verifies the sha-256 of the assembled
payload, so corruption surfaces as ChecksumMismatch rather than bad bytes.

Blob ids are content-addressed (digest + chunking parameters), which makes
re-uploads of identical content idempotent.
"""

from __future__ import annotations

import errno
import os
import re
import zlib
from pathlib import Path

from forge.errors import ChecksumMismatch, EmptyBlob, InvalidArgument, NotFound, StorageFull
from forge.store.types import (
    CODEC_NONE,
    CODEC_ZLIB,
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    BlobPointer,
    blob_id_for,
    ceil_div,
    checksum_of,
)


_BLOB_ID = re.compile(r"[0-9a-f]{32}")  # the form blob_id_for gives


def compress_chunk(raw: bytes, codec_id: int) -> bytes:
    if codec_id == CODEC_NONE:
        return raw
    if codec_id == CODEC_ZLIB:
        return zlib.compress(raw, 6)
    raise InvalidArgument(f"unknown codec_id {codec_id}")


def decompress_chunk(stored: bytes, codec_id: int, expected_len: int) -> bytes:
    if codec_id == CODEC_NONE:
        raw = stored
    elif codec_id == CODEC_ZLIB:
        try:
            raw = zlib.decompress(stored)
        except zlib.error as exc:
            raise ChecksumMismatch(f"chunk does not decompress: {exc}") from exc
    else:
        raise InvalidArgument(f"unknown codec_id {codec_id}")
    if len(raw) != expected_len:
        raise ChecksumMismatch(f"chunk length {len(raw)} != expected {expected_len}")
    return raw


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

    def put(self, data: bytes, chunk_size: int, codec_id: int) -> BlobPointer:
        if not data:
            raise EmptyBlob("blobs must be non-empty")
        if not (MIN_CHUNK_SIZE <= chunk_size <= MAX_CHUNK_SIZE):
            raise InvalidArgument(
                f"chunk_size must be within [{MIN_CHUNK_SIZE}, {MAX_CHUNK_SIZE}]")
        checksum = checksum_of(data)
        ptr = BlobPointer(
            blob_id=blob_id_for(checksum, chunk_size, codec_id),
            total_size=len(data),
            chunk_count=ceil_div(len(data), chunk_size),
            chunk_size=chunk_size,
            codec_id=codec_id,
            checksum=checksum,
        )
        if self._complete(ptr):
            return ptr  # identical content already stored
        for index in range(ptr.chunk_count):
            raw = data[index * chunk_size:(index + 1) * chunk_size]
            self._write_chunk(ptr.blob_id, index, compress_chunk(raw, codec_id))
        return ptr

    def put_prechunked(self, chunks: list[bytes], chunk_size: int, codec_id: int,
                       total_size: int, checksum: bytes) -> BlobPointer:
        """Store already-compressed chunks (the wire path); verifies the digest."""
        data = b"".join(
            decompress_chunk(c, codec_id,
                             min(chunk_size, total_size - i * chunk_size))
            for i, c in enumerate(chunks))
        if len(data) != total_size or checksum_of(data) != checksum:
            raise ChecksumMismatch("uploaded chunks do not match the declared digest")
        if not data:
            raise EmptyBlob("blobs must be non-empty")
        ptr = BlobPointer(
            blob_id=blob_id_for(checksum, chunk_size, codec_id),
            total_size=total_size,
            chunk_count=len(chunks),
            chunk_size=chunk_size,
            codec_id=codec_id,
            checksum=checksum,
        )
        if not self._complete(ptr):
            for index, stored in enumerate(chunks):
                self._write_chunk(ptr.blob_id, index, stored)
        return ptr

    def get(self, ptr: BlobPointer) -> bytes:
        parts = []
        for index in range(ptr.chunk_count):
            expected = min(ptr.chunk_size, ptr.total_size - index * ptr.chunk_size)
            parts.append(decompress_chunk(self.read_chunk(ptr.blob_id, index),
                                          ptr.codec_id, expected))
        data = b"".join(parts)
        if len(data) != ptr.total_size:
            raise ChecksumMismatch(
                f"blob {ptr.blob_id}: reassembled {len(data)} bytes, expected {ptr.total_size}")
        if checksum_of(data) != ptr.checksum:
            raise ChecksumMismatch(f"blob {ptr.blob_id}: digest mismatch")
        return data

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
