"""Append-only segment log: the one module that knows segment files.

The log owns the store directory's ``segment-NNNNNN.log`` files: their names
and numbers, the framing and its CRCs, torn-tail recovery, which segment
replay starts from, and the snapshot protocol compaction writes through. The
store (store.py) owns what a body says and the state it builds in memory.

Each segment is a sequence of frames: ``u32 length | u32 crc32 | body``
(integers little-endian, crc over the body). A frame is the atomic unit of
persistence: recovery replays frames in order and truncates a torn or
corrupt tail of the newest segment, so an interrupted write leaves the store
exactly as it was before the write began. ``replay`` hands out each intact
body as its bounds in its segment's bytes, CRC-checked through a memoryview,
so no body is copied.

A snapshot segment starts with an OP_SNAPSHOT marker. ``LogWriter.snapshot``
writes it as ``segment-NNNNNN.log.tmp``, fsyncs it, renames it into place and
fsyncs the directory; only then does the log append to it and unlink the
older segments (without the directory fsync, a crash could persist an
unlink and lose the rename; Pillai et al., OSDI 2014). Replay
starts at the newest snapshot segment and opens no older one, so a crash at
any step replays the old segments or the whole snapshot: the next open
removes a tmp segment, and the next snapshot unlinks what is left of the
old ones. A snapshot that fails with an Exception removes its tmp segment,
and the log goes on appending to its old segment.
"""

from __future__ import annotations

import errno
import os
import struct
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from forge.errors import CorruptStore, StorageFull
from forge.faults import kill_point
from forge.store.records import OP_SNAPSHOT

_HEADER = struct.Struct("<II")

SEGMENT_ROLL_BYTES = 64 * 1024 * 1024


def _segment_path(root: Path, number: int) -> Path:
    return root / f"segment-{number:06d}.log"


def _number(path: Path) -> int:
    return int(path.stem.split("-")[1])


def list_segments(root: Path) -> list[Path]:
    """The segment files under ``root``, oldest first."""
    return sorted(root.glob("segment-*.log"), key=_number)


def frame(body: bytes) -> bytes:
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _sync_dir(root: Path) -> None:
    """Make the renames and unlinks done in ``root`` so far durable."""
    fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_whole(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` by one rename (the store's MANIFEST):
    the data is fsynced before the rename, and the directory after it."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _sync_dir(path.parent)


def _is_snapshot(path: Path) -> bool:
    with open(path, "rb") as f:  # the first frame's header and op byte
        return f.read(_HEADER.size + 1)[_HEADER.size:] == bytes([OP_SNAPSHOT])


def replay(root: Path) -> Iterator[tuple[bytes, int, int]]:
    """Yield ``(data, start, end)`` for each intact record body, oldest
    first: the body is ``data[start:end]``, where ``data`` holds its
    segment's bytes.

    Replay starts at the newest snapshot segment (the oldest segment when
    there is none). A damaged frame ends the newest segment, which is then
    truncated back to its last intact frame; in any other segment it raises
    CorruptStore, after the bodies before it."""
    segments = list_segments(root)
    first = next((i for i in range(len(segments) - 1, 0, -1) if _is_snapshot(segments[i])), 0)
    for i in range(first, len(segments)):
        path = segments[i]
        data = path.read_bytes()
        size = len(data)
        off = 0
        with memoryview(data) as view:
            while off + _HEADER.size <= size:
                length, crc = _HEADER.unpack_from(data, off)
                start = off + _HEADER.size
                end = start + length
                if end > size or zlib.crc32(view[start:end]) != crc:
                    break
                yield data, start, end
                off = end
        if off != size:
            if i != len(segments) - 1:
                raise CorruptStore(f"corrupt frame in {path.name} at byte {off}")
            with open(path, "r+b") as f:
                f.truncate(off)


class LogWriter:
    """Single appender over the active segment; rolls at SEGMENT_ROLL_BYTES
    and writes snapshots."""

    def __init__(self, root: Path, *, fsync: bool):
        self.root = root
        self.fsync = fsync
        for tmp in root.glob("segment-*.log.tmp"):  # a snapshot cut short by a crash
            tmp.unlink()
        segments = list_segments(root)
        self.number = _number(segments[-1]) if segments else 1
        self._file = open(_segment_path(root, self.number), "ab")

    def append(self, body: bytes) -> None:
        data = frame(body)
        try:
            self._file.write(data)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFull("log device full") from exc
            raise
        if self._file.tell() >= SEGMENT_ROLL_BYTES:
            self._switch(self.number + 1)

    def snapshot(self, bodies: Iterable[bytes]) -> None:
        """Write ``bodies``, an OP_SNAPSHOT marker's first, as the next
        segment, which the log then appends to, and unlink the older ones
        (the protocol in the module docstring). A device that fills up
        raises StorageFull, as an append does."""
        path = _segment_path(self.root, self.number + 1)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as f:
                f.writelines(map(frame, bodies))
                f.flush()
                os.fsync(f.fileno())
        except Exception as exc:
            tmp.unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
                raise StorageFull("log device full") from exc
            raise
        kill_point("log.after_snapshot_sync")
        os.replace(tmp, path)
        _sync_dir(self.root)  # the rename is durable before an old segment goes
        kill_point("log.after_snapshot_rename")
        self._switch(self.number + 1)
        for old in list_segments(self.root)[:-1]:
            kill_point("log.before_segment_unlink")
            old.unlink()

    def _switch(self, number: int) -> None:
        """Append to segment ``number`` from now on."""
        self._file.close()
        self.number = number
        self._file = open(_segment_path(self.root, number), "ab")

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._file.close()
