"""Append-only segment log: the one module that knows segment files.

The log owns the store directory's ``segment-NNNNNN.log`` files: their names
and numbers, the framing and its CRCs, torn-tail recovery, which segment
replay starts from, and the snapshot protocol compaction writes through. The
store (store.py) owns what a body says and the state it builds in memory.
The blob store (blob.py) keeps its chunks in a log of the same segments
under ``blobs/``, appended through the same ``LogWriter``; it reads them
back one frame at a time (``read_frame``) and, at open, by a walk over the
frame headers (``walk``), never through ``replay``.

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

The segment the log appends to keeps zeros ahead of its last frame, so that
an append writes its frame over them in place (``os.pwrite`` at the log's end
offset) and ``os.fdatasync`` commits the frame without a new file size
(with fsync off, the same write without the sync). A frame that would pass
the zeros extends the file by whole steps of EXTEND_BYTES, the frame and the
zeros in one write and one sync; nothing allocates before the first append
that needs it. One append may carry several frames (a blob put's chunks),
still in one write and one sync. No frame has an empty body, so replay
reads a zero length as a damaged frame: at the end of the newest segment
the padding is cut with a torn tail, and anywhere else it raises
CorruptStore. So no segment replay reads ends in zeros unless it is the
newest: ``close`` cuts its file back to its last frame, and a roll cuts and
fsyncs the old segment before it creates the next one and fsyncs the
directory (the segments a snapshot supersedes are never read again). A
closed log holds its frames and nothing else.
"""

from __future__ import annotations

import contextlib
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
FRAME_HEADER_BYTES = _HEADER.size

SEGMENT_ROLL_BYTES = 64 * 1024 * 1024
EXTEND_BYTES = 64 * 1024  # zeros a segment grows by at a time: one 150-byte put in ~430


def segment_path(root: Path, number: int) -> Path:
    return root / f"segment-{number:06d}.log"


def _number(path: Path) -> int:
    return int(path.stem.split("-")[1])


def list_segments(root: Path) -> list[Path]:
    """The segment files under ``root``, oldest first."""
    return sorted(root.glob("segment-*.log"), key=_number)


def frame(body: bytes) -> bytes:
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def sync_dir(root: Path) -> None:
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
    sync_dir(path.parent)


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
    CorruptStore, after the bodies before it. A zero length, which the
    padding ahead of an unclosed log's end reads as, is damage."""
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
                if not length or end > size or zlib.crc32(view[start:end]) != crc:
                    break
                yield data, start, end
                off = end
        if off != size:
            if i != len(segments) - 1:
                raise CorruptStore(f"corrupt frame in {path.name} at byte {off}")
            with open(path, "r+b") as f:
                f.truncate(off)


def walk(root: Path, head: int) -> Iterator[tuple[int, int, int, bytes]]:
    """Yield ``(number, offset, size, first)`` for each frame in the segments
    under ``root``, oldest first: the frame is the ``size`` bytes at
    ``offset`` in segment ``number``, and ``first`` is the first ``head``
    bytes of its body. Only those bytes and the frame's header are read, and
    no CRC is checked. A zero length, a body shorter than ``head`` or a frame
    that runs past its file is damage, handled as ``replay`` handles it: it
    ends the newest segment, which is truncated there, and raises
    CorruptStore in any other."""
    segments = list_segments(root)
    for i, path in enumerate(segments):
        number = _number(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            off = 0
            while off + _HEADER.size + head <= size:
                data = os.pread(fd, _HEADER.size + head, off)
                length = _HEADER.unpack_from(data)[0]
                end = off + _HEADER.size + length
                if not length or length < head or end > size:
                    break
                yield number, off, end - off, data[_HEADER.size:]
                off = end
        finally:
            os.close(fd)
        if off != size:
            if i != len(segments) - 1:
                raise CorruptStore(f"damaged frame in {path.name} at byte {off}")
            os.truncate(path, off)


def read_frame(fd: int, offset: int, size: int) -> memoryview | None:
    """The body of the ``size``-byte frame at ``offset`` in the file ``fd``,
    read in one ``pread``, or None when the frame's length or CRC does not
    check."""
    data = os.pread(fd, size, offset)
    if len(data) < _HEADER.size:
        return None
    length, crc = _HEADER.unpack_from(data)
    body = memoryview(data)[_HEADER.size:]
    return body if length == len(body) and zlib.crc32(body) == crc else None


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    """Write all of ``data`` at ``offset``, from where a short write stopped."""
    done = os.pwrite(fd, data, offset)
    while done < len(data):
        done += os.pwrite(fd, data[done:], offset + done)


class LogWriter:
    """Single appender over the active segment; rolls at SEGMENT_ROLL_BYTES
    and writes snapshots. ``_end`` is where the next frame goes, and the
    file's zeros run from there to ``_allocated``."""

    def __init__(self, root: Path, *, fsync: bool):
        self.root = root
        self.fsync = fsync
        for tmp in root.glob("segment-*.log.tmp"):  # a snapshot cut short by a crash
            tmp.unlink()
        segments = list_segments(root)
        self._switch(_number(segments[-1]) if segments else 1)
        if not segments:
            sync_dir(root)  # the first segment's name is durable before its first frame

    def append(self, *bodies: bytes) -> tuple[int, int]:
        """Frame ``bodies`` and append them in one write and, with fsync on,
        one sync. Returns the segment number and the offset of the first
        frame; the others follow it in the same segment."""
        data = b"".join(map(frame, bodies))
        start = self._end
        end = start + len(data)
        try:
            if end <= self._allocated:
                _pwrite_all(self._fd, data, start)
            else:
                steps = -(-(end - self._allocated) // EXTEND_BYTES)
                allocated = self._allocated + steps * EXTEND_BYTES
                _pwrite_all(self._fd, data + bytes(allocated - end), start)
                self._allocated = allocated
            if self.fsync:
                os.fdatasync(self._fd)
        except OSError as exc:
            # the frames are not the store's: cut them and the zeros away, so
            # no reopen replays them and the next append starts here again
            with contextlib.suppress(OSError):
                os.ftruncate(self._fd, start)
            self._allocated = start
            if exc.errno == errno.ENOSPC:
                raise StorageFull("log device full") from exc
            raise
        self._end = end
        number = self.number
        if end >= SEGMENT_ROLL_BYTES:
            self.roll()
        return number, start

    def roll(self) -> None:
        """Append to a new segment from now on. The old one ends at its last
        frame, durably, before the next exists, and the next one's name is
        durable before its first frame."""
        self._cut()
        os.fsync(self._fd)
        os.close(self._fd)
        self._switch(self.number + 1)
        sync_dir(self.root)

    def snapshot(self, bodies: Iterable[bytes]) -> None:
        """Write ``bodies``, an OP_SNAPSHOT marker's first, as the next
        segment, which the log then appends to, and unlink the older ones
        (the protocol in the module docstring). A device that fills up
        raises StorageFull, as an append does."""
        path = segment_path(self.root, self.number + 1)
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
        sync_dir(self.root)  # the rename is durable before an old segment goes
        kill_point("log.after_snapshot_rename")
        os.close(self._fd)  # replay no longer reads the old segments
        self._switch(self.number + 1)
        for old in list_segments(self.root)[:-1]:
            kill_point("log.before_segment_unlink")
            old.unlink()

    def _cut(self) -> None:
        """Drop the zeros after the last frame."""
        if self._allocated > self._end:
            os.ftruncate(self._fd, self._end)
            self._allocated = self._end

    def _switch(self, number: int) -> None:
        """Append to segment ``number``, created if it does not exist, from
        now on."""
        self.number = number
        self._fd = os.open(segment_path(self.root, number), os.O_WRONLY | os.O_CREAT, 0o666)
        self._end = self._allocated = os.fstat(self._fd).st_size

    def close(self) -> None:
        if self._fd >= 0:
            self._cut()
            if self.fsync:
                os.fsync(self._fd)
            os.close(self._fd)
            self._fd = -1
