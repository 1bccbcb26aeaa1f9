import contextlib
import hashlib
import struct
import sys
import threading
import zlib
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from forge.clock import FakeClock
from forge.engine import Forge
from forge.nn import clear_lambdas
from forge.store import CODEC_NONE, BlobPointer
from forge.store.log import list_segments
from forge.store.types import blob_id_for
from forge.wire import ForgeClient, ForgeServer


@pytest.fixture(autouse=True)
def _clean_registries():
    from forge import faults
    from forge.handlers import clear_user_fns

    yield
    faults.disarm_all()
    clear_lambdas()
    clear_user_fns()


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def engine(tmp_path, clock):
    eng = Forge(tmp_path / "store", create=True, clock=clock, fsync=False)
    yield eng
    eng.close()


@pytest.fixture
def wire_pair(engine):
    server = ForgeServer(engine, port=0)
    server.start()
    client = ForgeClient(*server.address)
    yield engine, server, client
    client.close()
    server.stop()


@pytest.fixture(params=["local", "wire"])
def api(request, engine):
    """The same operation surface over both transports (criterion: transport
    transparency)."""
    if request.param == "local":
        yield engine
        return
    server = ForgeServer(engine, port=0)
    server.start()
    client = ForgeClient(*server.address)
    yield client
    client.close()
    server.stop()


def make_engine(path, clock=None):
    return Forge(path, create=True, clock=clock or FakeClock(), fsync=False)


def _frames(segment: Path):
    """``(offset, body)`` of each intact frame of ``segment``, as replay
    walks them, up to the first damaged one; cuts nothing."""
    data, off = segment.read_bytes(), 0
    while off + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, off)
        end = off + 8 + length
        if not length or end > len(data) or zlib.crc32(data[off + 8:end]) != crc:
            break
        yield off, data[off + 8:end]
        off = end


def log_bytes(path) -> int:
    """The bytes of the intact frames in the segments of the store at
    ``path``. A live log keeps zeros ahead of its end, so its file sizes
    count more than were appended; this walks each segment's frames, as
    replay does, and cuts nothing."""
    return sum(8 + len(body) for segment in list_segments(Path(path))
               for _, body in _frames(segment))


def stored_chunks(path) -> list[tuple[str, int]]:
    """``(blob_id, index)`` of each intact frame in the blob log of the store
    at ``path``, sorted; a chunk stored twice shows twice."""
    return sorted((body[:16].hex(), int.from_bytes(body[16:20], "little"))
                  for segment in list_segments(Path(path) / "blobs")
                  for _, body in _frames(segment))


def flip_stored_byte(store, blob_id: str, index: int, at: int) -> None:
    """Flip one bit of byte ``at`` of chunk ``index``'s stored bytes, where
    its frame lies in the blob log of the open ``store``."""
    number, offset, _, _ = store.blobs._chunks[blob_id, index]
    with open(store.path / "blobs" / f"segment-{number:06d}.log", "r+b") as f:
        f.seek(offset + 8 + 28 + at)
        byte = f.read(1)[0]
        f.seek(-1, 1)
        f.write(bytes([byte ^ 0x01]))


def write_raw_blob(blobs: Path, data: bytes, chunk_size: int = 4096) -> BlobPointer:
    """Write by hand, into the ``blobs/`` directory of a closed store, the
    chunk files of a ``CODEC_NONE`` blob (chunks stored raw) with
    ``chunk_size`` chunks, as stores wrote them before every put used
    ``CODEC_ZLIB`` and one chunk size, one file per chunk; the next open
    migrates them into the blob log."""
    checksum = hashlib.sha256(data).digest()
    ptr = BlobPointer(blob_id=blob_id_for(checksum, chunk_size, CODEC_NONE),
                      total_size=len(data), chunk_count=-(-len(data) // chunk_size),
                      chunk_size=chunk_size, codec_id=CODEC_NONE, checksum=checksum)
    blobs.mkdir(exist_ok=True)
    for index in range(ptr.chunk_count):
        (blobs / f"{ptr.blob_id}.{index}").write_bytes(
            data[index * chunk_size:(index + 1) * chunk_size])
    return ptr


@contextlib.contextmanager
def over_transport_of(api, engine):
    """``engine`` reached the way ``api`` reaches its own: in-process, or
    over TCP."""
    if isinstance(api, Forge):
        yield engine
        return
    server = ForgeServer(engine, port=0)
    server.start()
    client = ForgeClient(*server.address)
    try:
        yield client
    finally:
        client.close()
        server.stop()


class AgentHarness:
    """Threads running agents/master against an api, with clean shutdown."""

    def __init__(self):
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []
        self.errors: list[BaseException] = []

    def spawn(self, target, *args, **kwargs):
        def wrapped():
            try:
                target(*args, stop=self.stop, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - collected for asserts
                self.errors.append(exc)

        thread = threading.Thread(target=wrapped, daemon=True)
        thread.start()
        self.threads.append(thread)
        return thread

    def shutdown(self, timeout=5.0):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout)


@pytest.fixture
def harness():
    h = AgentHarness()
    yield h
    h.shutdown()
