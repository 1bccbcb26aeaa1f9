"""The wire layer: the op table against the engine, transport parity for calls
no other test makes, argument checks on both sides, protocol errors, and
garbage frames thrown at a live server."""

import errno
import inspect
import json
import random
import re
import socket
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import click
import pytest
from conftest import flip_stored_byte, log_bytes, make_engine, stored_chunks, write_raw_blob
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forge.cli import _parse_addr
from forge.clock import FakeClock
from forge.engine import Forge
from forge.errors import (
    ChecksumMismatch,
    FrameTooLarge,
    InvalidArgument,
    NotFound,
    QuerySyntaxError,
    StaleLease,
    ViewNotFound,
)
from forge.query import parse
from forge.dataset import BatchCursor, DatasetView
from forge.store import CHUNK_SIZE, Document, ScanCursor, records
from forge.store.log import frame
from forge.store.types import checksum_of
from forge.wire import ForgeClient, ForgeServer, default_address
from forge.wire import protocol as P
from forge.wire.server import _HANDLERS
from forge.workflow import Task, output_document

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import SWITCH_OPCODE  # noqa: E402

LOCAL_ONLY = {"compact", "model_cache_stats"}
BLOB_OPS = (P.BLOB_PUT_BEGIN, P.BLOB_PUT_CHUNK, P.BLOB_PUT_COMMIT, P.BLOB_GET_CHUNK)
MLP = {"input_dims": [3], "layers": [{"name": "out", "kind": "dense", "out_units": 2}]}
TTL = 5_000
# keys and strings of the tagged form, so that malformed tagged values come up
TAGGED = st.sampled_from([P.TYPE_KEY, "items", "hex", "text", "tuple", "dict", "bytes",
                          "TagQuery", "Task", "BlobPointer", "ScanCursor"])


def _shape(fn):
    """Parameter names, kinds and defaults: what a caller can pass."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


# --- the op table -----------------------------------------------------------------

def test_op_table_matches_the_engine():
    for op in P.OPS:
        assert callable(getattr(Forge, op.name, None)), op.name
        assert op.tail in (None, P.RESULT, P.RESULT_FIRST) or op.tail in op.names, op
        assert (op.tail is None) == (op.codec is None), op
    public = {name for name, value in vars(Forge).items()
              if callable(value) and not name.startswith("_")}
    assert LOCAL_ONLY <= public
    for name in sorted(public - LOCAL_ONLY):
        assert name in vars(ForgeClient), f"ForgeClient lacks {name}"
        assert _shape(getattr(ForgeClient, name)) == _shape(getattr(Forge, name)), name
    codes = [op.code for op in P.OPS] + list(BLOB_OPS)
    assert len(codes) == len(set(codes))
    assert max(codes) < SWITCH_OPCODE
    assert set(_HANDLERS) == set(codes)


@pytest.mark.parametrize("call", [
    lambda api: api.lease_task("agent"),
    lambda api: api.lease_task("agent", TTL, None, "extra"),
    lambda api: api.lease_task("agent", TTL, colour="red"),
    lambda api: api.heartbeat("t", "agent", TTL, task_id="t"),
    lambda api: api.submit_task("user_fn"),
    lambda api: api.complete_task("t", "agent", "ok", None, (), []),
], ids=["missing", "too_many", "unknown", "twice", "keyword_only", "keyword_only_tail"])
def test_bad_arguments_raise_type_error_before_sending(api, call):
    with pytest.raises(TypeError):
        call(api)
    assert getattr(api, "_sock", None) is None  # the client never connected


VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.binary(max_size=8) | TAGGED,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6) | TAGGED, inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(value=VALUES)
def test_head_values_round_trip(value):
    """Tuples, bytes and dicts that use the tag key of their own come back
    as they went, with their types."""
    view = DatasetView("v", parse('split = "train"'), 1)
    task = Task("t", "user_fn", "", "", "", params={"n": 1}, depends_on=("a", "b"))
    head = {"value": value, "objects": [view, task, ScanCursor(3, "k")]}
    back, _ = P.split_payload(P.pack_message(1, 0, head)[P.HEADER_SIZE:])
    assert back == head
    assert _typed(back) == _typed(head)


def _typed(value):
    """``value`` with the type of every part spelled out (1 is not 1.0, a
    tuple is not a list) and dict order left out."""
    if isinstance(value, dict):
        return "dict", sorted((k, _typed(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    return type(value).__name__, value


# --- transport parity for calls no other test makes ---------------------------------

def test_info(api):
    api.create_index("split")
    info = api.info()
    assert info["format_version"] == 1
    assert info["indexes"] == ["split"]
    assert info["inline_threshold"] > 0 and info["chunk_size"] == CHUNK_SIZE


def test_get_view_and_list_views(api):
    defined = api.define_view("train", 'split = "train"')
    api.define_view("all", "")
    assert api.get_view("train") == defined
    assert api.get_view("train").query == parse('split = "train"')
    assert api.get_view("all").query.is_match_all
    assert api.list_views() == ["all", "train"]
    with pytest.raises(ViewNotFound):
        api.get_view("missing")


def test_list_models(api):
    assert api.list_models() == []
    api.register_model("b", MLP)
    api.register_model("a", MLP)
    assert api.list_models() == ["a", "b"]


def test_list_tasks(api):
    api.submit_task(kind="user_fn", task_id="solo", params={"n": 1})
    api.submit_plan({"plan_id": "p", "tasks": [
        {"task_id": "p-root", "kind": "user_fn"},
        {"task_id": "p-leaf", "kind": "user_fn", "depends_on": ["p-root"]}]})
    tasks = api.list_tasks()
    assert [t.task_id for t in tasks] == ["p-leaf", "p-root", "solo"]
    assert tasks == [api.get_task(t.task_id) for t in tasks]
    leaf = api.get_task("p-leaf")
    assert leaf.depends_on == ("p-root",) and leaf.plan_id == "p"
    assert api.get_task("solo").params == {"n": 1}
    assert [t.task_id for t in api.list_tasks("p")] == ["p-leaf", "p-root"]
    assert api.list_tasks("nope") == []


def test_heartbeat(api, clock):
    api.submit_task(kind="user_fn", task_id="t")
    assert api.lease_task("agent", TTL).task_id == "t"
    clock.advance(TTL - 1)
    api.heartbeat("t", "agent", TTL)
    assert api.get_task("t").lease_until == clock.now_ms() + TTL
    clock.advance(TTL - 1)
    assert api.lease_task("other", TTL) is None  # the heartbeat kept the lease
    with pytest.raises(StaleLease):
        api.heartbeat("t", "other", TTL)


@pytest.mark.parametrize("transport", ["local", "wire"])
def test_a_log_of_bare_frames_opens_and_appends_after_them(tmp_path, transport):
    """A log that holds its frames and nothing after them, as a closed
    store's log does and as every log did before the log kept zeros ahead
    of its end, opens over both transports; closed again, it holds those
    bytes and then the frame of the put made through it."""
    path = tmp_path / "store"
    make_engine(path).close()
    segment = path / "segment-000001.log"
    old = b"".join(frame(records.encode_doc_op(records.OP_PUT, seq, 0, None,
                                              Document(key=f"k{seq}", payload=b"v")))
                   for seq in (1, 2))
    segment.write_bytes(old)
    engine = Forge(path, clock=FakeClock(), fsync=False)
    server = ForgeServer(engine, port=0) if transport == "wire" else None
    if server:
        server.start()
    api = ForgeClient(*server.address) if server else engine
    try:
        assert [api.get_document(f"k{seq}").payload for seq in (1, 2)] == [b"v", b"v"]
        api.put_document(Document(key="k3", payload=b"w"))
    finally:
        if server:
            api.close()
            server.stop()
        engine.close()
    data = segment.read_bytes()
    assert data.startswith(old) and log_bytes(path) == len(data) > len(old)
    with Forge(path, clock=FakeClock(), fsync=False) as engine:
        assert engine.get_document("k3").payload == b"w"


# --- protocol errors ----------------------------------------------------------------

def test_protocol_error_drops_the_connection(wire_pair):
    """A response over the frame cap makes the server answer with a protocol
    error and close; the client's next call must reconnect, not fail."""
    engine, _, client = wire_pair
    payload = b"x" * 15_000
    for i in range(P.MAX_PAYLOAD // len(payload) + 32):
        engine.put_document(Document(key=f"d{i:05d}", payload=payload,
                                     tags={"split": "big"}))
    engine.define_view("big", 'split = "big"')
    with pytest.raises(FrameTooLarge):
        client.view_slice("big")
    assert client.lease_task("agent", TTL) is None
    assert client.info()["format_version"] == 1


def test_blob_chunks_are_read_only_from_the_store(wire_pair, tmp_path):
    """A chunk request names a blob id and an index, never a path."""
    _, _, client = wire_pair
    (tmp_path / "secret.txt").write_bytes(b"not a blob")
    for blob_id, index in [(str(tmp_path / "secret"), "txt"),
                           ("../secret", "txt"), ("0" * 32, -1), ("0" * 32, "0")]:
        with pytest.raises(InvalidArgument):
            client._call(P.BLOB_GET_CHUNK, {"blob_id": blob_id, "index": index})


# --- blob uploads: one write path, scoped to a connection ---------------------------

@pytest.mark.parametrize("chunk_size", [16, 4 * 1024 - 1, 4 * 1024 * 1024 + 1])
def test_put_blob_chunk_size_bounds(api, engine, chunk_size):
    """There is no chunk-size setting: on both transports a chunk size from
    an older caller is a TypeError, raised before anything is stored."""
    for args, kwargs in [((chunk_size,), {}), ((), {"chunk_size": chunk_size})]:
        with pytest.raises(TypeError):
            api.put_blob(b"x" * 100, *args, **kwargs)
    assert stored_chunks(engine.store.path) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_wire_and_local_put_blob_store_the_same_blob(wire_pair, seed):
    engine, _, client = wire_pair
    data = random.Random(seed).randbytes(5 * 256 * 1024 + 17)  # 6 chunks
    remote = client.put_blob(data)
    chunks = stored_chunks(engine.store.path)
    assert remote == engine.put_blob(data)
    assert remote.chunk_count == 6 and len(chunks) == 6
    assert stored_chunks(engine.store.path) == chunks
    assert client.get_blob(remote) == engine.get_blob(remote) == data


def test_corrupted_chunk_read_over_the_wire_raises(tmp_path):
    """A flipped byte in a raw chunk that an older store wrote surfaces as
    ChecksumMismatch over the wire too."""
    path = tmp_path / "store"
    make_engine(path).close()
    data = random.Random(5).randbytes(50_000)
    ptr = write_raw_blob(path / "blobs", data)
    with Forge(path, clock=FakeClock(), fsync=False) as engine:
        server = ForgeServer(engine, port=0)
        server.start()
        try:
            with ForgeClient(*server.address) as client:
                assert client.get_blob(ptr) == data
                flip_stored_byte(engine.store, ptr.blob_id, 3, 100)
                with pytest.raises(ChecksumMismatch):
                    client.get_blob(ptr)
        finally:
            server.stop()


def test_wire_blob_write_waits_for_the_engine_lock(wire_pair):
    """Chunks are written under the engine lock, so they cannot interleave
    with compaction's garbage collection."""
    engine, _, client = wire_pair
    done = threading.Event()
    with engine._lock:
        thread = threading.Thread(target=lambda: (client.put_blob(b"y" * 600_000),
                                                  done.set()))
        thread.start()
        assert not done.wait(0.5)
        assert stored_chunks(engine.store.path) == []
    thread.join(10)
    assert done.is_set() and not thread.is_alive()
    assert len(stored_chunks(engine.store.path)) == 3


def test_blob_reads_run_beside_compactions_that_clean_their_segment(wire_pair):
    """One thread reads a live blob in-process, another over the wire
    (``BLOB_GET_CHUNK``), neither under the engine lock, while each
    compaction cleans the segment that holds it: every read returns the
    blob's bytes."""
    engine, _, client = wire_pair
    data = random.Random(50).randbytes(300_000)  # two chunks
    ptr = engine.put_blob(data)
    engine.put_document(Document(key="keeper", payload=ptr))
    stop, errors, reads = threading.Event(), [], [0, 0]

    def reader(slot, get_blob):
        try:
            while not stop.is_set():
                assert get_blob(ptr) == data
                reads[slot] += 1
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(0, engine.get_blob)),
               threading.Thread(target=reader, args=(1, client.get_blob))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    for thread in threads:
        thread.start()
    homes = set()
    try:
        for i in range(30):
            orphan = engine.put_blob(random.Random(100 + i).randbytes(400_000))
            chunks = engine.store.blobs._chunks
            for index in range(orphan.chunk_count):
                chunks[orphan.blob_id, index] = chunks[orphan.blob_id, index][:3] + (0.0,)
            engine.compact()
            homes.add(chunks[ptr.blob_id, 0][0])
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and min(reads) > 0
    assert len(homes) == 30  # every compaction moved the blob to a new segment
    assert stored_chunks(engine.store.path) == [(ptr.blob_id, 0), (ptr.blob_id, 1)]


def test_uploads_end_with_their_connection(wire_pair):
    _, server, _ = wire_pair
    slice_ = b"z" * 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ForgeClient(*server.address) as client:
            for _ in range(3):
                head, _ = client._call(P.BLOB_PUT_BEGIN, {})
                client._call(P.BLOB_PUT_CHUNK, {"upload_id": head["upload_id"], "index": 0},
                             slice_)
            assert tracemalloc.get_traced_memory()[0] - before >= 3 * len(slice_)
        deadline = time.monotonic() + 10
        while (tracemalloc.get_traced_memory()[0] - before > len(slice_)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert tracemalloc.get_traced_memory()[0] - before <= len(slice_)
    finally:
        tracemalloc.stop()


def test_upload_belongs_to_its_connection(wire_pair):
    _, server, client = wire_pair
    head, _ = client._call(P.BLOB_PUT_BEGIN, {})
    with ForgeClient(*server.address) as other:
        with pytest.raises(NotFound):
            other._call(P.BLOB_PUT_CHUNK, {"upload_id": head["upload_id"], "index": 0}, b"a")
    with pytest.raises(InvalidArgument):  # slices come in order
        client._call(P.BLOB_PUT_CHUNK, {"upload_id": head["upload_id"], "index": 1}, b"a")
    client._call(P.BLOB_PUT_CHUNK, {"upload_id": head["upload_id"], "index": 0}, b"a")
    with pytest.raises(ChecksumMismatch):
        client._call(P.BLOB_PUT_COMMIT, {"upload_id": head["upload_id"], "total_size": 2,
                                         "checksum": checksum_of(b"a").hex()})
    with pytest.raises(NotFound):  # a failed commit ends the upload too
        client._call(P.BLOB_PUT_COMMIT, {"upload_id": head["upload_id"], "total_size": 1,
                                         "checksum": checksum_of(b"a").hex()})


@pytest.mark.parametrize("head", [
    {"chunk_size": "abc", "codec_id": 0}, {"chunk_size": 4096.0, "codec_id": 0},
    {"chunk_size": True, "codec_id": 0}, {"chunk_size": None, "codec_id": 0},
    {"chunk_size": 4096, "codec_id": "0"}, {"chunk_size": 4096, "codec_id": False},
    {"chunk_size": [4096], "codec_id": 0},
    {"chunk_size": 4096, "codec_id": 0}, {"chunk_size": 4096}, {"codec_id": 1},
])
def test_upload_heads_are_typed(wire_pair, head):
    """An upload head is empty. One that still carries ``chunk_size`` or
    ``codec_id``, of any type, is ``invalid_argument`` naming the extra
    arguments, and the connection survives."""
    _, _, client = wire_pair
    with pytest.raises(InvalidArgument) as info:
        client._call(P.BLOB_PUT_BEGIN, head)
    assert str(info.value) == f"expected no arguments, got {sorted(head)}"
    assert client.get_blob(client.put_blob(b"ok" * 10)) == b"ok" * 10


@pytest.mark.parametrize("codec_id", [-1, 2, 300])
def test_put_blob_rejects_an_unknown_codec(api, engine, codec_id):
    """There is no codec setting: on both transports a codec from an older
    caller is a TypeError, raised before anything is stored."""
    for args, kwargs in [((4096, codec_id), {}), ((), {"codec_id": codec_id})]:
        with pytest.raises(TypeError):
            api.put_blob(b"x" * 100, *args, **kwargs)
    assert stored_chunks(engine.store.path) == []


# --- typed head arguments --------------------------------------------------------

@pytest.mark.parametrize("name,args,kwargs", [
    ("define_view", (), {"view_key": 5, "query": ""}),
    ("submit_task", (), {"kind": "user_fn", "task_id": 7}),
    ("lease_task", ("a", "1000"), {}),
    ("scan", ("",), {"limit": "5"}),
    ("lease_task", ("a", True), {}),  # a bool is not an int
    ("lease_task", ("a", 1000, "user_fn"), {}),  # a list[str] parameter
    ("record_event", ("m", 1, "loss", "0.5"), {}),
    ("register_model", ("m", [MLP]), {}),
    ("list_tasks", (3,), {}),
    ("scan", (5,), {}),
    ("scan", ("",), {"cursor": {}}),  # a ScanCursor travels tagged
    ("define_view", ("v", 5), {}),
    ("read_batch", ({},), {}),
    ("query_events", ("m",), {"step_range": [1, "x"]}),  # a tuple travels tagged
])
def test_head_arguments_are_typed(wire_pair, name, args, kwargs):
    engine, _, client = wire_pair
    client.info()
    sock = client._sock
    with pytest.raises(InvalidArgument, match=f"{name}\\(\\): "):
        getattr(client, name)(*args, **kwargs)
    assert client._sock is sock  # answered, and the connection is still open
    assert engine.scan("")[0] == [] and engine.list_views() == []
    assert engine.list_tasks() == [] and engine.list_models() == []


@pytest.mark.parametrize("name,cursor,field", [
    ("scan", ScanCursor(snapshot_seq="x", last_key=5), "ScanCursor.last_key"),
    ("scan", ScanCursor(snapshot_seq="x", last_key="k"), "ScanCursor.snapshot_seq"),
    ("read_batch", BatchCursor(view_key="v", cursor_id=5, position="", batch_size=10),
     "BatchCursor.cursor_id"),
    ("read_batch", BatchCursor(view_key="v", cursor_id="c", position=5, batch_size=10),
     "BatchCursor.position"),
    ("read_batch", BatchCursor(view_key="v", cursor_id="c", position="", batch_size="10"),
     "BatchCursor.batch_size"),
])
def test_tagged_fields_in_a_head_are_typed(wire_pair, name, cursor, field):
    """A tagged dataclass's fields are checked against their annotations as
    head parameters are, and the error names the field."""
    engine, _, client = wire_pair
    engine.define_view("v", "")
    engine.put_document(Document(key="a", payload=b"x"))
    client.info()
    sock = client._sock
    with pytest.raises(InvalidArgument, match=re.escape(f"{field} must be ")):
        getattr(client, name)(*(("",) if name == "scan" else ()), cursor)
    assert client._sock is sock  # answered, and the connection is still open
    assert engine.store.keys_with_prefix("__sys/cursor/") == []


@pytest.mark.parametrize("size", [0, -1])
def test_a_batch_cursor_of_no_rows_is_refused_naming_its_field(api, size):
    api.define_view("v", "")
    api.put_document(Document(key="a", payload=b"x"))
    cursor = BatchCursor(view_key="v", cursor_id="c", position="", batch_size=size)
    with pytest.raises(InvalidArgument, match=re.escape("BatchCursor.batch_size must be positive")):
        api.read_batch(cursor)


def test_every_head_parameter_is_typed():
    """Each parameter an op takes in its head has the types the server
    checks; only the one that rides in the tail has none."""
    untyped = [(op.name, name) for op in P.OPS for name in sorted(op.names)
               if name != op.tail_param and name not in op.types]
    assert untyped == []


def test_typed_arguments_take_none_and_int_for_float(wire_pair):
    engine, _, client = wire_pair
    client.register_model("m", MLP)
    client.record_event("m", 1, "loss", 2)  # an int for a float parameter
    assert [(e.step, e.value) for e in engine.query_events("m")] == [(1, 2)]
    assert client.scan("", None, limit=None) == ([], None)
    assert client.lease_task("a", TTL, None) is None


def test_plan_task_max_attempts_is_an_int(api):
    for bad in ("3", 2.0, True):
        with pytest.raises(InvalidArgument, match="max_attempts"):
            api.submit_plan({"plan_id": "p", "tasks": [
                {"task_id": "t", "kind": "user_fn", "max_attempts": bad}]})
    assert api.list_tasks() == []


@pytest.mark.parametrize("field,value", [
    ("task_id", 7), ("task_id", ""), ("params", [1]), ("depends_on", [["x"]]),
    ("depends_on", "s"), ("model", [1]), ("model_key", 1), ("kind", 3),
    ("input_dataset", ["v"]), ("output_dataset", {}), ("max_attempts", "3"),
])
def test_plan_task_fields_are_typed(wire_pair, field, value):
    engine, _, client = wire_pair
    client.info()
    sock = client._sock
    tasks = [{"task_id": "s", "kind": "user_fn"},
             {"task_id": "t", "kind": "user_fn", field: value}]
    with pytest.raises(InvalidArgument, match=re.escape(f"plan.tasks[1].{field} must be ")):
        client.submit_plan({"plan_id": "p", "tasks": tasks})
    assert client._sock is sock  # answered, and the connection is still open
    assert engine.list_tasks() == [] and engine.workflow.plans == {}


@pytest.mark.parametrize("key", ["dependson", "max_attempt", "param", "status"])
def test_plan_task_unknown_fields_are_rejected(wire_pair, key):
    engine, _, client = wire_pair
    tasks = [{"task_id": "a", "kind": "user_fn"},
             {"task_id": "b", "kind": "user_fn", "depends_on": ["a"], key: ["a"]}]
    with pytest.raises(InvalidArgument, match=re.escape(f"plan.tasks[1].{key} ")):
        client.submit_plan({"plan_id": "p", "tasks": tasks})
    assert engine.list_tasks() == [] and engine.workflow.plans == {}


@pytest.mark.parametrize("src", ["x = ²", "x = ١٢"])
def test_scan_answers_query_syntax_for_unicode_digits(api, src):
    with pytest.raises(QuerySyntaxError) as info:
        api.scan(src)
    assert (info.value.code, info.value.offset) == ("query_syntax", 4)
    assert info.value.expected == ("identifier", "literal", "operator")
    assert api.scan("")[0] == []


# --- document tails ---------------------------------------------------------------

WRITE_OUTPUTS = next(op for op in P.OPS if op.name == "write_outputs")
DOCS_TAIL_OPS = [op for op in P.OPS if op.codec == "docs" and op.tail_param]


def test_docs_slot_must_end_where_its_document_ends(wire_pair):
    engine, _, client = wire_pair
    engine.submit_task(kind="user_fn", task_id="t")
    engine.lease_task("agent", TTL)
    head = {"task_id": "t", "agent_id": "agent"}
    raw = records.encode_document(output_document("t", 0, b"x"))
    for tail in (struct.pack("<I", len(raw) + 5) + raw + b"JUNK!",
                 struct.pack("<I", len(raw) - 1) + raw,
                 struct.pack("<I", len(raw)) + raw + b"\x01\x00"):
        with pytest.raises(InvalidArgument, match="malformed tail"):
            client._call(WRITE_OUTPUTS.code, head, tail)
    assert engine.scan("")[0] == []
    reply, _ = client._call(WRITE_OUTPUTS.code, head, struct.pack("<I", len(raw)) + raw)
    assert reply == {"result": ["t/000000"]}


# --- one address parser -------------------------------------------------------------

def test_address_parsing(monkeypatch):
    assert P.parse_address("example.org:9000") == ("example.org", 9000)
    assert P.parse_address(":9000") == ("127.0.0.1", 9000)
    for bad in ["", "host", "host:", "host:x", "host:70000", "host:-1", "host:٣"]:
        with pytest.raises(ValueError):
            P.parse_address(bad)
        if bad:
            with pytest.raises(click.UsageError):
                _parse_addr(bad)
    assert _parse_addr(None) == (None, None)
    monkeypatch.delenv("FORGE_ADDR", raising=False)
    assert default_address() == ("127.0.0.1", P.DEFAULT_PORT)
    monkeypatch.setenv("FORGE_ADDR", "10.0.0.2:81")
    assert default_address() == ("10.0.0.2", 81)
    monkeypatch.setenv("FORGE_ADDR", "10.0.0.2")
    with pytest.raises(ValueError):
        default_address()


# --- garbage frames -----------------------------------------------------------------

CODES = sorted(_HANDLERS)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | TAGGED,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=6) | TAGGED, inner, max_size=3),
    max_leaves=6)


DOCS = st.builds(Document, key=st.text(min_size=1, max_size=8), payload=st.binary(max_size=16),
                 tags=st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 9), max_size=2))


def _frame(code: int, head: dict, tail: bytes = b"") -> bytes:
    """A frame whose head is exactly ``head`` as JSON, not passed through the
    client's encoder."""
    raw = json.dumps(head).encode()
    return _raw_frame(code, len(raw).to_bytes(4, "little") + raw + tail)


def _raw_frame(code: int, payload: bytes) -> bytes:
    return P.HEADER.pack(len(payload), 7, code) + payload


def _head_names(op: P.Op) -> tuple[list[str], list[str]]:
    """(required, optional) head parameters of a table row."""
    names = sorted(op.names - {op.tail_param})
    return [n for n in names if n in op.required], [n for n in names if n not in op.required]


TYPED_OPS = [op for op in P.OPS if op.types.keys() - {op.tail_param}]


@st.composite
def garbage(draw):
    """(bytes to send, whether every reply must be invalid_argument), or for
    a cut upload (CutUpload, False)."""
    kind = draw(st.sampled_from(["bytes", "truncated", "oversize", "bad_head",
                                 "unknown_op", "missing", "unknown_arg", "wrong_type",
                                 "typed", "blob_args", "blob_stale", "docs_slot",
                                 "cut_upload"]))
    if kind == "cut_upload":
        uploads = draw(st.lists(st.lists(st.binary(max_size=64), max_size=3),
                                min_size=1, max_size=3))
        frame = _frame(draw(st.sampled_from(BLOB_OPS[:3])), {"upload_id": "x", "index": 0},
                       draw(st.binary(max_size=32)))
        return CutUpload(uploads, frame[:draw(st.integers(0, len(frame) - 1))]), False
    if kind == "bytes":
        return draw(st.binary(max_size=64)), False
    if kind == "truncated":
        frame = _frame(draw(st.sampled_from(CODES)), draw(st.dictionaries(st.text(max_size=6),
                                                                          JSON, max_size=3)))
        return frame[:draw(st.integers(0, len(frame) - 1))], False
    if kind == "oversize":
        length = draw(st.integers(P.MAX_PAYLOAD + 1, 2**32 - 1))
        return P.HEADER.pack(length, 7, draw(st.sampled_from(CODES))), False
    if kind == "bad_head":
        raw = draw(st.one_of(
            JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
            st.binary(max_size=16)))
        payload = draw(st.one_of(st.just(len(raw).to_bytes(4, "little") + raw),
                                 st.binary(max_size=12)))
        return _raw_frame(draw(st.sampled_from(CODES)), payload), False
    if kind == "unknown_op":
        code = draw(st.integers(0, 255).filter(lambda c: c not in _HANDLERS))
        return _frame(code, {}), False
    if kind == "blob_args":  # an upload begins with an empty head; the others need one
        op = draw(st.sampled_from(BLOB_OPS))
        head = draw(st.sampled_from([{"bogus": 1}] if op == P.BLOB_PUT_BEGIN
                                    else [{}, {"bogus": 1}]))
        return _frame(op, head), True
    if kind == "blob_stale":  # an upload head that carries the old settings
        names = draw(st.lists(st.sampled_from(["chunk_size", "codec_id"]), min_size=1,
                              unique=True))
        return _frame(P.BLOB_PUT_BEGIN, {name: draw(JSON) for name in names}), True
    if kind == "docs_slot":  # a document slot longer or shorter than its document
        op = draw(st.sampled_from(DOCS_TAIL_OPS))
        raw = records.encode_document(draw(DOCS))
        extra = draw(st.integers(-len(raw), 8).filter(bool))
        tail = (P.pack_documents(draw(st.lists(DOCS, max_size=2)))
                + struct.pack("<I", len(raw) + extra) + raw
                + draw(st.binary(min_size=max(extra, 0), max_size=max(extra, 0))))
        return _frame(op.code, {name: draw(JSON) for name in _head_names(op)[0]}, tail), True
    if kind == "typed":  # a head value of a type its parameter does not take
        op = draw(st.sampled_from(TYPED_OPS))
        name = draw(st.sampled_from(sorted(op.types.keys() - {op.tail_param})))
        head = {n: draw(JSON) for n in _head_names(op)[0]}
        head[name] = draw(JSON.filter(lambda v: type(v) not in op.types[name]))
        return _frame(op.code, head), True
    op = draw(st.sampled_from(P.OPS))
    required, optional = _head_names(op)
    chosen = required + draw(st.lists(st.sampled_from(optional), unique=True)) \
        if optional else required
    head = {name: draw(JSON) for name in chosen}
    if kind == "missing":
        if not required:
            return _frame(op.code, {**head, "bogus": 0}), True
        del head[draw(st.sampled_from(required))]
        return _frame(op.code, head), True
    if kind == "unknown_arg":
        extra = draw(st.text(max_size=8).filter(lambda n: n not in op.names))
        head[extra] = draw(JSON)
        return _frame(op.code, head), True
    return _frame(op.code, head, draw(st.binary(max_size=32))), False


@dataclass
class CutUpload:
    """Uploads begun and fed with raw slices on one connection, which then
    sends ``cut``, a frame's first bytes, and closes."""

    uploads: list[list[bytes]]
    cut: bytes

    def send(self, address) -> list[str]:
        """Play it against the server; the ids of the uploads left open."""
        upload_ids = []
        with socket.create_connection(address, timeout=10) as sock:
            def call(code, head, tail=b""):
                sock.sendall(_frame(code, head, tail))
                length, _, status = P.HEADER.unpack(P.recv_exact(sock, P.HEADER_SIZE))
                reply, _ = P.split_payload(P.recv_exact(sock, length))
                assert status == P.STATUS_OK, reply
                return reply

            for slices in self.uploads:
                head = call(P.BLOB_PUT_BEGIN, {})
                upload_ids.append(head["upload_id"])
                for index, piece in enumerate(slices):
                    call(P.BLOB_PUT_CHUNK, {"upload_id": upload_ids[-1], "index": index},
                         piece)
            sock.sendall(self.cut)
        return upload_ids


# what sending meets once the server has closed the connection with bytes
# of ours unread: the reset fails a sendall with EPIPE or ECONNRESET, and a
# shutdown after it with ENOTCONN (a plain OSError)
_SERVER_CLOSED = (errno.EPIPE, errno.ECONNRESET, errno.ENOTCONN)


def _exchange(address, data: bytes) -> bytes:
    """Send raw bytes, close the sending side and read until the server
    closes: by then it has finished with this connection. The server may
    close before it has read everything; what it sent is still read."""
    with socket.create_connection(address, timeout=10) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            if exc.errno not in _SERVER_CLOSED:
                raise
        received = bytearray()
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # the server closed with our bytes unread
    return bytes(received)


def _replies(data: bytes) -> list[tuple[int, dict]]:
    replies, off = [], 0
    while off + P.HEADER_SIZE <= len(data):
        length, _, status = P.HEADER.unpack_from(data, off)
        off += P.HEADER_SIZE
        head, _ = P.split_payload(data[off:off + length])
        replies.append((status, head))
        off += length
    return replies


def test_garbage_frames_never_hurt_the_server(tmp_path):
    path = tmp_path / "store"
    make_engine(path).close()

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=garbage())
    def run(case):
        data, invalid_argument = case
        engine = Forge(path, clock=FakeClock(), fsync=False)  # the store reopens
        server = ForgeServer(engine, port=0)
        server.start()
        try:
            upload_ids = []
            if isinstance(data, CutUpload):
                upload_ids = data.send(server.address)
            else:
                replies = _replies(_exchange(server.address, data))
                if invalid_argument:
                    assert [(status, head["code"]) for status, head in replies] == \
                        [(P.STATUS_ERROR, "invalid_argument")]
            with ForgeClient(*server.address) as client:
                assert client.info()["format_version"] == 1
                for upload_id in upload_ids:  # they ended with their connection
                    with pytest.raises(NotFound):
                        client._call(P.BLOB_PUT_COMMIT, {"upload_id": upload_id,
                                                         "total_size": 0, "checksum": ""})
        finally:
            server.stop()
            engine.close()

    run()
    Forge(path, fsync=False).close()
