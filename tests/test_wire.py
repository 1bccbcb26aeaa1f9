"""The wire layer: the op table against the engine, transport parity for calls
no other test makes, argument checks on both sides, protocol errors, and
garbage frames thrown at a live server."""

import inspect
import json
import socket
import sys
from pathlib import Path

import click
import pytest
from conftest import make_engine
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forge.cli import _parse_addr
from forge.clock import FakeClock
from forge.engine import Forge
from forge.errors import FrameTooLarge, InvalidArgument, StaleLease, ViewNotFound
from forge.query import parse
from forge.dataset import DatasetView
from forge.store import Document, ScanCursor
from forge.wire import ForgeClient, ForgeServer, default_address
from forge.wire import protocol as P
from forge.wire.server import _HANDLERS
from forge.workflow import Task

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
    assert info["inline_threshold"] > 0 and info["default_chunk_size"] > 0


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


@st.composite
def garbage(draw):
    """(bytes to send, whether every reply must be invalid_argument)."""
    kind = draw(st.sampled_from(["bytes", "truncated", "oversize", "bad_head",
                                 "unknown_op", "missing", "unknown_arg", "wrong_type",
                                 "blob_args"]))
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
    if kind == "blob_args":
        head = draw(st.one_of(st.just({}), st.just({"bogus": 1})))
        return _frame(draw(st.sampled_from(BLOB_OPS)), head), True
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


def _exchange(address, data: bytes) -> bytes:
    """Send raw bytes, close the sending side and read until the server
    closes: by then it has finished with this connection."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
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
            replies = _replies(_exchange(server.address, data))
            if invalid_argument:
                assert [(status, head["code"]) for status, head in replies] == \
                    [(P.STATUS_ERROR, "invalid_argument")]
            with ForgeClient(*server.address) as client:
                assert client.info()["format_version"] == 1
        finally:
            server.stop()
            engine.close()

    run()
    Forge(path, fsync=False).close()
