"""Frame format, op table and value codec of the TCP service.

This docstring and the ``OPS`` table below are the byte-level description
of the protocol. Every message is

    u32 payload-length (LE) | u64 request-id (LE) | u8 opcode-or-status | payload

capped at 16 MiB of payload. Requests carry an opcode; responses echo the
request id and carry a status byte (0 ok, 1 domain error, 2 protocol error).
A payload is a JSON "head" plus an optional binary tail:

    u32 json-length (LE) | UTF-8 JSON | tail bytes

Each row of ``OPS`` names the ``Forge`` method its opcode calls. A request
head maps that method's parameter names to arguments; a parameter with a
default may be left out, and a head that names an unknown parameter or
leaves out a required one is answered with ``invalid_argument``. An ok
response head is ``{"result": value}``. Heads are plain JSON, except that
tuples, bytes, queries and the wire's dataclasses travel as objects tagged
with a ``"$type"`` key (``to_wire``). At most one value per op rides in the
tail instead of the head: a document, a document list (each one prefixed by
its u32 length) or a tensor container. An error head is ``{"code",
"message", "data"}``.

Blob chunks cross the wire in their stored, compressed form, through four
transfer ops (``BLOB_*``) that are not engine methods.
"""

from __future__ import annotations

import inspect
import json
import struct
from dataclasses import dataclass, field

from forge.dataset import BatchCursor, DatasetView, StreamController
from forge.engine import Forge
from forge.errors import ForgeError, FrameTooLarge, InvalidArgument, ProtocolError
from forge.models import ModelEvent, ModelRecord, ModelVersion
from forge.query import TagQuery, parse, render
from forge.store import BlobPointer, Document, ScanCursor
from forge.store.records import decode_document, decode_document_at, encode_document
from forge.store.types import MAX_PAYLOAD
from forge.tensorio import decode_tensors, encode_tensors
from forge.workflow import Task

HEADER = struct.Struct("<IQB")
HEADER_SIZE = HEADER.size

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_PROTOCOL_ERROR = 2

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7114


def parse_address(addr: str) -> tuple[str, int]:
    """``host:port`` as a (host, port) pair; an empty host means 127.0.0.1."""
    host, _, port = addr.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 0xFFFF):
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host or DEFAULT_HOST, int(port)


# --- the op table ------------------------------------------------------------------

# tail slots for a result: the whole result, or the first item of a tuple result
RESULT = "result"
RESULT_FIRST = "result[0]"


@dataclass
class Op:
    """One request type: ``code`` calls the ``Forge`` method ``name``, and the
    ``ForgeClient`` method of the same name sends it."""

    code: int
    name: str
    idempotent: bool = False  # a pure read, resent after a lost connection
    tail: str | None = None  # what rides in the tail: a parameter, RESULT or RESULT_FIRST
    codec: str | None = None  # its form there: "doc", "docs" or "tensors"
    # from the method's signature, read once here
    positional: tuple[str, ...] = field(init=False, repr=False)
    names: frozenset[str] = field(init=False, repr=False)
    required: frozenset[str] = field(init=False, repr=False)
    tail_param: str | None = field(init=False, repr=False)

    def __post_init__(self):
        sig = inspect.signature(getattr(Forge, self.name))
        params = list(sig.parameters.values())[1:]  # after self
        self.positional = tuple(p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD)
        self.names = frozenset(p.name for p in params)
        self.required = frozenset(p.name for p in params if p.default is p.empty)
        self.tail_param = self.tail if self.tail in self.names else None


def argument_error(name: str, given, names, required) -> str | None:
    """What is wrong with passing the argument names ``given`` to ``name``,
    which takes ``names`` and needs ``required``; None when nothing is."""
    if given <= names and required <= given:
        return None
    problems = []
    if unknown := sorted(given - names):
        problems.append(f"unexpected arguments {', '.join(unknown)}")
    if missing := sorted(required - given):
        problems.append(f"missing required arguments {', '.join(missing)}")
    return f"{name}(): {'; '.join(problems)}"


OPS = (
    Op(0x01, "info", idempotent=True),
    Op(0x02, "put_document", tail="doc", codec="doc"),
    Op(0x03, "get_document", idempotent=True, tail=RESULT, codec="doc"),
    Op(0x04, "create_index"),
    Op(0x05, "scan", idempotent=True),
    Op(0x10, "define_view"),
    Op(0x11, "get_view", idempotent=True),
    Op(0x12, "list_views", idempotent=True),
    Op(0x13, "open_cursor"),
    Op(0x14, "read_batch", tail=RESULT_FIRST, codec="docs"),
    Op(0x15, "view_slice", tail=RESULT, codec="docs"),
    Op(0x16, "attach_stream"),
    Op(0x17, "poll_stream"),
    Op(0x20, "register_model"),
    Op(0x21, "get_model", idempotent=True),
    Op(0x22, "list_models", idempotent=True),
    Op(0x23, "save_state", tail="tensors", codec="tensors"),
    Op(0x24, "load_state", idempotent=True, tail=RESULT, codec="tensors"),
    Op(0x25, "list_versions", idempotent=True),
    Op(0x26, "get_version", idempotent=True),
    Op(0x27, "record_event"),
    Op(0x28, "query_events", idempotent=True),
    Op(0x30, "submit_task"),
    Op(0x31, "get_task", idempotent=True),
    Op(0x32, "list_tasks", idempotent=True),
    Op(0x33, "lease_task"),
    Op(0x34, "heartbeat"),
    Op(0x35, "write_outputs", tail="outputs", codec="docs"),
    Op(0x36, "complete_task", tail="outputs", codec="docs"),
    Op(0x37, "submit_plan"),
    Op(0x38, "plan_status", idempotent=True),
    Op(0x39, "master_step"),
    Op(0x3A, "replay_task"),
)

# chunked blob transfer, driven by the client's put_blob and get_blob
BLOB_PUT_BEGIN = 0x07
BLOB_PUT_CHUNK = 0x08
BLOB_PUT_COMMIT = 0x09
BLOB_GET_CHUNK = 0x0A

IDEMPOTENT = frozenset({op.code for op in OPS if op.idempotent} | {BLOB_GET_CHUNK})


# --- frames ------------------------------------------------------------------------

def pack_message(request_id: int, code: int, head: dict, tail: bytes = b"") -> bytes:
    raw_head = _ENCODER.encode(to_wire(head)).encode("utf-8")
    payload_len = 4 + len(raw_head) + len(tail)
    if payload_len > MAX_PAYLOAD:
        raise FrameTooLarge(f"payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")
    return (HEADER.pack(payload_len, request_id, code)
            + struct.pack("<I", len(raw_head)) + raw_head + tail)


def recv_exact(sock, n: int) -> bytes:
    """Exactly ``n`` bytes from the socket; EOFError when the peer closes first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError("connection closed by peer")
        buf.extend(chunk)
    return bytes(buf)


def split_payload(payload: bytes) -> tuple[dict, bytes]:
    if len(payload) < 4:
        raise ProtocolError("payload too short for JSON head")
    (head_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + head_len > len(payload):
        raise ProtocolError("JSON head overruns payload")
    try:
        head = _DECODER.decode(payload[4:4 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON head: {exc}") from exc
    except (LookupError, TypeError, ValueError, AttributeError, ForgeError) as exc:
        raise InvalidArgument(f"malformed tagged value in head: {exc!r}") from exc
    if not isinstance(head, dict):
        raise ProtocolError("JSON head must be an object")
    return head, payload[4 + head_len:]


# --- tails -------------------------------------------------------------------------

def pack_documents(docs: list[Document]) -> bytes:
    parts = []
    for doc in docs:
        raw = encode_document(doc)
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def unpack_documents(tail: bytes) -> list[Document]:
    docs = []
    off = 0
    while off < len(tail):
        (length,) = struct.unpack_from("<I", tail, off)
        off += 4
        doc, _ = decode_document_at(tail[off:off + length], 0)
        docs.append(doc)
        off += length
    return docs


PACK = {"doc": encode_document, "docs": pack_documents, "tensors": encode_tensors}
UNPACK = {"doc": decode_document, "docs": unpack_documents, "tensors": decode_tensors}


# --- head values -------------------------------------------------------------------

TYPE_KEY = "$type"
_PLAIN = frozenset({str, int, float, bool, type(None)})
_BY_NAME = {cls.__name__: cls for cls in (
    BlobPointer, ScanCursor, BatchCursor, DatasetView, StreamController,
    ModelRecord, ModelVersion, ModelEvent, Task)}
_NAME = {cls: name for name, cls in _BY_NAME.items()}


def to_wire(value):
    """The JSON form of a head value, which ``split_payload`` turns back into
    the value. A dict with a ``"$type"`` key of its own travels as a list of
    pairs, so no user dict is misread."""
    kind = type(value)
    if kind is dict:
        out = {k: v if type(v) in _PLAIN else to_wire(v) for k, v in value.items()}
        return {TYPE_KEY: "dict", "items": list(out.items())} if TYPE_KEY in out else out
    if kind is list:
        return [v if type(v) in _PLAIN else to_wire(v) for v in value]
    if kind is tuple:
        return {TYPE_KEY: "tuple", "items": to_wire(list(value))}
    if kind is bytes:
        return {TYPE_KEY: "bytes", "hex": value.hex()}
    if kind is TagQuery:
        return {TYPE_KEY: "TagQuery", "text": render(value)}
    name = _NAME.get(kind)
    if name is None:
        return value  # left to json, which takes numeric subclasses and refuses the rest
    out = to_wire(value.__dict__)  # a dataclass's fields
    out[TYPE_KEY] = name
    return out


def _from_tagged(obj: dict):
    """``json.loads`` hook: the value a tagged object stands for. Inner
    objects come first, so a tagged object's fields are decoded already."""
    tag = obj.pop(TYPE_KEY, None)
    if tag is None:
        return obj
    if tag == "dict":
        return dict(obj["items"])
    if tag == "tuple":
        return tuple(obj["items"])
    if tag == "bytes":
        return bytes.fromhex(obj["hex"])
    if tag == "TagQuery":
        return parse(obj["text"])
    return _BY_NAME[tag](**obj)


_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder(object_hook=_from_tagged)
