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
leaves out a required one is answered with ``invalid_argument``. So is a
head value of another type than its parameter's annotation, a union of
``str``, ``int``, ``float`` (an int is taken), ``bool``, ``dict``,
``list[...]``, ``tuple[...]``, ``None``, ``TagQuery``, ``ScanCursor`` and
``BatchCursor``, which every head parameter has; a bool is not an int. The
fields of a tagged dataclass (below) are checked against their annotations
the same way, and the error names the field, as in ``ScanCursor.last_key``. An
ok response head is ``{"result": value}``. Heads are plain JSON, except that
tuples, bytes, queries and the wire's dataclasses travel as objects tagged
with a ``"$type"`` key (``to_wire``). At most one value per op rides in the
tail instead of the head: a document, a document list (each one prefixed by
its u32 length) or a tensor container, in the byte layouts of
``forge.store.records`` and ``forge.tensorio``. A document must fill its tail
or its slot exactly; leftover bytes are ``invalid_argument``. A ``tensors``
tail crosses the server as it came, both ways: ``save_state`` gets it as a
``Tensors`` container whose header is checked, and the bytes it stores are
the bytes ``load_state`` sends back, so the server decodes no array. A
container that is not in canonical form (names out of order or repeated,
bytes after its last tensor) is ``invalid_argument``. A document
list's codec encodes and decodes a tag section that repeats within the list
once (a task's outputs, a view's slice), without changing a byte; each
decoded document still gets its own tags dict. An error head
is ``{"code", "message", "data"}``.

Blobs cross the wire through four transfer ops (``BLOB_*``) that are not
engine methods. An upload is ``BLOB_PUT_BEGIN`` (an empty head ``{}``,
answered with ``{upload_id}``), then ``BLOB_PUT_CHUNK`` (head ``{upload_id,
index}``, tail a raw slice of the data; slices come in index order, the
client's of ``BLOB_SLICE`` bytes), then ``BLOB_PUT_COMMIT`` (head
``{upload_id, total_size, checksum}``, the sha-256 in hex, answered with
``{pointer}``). An upload belongs to the connection it began on and ends
with it. The server joins the slices, checks the length and digest
(``checksum_mismatch``), then stores the data with ``Forge.put_blob``, so
chunking, compression and dedupe are the engine's; a ``BLOB_PUT_BEGIN``
head that names any argument is ``invalid_argument``. A read is one
``BLOB_GET_CHUNK`` (head ``{blob_id, index}``) per chunk, answered with the
chunk in its stored form as the tail.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import struct
from dataclasses import dataclass, field

from forge.dataset import BatchCursor, DatasetView, StreamController
from forge.engine import Forge
from forge.errors import CorruptStore, ForgeError, FrameTooLarge, InvalidArgument, ProtocolError
from forge.models import ModelEvent, ModelRecord, ModelVersion
from forge.query import TagQuery, parse, render
from forge.store import BlobPointer, Document, ScanCursor
from forge.store.records import (
    decode_document,
    decode_document_at,
    document_parts,
    encode_document,
    tag_section,
)
from forge.store.types import MAX_PAYLOAD
from forge.tensorio import decode_tensors, encode_tensors
from forge.workflow import Task

HEADER = struct.Struct("<IQB")
HEADER_SIZE = HEADER.size
_U32 = struct.Struct("<I")  # the JSON head's length and each document slot's

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
    types: dict[str, tuple[type, ...]] = field(init=False, repr=False)  # checked parameters
    tail_param: str | None = field(init=False, repr=False)

    def __post_init__(self):
        sig = inspect.signature(getattr(Forge, self.name))
        params = list(sig.parameters.values())[1:]  # after self
        self.positional = tuple(p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD)
        self.names = frozenset(p.name for p in params)
        self.required = frozenset(p.name for p in params if p.default is p.empty)
        self.types = {p.name: types for p in params
                      if (types := _head_types(p.annotation)) is not None}
        self.tail_param = self.tail if self.tail in self.names else None


_TYPES = {"str": (str,), "int": (int,), "float": (float, int), "bool": (bool,),
          "dict": (dict,), "list": (list,), "tuple": (tuple,), "None": (type(None),),
          "TagQuery": (TagQuery,), "ScanCursor": (ScanCursor,),
          "BatchCursor": (BatchCursor,)}


def _head_types(annotation) -> tuple[type, ...] | None:
    """The exact types a head value may take for a parameter so annotated
    (as text, under ``from __future__ import annotations``); None when the
    wire does not check it."""
    types: tuple[type, ...] = ()
    for part in str(annotation).split(" | "):
        accepted = _TYPES.get(part.partition("[")[0])
        if accepted is None:
            return None
        types += accepted
    return types


def type_error(where: str, values: dict, types: dict[str, tuple[type, ...]]) -> str | None:
    """What is wrong with the types of ``values``, whose checked names take
    ``types``, as a message that names each after ``where``; None when
    nothing is."""
    for arg, value in values.items():
        accepted = types.get(arg)
        if accepted is not None and type(value) not in accepted:
            takes = " or ".join("None" if t is type(None) else t.__name__ for t in accepted)
            return f"{where}{arg} must be {takes}, got {type(value).__name__}"
    return None


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
BLOB_SLICE = 4 * 1024 * 1024  # the most raw bytes one BLOB_PUT_CHUNK carries

IDEMPOTENT = frozenset({op.code for op in OPS if op.idempotent} | {BLOB_GET_CHUNK})


# --- frames ------------------------------------------------------------------------

def pack_message(request_id: int, code: int, head: dict, tail: bytes = b"") -> bytes:
    raw_head = _ENCODER.encode(to_wire(head)).encode("utf-8")
    payload_len = 4 + len(raw_head) + len(tail)
    if payload_len > MAX_PAYLOAD:
        raise FrameTooLarge(f"payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")
    return (HEADER.pack(payload_len, request_id, code)
            + _U32.pack(len(raw_head)) + raw_head + tail)


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
    (head_len,) = _U32.unpack_from(payload, 0)
    if 4 + head_len > len(payload):
        raise ProtocolError("JSON head overruns payload")
    try:
        head = _DECODER.decode(payload[4:4 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON head: {exc}") from exc
    except InvalidArgument:
        raise  # a tagged value's field of the wrong type, named already
    except (LookupError, TypeError, ValueError, AttributeError, ForgeError) as exc:
        raise InvalidArgument(f"malformed tagged value in head: {exc!r}") from exc
    if not isinstance(head, dict):
        raise ProtocolError("JSON head must be an object")
    return head, payload[4 + head_len:]


# --- tails -------------------------------------------------------------------------

def pack_documents(docs: list[Document]) -> bytes:
    """A ``docs`` tail: each document behind its u32 length. A tag map that
    repeats is encoded once."""
    parts: list[bytes] = []
    sections: dict = {}
    for doc in docs:
        slot = len(parts)
        parts.append(b"")
        parts[slot] = _U32.pack(
            document_parts(doc, tag_section(doc.tags, sections), parts))
    return b"".join(parts)


def unpack_documents(tail: bytes) -> list[Document]:
    """The documents of a ``docs`` tail. Each is decoded in place and must
    end exactly where its slot's u32 length says it does; a tag section
    that repeats is decoded once, and each document gets its own tags."""
    docs = []
    sections: dict = {}
    off = 0
    while off < len(tail):
        if off + 4 > len(tail):
            raise CorruptStore("truncated document slot length")
        (length,) = _U32.unpack_from(tail, off)
        off += 4
        doc, end = decode_document_at(tail, off, sections, off + length)
        if end != off + length:
            raise CorruptStore(f"document of {end - off} bytes in a slot of {length}")
        docs.append(doc)
        off = end
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
# the checked types of each tagged dataclass's fields, read as head parameters are
_FIELD_TYPES = {name: {f.name: types for f in dataclasses.fields(cls)
                       if (types := _head_types(f.type)) is not None}
                for name, cls in _BY_NAME.items()}


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
    problem = type_error(f"{tag}.", obj, _FIELD_TYPES[tag])
    if problem is not None:
        raise InvalidArgument(problem)
    return _BY_NAME[tag](**obj)


_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder(object_hook=_from_tagged)
