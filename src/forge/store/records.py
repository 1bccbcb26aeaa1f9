"""Binary encoding of documents and log records.

All integers are little-endian; strings are UTF-8 behind their byte length.

A document::

    u16 key_len | key | payload | u8 has_label | [u32 label_len | label]
    | u16 tag_count | tag * tag_count

where the payload is ``u8 0 | u32 len | bytes`` (inline) or ``u8 1 |
pointer`` (any non-zero kind reads as a pointer), and a blob pointer is::

    u16 id_len | blob_id | u64 total_size | u32 chunk_count | u32 chunk_size
    | u8 codec_id | 32-byte sha-256 of the uncompressed payload

Tags are written in name order, each ``u16 name_len | name | value``, and a
tag value is one variant byte and its scalar::

    u8 0 | u32 len | string        u8 1 | i64        u8 2 | f64
    u8 3 | u8 bool (non-zero reads as true)

Every mutation is one framed record (see log.py for framing). A record body
is ``u8 op`` followed by op-specific fields:

    PUT, REPLACE   u8 op | u64 seq | u64 arrived_ms | u8 has_group
                   | [u16 group_len | group] | document   (REPLACE read only)
    DELETE         u8 3 | u64 seq | u16 key_len | key   (read only)
    COMMIT_GROUP   u8 4 | u64 seq | u16 group_len | group
    SNAPSHOT       u8 6 | u64 next_seq
    BATCH          u8 5 | u16 count | (u32 body_len | body) * count

A tag section (``u16 tag_count | tag * tag_count``) depends on the tag map
alone, so the batch encoders take it encoded already: ``BodyWriter`` builds a
store frame of many PUTs with one join, and the wire's ``docs`` tails encode
and decode each distinct section once per call (``tag_section``, and the
``sections`` memo of ``decode_document_at``). The bytes are the same as
encoding every document on its own.

A body is decoded into calls on a sink, one per record and a batch's
records in order (``decode_body``): a record is handed on once it is read
whole, so replay installs it with no decoded-op object or op list between
the bytes and the store. Nothing writes REPLACE or DELETE any more: every
put is a PUT, and the store decides whether it may replace the key's
current version. Both are decoded from logs that hold them: a REPLACE is
handed on as a put, and the store replays a DELETE by emptying the key's
slot. A decoder ignores bytes after a body it has read (a batch's
sub-bodies included); every truncated or malformed input raises
``CorruptStore``.
"""

from __future__ import annotations

import marshal
import struct

from forge.errors import CorruptStore, InvalidArgument
from forge.query import V_BOOL, V_FLOAT, V_INT, V_STRING, variant_of
from forge.store.types import BlobPointer, Document, decoded_document

# log record op codes
OP_PUT = 1
OP_REPLACE = 2
OP_DELETE = 3
OP_COMMIT_GROUP = 4
OP_BATCH = 5
OP_SNAPSHOT = 6

# a BATCH counts its records in a u16, so no frame holds more than this many
MAX_BATCH_RECORDS = 0xFFFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_KIND16 = struct.Struct("<BH")  # a flag or code byte, then a u16 length or count
_KIND32 = struct.Struct("<BI")  # a flag or code byte, then a u32 length
_TAG_INT = struct.Struct("<Bq")
_TAG_FLOAT = struct.Struct("<Bd")
_POINTER = struct.Struct("<QIIB")  # total_size, chunk_count, chunk_size, codec_id
_DOC_OP = struct.Struct("<BQQB")  # op, seq, arrived_ms, has_group
_SEQ_OP = struct.Struct("<BQ")  # op, seq
_SEQ_STR_OP = struct.Struct("<BQH")  # op, seq, string length

_u16_at = _U16.unpack_from
_u32_at = _U32.unpack_from
_i64_at = _I64.unpack_from
_f64_at = _F64.unpack_from
_pointer_at = _POINTER.unpack_from
_doc_op_at = _DOC_OP.unpack_from
_seq_op_at = _SEQ_OP.unpack_from
_seq_str_op_at = _SEQ_STR_OP.unpack_from

_NO_LABEL = b"\x00"
_TAG_TRUE = bytes([V_BOOL, 1])
_TAG_FALSE = bytes([V_BOOL, 0])

# what a read past the end or a bad field raises before it becomes CorruptStore
_MALFORMED = (IndexError, struct.error, ValueError, ZeroDivisionError, InvalidArgument)


# --- encoding ---------------------------------------------------------------

def tags_key(tags: dict) -> bytes | object:
    """A key for a tag map that two maps share only when they encode alike.

    It is the map's ``marshal`` form (version 2, which writes no back
    references), and that holds each value's type and a float's bits:
    ``True``, ``1`` and ``1.0`` are equal in Python, as are ``-0.0`` and
    ``0.0``, and a NaN equals nothing. Maps that differ only in insertion
    order get different keys, which costs a memo a miss, never a wrong
    encoding. A map marshal refuses (a value of a subclass or of no tag
    type) gets a key of its own."""
    try:
        return marshal.dumps(tags, 2)
    except ValueError:
        return object()


def encode_tags(tags: dict) -> bytes:
    """A document's tag section: ``u16 tag_count | tag * tag_count``."""
    parts = [_U16.pack(len(tags))]
    for name in sorted(tags):
        value = tags[name]
        raw = name.encode()
        parts += (_U16.pack(len(raw)), raw)
        if isinstance(value, bool):
            parts.append(_TAG_TRUE if value else _TAG_FALSE)
        elif isinstance(value, int):
            parts.append(_TAG_INT.pack(V_INT, value))
        elif isinstance(value, float):
            parts.append(_TAG_FLOAT.pack(V_FLOAT, value))
        else:
            variant_of(value)  # raises InvalidArgument for an unsupported type
            raw = value.encode()
            parts += (_KIND32.pack(V_STRING, len(raw)), raw)
    return b"".join(parts)


def tag_section(tags: dict, memo: dict) -> bytes:
    """``encode_tags(tags)``, encoded once per distinct map that ``memo``
    (``tags_key`` to section, kept by the caller for one call) has seen."""
    raw = memo.get(key := tags_key(tags))
    if raw is None:
        raw = memo[key] = encode_tags(tags)
    return raw


def document_parts(doc: Document, tags: bytes, parts: list) -> int:
    """Append the encoding of ``doc``, whose tag section is ``tags``, to
    ``parts`` for one ``b"".join``; return its length in bytes."""
    key = doc.key.encode()
    payload = doc.payload
    if isinstance(payload, bytes):
        parts += (_U16.pack(len(key)), key, _KIND32.pack(0, len(payload)), payload)
        size = 7 + len(key) + len(payload)
    else:
        blob_id = payload.blob_id.encode()
        parts += (_U16.pack(len(key)), key, _KIND16.pack(1, len(blob_id)), blob_id,
                  _POINTER.pack(payload.total_size, payload.chunk_count,
                                payload.chunk_size, payload.codec_id),
                  payload.checksum)
        size = 5 + len(key) + len(blob_id) + _POINTER.size + len(payload.checksum)
    if doc.label is None:
        parts += (_NO_LABEL, tags)
        return size + 1 + len(tags)
    label = doc.label.encode()
    parts += (_KIND32.pack(1, len(label)), label, tags)
    return size + 5 + len(label) + len(tags)


def encode_document(doc: Document) -> bytes:
    parts: list[bytes] = []
    document_parts(doc, encode_tags(doc.tags), parts)
    return b"".join(parts)


_NO_GROUP = (0, b"")


def _group_field(group: str | None) -> tuple[int, bytes]:
    """A doc op's has_group flag and its ``u16 group_len | group``, if any."""
    if group is None:
        return _NO_GROUP
    raw = group.encode()
    return 1, _U16.pack(len(raw)) + raw


def encode_doc_op(op: int, seq: int, arrived_ms: int, group: str | None, doc: Document) -> bytes:
    has_group, field = _group_field(group)
    parts = [_DOC_OP.pack(op, seq, arrived_ms, has_group), field]
    document_parts(doc, encode_tags(doc.tags), parts)
    return b"".join(parts)


def encode_commit_group(seq: int, group: str) -> bytes:
    raw = group.encode()
    return _SEQ_STR_OP.pack(OP_COMMIT_GROUP, seq, len(raw)) + raw


def encode_snapshot_marker(next_seq: int) -> bytes:
    return _SEQ_OP.pack(OP_SNAPSHOT, next_seq)


def encode_batch(sub_bodies: list[bytes]) -> bytes:
    parts = [_KIND16.pack(OP_BATCH, len(sub_bodies))]
    for body in sub_bodies:
        parts += (_U32.pack(len(body)), body)
    return b"".join(parts)


class BodyWriter:
    """One record body built with one join: an op's own body when it is
    alone, else a BATCH of them, byte for byte what ``encode_doc_op`` per
    put, ``encode_commit_group`` and ``encode_batch`` write. A put takes its
    document's tag section encoded already, so a batch whose documents share
    a tag map encodes it once."""

    __slots__ = ("count", "_parts", "_group", "_group_field")

    def __init__(self):
        self.count = 0  # the ops written so far
        self._parts: list[bytes] = [b""]  # the BATCH head, which ``body`` sets
        self._group: str | None = None
        self._group_field = _NO_GROUP

    def put(self, seq: int, arrived_ms: int, group: str | None, doc: Document,
            section: bytes) -> None:
        """A PUT record of ``doc``, whose tag section is ``section``."""
        if group is not self._group:
            self._group, self._group_field = group, _group_field(group)
        has_group, field = self._group_field
        parts = self._parts
        slot = len(parts)
        parts += (b"", _DOC_OP.pack(OP_PUT, seq, arrived_ms, has_group), field)
        parts[slot] = _U32.pack(_DOC_OP.size + len(field) + document_parts(doc, section, parts))
        self.count += 1

    def commit_group(self, seq: int, group: str) -> None:
        body = encode_commit_group(seq, group)
        self._parts += (_U32.pack(len(body)), body)
        self.count += 1

    def body(self) -> bytes:
        parts = self._parts
        if self.count == 1:
            parts[1] = b""  # an op alone is its own body: no BATCH head, no length
        else:
            parts[0] = _KIND16.pack(OP_BATCH, self.count)
        return b"".join(parts)


# --- decoding ---------------------------------------------------------------
#
# The readers below take fields at explicit offsets and let a read past the
# buffer raise IndexError or struct.error. A string or byte run cut short by
# the buffer's end is not caught where it is sliced: offsets only grow, so the
# next fixed-width read fails, or the end offset that is returned lies past
# the buffer, which the public entry points check.


def _document_at(buf: bytes, off: int, sections: dict | None = None,
                 end: int = 0) -> tuple[Document, int]:
    """The document at ``buf[off:]`` and its end. With ``sections``, the
    document must end at ``end``: its tag section is ``buf[...:end]``, and
    ``sections`` maps each section decoded so far to its tags."""
    (n,) = _u16_at(buf, off)
    off += 2
    key = buf[off:off + n].decode()
    off += n
    payload: bytes | BlobPointer
    if buf[off]:
        (n,) = _u16_at(buf, off + 1)
        off += 3
        blob_id = buf[off:off + n].decode()
        total_size, chunk_count, chunk_size, codec_id = _pointer_at(buf, off + n)
        off += n + 17
        payload = BlobPointer(blob_id, total_size, chunk_count, chunk_size, codec_id,
                              buf[off:off + 32])
        off += 32
    else:
        (n,) = _u32_at(buf, off + 1)
        off += 5
        payload = buf[off:off + n]
        off += n
    if buf[off]:
        (n,) = _u32_at(buf, off + 1)
        off += 5
        label = buf[off:off + n].decode()
        off += n
    else:
        label = None
        off += 1
    if sections is not None:
        raw = buf[off:end]
        tags = sections.get(raw)
        if tags is not None:  # every document gets its own dict
            return decoded_document(key, payload, label, dict(tags)), end
    (count,) = _u16_at(buf, off)
    off += 2
    tags = {}
    for _ in range(count):
        (n,) = _u16_at(buf, off)
        off += 2
        name = buf[off:off + n].decode()
        off += n
        code = buf[off]
        if code == V_STRING:
            (n,) = _u32_at(buf, off + 1)
            off += 5
            tags[name] = buf[off:off + n].decode()
            off += n
        elif code == V_INT:
            (tags[name],) = _i64_at(buf, off + 1)
            off += 9
        elif code == V_FLOAT:
            (tags[name],) = _f64_at(buf, off + 1)
            off += 9
        elif code == V_BOOL:
            tags[name] = buf[off + 1] != 0
            off += 2
        else:
            raise CorruptStore(f"bad tag variant code {code}")
    if sections is not None and off == end:
        sections[raw] = tags
    return decoded_document(key, payload, label, tags), off


def decode_document_at(buf: bytes, off: int, sections: dict | None = None,
                       end: int = 0) -> tuple[Document, int]:
    """The document encoded at ``buf[off:]`` and the offset where it ends.

    A caller that knows where the document must end passes that ``end`` and
    a ``sections`` dict, which it keeps for one call: a tag section that
    repeats is then decoded once (a document that does not end at ``end``
    is the caller's to refuse, and its section is not kept)."""
    try:
        doc, end = _document_at(buf, off, sections, end)
    except _MALFORMED as exc:
        raise CorruptStore(f"malformed document: {exc}") from exc
    if end > len(buf):
        raise CorruptStore("truncated document")
    return doc, end


def decode_document(buf: bytes) -> Document:
    """The document that ``buf`` holds, with no bytes left over."""
    doc, end = decode_document_at(buf, 0)
    if end != len(buf):
        raise CorruptStore(f"{len(buf) - end} bytes after the document")
    return doc


def _records_at(buf: bytes, off: int, end: int, sink) -> None:
    """Hand the records of the body at ``buf[off:end]`` to ``sink``, one
    call each, once each is read whole; bytes after the body are ignored, a
    body that runs past ``end`` is corrupt."""
    op = buf[off]
    if op == OP_PUT or op == OP_REPLACE:
        _, seq, arrived, has_group = _doc_op_at(buf, off)
        off += 18
        group = None
        if has_group:
            (n,) = _u16_at(buf, off)
            off += 2
            group = buf[off:off + n].decode()
            off += n
        doc, off = _document_at(buf, off)
        if off > end:
            raise CorruptStore("truncated record")
        sink.put(seq, arrived, group, doc)
    elif op == OP_BATCH:
        (count,) = _u16_at(buf, off + 1)
        off += 3
        for _ in range(count):
            (n,) = _u32_at(buf, off)
            off += 4
            if off + n > end:
                raise CorruptStore("truncated record")
            _records_at(buf, off, off + n, sink)
            off += n
    elif op == OP_DELETE or op == OP_COMMIT_GROUP:
        _, seq, n = _seq_str_op_at(buf, off)
        off += 11 + n
        if off > end:
            raise CorruptStore("truncated record")
        name = buf[off - n:off].decode()
        if op == OP_DELETE:
            sink.delete(seq, name)
        else:
            sink.commit(seq, name)
    elif op == OP_SNAPSHOT:
        _, next_seq = _seq_op_at(buf, off)
        if off + 9 > end:
            raise CorruptStore("truncated record")
        sink.snapshot(next_seq)
    else:
        raise CorruptStore(f"unknown log op {op}")


def decode_body(body: bytes, sink) -> None:
    """Decode a record body into one call on ``sink`` per record, a batch's
    records in order: ``sink.put(seq, arrived_ms, group, doc)`` for a PUT or
    a REPLACE, ``sink.delete(seq, key)``, ``sink.commit(seq, group)`` and
    ``sink.snapshot(next_seq)``. A truncated or malformed body raises
    ``CorruptStore``, after the calls for the records before the bad one."""
    try:
        _records_at(body, 0, len(body), sink)
    except _MALFORMED as exc:
        raise CorruptStore(f"malformed record: {exc}") from exc
