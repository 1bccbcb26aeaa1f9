"""Core value types of the document/blob store."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from forge.errors import InvalidArgument
from forge.query import TagScalar, check_tag_value

SYSTEM_PREFIX = "__sys/"

DEFAULT_INLINE_THRESHOLD = 16 * 1024
CHUNK_SIZE = 256 * 1024  # the chunk size of every blob put writes

CODEC_NONE = 0  # chunks stored raw; read only, for blobs older stores wrote
CODEC_ZLIB = 1  # the project-standard lossless codec, which put always writes

MAX_KEY_BYTES = 4096
MAX_TAGS = 64

# largest request or response payload the wire carries; it lives here, below
# both the wire and the workflow, because task outputs are batched to fit it
MAX_PAYLOAD = 16 * 1024 * 1024


@dataclass(frozen=True)
class BlobPointer:
    """Index-row reference into the chunked blob store."""

    blob_id: str
    total_size: int
    chunk_count: int
    chunk_size: int
    codec_id: int
    checksum: bytes  # sha-256 of the uncompressed payload

    def __post_init__(self):
        if self.chunk_count != ceil_div(self.total_size, self.chunk_size):
            raise InvalidArgument("chunk_count does not match ceil(total_size / chunk_size)")
        if len(self.checksum) != 32:
            raise InvalidArgument("checksum must be a 32-byte digest")
        if self.codec_id not in (CODEC_NONE, CODEC_ZLIB):
            raise InvalidArgument(f"unknown codec_id {self.codec_id}")


@dataclass(frozen=True, slots=True)
class Document:
    """One sample/prediction row: key, payload (inline bytes or blob pointer),
    optional label, and a tag map."""

    key: str
    payload: bytes | BlobPointer
    label: str | None = None
    tags: dict[str, TagScalar] = field(default_factory=dict)

    @property
    def is_inline(self) -> bool:
        return isinstance(self.payload, bytes)


_new_object = object.__new__
_set_key = Document.key.__set__
_set_payload = Document.payload.__set__
_set_label = Document.label.__set__
_set_tags = Document.tags.__set__


def decoded_document(key: str, payload: bytes | BlobPointer, label: str | None,
                     tags: dict[str, TagScalar]) -> Document:
    """``Document(key, payload, label, tags)`` for a decoder, whose fields
    need no defaults: the slots are filled through their descriptors, which
    skips the frozen ``__setattr__`` that ``__init__`` goes through (about
    half the cost of building one)."""
    doc = _new_object(Document)
    _set_key(doc, key)
    _set_payload(doc, payload)
    _set_label(doc, label)
    _set_tags(doc, tags)
    return doc


def json_doc(key: str, payload: dict) -> Document:
    """A system document whose payload is ``payload`` as sorted-key JSON."""
    return Document(key=key, payload=json.dumps(payload, sort_keys=True).encode())


@dataclass(frozen=True)
class ScanCursor:
    """Resumption token for paged scans; pages all read at ``snapshot_seq``."""

    snapshot_seq: int
    last_key: str


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def checksum_of(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def blob_id_for(checksum: bytes, chunk_size: int, codec_id: int) -> str:
    """Deterministic blob id: identical content + parameters dedupe to one blob."""
    h = hashlib.sha256()
    h.update(checksum)
    h.update(chunk_size.to_bytes(8, "little"))
    h.update(bytes([codec_id]))
    return h.hexdigest()[:32]


def validate_key(key: str) -> None:
    if not isinstance(key, str) or not key:
        raise InvalidArgument("document key must be a non-empty string")
    try:
        size = len(key) if key.isascii() else len(key.encode("utf-8"))
    except UnicodeEncodeError:
        raise InvalidArgument("document key must be UTF-8 encodable") from None
    if size > MAX_KEY_BYTES:
        raise InvalidArgument(f"document key exceeds {MAX_KEY_BYTES} bytes")


def validate_tag_name(name: str) -> None:
    """A tag name, as a tag map and an index take it: a non-empty string of
    printable ASCII without whitespace (bytes 33..126)."""
    if not isinstance(name, str) or not name:
        raise InvalidArgument("tag names must be non-empty strings")
    if not (name.isascii() and name.isprintable()) or " " in name:
        raise InvalidArgument(f"tag name {name!r} must be ASCII without whitespace")


def validate_tags(tags: dict[str, TagScalar]) -> None:
    if not isinstance(tags, dict):
        raise InvalidArgument(f"a tag map must be a dict, got {type(tags).__name__}")
    if len(tags) > MAX_TAGS:
        raise InvalidArgument(f"tag map has {len(tags)} entries; limit is {MAX_TAGS}")
    for name, value in tags.items():
        validate_tag_name(name)
        check_tag_value(value)


def validate_document(doc: Document) -> None:
    """Check a document's key, payload and label. Its tag map is checked
    apart, by ``validate_tags``, so that a batch checks each distinct map
    once (``Store.apply_ops``)."""
    validate_key(doc.key)
    if not isinstance(doc.payload, (bytes, BlobPointer)):
        raise InvalidArgument("payload must be bytes or a BlobPointer")
    if doc.label is not None and not isinstance(doc.label, str):
        raise InvalidArgument("label must be a string when present")
