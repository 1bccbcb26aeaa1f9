"""Frame format, opcode table, and payload codecs for the TCP service.

See PROTOCOL.md at the repository root for the normative byte-level
description. Summary: every message is

    u32 payload-length (LE) | u64 request-id (LE) | u8 opcode-or-status | payload

capped at 16 MiB of payload. Requests carry an opcode; responses echo the
request id and carry a status byte (0 ok, 1 domain error, 2 protocol error).
A payload is a JSON "head" plus an optional binary tail:

    u32 json-length (LE) | UTF-8 JSON | tail bytes

Bulk data (documents, tensor containers, blob chunks) rides in the tail;
blob chunks cross the wire in their stored, compressed form.
"""

from __future__ import annotations

import json
import struct

from forge.dataset import BatchCursor, DatasetView, StreamController
from forge.errors import FrameTooLarge, ProtocolError
from forge.models import ModelEvent, ModelRecord, ModelVersion
from forge.store import BlobPointer, Document, ScanCursor
from forge.store.records import decode_document_at, encode_document
from forge.store.types import MAX_PAYLOAD
from forge.workflow import Task

HEADER = struct.Struct("<IQB")
HEADER_SIZE = HEADER.size

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_PROTOCOL_ERROR = 2

# opcode table
OP_INFO = 0x01
OP_PUT_DOCUMENT = 0x02
OP_GET_DOCUMENT = 0x03
OP_CREATE_INDEX = 0x04
OP_SCAN = 0x05
OP_BLOB_PUT_BEGIN = 0x07
OP_BLOB_PUT_CHUNK = 0x08
OP_BLOB_PUT_COMMIT = 0x09
OP_BLOB_GET_CHUNK = 0x0A
OP_DEFINE_VIEW = 0x10
OP_GET_VIEW = 0x11
OP_LIST_VIEWS = 0x12
OP_OPEN_CURSOR = 0x13
OP_READ_BATCH = 0x14
OP_VIEW_SLICE = 0x15
OP_ATTACH_STREAM = 0x16
OP_POLL_STREAM = 0x17
OP_REGISTER_MODEL = 0x20
OP_GET_MODEL = 0x21
OP_LIST_MODELS = 0x22
OP_SAVE_STATE = 0x23
OP_LOAD_STATE = 0x24
OP_LIST_VERSIONS = 0x25
OP_GET_VERSION = 0x26
OP_RECORD_EVENT = 0x27
OP_QUERY_EVENTS = 0x28
OP_SUBMIT_TASK = 0x30
OP_GET_TASK = 0x31
OP_LIST_TASKS = 0x32
OP_LEASE_TASK = 0x33
OP_HEARTBEAT = 0x34
OP_WRITE_OUTPUT = 0x35
OP_COMPLETE_TASK = 0x36
OP_SUBMIT_PLAN = 0x37
OP_PLAN_STATUS = 0x38
OP_MASTER_STEP = 0x39
OP_REPLAY_TASK = 0x3A

# requests safe to retry transparently after a lost connection (pure reads)
IDEMPOTENT_OPS = frozenset({
    OP_INFO, OP_GET_DOCUMENT, OP_SCAN, OP_BLOB_GET_CHUNK, OP_GET_VIEW,
    OP_LIST_VIEWS, OP_GET_MODEL, OP_LIST_MODELS, OP_LOAD_STATE,
    OP_LIST_VERSIONS, OP_GET_VERSION, OP_QUERY_EVENTS, OP_GET_TASK,
    OP_LIST_TASKS, OP_PLAN_STATUS,
})


def pack_message(request_id: int, code: int, head: dict, tail: bytes = b"") -> bytes:
    raw_head = json.dumps(head, sort_keys=True).encode("utf-8")
    payload_len = 4 + len(raw_head) + len(tail)
    if payload_len > MAX_PAYLOAD:
        raise FrameTooLarge(f"payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")
    return (HEADER.pack(payload_len, request_id, code)
            + struct.pack("<I", len(raw_head)) + raw_head + tail)


def split_payload(payload: bytes) -> tuple[dict, bytes]:
    if len(payload) < 4:
        raise ProtocolError("payload too short for JSON head")
    (head_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + head_len > len(payload):
        raise ProtocolError("JSON head overruns payload")
    try:
        head = json.loads(payload[4:4 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON head: {exc}") from exc
    if not isinstance(head, dict):
        raise ProtocolError("JSON head must be an object")
    return head, payload[4 + head_len:]


# --- document lists in tails ---------------------------------------------------

def pack_documents(docs: list[Document]) -> bytes:
    parts = []
    for doc in docs:
        raw = encode_document(doc)
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def unpack_documents(tail: bytes, count: int) -> list[Document]:
    docs = []
    off = 0
    for _ in range(count):
        (length,) = struct.unpack_from("<I", tail, off)
        off += 4
        doc, _ = decode_document_at(tail[off:off + length], 0)
        docs.append(doc)
        off += length
    return docs


# --- dataclass <-> JSON dict codecs ---------------------------------------------

def pointer_to_dict(ptr: BlobPointer) -> dict:
    return {
        "blob_id": ptr.blob_id,
        "total_size": ptr.total_size,
        "chunk_count": ptr.chunk_count,
        "chunk_size": ptr.chunk_size,
        "codec_id": ptr.codec_id,
        "checksum": ptr.checksum.hex(),
    }


def pointer_from_dict(d: dict) -> BlobPointer:
    return BlobPointer(
        blob_id=d["blob_id"],
        total_size=d["total_size"],
        chunk_count=d["chunk_count"],
        chunk_size=d["chunk_size"],
        codec_id=d["codec_id"],
        checksum=bytes.fromhex(d["checksum"]),
    )


def cursor_to_dict(cursor: ScanCursor | None) -> list | None:
    return None if cursor is None else [cursor.snapshot_seq, cursor.last_key]


def cursor_from_dict(value) -> ScanCursor | None:
    return None if value is None else ScanCursor(snapshot_seq=value[0], last_key=value[1])


def view_to_dict(view: DatasetView) -> dict:
    from forge.query import render

    return {"view_key": view.view_key, "query": render(view.query),
            "created_at": view.created_at}


def view_from_dict(d: dict) -> DatasetView:
    from forge.query import parse

    return DatasetView(view_key=d["view_key"], query=parse(d["query"]),
                       created_at=d["created_at"])


def batch_cursor_to_dict(cursor: BatchCursor) -> dict:
    return {"view_key": cursor.view_key, "cursor_id": cursor.cursor_id,
            "position": cursor.position, "batch_size": cursor.batch_size}


def batch_cursor_from_dict(d: dict) -> BatchCursor:
    return BatchCursor(**d)


def controller_to_dict(ctl: StreamController) -> dict:
    return {
        "view_key": ctl.view_key, "threshold": ctl.threshold,
        "max_age_ms": ctl.max_age_ms, "model_key": ctl.model_key,
        "output_dataset": ctl.output_dataset, "watermark": ctl.watermark,
        "lease_holder": ctl.lease_holder, "lease_until": ctl.lease_until,
    }


def controller_from_dict(d: dict) -> StreamController:
    return StreamController(**d)


def record_to_dict(record: ModelRecord) -> dict:
    return {"model_key": record.model_key, "spec": record.spec,
            "created_at": record.created_at}


def record_from_dict(d: dict) -> ModelRecord:
    return ModelRecord(model_key=d["model_key"], spec=d["spec"],
                       created_at=d["created_at"])


def version_to_dict(version: ModelVersion) -> dict:
    return {
        "model_key": version.model_key, "version_id": version.version_id,
        "step": version.step, "state": pointer_to_dict(version.state),
        "metrics": version.metrics, "parent_version": version.parent_version,
        "created_at": version.created_at,
    }


def version_from_dict(d: dict) -> ModelVersion:
    return ModelVersion(
        model_key=d["model_key"], version_id=d["version_id"], step=d["step"],
        state=pointer_from_dict(d["state"]), metrics=d["metrics"],
        parent_version=d["parent_version"], created_at=d["created_at"],
    )


def event_to_dict(event: ModelEvent) -> dict:
    return {"model_key": event.model_key, "step": event.step, "name": event.name,
            "value": event.value, "at": event.at}


def event_from_dict(d: dict) -> ModelEvent:
    return ModelEvent(**d)


def task_to_dict(task: Task | None) -> dict | None:
    return None if task is None else task.to_dict()


def task_from_dict(d: dict | None) -> Task | None:
    return None if d is None else Task.from_dict(d)
