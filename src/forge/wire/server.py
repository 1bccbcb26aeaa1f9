"""TCP service hosting one writable engine.

Connections are handled on threads; every request executes atomically
against the engine (its lock serializes mutations) and is durable before the
ok response goes out. A malformed frame earns a protocol-error response and
the connection is closed; an unknown opcode earns an error response but the
connection survives. Random garbage on the socket can kill its own
connection, never the server or the store.
"""

from __future__ import annotations

import logging
import socket
import threading
import uuid

from forge.engine import Forge
from forge.errors import ForgeError, NotFound, ProtocolError
from forge.wire import protocol as P

log = logging.getLogger("forge.wire")

DEFAULT_PORT = 7114


class _Uploads:
    """In-flight chunked blob uploads, per server."""

    def __init__(self):
        self._lock = threading.Lock()
        self._active: dict[str, dict] = {}

    def begin(self, chunk_size: int, codec_id: int) -> str:
        upload_id = uuid.uuid4().hex
        with self._lock:
            self._active[upload_id] = {"chunk_size": chunk_size, "codec_id": codec_id,
                                       "chunks": {}}
        return upload_id

    def add(self, upload_id: str, index: int, data: bytes) -> None:
        with self._lock:
            entry = self._active.get(upload_id)
            if entry is None:
                raise NotFound(f"unknown upload {upload_id!r}")
            entry["chunks"][index] = data

    def finish(self, upload_id: str) -> dict:
        with self._lock:
            entry = self._active.pop(upload_id, None)
        if entry is None:
            raise NotFound(f"unknown upload {upload_id!r}")
        return entry


class ForgeServer:
    def __init__(self, engine: Forge, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self.engine = engine
        self._uploads = _Uploads()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def serve_forever(self) -> None:
        self._accept_loop()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    # -- connection handling ------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                header = self._read_exact(conn, P.HEADER_SIZE)
                if header is None:
                    return
                length, request_id, opcode = P.HEADER.unpack(header)
                if length > P.MAX_PAYLOAD:
                    self._send(conn, request_id, P.STATUS_PROTOCOL_ERROR,
                               {"code": "frame_too_large",
                                "message": f"frame payload {length} exceeds {P.MAX_PAYLOAD}"})
                    return
                payload = self._read_exact(conn, length)
                if payload is None:
                    return
                try:
                    head, tail = P.split_payload(payload)
                    handler = _HANDLERS.get(opcode)
                    if handler is None:
                        self._send(conn, request_id, P.STATUS_ERROR,
                                   {"code": "protocol_error",
                                    "message": f"unknown opcode 0x{opcode:02x}"})
                        continue
                    resp_head, resp_tail = handler(self, head, tail)
                    self._send(conn, request_id, P.STATUS_OK, resp_head, resp_tail)
                except ProtocolError as exc:
                    self._send(conn, request_id, P.STATUS_PROTOCOL_ERROR,
                               {"code": exc.code, "message": exc.message})
                    return
                except ForgeError as exc:
                    self._send(conn, request_id, P.STATUS_ERROR,
                               {"code": exc.code, "message": exc.message,
                                "data": _jsonable(exc.data)})
                except Exception as exc:  # noqa: BLE001 - never kill the server
                    log.exception("request 0x%02x failed", opcode)
                    self._send(conn, request_id, P.STATUS_ERROR,
                               {"code": "error", "message": f"internal error: {exc}"})
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _read_exact(conn: socket.socket, n: int) -> bytes | None:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = conn.recv(n - len(buf))
            except OSError:
                return None
            if not chunk:
                return None
            buf.extend(chunk)
        return bytes(buf)

    @staticmethod
    def _send(conn: socket.socket, request_id: int, status: int, head: dict,
              tail: bytes = b"") -> None:
        try:
            conn.sendall(P.pack_message(request_id, status, head, tail))
        except OSError:
            pass


def _jsonable(data: dict) -> dict:
    try:
        import json

        json.dumps(data)
        return data
    except (TypeError, ValueError):
        return {}


# --- request handlers: (server, head, tail) -> (head, tail) --------------------

def _h_info(s, head, tail):
    return s.engine.info(), b""


def _h_put_document(s, head, tail):
    from forge.store.records import decode_document

    key = s.engine.put_document(decode_document(tail))
    return {"key": key}, b""


def _h_get_document(s, head, tail):
    from forge.store.records import encode_document

    doc = s.engine.get_document(head["key"])
    return {}, encode_document(doc)


def _h_create_index(s, head, tail):
    s.engine.create_index(head["tag"])
    return {}, b""


def _h_scan(s, head, tail):
    keys, cursor = s.engine.scan(head["query"],
                                 P.cursor_from_dict(head.get("cursor")),
                                 head.get("limit"),
                                 use_index=head.get("use_index", True))
    return {"keys": keys, "cursor": P.cursor_to_dict(cursor)}, b""


def _h_blob_put_begin(s, head, tail):
    return {"upload_id": s._uploads.begin(head["chunk_size"], head["codec_id"])}, b""


def _h_blob_put_chunk(s, head, tail):
    s._uploads.add(head["upload_id"], head["index"], tail)
    return {}, b""


def _h_blob_put_commit(s, head, tail):
    entry = s._uploads.finish(head["upload_id"])
    chunks = [entry["chunks"][i] for i in sorted(entry["chunks"])]
    if sorted(entry["chunks"]) != list(range(len(chunks))):
        raise ProtocolError("upload is missing chunks")
    ptr = s.engine.store.blobs.put_prechunked(
        chunks, entry["chunk_size"], entry["codec_id"],
        head["total_size"], bytes.fromhex(head["checksum"]))
    return {"pointer": P.pointer_to_dict(ptr)}, b""


def _h_blob_get_chunk(s, head, tail):
    return {}, s.engine.store.blobs.read_chunk(head["blob_id"], head["index"])


def _h_define_view(s, head, tail):
    view = s.engine.define_view(head["view_key"], head["query"])
    return P.view_to_dict(view), b""


def _h_get_view(s, head, tail):
    return P.view_to_dict(s.engine.get_view(head["view_key"])), b""


def _h_list_views(s, head, tail):
    return {"views": s.engine.list_views()}, b""


def _h_open_cursor(s, head, tail):
    cursor = s.engine.open_cursor(head["view_key"], head["batch_size"],
                                  head.get("cursor_id", "default"))
    return P.batch_cursor_to_dict(cursor), b""


def _h_read_batch(s, head, tail):
    docs, cursor, end = s.engine.read_batch(P.batch_cursor_from_dict(head["cursor"]))
    return ({"cursor": P.batch_cursor_to_dict(cursor), "end": end, "count": len(docs)},
            P.pack_documents(docs))


def _h_view_slice(s, head, tail):
    docs = s.engine.view_slice(head["view_key"], head.get("after_key", ""),
                               head.get("upto_key"))
    return {"count": len(docs)}, P.pack_documents(docs)


def _h_attach_stream(s, head, tail):
    ctl = s.engine.attach_stream(head["view_key"], head["threshold"],
                                 head["max_age_ms"], head["model_key"],
                                 head["output_dataset"])
    return P.controller_to_dict(ctl), b""


def _h_poll_stream(s, head, tail):
    task = s.engine.poll_stream(head["view_key"], head["poller_id"],
                                head.get("lease_ttl_ms", 30_000))
    return {"task": P.task_to_dict(task)}, b""


def _h_register_model(s, head, tail):
    return P.record_to_dict(s.engine.register_model(head["model_key"], head["spec"])), b""


def _h_get_model(s, head, tail):
    return P.record_to_dict(s.engine.get_model(head["model_key"])), b""


def _h_list_models(s, head, tail):
    return {"models": s.engine.list_models()}, b""


def _h_save_state(s, head, tail):
    from forge.tensorio import decode_tensors

    version = s.engine.save_state(head["model_key"], head["step"],
                                  decode_tensors(tail), head.get("metrics"),
                                  head.get("parent_version"),
                                  events=head.get("events") or ())
    return P.version_to_dict(version), b""


def _h_load_state(s, head, tail):
    from forge.tensorio import encode_tensors

    tensors = s.engine.load_state(head["model_key"], head.get("selector", "latest"))
    return {}, encode_tensors(tensors)


def _h_list_versions(s, head, tail):
    versions = s.engine.list_versions(head["model_key"])
    return {"versions": [P.version_to_dict(v) for v in versions]}, b""


def _h_get_version(s, head, tail):
    version = s.engine.get_version(head["model_key"], head.get("selector", "latest"))
    return P.version_to_dict(version), b""


def _h_record_event(s, head, tail):
    s.engine.record_event(head["model_key"], head["step"], head["name"], head["value"])
    return {}, b""


def _h_query_events(s, head, tail):
    step_range = head.get("step_range")
    events = s.engine.query_events(head["model_key"], head.get("name"),
                                   tuple(step_range) if step_range else None)
    return {"events": [P.event_to_dict(e) for e in events]}, b""


def _h_submit_task(s, head, tail):
    task_id = s.engine.submit_task(
        kind=head["kind"], input_dataset=head.get("input_dataset", ""),
        model_key=head.get("model_key", ""), output_dataset=head.get("output_dataset", ""),
        params=head.get("params"), task_id=head.get("task_id"),
        max_attempts=head.get("max_attempts", 3))
    return {"task_id": task_id}, b""


def _h_get_task(s, head, tail):
    return {"task": P.task_to_dict(s.engine.get_task(head["task_id"]))}, b""


def _h_list_tasks(s, head, tail):
    tasks = s.engine.list_tasks(head.get("plan_id"))
    return {"tasks": [P.task_to_dict(t) for t in tasks]}, b""


def _h_lease_task(s, head, tail):
    task = s.engine.lease_task(head["agent_id"], head["lease_ttl_ms"], head.get("kinds"))
    return {"task": P.task_to_dict(task)}, b""


def _h_heartbeat(s, head, tail):
    s.engine.heartbeat(head["task_id"], head["agent_id"], head["lease_ttl_ms"])
    return {}, b""


def _h_write_output(s, head, tail):
    keys = s.engine.write_outputs(head["task_id"], head["agent_id"],
                                  P.unpack_documents(tail, head["count"]))
    return {"keys": keys}, b""


def _h_complete_task(s, head, tail):
    s.engine.complete_task(head["task_id"], head["agent_id"], head["outcome"],
                           head.get("message"), tuple(head.get("output_keys", ())),
                           outputs=P.unpack_documents(tail, head.get("count", 0)))
    return {}, b""


def _h_submit_plan(s, head, tail):
    return {"plan_id": s.engine.submit_plan(head["plan"])}, b""


def _h_plan_status(s, head, tail):
    return s.engine.plan_status(head["plan_id"]), b""


def _h_master_step(s, head, tail):
    return s.engine.master_step(head["master_id"], head.get("lease_ttl_ms", 30_000)), b""


def _h_replay_task(s, head, tail):
    s.engine.replay_task(head["task_id"])
    return {}, b""


_HANDLERS = {
    P.OP_INFO: _h_info,
    P.OP_PUT_DOCUMENT: _h_put_document,
    P.OP_GET_DOCUMENT: _h_get_document,
    P.OP_CREATE_INDEX: _h_create_index,
    P.OP_SCAN: _h_scan,
    P.OP_BLOB_PUT_BEGIN: _h_blob_put_begin,
    P.OP_BLOB_PUT_CHUNK: _h_blob_put_chunk,
    P.OP_BLOB_PUT_COMMIT: _h_blob_put_commit,
    P.OP_BLOB_GET_CHUNK: _h_blob_get_chunk,
    P.OP_DEFINE_VIEW: _h_define_view,
    P.OP_GET_VIEW: _h_get_view,
    P.OP_LIST_VIEWS: _h_list_views,
    P.OP_OPEN_CURSOR: _h_open_cursor,
    P.OP_READ_BATCH: _h_read_batch,
    P.OP_VIEW_SLICE: _h_view_slice,
    P.OP_ATTACH_STREAM: _h_attach_stream,
    P.OP_POLL_STREAM: _h_poll_stream,
    P.OP_REGISTER_MODEL: _h_register_model,
    P.OP_GET_MODEL: _h_get_model,
    P.OP_LIST_MODELS: _h_list_models,
    P.OP_SAVE_STATE: _h_save_state,
    P.OP_LOAD_STATE: _h_load_state,
    P.OP_LIST_VERSIONS: _h_list_versions,
    P.OP_GET_VERSION: _h_get_version,
    P.OP_RECORD_EVENT: _h_record_event,
    P.OP_QUERY_EVENTS: _h_query_events,
    P.OP_SUBMIT_TASK: _h_submit_task,
    P.OP_GET_TASK: _h_get_task,
    P.OP_LIST_TASKS: _h_list_tasks,
    P.OP_LEASE_TASK: _h_lease_task,
    P.OP_HEARTBEAT: _h_heartbeat,
    P.OP_WRITE_OUTPUT: _h_write_output,
    P.OP_COMPLETE_TASK: _h_complete_task,
    P.OP_SUBMIT_PLAN: _h_submit_plan,
    P.OP_PLAN_STATUS: _h_plan_status,
    P.OP_MASTER_STEP: _h_master_step,
    P.OP_REPLAY_TASK: _h_replay_task,
}
