"""TCP client mirroring the engine surface method-for-method.

Calls are synchronous; the client is safe to share between threads (one
request in flight at a time per client). Pure reads are retried up to three
attempts across reconnects after a lost connection; every other operation
surfaces ConnectionLost so the caller can decide — in particular lease_task
is never auto-retried.
"""

from __future__ import annotations

import os
import socket
import threading

from forge.errors import ChecksumMismatch, ConnectionLost, ForgeError, from_code
from forge.store import CODEC_ZLIB, DEFAULT_CHUNK_SIZE, BlobPointer, ScanCursor
from forge.store.blob import compress_chunk, decompress_chunk
from forge.store.records import decode_document, encode_document
from forge.store.types import Document, blob_id_for, ceil_div, checksum_of
from forge.tensorio import decode_tensors, encode_tensors
from forge.wire import protocol as P
from forge.workflow import output_document

ENV_ADDR = "FORGE_ADDR"
RETRY_ATTEMPTS = 3


def default_address() -> tuple[str, int]:
    raw = os.environ.get(ENV_ADDR, f"127.0.0.1:{7114}")
    host, _, port = raw.rpartition(":")
    return host or "127.0.0.1", int(port)


class ForgeClient:
    def __init__(self, host: str | None = None, port: int | None = None,
                 timeout: float = 30.0):
        if host is None or port is None:
            env_host, env_port = default_address()
            host = host or env_host
            port = port or env_port
        self.host, self.port = host, port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._request_id = 0

    # -- transport ------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                finally:
                    self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _call(self, opcode: int, head: dict, tail: bytes = b"") -> tuple[dict, bytes]:
        attempts = RETRY_ATTEMPTS if opcode in P.IDEMPOTENT_OPS else 1
        last_exc: Exception | None = None
        for _ in range(attempts):
            with self._lock:
                try:
                    return self._roundtrip(opcode, head, tail)
                except (OSError, EOFError) as exc:
                    self._drop()
                    last_exc = exc
        raise ConnectionLost(f"request 0x{opcode:02x} failed: {last_exc}")

    def _roundtrip(self, opcode: int, head: dict, tail: bytes) -> tuple[dict, bytes]:
        sock = self._connect()
        self._request_id += 1
        request_id = self._request_id
        sock.sendall(P.pack_message(request_id, opcode, head, tail))
        while True:
            header = self._read_exact(sock, P.HEADER_SIZE)
            length, resp_id, status = P.HEADER.unpack(header)
            payload = self._read_exact(sock, length)
            if resp_id != request_id:
                continue  # stale response from an abandoned request
            resp_head, resp_tail = P.split_payload(payload)
            if status == P.STATUS_OK:
                return resp_head, resp_tail
            raise from_code(resp_head.get("code", "error"),
                            resp_head.get("message", ""), resp_head.get("data"))

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise EOFError("connection closed by server")
            buf.extend(chunk)
        return bytes(buf)

    # -- store ------------------------------------------------------------------

    def info(self) -> dict:
        head, _ = self._call(P.OP_INFO, {})
        return head

    def put_document(self, doc: Document) -> str:
        head, _ = self._call(P.OP_PUT_DOCUMENT, {}, encode_document(doc))
        return head["key"]

    def get_document(self, key: str) -> Document:
        _, tail = self._call(P.OP_GET_DOCUMENT, {"key": key})
        return decode_document(tail)

    def create_index(self, tag_name: str) -> None:
        self._call(P.OP_CREATE_INDEX, {"tag": tag_name})

    def list_indexes(self) -> list[str]:
        return self.info()["indexes"]

    def scan(self, query, cursor: ScanCursor | None = None, limit: int | None = None,
             use_index: bool = True):
        from forge.query import TagQuery, render

        if isinstance(query, TagQuery):
            query = render(query)
        head, _ = self._call(P.OP_SCAN, {"query": query,
                                         "cursor": P.cursor_to_dict(cursor),
                                         "limit": limit, "use_index": use_index})
        return head["keys"], P.cursor_from_dict(head["cursor"])

    def put_blob(self, data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 codec_id: int = CODEC_ZLIB) -> BlobPointer:
        """Chunk, compress, and upload; the server verifies the digest."""
        head, _ = self._call(P.OP_BLOB_PUT_BEGIN,
                             {"chunk_size": chunk_size, "codec_id": codec_id})
        upload_id = head["upload_id"]
        count = ceil_div(len(data), chunk_size) if data else 0
        for index in range(count):
            raw = data[index * chunk_size:(index + 1) * chunk_size]
            self._call(P.OP_BLOB_PUT_CHUNK, {"upload_id": upload_id, "index": index},
                       compress_chunk(raw, codec_id))
        checksum = checksum_of(data)
        head, _ = self._call(P.OP_BLOB_PUT_COMMIT,
                             {"upload_id": upload_id, "total_size": len(data),
                              "checksum": checksum.hex()})
        ptr = P.pointer_from_dict(head["pointer"])
        if data and ptr.blob_id != blob_id_for(checksum, chunk_size, codec_id):
            raise ChecksumMismatch("server returned a mismatched blob id")
        return ptr

    def get_blob(self, ptr: BlobPointer) -> bytes:
        """Chunks cross the wire compressed; reassembly verifies the digest."""
        parts = []
        for index in range(ptr.chunk_count):
            _, stored = self._call(P.OP_BLOB_GET_CHUNK,
                                   {"blob_id": ptr.blob_id, "index": index})
            expected = min(ptr.chunk_size, ptr.total_size - index * ptr.chunk_size)
            parts.append(decompress_chunk(stored, ptr.codec_id, expected))
        data = b"".join(parts)
        if len(data) != ptr.total_size or checksum_of(data) != ptr.checksum:
            raise ChecksumMismatch(f"blob {ptr.blob_id}: digest mismatch")
        return data

    # -- dataset ------------------------------------------------------------------

    def define_view(self, view_key: str, query):
        from forge.query import TagQuery, render

        if isinstance(query, TagQuery):
            query = render(query)
        head, _ = self._call(P.OP_DEFINE_VIEW, {"view_key": view_key, "query": query})
        return P.view_from_dict(head)

    def get_view(self, view_key: str):
        head, _ = self._call(P.OP_GET_VIEW, {"view_key": view_key})
        return P.view_from_dict(head)

    def list_views(self) -> list[str]:
        head, _ = self._call(P.OP_LIST_VIEWS, {})
        return head["views"]

    def open_cursor(self, view_key: str, batch_size: int, cursor_id: str = "default"):
        head, _ = self._call(P.OP_OPEN_CURSOR, {"view_key": view_key,
                                                "batch_size": batch_size,
                                                "cursor_id": cursor_id})
        return P.batch_cursor_from_dict(head)

    def read_batch(self, cursor):
        head, tail = self._call(P.OP_READ_BATCH,
                                {"cursor": P.batch_cursor_to_dict(cursor)})
        docs = P.unpack_documents(tail, head["count"])
        return docs, P.batch_cursor_from_dict(head["cursor"]), head["end"]

    def view_slice(self, view_key: str, after_key: str = "", upto_key: str | None = None):
        head, tail = self._call(P.OP_VIEW_SLICE, {"view_key": view_key,
                                                  "after_key": after_key,
                                                  "upto_key": upto_key})
        return P.unpack_documents(tail, head["count"])

    def attach_stream(self, view_key: str, threshold: int, max_age_ms: int,
                      model_key: str, output_dataset: str):
        head, _ = self._call(P.OP_ATTACH_STREAM,
                             {"view_key": view_key, "threshold": threshold,
                              "max_age_ms": max_age_ms, "model_key": model_key,
                              "output_dataset": output_dataset})
        return P.controller_from_dict(head)

    def poll_stream(self, view_key: str, poller_id: str, lease_ttl_ms: int = 30_000):
        head, _ = self._call(P.OP_POLL_STREAM, {"view_key": view_key,
                                                "poller_id": poller_id,
                                                "lease_ttl_ms": lease_ttl_ms})
        return P.task_from_dict(head["task"])

    # -- models ---------------------------------------------------------------------

    def register_model(self, model_key: str, spec: dict):
        head, _ = self._call(P.OP_REGISTER_MODEL, {"model_key": model_key, "spec": spec})
        return P.record_from_dict(head)

    def get_model(self, model_key: str):
        head, _ = self._call(P.OP_GET_MODEL, {"model_key": model_key})
        return P.record_from_dict(head)

    def list_models(self) -> list[str]:
        head, _ = self._call(P.OP_LIST_MODELS, {})
        return head["models"]

    def save_state(self, model_key: str, step: int, tensors, metrics: dict | None = None,
                   parent_version: str | None = None, *, events=()):
        head, _ = self._call(P.OP_SAVE_STATE,
                             {"model_key": model_key, "step": step, "metrics": metrics,
                              "parent_version": parent_version,
                              "events": list(events)},
                             encode_tensors(tensors))
        return P.version_from_dict(head)

    def load_state(self, model_key: str, selector: str = "latest"):
        _, tail = self._call(P.OP_LOAD_STATE, {"model_key": model_key,
                                               "selector": selector})
        return decode_tensors(tail)

    def list_versions(self, model_key: str):
        head, _ = self._call(P.OP_LIST_VERSIONS, {"model_key": model_key})
        return [P.version_from_dict(v) for v in head["versions"]]

    def get_version(self, model_key: str, selector: str = "latest"):
        head, _ = self._call(P.OP_GET_VERSION, {"model_key": model_key,
                                                "selector": selector})
        return P.version_from_dict(head)

    def record_event(self, model_key: str, step: int, name: str, value: float) -> None:
        self._call(P.OP_RECORD_EVENT, {"model_key": model_key, "step": step,
                                       "name": name, "value": value})

    def query_events(self, model_key: str, name: str | None = None,
                     step_range: tuple[int, int] | None = None):
        head, _ = self._call(P.OP_QUERY_EVENTS,
                             {"model_key": model_key, "name": name,
                              "step_range": list(step_range) if step_range else None})
        return [P.event_from_dict(e) for e in head["events"]]

    # -- workflow -------------------------------------------------------------------

    def submit_task(self, *, kind: str, input_dataset: str = "", model_key: str = "",
                    output_dataset: str = "", params: dict | None = None,
                    task_id: str | None = None, max_attempts: int = 3) -> str:
        head, _ = self._call(P.OP_SUBMIT_TASK,
                             {"kind": kind, "input_dataset": input_dataset,
                              "model_key": model_key, "output_dataset": output_dataset,
                              "params": params, "task_id": task_id,
                              "max_attempts": max_attempts})
        return head["task_id"]

    def get_task(self, task_id: str):
        head, _ = self._call(P.OP_GET_TASK, {"task_id": task_id})
        return P.task_from_dict(head["task"])

    def list_tasks(self, plan_id: str | None = None):
        head, _ = self._call(P.OP_LIST_TASKS, {"plan_id": plan_id})
        return [P.task_from_dict(t) for t in head["tasks"]]

    def lease_task(self, agent_id: str, lease_ttl_ms: int,
                   kinds: list[str] | None = None):
        head, _ = self._call(P.OP_LEASE_TASK, {"agent_id": agent_id,
                                               "lease_ttl_ms": lease_ttl_ms,
                                               "kinds": kinds})
        return P.task_from_dict(head["task"])

    def heartbeat(self, task_id: str, agent_id: str, lease_ttl_ms: int) -> None:
        self._call(P.OP_HEARTBEAT, {"task_id": task_id, "agent_id": agent_id,
                                    "lease_ttl_ms": lease_ttl_ms})

    def write_outputs(self, task_id: str, agent_id: str,
                      outputs: list[Document]) -> list[str]:
        head, _ = self._call(P.OP_WRITE_OUTPUT,
                             {"task_id": task_id, "agent_id": agent_id,
                              "count": len(outputs)},
                             P.pack_documents(outputs))
        return head["keys"]

    def write_output(self, task_id: str, agent_id: str, index: int, payload,
                     label: str | None = None, tags: dict | None = None) -> str:
        doc = output_document(task_id, index, payload, label, tags)
        return self.write_outputs(task_id, agent_id, [doc])[0]

    def complete_task(self, task_id: str, agent_id: str, outcome: str,
                      message: str | None = None,
                      output_keys: tuple[str, ...] = (), *,
                      outputs: list[Document] = ()) -> None:
        self._call(P.OP_COMPLETE_TASK, {"task_id": task_id, "agent_id": agent_id,
                                        "outcome": outcome, "message": message,
                                        "output_keys": list(output_keys),
                                        "count": len(outputs)},
                   P.pack_documents(outputs))

    def submit_plan(self, plan_doc: dict) -> str:
        head, _ = self._call(P.OP_SUBMIT_PLAN, {"plan": plan_doc})
        return head["plan_id"]

    def plan_status(self, plan_id: str) -> dict:
        head, _ = self._call(P.OP_PLAN_STATUS, {"plan_id": plan_id})
        return head

    def master_step(self, master_id: str, lease_ttl_ms: int = 30_000) -> dict:
        head, _ = self._call(P.OP_MASTER_STEP, {"master_id": master_id,
                                                "lease_ttl_ms": lease_ttl_ms})
        return head

    def replay_task(self, task_id: str) -> None:
        self._call(P.OP_REPLAY_TASK, {"task_id": task_id})
