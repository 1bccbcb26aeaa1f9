"""TCP service hosting one writable engine.

Connections are handled on threads; every request executes atomically
against the engine (its lock serializes mutations) and is durable before the
ok response goes out. Dispatch is built from the op table in
``forge.wire.protocol``: each opcode calls the engine method its row names,
with the head's arguments by name. A malformed frame earns a protocol-error
response and the connection is closed; an unknown opcode, or a head that
names an unknown argument, lacks a required one, or holds a malformed one
or one of a type its parameter does not take, earns an error response
(``invalid_argument`` for argument names and types) and the connection
survives. Random garbage on the socket can kill its own connection, never
the server or the store.

A blob upload (``BLOB_PUT_*``) is the list of its raw slices, kept in its
connection thread's state, so one its client abandons is freed when the
connection ends. Its commit checks the joined slices against the declared
length and sha-256 and stores them through ``Forge.put_blob``, under the
engine lock.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import uuid

from forge.engine import Forge
from forge.errors import (
    ChecksumMismatch,
    CorruptStore,
    ForgeError,
    InvalidArgument,
    NotFound,
    ProtocolError,
)
from forge.store.types import checksum_of
from forge.wire import protocol as P

log = logging.getLogger("forge.wire")


class ForgeServer:
    def __init__(self, engine: Forge, host: str = P.DEFAULT_HOST, port: int = P.DEFAULT_PORT):
        self.engine = engine
        self._connection = threading.local()  # the serving thread's uploads
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
        self._connection.uploads = {}
        try:
            while True:
                length, request_id, opcode = P.HEADER.unpack(
                    P.recv_exact(conn, P.HEADER_SIZE))
                if length > P.MAX_PAYLOAD:
                    self._send(conn, request_id, P.STATUS_PROTOCOL_ERROR,
                               {"code": "frame_too_large",
                                "message": f"frame payload {length} exceeds {P.MAX_PAYLOAD}"})
                    return
                payload = P.recv_exact(conn, length)
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
        except (OSError, EOFError):
            pass
        finally:
            del self._connection.uploads  # abandoned uploads end here
            try:
                conn.close()
            except OSError:
                pass

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

def _handler(op: P.Op):
    """Dispatch for one row of the op table: the head's arguments, and the
    tail's if the row declares one, go to the engine method by name."""
    pack, unpack = P.PACK.get(op.codec), P.UNPACK.get(op.codec)
    names, required = op.names - {op.tail_param}, op.required - {op.tail_param}

    def handle(server, head, tail):
        problem = (P.argument_error(op.name, head.keys(), names, required)
                   or P.type_error(f"{op.name}(): ", head, op.types))
        if problem is not None:
            raise InvalidArgument(problem)
        if op.tail_param is not None and (tail or op.tail_param in op.required):
            try:
                head[op.tail_param] = unpack(tail)
            except (CorruptStore, struct.error, ValueError) as exc:
                raise InvalidArgument(f"{op.name}(): malformed tail: {exc!r}") from exc
        result = getattr(server.engine, op.name)(**head)
        if op.tail == P.RESULT:
            return {"result": None}, pack(result)
        if op.tail == P.RESULT_FIRST:
            return {"result": result[1:]}, pack(result[0])
        return {"result": result}, b""

    return handle


# the chunked blob transfer is not an engine method; these rows are written out

def _expect(head, *names):
    if head.keys() != set(names):
        wanted = f"arguments {', '.join(names)}" if names else "no arguments"
        raise InvalidArgument(f"expected {wanted}, got {sorted(head)}")


def _blob_put_begin(s, head, tail):
    _expect(head)
    upload_id = uuid.uuid4().hex
    s._connection.uploads[upload_id] = []
    return {"upload_id": upload_id}, b""


def _upload(s, upload_id) -> list[bytes]:
    try:
        return s._connection.uploads[upload_id]
    except (KeyError, TypeError):
        raise NotFound(f"no upload {upload_id!r} on this connection") from None


def _blob_put_chunk(s, head, tail):
    _expect(head, "upload_id", "index")
    parts = _upload(s, head["upload_id"])
    if head["index"] != len(parts):
        raise InvalidArgument(f"expected slice {len(parts)}, got {head['index']!r}")
    parts.append(tail)
    return {}, b""


def _blob_put_commit(s, head, tail):
    _expect(head, "upload_id", "total_size", "checksum")
    data = b"".join(_upload(s, head["upload_id"]))
    del s._connection.uploads[head["upload_id"]]
    if len(data) != head["total_size"] or checksum_of(data).hex() != head["checksum"]:
        raise ChecksumMismatch("uploaded bytes do not match the declared size and digest")
    return {"pointer": s.engine.put_blob(data)}, b""


def _blob_get_chunk(s, head, tail):
    _expect(head, "blob_id", "index")
    return {}, s.engine.store.blobs.read_chunk(head["blob_id"], head["index"])


_HANDLERS = {op.code: _handler(op) for op in P.OPS}
_HANDLERS.update({
    P.BLOB_PUT_BEGIN: _blob_put_begin,
    P.BLOB_PUT_CHUNK: _blob_put_chunk,
    P.BLOB_PUT_COMMIT: _blob_put_commit,
    P.BLOB_GET_CHUNK: _blob_get_chunk,
})
