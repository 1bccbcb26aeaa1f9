"""TCP client with the engine's methods, built from the op table.

Each row of ``forge.wire.protocol.OPS`` becomes a ``ForgeClient`` method
with the signature of the ``Forge`` method it names; ``put_blob``,
``get_blob``, ``write_output`` and ``list_indexes`` are composed here from
other calls.

Calls are synchronous; the client is safe to share between threads (one
request in flight at a time per client). Pure reads are retried up to three
attempts across reconnects after a lost connection; every other operation
surfaces ConnectionLost so the caller can decide — in particular lease_task
is never auto-retried.
"""

from __future__ import annotations

import functools
import os
import socket
import threading

from forge.engine import Forge
from forge.errors import ChecksumMismatch, ConnectionLost, from_code
from forge.store import CODEC_ZLIB, DEFAULT_CHUNK_SIZE, BlobPointer
from forge.store.blob import compress_chunk, decompress_chunk
from forge.store.types import blob_id_for, ceil_div, checksum_of
from forge.tensorio import encode_tensors
from forge.wire import protocol as P
from forge.workflow import output_document

ENV_ADDR = "FORGE_ADDR"
RETRY_ATTEMPTS = 3


def default_address() -> tuple[str, int]:
    return P.parse_address(os.environ.get(ENV_ADDR) or f"{P.DEFAULT_HOST}:{P.DEFAULT_PORT}")


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
            self._drop()

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
        attempts = RETRY_ATTEMPTS if opcode in P.IDEMPOTENT else 1
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
            length, resp_id, status = P.HEADER.unpack(P.recv_exact(sock, P.HEADER_SIZE))
            payload = P.recv_exact(sock, length)
            if resp_id != request_id:
                continue  # stale response from an abandoned request
            resp_head, resp_tail = P.split_payload(payload)
            if status == P.STATUS_OK:
                return resp_head, resp_tail
            if status == P.STATUS_PROTOCOL_ERROR:
                self._drop()  # the server closes the connection after one
            raise from_code(resp_head.get("code", "error"),
                            resp_head.get("message", ""), resp_head.get("data"))

    # -- composite calls ----------------------------------------------------------

    def list_indexes(self) -> list[str]:
        return self.info()["indexes"]

    def put_blob(self, data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 codec_id: int = CODEC_ZLIB) -> BlobPointer:
        """Chunk, compress, and upload; the server verifies the digest."""
        head, _ = self._call(P.BLOB_PUT_BEGIN,
                             {"chunk_size": chunk_size, "codec_id": codec_id})
        upload_id = head["upload_id"]
        count = ceil_div(len(data), chunk_size) if data else 0
        for index in range(count):
            raw = data[index * chunk_size:(index + 1) * chunk_size]
            self._call(P.BLOB_PUT_CHUNK, {"upload_id": upload_id, "index": index},
                       compress_chunk(raw, codec_id))
        checksum = checksum_of(data)
        head, _ = self._call(P.BLOB_PUT_COMMIT,
                             {"upload_id": upload_id, "total_size": len(data),
                              "checksum": checksum.hex()})
        ptr = head["pointer"]
        if data and ptr.blob_id != blob_id_for(checksum, chunk_size, codec_id):
            raise ChecksumMismatch("server returned a mismatched blob id")
        return ptr

    def get_blob(self, ptr: BlobPointer) -> bytes:
        """Chunks cross the wire compressed; reassembly verifies the digest."""
        parts = []
        for index in range(ptr.chunk_count):
            _, stored = self._call(P.BLOB_GET_CHUNK,
                                   {"blob_id": ptr.blob_id, "index": index})
            expected = min(ptr.chunk_size, ptr.total_size - index * ptr.chunk_size)
            parts.append(decompress_chunk(stored, ptr.codec_id, expected))
        data = b"".join(parts)
        if len(data) != ptr.total_size or checksum_of(data) != ptr.checksum:
            raise ChecksumMismatch(f"blob {ptr.blob_id}: digest mismatch")
        return data

    def write_output(self, task_id: str, agent_id: str, index: int, payload,
                     label: str | None = None, tags: dict | None = None) -> str:
        doc = output_document(task_id, index, payload, label, tags)
        return self.write_outputs(task_id, agent_id, [doc])[0]


# tensors are packed through this module's name ``encode_tensors``, looked up at
# call time, so that a wrapper installed there (the benchmark's tracer) sees them
_PACK = {**P.PACK, "tensors": lambda tensors: encode_tensors(tensors)}


def _stub(op: P.Op):
    """The client method for one row of the op table. It takes the engine
    method's arguments and raises TypeError, before anything is sent, where
    the engine method would."""
    positional, pack, unpack = op.positional, _PACK.get(op.codec), P.UNPACK.get(op.codec)

    def call(self, *args, **kwargs):
        if len(args) > len(positional):
            raise TypeError(f"{op.name}() takes {len(positional)} positional "
                            f"arguments but {len(args)} were given")
        head = dict(zip(positional, args))
        if not head.keys().isdisjoint(kwargs):
            raise TypeError(f"{op.name}() got multiple values for "
                            f"{', '.join(sorted(head.keys() & kwargs.keys()))}")
        head.update(kwargs)
        problem = P.argument_error(op.name, head.keys(), op.names, op.required)
        if problem is not None:
            raise TypeError(problem)
        tail = pack(head.pop(op.tail_param)) if op.tail_param in head else b""
        resp_head, resp_tail = self._call(op.code, head, tail)
        if op.tail == P.RESULT:
            return unpack(resp_tail)
        if op.tail == P.RESULT_FIRST:
            return (unpack(resp_tail), *resp_head["result"])
        return resp_head["result"]

    return functools.update_wrapper(call, getattr(Forge, op.name))


for _op in P.OPS:
    setattr(ForgeClient, _op.name, _stub(_op))
