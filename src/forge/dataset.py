"""Dataset views, batch cursors, and stream-controller trigger logic.

Views are named queries: defining one stores a few metadata bytes and never
copies documents. Batch cursors walk a view in key order and persist their
position so a restarted consumer resumes without duplicates. A stream
controller watches a view for documents beyond its watermark and asks for a
training task once the backlog is significant (count >= B, or the oldest
pending document is older than T). This module decides; the workflow's
``poll_stream`` commits the task and the watermark advance in one atomic
batch, which is what makes dispatch exactly-once across crashes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from forge.errors import AlreadyAttached, DuplicateKey, InvalidArgument, NotFound, ViewNotFound
from forge.query import TagQuery, parse, render
from forge.store import Document, PutOp, ScanCursor, Store
from forge.store.types import json_doc

VIEW_PREFIX = "__sys/view/"
CURSOR_PREFIX = "__sys/cursor/"
STREAM_PREFIX = "__sys/stream/"

MIN_MAX_AGE_MS = 100


@dataclass(frozen=True)
class DatasetView:
    view_key: str
    query: TagQuery
    created_at: int


@dataclass(frozen=True)
class BatchCursor:
    view_key: str
    cursor_id: str
    position: str  # last consumed key, exclusive; "" = start
    batch_size: int


@dataclass(frozen=True)
class StreamController:
    view_key: str
    threshold: int
    max_age_ms: int
    model_key: str
    output_dataset: str
    watermark: str


@dataclass(frozen=True)
class Trigger:
    """A pending dispatch decision: task covering (watermark, upto_key]."""

    task_id: str
    from_key: str
    upto_key: str


def _payload_json(doc: Document) -> dict:
    return json.loads(doc.payload.decode())


def stream_task_id(view_key: str, watermark: str, upto_key: str) -> str:
    h = hashlib.sha256()
    for part in (view_key, watermark, upto_key):
        raw = part.encode("utf-8")
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    return "st-" + h.hexdigest()[:16]


class DatasetManager:
    def __init__(self, store: Store):
        self.store = store

    # -- views ---------------------------------------------------------------

    def define_view(self, view_key: str, query: TagQuery) -> DatasetView:
        if not view_key or "/" in view_key:
            raise InvalidArgument("view keys must be non-empty and must not contain '/'")
        if self.has_view(view_key):
            raise DuplicateKey(f"view {view_key!r} already exists")
        created = self.store.clock.now_ms()
        self.store.put_system(json_doc(VIEW_PREFIX + view_key,
                                       {"query": render(query), "created_at": created}))
        return DatasetView(view_key=view_key, query=query, created_at=created)

    def get_view(self, view_key: str) -> DatasetView:
        try:
            doc = self.store.get(VIEW_PREFIX + view_key)
        except NotFound:
            raise ViewNotFound(f"view {view_key!r} not found") from None
        meta = _payload_json(doc)
        return DatasetView(view_key=view_key, query=parse(meta["query"]),
                           created_at=meta["created_at"])

    def has_view(self, view_key: str) -> bool:
        return self.store.exists(VIEW_PREFIX + view_key)

    def list_views(self) -> list[str]:
        return [k[len(VIEW_PREFIX):] for k in self.store.keys_with_prefix(VIEW_PREFIX)]

    # -- batch cursors ---------------------------------------------------------

    def open_cursor(self, view_key: str, batch_size: int, cursor_id: str = "default") -> BatchCursor:
        """Load the persisted cursor if one exists, else create a fresh one.
        A cursor doc keeps only its position; the batch size is the caller's."""
        if batch_size < 1:
            raise InvalidArgument("batch_size must be positive")
        self.get_view(view_key)
        key = f"{CURSOR_PREFIX}{view_key}/{cursor_id}"
        if self.store.exists(key):
            meta = _payload_json(self.store.get(key))
            return BatchCursor(view_key=view_key, cursor_id=cursor_id,
                               position=meta["position"], batch_size=batch_size)
        cursor = BatchCursor(view_key=view_key, cursor_id=cursor_id, position="",
                             batch_size=batch_size)
        self._persist_cursor(cursor)
        return cursor

    def _persist_cursor(self, cursor: BatchCursor) -> None:
        key = f"{CURSOR_PREFIX}{cursor.view_key}/{cursor.cursor_id}"
        self.store.put_system(json_doc(key, {"position": cursor.position}))

    def read_batch(self, cursor: BatchCursor):
        """(documents, advanced cursor, end flag). Blob payloads are resolved;
        a new position is persisted before returning, and a read that finds
        no document writes nothing."""
        if cursor.batch_size < 1:
            raise InvalidArgument("BatchCursor.batch_size must be positive")
        view = self.get_view(cursor.view_key)
        keys, more = self.store.scan(
            view.query,
            ScanCursor(snapshot_seq=self.store.snapshot_seq(), last_key=cursor.position),
            limit=cursor.batch_size,
        )
        if not keys:
            return [], cursor, more is None
        docs = [self.resolve(self.store.get(k)) for k in keys]
        new_cursor = replace(cursor, position=keys[-1])
        self._persist_cursor(new_cursor)
        return docs, new_cursor, more is None

    def resolve(self, doc: Document) -> Document:
        """Two-layer transparency: swap a blob pointer for the verified bytes."""
        if doc.is_inline:
            return doc
        return replace(doc, payload=self.store.get_blob(doc.payload))

    def slice_docs(self, view_key: str, after_key: str = "", upto_key: str | None = None,
                   resolve: bool = True) -> list[Document]:
        """All view documents with after_key < key <= upto_key, resolved."""
        view = self.get_view(view_key)
        keys, _ = self.store.scan(
            view.query,
            ScanCursor(snapshot_seq=self.store.snapshot_seq(), last_key=after_key),
        )
        if upto_key is not None:
            keys = [k for k in keys if k <= upto_key]
        docs = [self.store.get(k) for k in keys]
        return [self.resolve(d) for d in docs] if resolve else docs

    # -- stream controllers ------------------------------------------------------

    def attach_stream(self, view_key: str, threshold: int, max_age_ms: int,
                      model_key: str, output_dataset: str) -> StreamController:
        self.get_view(view_key)
        if threshold < 1:
            raise InvalidArgument("threshold must be >= 1")
        if max_age_ms < MIN_MAX_AGE_MS:
            raise InvalidArgument(f"max_age_ms must be >= {MIN_MAX_AGE_MS}")
        key = STREAM_PREFIX + view_key
        if self.store.exists(key):
            raise AlreadyAttached(f"view {view_key!r} already has a stream controller")
        ctl = StreamController(view_key=view_key, threshold=threshold,
                               max_age_ms=max_age_ms, model_key=model_key,
                               output_dataset=output_dataset, watermark="")
        self.store.put_system(self.controller_doc(ctl))
        return ctl

    def controller_doc(self, ctl: StreamController) -> Document:
        payload = {
            "view_key": ctl.view_key,
            "threshold": ctl.threshold,
            "max_age_ms": ctl.max_age_ms,
            "model_key": ctl.model_key,
            "output_dataset": ctl.output_dataset,
            "watermark": ctl.watermark,
        }
        return json_doc(STREAM_PREFIX + ctl.view_key, payload)

    def get_controller(self, view_key: str) -> StreamController:
        try:
            doc = self.store.get(STREAM_PREFIX + view_key)
        except NotFound:
            raise ViewNotFound(f"view {view_key!r} has no stream controller") from None
        meta = _payload_json(doc)
        # controller docs of older stores also carry a lease no one reads
        meta.pop("lease_holder", None)
        meta.pop("lease_until", None)
        return StreamController(**meta)

    def list_controllers(self) -> list[str]:
        return [k[len(STREAM_PREFIX):] for k in self.store.keys_with_prefix(STREAM_PREFIX)]

    def evaluate_trigger(self, ctl: StreamController) -> Trigger | None:
        """Check the significance condition; no side effects."""
        view = self.get_view(ctl.view_key)
        pending, _ = self.store.scan(
            view.query,
            ScanCursor(snapshot_seq=self.store.snapshot_seq(), last_key=ctl.watermark),
        )
        if not pending:
            return None
        now = self.store.clock.now_ms()
        if len(pending) < ctl.threshold:
            oldest = min(self.store.get_meta(k)[1] for k in pending)
            if now - oldest < ctl.max_age_ms:
                return None
        upto = pending[-1]
        return Trigger(task_id=stream_task_id(ctl.view_key, ctl.watermark, upto),
                       from_key=ctl.watermark, upto_key=upto)

    def advance_op(self, ctl: StreamController, trigger: Trigger) -> PutOp:
        """Controller replacement op advancing the watermark past a trigger."""
        advanced = replace(ctl, watermark=trigger.upto_key)
        return PutOp(self.controller_doc(advanced))
