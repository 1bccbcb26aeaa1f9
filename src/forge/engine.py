"""The engine facade: one writable process owning a store directory.

``Forge`` exposes the whole operation surface — documents, blobs, views,
cursors, streams, models, events, tasks, plans, master — with the engine
lock serializing mutations, so composite operations (a stream trigger advancing
its watermark and enqueueing a task, a completion committing its outputs
with its task record) are atomic both in memory and on disk.

Two locks. ``Store._lock`` makes each store call atomic. ``Forge._lock``
(re-entrant) is taken on top of it by every mutating method; the composite
ones need it, because they read, then write, across store calls or keep
state in memory beside the store:

- ``poll_stream`` and ``master_step`` (a poll of every controller): read a
  stream controller and the documents past its watermark, then commit the
  watermark advance with the train task it enqueues. The engine lock is
  what keeps two masters from firing one trigger twice; neither call takes
  a lease.
- the task and plan calls (``submit_task``, ``submit_plan``, ``lease_task``,
  ``heartbeat``, ``write_output(s)``, ``complete_task``, ``replay_task``):
  check task leases or the workflow's in-memory tables, commit, then update
  the tables. ``submit_task`` and ``submit_plan`` check that the views and
  models their tasks name exist, and ``submit_plan`` that neither its id nor
  its task ids are taken; ``complete_task`` reads the keys its attempt
  staged, to list them in the task record beside the ones it sends.
- ``define_view``, ``open_cursor``, ``attach_stream``, ``register_model``,
  ``save_state``: check existence, then write; ``read_batch``: scan, then
  write the cursor; ``record_event``: the event sequence kept in memory.
  The store replaces a reserved key's current version on every put, so
  these existence checks, and ``submit_plan``'s, are the only ones: the
  engine lock keeps two calls from both passing them.
- ``put_blob`` and ``compact``: blob frames are appended outside
  ``Store._lock``, so only the engine lock keeps a blob write, in-process
  or over the wire, from interleaving with compaction's garbage collection.
  ``get_blob`` takes no engine lock: the blob store's own lock keeps a read
  apart from the segments a collection unlinks.

The wire server hosts a ``Forge``. Each row of the op table in
``forge.wire.protocol`` names one of these methods: the server calls it with
the request's arguments by name, and ``forge.wire.client.ForgeClient``'s
method of the same name is built from its signature, so both transports take
the same arguments and callers cannot tell them apart. ``compact`` and
``model_cache_stats`` stay local.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import TYPE_CHECKING

from forge.clock import Clock, SystemClock
from forge.dataset import BatchCursor, DatasetManager, StreamController
from forge.errors import ModelNotFound
from forge.models import ModelStore
from forge.query import TagQuery, parse
from forge.store import (
    CHUNK_SIZE,
    DEFAULT_INLINE_THRESHOLD,
    BlobPointer,
    Document,
    ScanCursor,
    Store,
)
from forge.store.store import FORMAT_VERSION
from forge.workflow import DEFAULT_MAX_ATTEMPTS, Task, WorkflowManager

if TYPE_CHECKING:
    import numpy as np

    from forge.tensorio import Tensors


class Forge:
    def __init__(self, path, *, create: bool = False, clock: Clock | None = None,
                 fsync: bool = True, inline_threshold: int = DEFAULT_INLINE_THRESHOLD):
        self.clock = clock or SystemClock()
        self.store = Store(path, create=create, clock=self.clock, fsync=fsync,
                           inline_threshold=inline_threshold)
        self.datasets = DatasetManager(self.store)
        self.models = ModelStore(self.store)
        self.workflow = WorkflowManager(self.store, self.clock, self.datasets,
                                        model_exists=self.models.has_model)
        self._lock = threading.RLock()

    def close(self) -> None:
        self.store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def info(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "inline_threshold": self.store.inline_threshold,
            "indexes": self.store.indexes(),
            "chunk_size": CHUNK_SIZE,
        }

    @staticmethod
    def _query(query: TagQuery | str) -> TagQuery:
        return parse(query) if isinstance(query, str) else query

    # -- store ----------------------------------------------------------------

    def put_document(self, doc: Document) -> str:
        with self._lock:
            return self.store.put(doc)

    def get_document(self, key: str) -> Document:
        return self.store.get(key)

    def create_index(self, tag_name: str) -> None:
        with self._lock:
            self.store.create_index(tag_name)

    def list_indexes(self) -> list[str]:
        return self.store.indexes()

    def scan(self, query: TagQuery | str, cursor: ScanCursor | None = None,
             limit: int | None = None, use_index: bool = True):
        return self.store.scan(self._query(query), cursor, limit, use_index=use_index)

    def put_blob(self, data: bytes) -> BlobPointer:
        with self._lock:
            return self.store.put_blob(data)

    def get_blob(self, ptr: BlobPointer) -> bytes:
        return self.store.get_blob(ptr)

    def compact(self) -> None:
        with self._lock:
            self.store.compact()

    # -- dataset ----------------------------------------------------------------

    def define_view(self, view_key: str, query: TagQuery | str):
        with self._lock:
            return self.datasets.define_view(view_key, self._query(query))

    def get_view(self, view_key: str):
        return self.datasets.get_view(view_key)

    def list_views(self) -> list[str]:
        return self.datasets.list_views()

    def open_cursor(self, view_key: str, batch_size: int,
                    cursor_id: str = "default") -> BatchCursor:
        with self._lock:
            return self.datasets.open_cursor(view_key, batch_size, cursor_id)

    def read_batch(self, cursor: BatchCursor):
        with self._lock:
            return self.datasets.read_batch(cursor)

    def view_slice(self, view_key: str, after_key: str = "",
                   upto_key: str | None = None) -> list[Document]:
        return self.datasets.slice_docs(view_key, after_key, upto_key)

    def attach_stream(self, view_key: str, threshold: int, max_age_ms: int,
                      model_key: str, output_dataset: str) -> StreamController:
        with self._lock:
            if model_key and not self.models.has_model(model_key):
                raise ModelNotFound(f"model {model_key!r} is not registered")
            return self.datasets.attach_stream(view_key, threshold, max_age_ms,
                                               model_key, output_dataset)

    def poll_stream(self, view_key: str) -> Task | None:
        with self._lock:
            return self.workflow.poll_stream(view_key)

    # -- models -----------------------------------------------------------------

    def register_model(self, model_key: str, spec: dict):
        with self._lock:
            return self.models.register_model(model_key, spec)

    def get_model(self, model_key: str):
        return self.models.get_model(model_key)

    def list_models(self) -> list[str]:
        return self.models.list_models()

    def save_state(self, model_key: str, step: int, tensors: Mapping[str, np.ndarray],
                   metrics: dict | None = None, parent_version: str | None = None, *,
                   events: list[tuple[int, str, float]] = ()):
        with self._lock:
            return self.models.save_state(model_key, step, tensors, metrics,
                                          parent_version, events=events)

    def load_state(self, model_key: str, selector: str = "latest") -> Tensors:
        """The version's state as a read-only mapping over its stored bytes:
        each array is decoded on its first read, ``raw`` is the bytes."""
        return self.models.load_state(model_key, selector)

    def list_versions(self, model_key: str):
        return self.models.list_versions(model_key)

    def get_version(self, model_key: str, selector: str = "latest"):
        return self.models.get_version(model_key, selector)

    def record_event(self, model_key: str, step: int, name: str, value: float) -> None:
        with self._lock:
            self.models.record_event(model_key, step, name, value)

    def query_events(self, model_key: str, name: str | None = None,
                     step_range: tuple[int, int] | None = None):
        return self.models.query_events(model_key, name, step_range)

    def model_cache_stats(self) -> dict:
        return self.models.cache_stats()

    # -- workflow ---------------------------------------------------------------

    def submit_task(self, *, kind: str, input_dataset: str = "", model_key: str = "",
                    output_dataset: str = "", params: dict | None = None,
                    task_id: str | None = None,
                    max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> str:
        with self._lock:
            return self.workflow.submit_task(
                task_id=task_id, kind=kind, input_dataset=input_dataset,
                model_key=model_key, output_dataset=output_dataset,
                params=params, max_attempts=max_attempts)

    def get_task(self, task_id: str) -> Task:
        return self.workflow.get_task(task_id)

    def list_tasks(self, plan_id: str | None = None) -> list[Task]:
        return self.workflow.list_tasks(plan_id)

    def lease_task(self, agent_id: str, lease_ttl_ms: int,
                   kinds: list[str] | None = None) -> Task | None:
        with self._lock:
            return self.workflow.lease_task(agent_id, lease_ttl_ms, kinds)

    def heartbeat(self, task_id: str, agent_id: str, lease_ttl_ms: int) -> None:
        with self._lock:
            self.workflow.heartbeat(task_id, agent_id, lease_ttl_ms)

    def write_outputs(self, task_id: str, agent_id: str,
                      outputs: list[Document]) -> list[str]:
        with self._lock:
            return self.workflow.write_outputs(task_id, agent_id, outputs)

    def write_output(self, task_id: str, agent_id: str, index: int, payload,
                     label: str | None = None, tags: dict | None = None) -> str:
        with self._lock:
            return self.workflow.write_output(task_id, agent_id, index, payload,
                                              label, tags)

    def complete_task(self, task_id: str, agent_id: str, outcome: str,
                      message: str | None = None, *,
                      outputs: list[Document] = ()) -> None:
        with self._lock:
            self.workflow.complete_task(task_id, agent_id, outcome, message,
                                        outputs=outputs)

    def submit_plan(self, plan_doc: dict) -> str:
        with self._lock:
            return self.workflow.submit_plan(plan_doc)

    def plan_status(self, plan_id: str) -> dict:
        return self.workflow.plan_status(plan_id)

    def replay_task(self, task_id: str) -> None:
        with self._lock:
            self.workflow.replay_task(task_id)

    def master_step(self, master_id: str) -> dict:
        """One master cycle: poll every stream controller. The engine does
        not read ``master_id``: the engine lock keeps concurrent masters
        apart."""
        with self._lock:
            return self.workflow.master_step()
