"""The engine facade: one writable process owning a store directory.

``Forge`` exposes the whole operation surface — documents, blobs, views,
cursors, streams, models, events, tasks, plans, master — with one lock
serializing mutations, so composite operations (a stream trigger advancing
its watermark and enqueueing a task, a completion committing its outputs
with its task record) are atomic both in memory and on disk.

The wire server hosts a ``Forge``. Each row of the op table in
``forge.wire.protocol`` names one of these methods: the server calls it with
the request's arguments by name, and ``forge.wire.client.ForgeClient``'s
method of the same name is built from its signature, so both transports take
the same arguments and callers cannot tell them apart. ``compact`` and
``model_cache_stats`` stay local.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from forge.clock import Clock, SystemClock
from forge.dataset import BatchCursor, DatasetManager, StreamController, stream_task_id
from forge.errors import UnknownModel
from forge.models import DEFAULT_CACHE_BYTES, ModelStore
from forge.query import TagQuery, parse
from forge.store import (
    CODEC_ZLIB,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_INLINE_THRESHOLD,
    BlobPointer,
    Document,
    ScanCursor,
    Store,
)
from forge.workflow import DEFAULT_LEASE_TTL_MS, Task, WorkflowManager


class Forge:
    def __init__(self, path, *, create: bool = False, clock: Clock | None = None,
                 fsync: bool = True, inline_threshold: int = DEFAULT_INLINE_THRESHOLD,
                 cache_bytes: int = DEFAULT_CACHE_BYTES):
        self.clock = clock or SystemClock()
        self.store = Store(path, create=create, clock=self.clock, fsync=fsync,
                           inline_threshold=inline_threshold)
        self.datasets = DatasetManager(self.store)
        self.models = ModelStore(self.store, cache_bytes=cache_bytes)
        self.workflow = WorkflowManager(
            self.store, self.clock,
            view_exists=lambda key: self.store.exists(f"__sys/view/{key}"),
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
            "format_version": 1,
            "inline_threshold": self.store.inline_threshold,
            "indexes": self.store.indexes(),
            "default_chunk_size": DEFAULT_CHUNK_SIZE,
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

    def put_blob(self, data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 codec_id: int = CODEC_ZLIB) -> BlobPointer:
        with self._lock:
            return self.store.put_blob(data, chunk_size, codec_id)

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
                raise UnknownModel(f"model {model_key!r} is not registered")
            return self.datasets.attach_stream(view_key, threshold, max_age_ms,
                                               model_key, output_dataset)

    def poll_stream(self, view_key: str, poller_id: str,
                    lease_ttl_ms: int = DEFAULT_LEASE_TTL_MS) -> Task | None:
        """Fire the controller's trigger if significant: atomically advance the
        watermark and enqueue the covering train task. None when quiet or when
        another live poller holds the controller."""
        with self._lock:
            ctl = self.datasets.get_controller(view_key)
            now = self.clock.now_ms()
            if ctl.lease_holder not in (None, poller_id) and ctl.lease_until > now:
                return None
            ctl = replace(ctl, lease_holder=poller_id, lease_until=now + lease_ttl_ms)
            trigger = self.datasets.evaluate_trigger(ctl)
            if trigger is None:
                self.store.put_system(self.datasets.controller_doc(ctl), replace=True)
                return None
            ctl_op = self.datasets.advance_op(ctl, trigger)
            params = {"from_key": trigger.from_key, "upto_key": trigger.upto_key}
            task, task_ops = self.workflow.stream_task_ops(
                trigger.task_id, ctl.view_key, ctl.model_key, ctl.output_dataset, params)
            self.store.apply_ops([ctl_op] + task_ops)
            if task is not None:
                self.workflow.register_task(task)
                return task
            return None

    # -- models -----------------------------------------------------------------

    def register_model(self, model_key: str, spec: dict):
        with self._lock:
            return self.models.register_model(model_key, spec)

    def get_model(self, model_key: str):
        return self.models.get_model(model_key)

    def list_models(self) -> list[str]:
        return self.models.list_models()

    def save_state(self, model_key: str, step: int, tensors: dict[str, np.ndarray],
                   metrics: dict | None = None, parent_version: str | None = None, *,
                   events: list[tuple[int, str, float]] = ()):
        with self._lock:
            return self.models.save_state(model_key, step, tensors, metrics,
                                          parent_version, events=events)

    def load_state(self, model_key: str, selector: str = "latest"):
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
                    task_id: str | None = None, max_attempts: int = 3) -> str:
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
                      message: str | None = None,
                      output_keys: tuple[str, ...] = (), *,
                      outputs: list[Document] = ()) -> None:
        with self._lock:
            self.workflow.complete_task(task_id, agent_id, outcome, message,
                                        output_keys, outputs=outputs)

    def submit_plan(self, plan_doc: dict) -> str:
        with self._lock:
            return self.workflow.submit_plan(plan_doc)

    def plan_status(self, plan_id: str) -> dict:
        return self.workflow.plan_status(plan_id)

    def replay_task(self, task_id: str) -> None:
        with self._lock:
            self.workflow.replay_task(task_id)

    def master_step(self, master_id: str,
                    lease_ttl_ms: int = DEFAULT_LEASE_TTL_MS) -> dict:
        """One master cycle: advance the plans whose tasks changed status, then
        drive every stream controller."""
        with self._lock:
            actions = self.workflow.master_step(master_id, lease_ttl_ms)
            if actions.get("busy"):
                return actions
            stream_tasks = []
            for view_key in self.datasets.list_controllers():
                task = self.poll_stream(view_key, poller_id=master_id,
                                        lease_ttl_ms=lease_ttl_ms)
                if task is not None:
                    stream_tasks.append(task.task_id)
            actions["stream_tasks"] = stream_tasks
            return actions
