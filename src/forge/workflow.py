"""Fault-tolerant asynchronous task engine.

Tasks are identified by their 3-tuple (input dataset, model, output dataset)
plus an explicit id, queued durably in the store, and pulled by agents under
time-bounded leases; an expired lease makes the task claimable again, so a
dead agent's work is replayed automatically. Leases are for tasks only. A
lease reads from the task table whether a plan task's dependencies have all
completed, so it starts once the last one does. A plan's record holds only
its task ids, written once at submit: its status is worked out from its
tasks' statuses whenever it is read, so a plan completes or fails in the
frame that completes or kills its last task. The master polls the stream
controllers and holds no lease: a poll that fires commits the watermark
advance and the train task it enqueues as one batch, so a crash-restarted
master simply steps again, and the engine lock keeps concurrent masters
apart.

Task outputs are staged documents committed atomically with the completion
record (see store docs), which keeps at-least-once execution observationally
exactly-once. Staging is fenced by lease: each attempt stages under its own
group, ``task_id#replays.attempts``, and its completion commits that group
alone, so outputs a failed attempt left behind never surface. A handler
hands its outputs to ``TaskContext`` in batches; agents buffer them and send
them with the completion, so a task's outputs and its completion record are
one log frame; a buffer that would pass OUTPUT_FLUSH_BYTES or
OUTPUT_FLUSH_COUNT is staged ahead. The engine hands the store the outputs
as one put under the attempt's group, which the store checks, writes and
indexes as a batch. The engine, not the agent, lists the keys the
completion's commit makes visible in the task record. Whether a write may
replace a key is the store's rule: task and plan records are
reserved keys, replaced on every write, and an output may be staged again
until a commit makes it visible. Every task, from a plan, ``submit_task`` or
a stream, is built and checked by ``build_task``; a task id may not start
with the reserved prefix, under which its outputs would land.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from forge.clock import Clock
from forge.dataset import DatasetManager
from forge.errors import (
    ConnectionLost,
    CycleDetected,
    DuplicateKey,
    InvalidArgument,
    ModelNotFound,
    PlanNotFound,
    StaleLease,
    TaskNotFound,
    ViewNotFound,
)
from forge.faults import KillPoint, kill_point
from forge.query import TagScalar
from forge.store import Document, PutOp, Store
from forge.store.records import MAX_BATCH_RECORDS
from forge.store.store import CommitGroupOp
from forge.store.types import MAX_PAYLOAD, SYSTEM_PREFIX, json_doc, validate_tags

TASK_PREFIX = "__sys/task/"
PLAN_PREFIX = "__sys/plan/"

PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
DEAD = "dead"

PLAN_RUNNING = "running"
PLAN_COMPLETED = "completed"
PLAN_FAILED = "failed"

KIND_TRAIN = "train"
KIND_USER_FN = "user_fn"
TASK_KINDS = (KIND_TRAIN, KIND_USER_FN)

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_LEASE_TTL_MS = 30_000
MIN_LEASE_TTL_MS = 1_000

# an agent stages its buffered outputs ahead of the completion once they would
# pass this size, so every batch fits one wire frame with room to spare
OUTPUT_FLUSH_BYTES = MAX_PAYLOAD // 2
# or once they number this many, so the completion's frame (the outputs, the
# task record and the commit) fits the records one log frame can count
OUTPUT_FLUSH_COUNT = MAX_BATCH_RECORDS - 2

# the type of each task field, as a plan's JSON or a caller gives it
_FIELD_TYPES = {"task_id": str, "kind": str, "input_dataset": str, "model": str,
                "model_key": str, "output_dataset": str, "params": dict,
                "depends_on": list, "max_attempts": int}


def _check_kind(kind: str) -> None:
    if kind not in TASK_KINDS:
        raise InvalidArgument(f"unknown task kind {kind!r}; choose from {TASK_KINDS}")


def _check_types(where: str, fields: dict) -> None:
    """InvalidArgument naming ``where`` + the field for the first field that
    ``_FIELD_TYPES`` does not name or whose value is not of the type it gives
    (a bool is not an int)."""
    for name, value in fields.items():
        want = _FIELD_TYPES.get(name)
        if want is None:
            raise InvalidArgument(f"{where}{name} is not a task field")
        if type(value) is not want:
            raise InvalidArgument(
                f"{where}{name} must be {want.__name__}, got {type(value).__name__}")


@dataclass(frozen=True)
class Task:
    task_id: str
    kind: str
    input_dataset: str
    model_key: str
    output_dataset: str
    params: dict[str, TagScalar] = field(default_factory=dict)
    status: str = PENDING
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    lease_holder: str | None = None
    lease_until: int = 0
    plan_id: str | None = None
    depends_on: tuple[str, ...] = ()
    submitted_at: int = 0
    last_error: str | None = None
    output_keys: tuple[str, ...] = ()
    replays: int = 0  # operator revivals; with attempts, names the staging group

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["depends_on"] = list(self.depends_on)
        d["output_keys"] = list(self.output_keys)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Task":
        d = dict(d)
        d.pop("unblocked", None)  # older versions kept readiness in the doc
        d["depends_on"] = tuple(d.get("depends_on", ()))
        d["output_keys"] = tuple(d.get("output_keys", ()))
        return cls(**d)


def output_document(task_id: str, index: int, payload, label: str | None = None,
                    tags: dict | None = None) -> Document:
    """A task's ``index``-th output, under the key ``{task_id}/{index:06d}``."""
    return Document(key=f"{task_id}/{index:06d}", payload=payload, label=label,
                    tags=dict(tags or {}))


def _check_output_key(task_id: str, key: str) -> None:
    if type(key) is str:
        prefix, _, index = key.rpartition("/")
        if prefix == task_id and len(index) >= 6 and index.isascii() and index.isdigit():
            return
    raise InvalidArgument(
        f"output key {key!r} is outside the task's namespace {task_id}/NNNNNN")


class WorkflowManager:
    """Owns the in-memory task/plan tables mirroring the persisted queue.

    All mutations go through the store as atomic op batches; the tables are
    rebuilt from the store on open, so they are a cache, never the truth.
    """

    def __init__(self, store: Store, clock: Clock, datasets: DatasetManager, model_exists):
        self.store = store
        self.clock = clock
        self.datasets = datasets
        self._model_exists = model_exists
        self.tasks: dict[str, Task] = {}
        self.plans: dict[str, tuple[str, ...]] = {}  # plan id -> its task ids
        self._live: set[str] = set()  # ids of pending and leased tasks
        self._rebuild()

    def _rebuild(self) -> None:
        for key in self.store.keys_with_prefix(TASK_PREFIX):
            self._track(Task.from_dict(json.loads(self.store.get(key).payload.decode())))
        for key in self.store.keys_with_prefix(PLAN_PREFIX):
            # older versions also kept a status and a submitted_at here
            meta = json.loads(self.store.get(key).payload.decode())
            self.plans[meta["plan_id"]] = tuple(meta["task_ids"])

    # -- helpers ----------------------------------------------------------

    def _track(self, task: Task) -> None:
        """Install a task's new state in the table and the live set."""
        self.tasks[task.task_id] = task
        if task.status in (PENDING, LEASED):
            self._live.add(task.task_id)
        else:
            self._live.discard(task.task_id)

    def _commit(self, ops: list, tasks: Sequence[Task] = ()) -> None:
        self.store.apply_ops(ops)
        for task in tasks:
            self._track(task)

    def _task_op(self, task: Task) -> PutOp:
        return PutOp(json_doc(TASK_PREFIX + task.task_id, task.to_dict()))

    # -- submission ------------------------------------------------------

    def build_task(self, where: str, fields: dict, plan_id: str | None = None) -> Task:
        """The task a plan entry or ``submit_task``'s arguments describe, with
        every field checked; errors name the field after ``where``."""
        if type(fields) is not dict:
            raise InvalidArgument(f"{where.rstrip('.')} must be an object")
        for name in ("task_id", "kind"):
            if name not in fields:
                raise InvalidArgument(f"{where}{name} is required")
        _check_types(where, fields)
        if "model" in fields and "model_key" in fields:
            raise InvalidArgument(f"{where}model and model_key name the same field; give one")
        if not fields["task_id"]:
            raise InvalidArgument(f"{where}task_id must be a non-empty str")
        if fields["task_id"].startswith(SYSTEM_PREFIX):
            # its outputs, {task_id}/NNNNNN, would land among the system docs
            raise InvalidArgument(f"{where}task_id must not start with {SYSTEM_PREFIX!r}")
        kind = fields["kind"]
        _check_kind(kind)
        depends_on = tuple(fields.get("depends_on", ()))
        if not all(type(dep) is str for dep in depends_on):
            raise InvalidArgument(f"{where}depends_on must be a list of str task ids")
        if depends_on and plan_id is None:
            # only a plan checks that the ids exist and form no cycle, so such a
            # task could wait for good
            raise InvalidArgument(f"{where}depends_on needs a plan, which checks the "
                                  f"ids it names")
        params = dict(fields.get("params", {}))
        validate_tags(params)
        input_dataset = fields.get("input_dataset", "")
        if input_dataset and not self.datasets.has_view(input_dataset):
            raise ViewNotFound(f"input dataset view {input_dataset!r} does not exist")
        model_key = fields.get("model", fields.get("model_key", ""))
        if model_key and not self._model_exists(model_key):
            raise ModelNotFound(f"model {model_key!r} is not registered")
        max_attempts = fields.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
        if max_attempts < 1:
            raise InvalidArgument(f"{where}max_attempts must be >= 1, got {max_attempts!r}")
        return Task(task_id=fields["task_id"], kind=kind, input_dataset=input_dataset,
                    model_key=model_key, output_dataset=fields.get("output_dataset", ""),
                    params=params, max_attempts=max_attempts, plan_id=plan_id,
                    depends_on=depends_on, submitted_at=self.clock.now_ms())

    def submit_task(self, **fields) -> str:
        """Durable enqueue of the task ``fields`` describe (a None field takes
        its default, a missing task_id a fresh one); resubmitting an existing
        task_id is a no-op."""
        fields = {name: value for name, value in fields.items() if value is not None}
        fields.setdefault("task_id", self._generate_id())
        task = self.build_task("", fields)
        if task.task_id not in self.tasks:
            self._commit([self._task_op(task)], [task])
        return task.task_id

    @staticmethod
    def _generate_id() -> str:
        import uuid

        return "t-" + uuid.uuid4().hex[:16]

    # -- leases ----------------------------------------------------------------

    @staticmethod
    def _check_ttl(lease_ttl_ms: int) -> None:
        if lease_ttl_ms < MIN_LEASE_TTL_MS:
            raise InvalidArgument(f"lease ttl must be >= {MIN_LEASE_TTL_MS} ms")

    def lease_task(self, agent_id: str, lease_ttl_ms: int,
                   kinds: list[str] | None = None) -> Task | None:
        """Atomically claim the oldest dispatchable task of ``kinds`` (every
        kind when None), or None. Only live (pending or leased) tasks are
        considered; a pending one is ready once its dependencies completed."""
        self._check_ttl(lease_ttl_ms)
        if kinds is not None:
            if not kinds:
                raise InvalidArgument("kinds must name at least one task kind")
            for kind in kinds:
                _check_kind(kind)
        now = self.clock.now_ms()
        ordered = sorted((self.tasks[tid] for tid in self._live),
                         key=lambda t: (t.submitted_at, t.task_id))
        ops: list[PutOp] = []
        newly_dead: list[Task] = []
        chosen: Task | None = None
        for task in ordered:
            claimable = ((task.status == PENDING
                          and all(self.tasks[dep].status == COMPLETED
                                  for dep in task.depends_on))
                         or (task.status == LEASED and task.lease_until <= now))
            if not claimable:
                continue
            if kinds is not None and task.kind not in kinds:
                continue
            if task.attempts >= task.max_attempts:
                dead = replace(task, status=DEAD, lease_holder=None, lease_until=0,
                               last_error=task.last_error or "lease expired; attempts exhausted")
                ops.append(self._task_op(dead))
                newly_dead.append(dead)
                continue
            chosen = replace(task, status=LEASED, attempts=task.attempts + 1,
                             lease_holder=agent_id, lease_until=now + lease_ttl_ms)
            ops.append(self._task_op(chosen))
            break
        if ops:
            self._commit(ops, newly_dead + ([chosen] if chosen is not None else []))
        return chosen

    def _current_lease(self, task_id: str, agent_id: str) -> Task:
        task = self.tasks.get(task_id)
        if task is None:
            raise TaskNotFound(f"task {task_id!r} not found")
        now = self.clock.now_ms()
        if (task.status != LEASED or task.lease_holder != agent_id
                or task.lease_until <= now):
            raise StaleLease(
                f"agent {agent_id!r} does not hold a live lease on {task_id!r}")
        return task

    def heartbeat(self, task_id: str, agent_id: str, lease_ttl_ms: int) -> None:
        self._check_ttl(lease_ttl_ms)
        task = self._current_lease(task_id, agent_id)
        extended = replace(task, lease_until=self.clock.now_ms() + lease_ttl_ms)
        self._commit([self._task_op(extended)], [extended])

    # -- outputs and completion -------------------------------------------------

    @staticmethod
    def _stage_group(task: Task) -> str:
        # attempts restart at 0 after a replay, so the replay count keeps
        # every lease's group distinct
        return f"{task.task_id}#{task.replays}.{task.attempts}"

    def _stage_op(self, task: Task, outputs: Sequence[Document]) -> PutOp:
        """One put of ``outputs``, staged under the attempt's group."""
        for doc in outputs:
            _check_output_key(task.task_id, doc.key)
        return PutOp(*outputs, group=self._stage_group(task))

    def write_outputs(self, task_id: str, agent_id: str,
                      outputs: Sequence[Document]) -> list[str]:
        """Stage output documents in one frame; invisible until the task
        completes. Keys must be ``{task_id}/NNNNNN``."""
        task = self._current_lease(task_id, agent_id)
        self.store.apply_ops([self._stage_op(task, outputs)])
        return [doc.key for doc in outputs]

    def write_output(self, task_id: str, agent_id: str, index: int, payload,
                     label: str | None, tags: dict) -> str:
        """Stage one output document: a one-element ``write_outputs``."""
        doc = output_document(task_id, index, payload, label, tags)
        return self.write_outputs(task_id, agent_id, [doc])[0]

    def complete_task(self, task_id: str, agent_id: str, outcome: str,
                      message: str | None = None, *,
                      outputs: Sequence[Document] = ()) -> None:
        """Record an attempt's outcome. ``ok`` stages ``outputs`` and commits
        them, with what this attempt staged before, in the frame of the
        completion record, which lists the keys of both as the task's
        ``output_keys``; ``error`` discards them."""
        if outcome not in ("ok", "error"):
            raise InvalidArgument("outcome must be 'ok' or 'error'")
        task = self._current_lease(task_id, agent_id)
        if outcome == "ok":
            stage = self._stage_op(task, outputs)
            keys = {doc.key for doc in outputs}
            keys.update(self.store.staged_keys(stage.group))
            done = replace(task, status=COMPLETED, lease_holder=None, lease_until=0,
                           output_keys=tuple(sorted(keys)), last_error=None)
            ops = [stage, self._task_op(done), CommitGroupOp(stage.group)]
        else:
            exhausted = task.attempts >= task.max_attempts
            done = replace(task, status=DEAD if exhausted else PENDING,
                           lease_holder=None, lease_until=0, last_error=message)
            ops = [self._task_op(done)]
        self._commit(ops, [done])

    # -- plans ---------------------------------------------------------------

    def submit_plan(self, plan_doc: dict) -> str:
        plan_id, tasks = self._parse_plan(plan_doc)
        if plan_id in self.plans:
            raise DuplicateKey(f"plan {plan_id!r} already submitted")
        for task in tasks:
            if task.task_id in self.tasks:
                raise DuplicateKey(f"task id {task.task_id!r} already exists in the queue")
        task_ids = tuple(t.task_id for t in tasks)
        ops = [PutOp(json_doc(PLAN_PREFIX + plan_id,
                              {"plan_id": plan_id, "task_ids": list(task_ids)}))]
        ops.extend(self._task_op(t) for t in tasks)
        self._commit(ops, tasks)
        self.plans[plan_id] = task_ids
        return plan_id

    def _parse_plan(self, doc: dict) -> tuple[str, list[Task]]:
        if not isinstance(doc, dict):
            raise InvalidArgument("plan must be a JSON object")
        plan_id = doc.get("plan_id")
        if not plan_id or not isinstance(plan_id, str):
            raise InvalidArgument("plan.plan_id must be a non-empty string")
        entries = doc.get("tasks")
        if not isinstance(entries, list) or not entries:
            raise InvalidArgument("plan.tasks must be a non-empty list")
        tasks = [self.build_task(f"plan.tasks[{i}].", entry, plan_id)
                 for i, entry in enumerate(entries)]
        known = {task.task_id for task in tasks}
        if len(known) != len(tasks):
            raise InvalidArgument("plan task ids must be unique")
        for i, task in enumerate(tasks):
            for dep in task.depends_on:
                if dep not in known:
                    raise InvalidArgument(
                        f"plan.tasks[{i}].depends_on references unknown task {dep!r}")
        self._check_acyclic(tasks)
        return plan_id, tasks

    @staticmethod
    def _check_acyclic(tasks: list[Task]) -> None:
        deps = {t.task_id: set(t.depends_on) for t in tasks}
        ready = [tid for tid, d in deps.items() if not d]
        seen = 0
        while ready:
            tid = ready.pop()
            seen += 1
            for other, d in deps.items():
                if tid in d:
                    d.discard(tid)
                    if not d:
                        ready.append(other)
        if seen != len(deps):
            raise CycleDetected("plan dependencies contain a cycle")

    def get_task(self, task_id: str) -> Task:
        task = self.tasks.get(task_id)
        if task is None:
            raise TaskNotFound(f"task {task_id!r} not found")
        return task

    def list_tasks(self, plan_id: str | None = None) -> list[Task]:
        tasks = sorted(self.tasks.values(), key=lambda t: (t.submitted_at, t.task_id))
        if plan_id is not None:
            tasks = [t for t in tasks if t.plan_id == plan_id]
        return tasks

    def plan_status(self, plan_id: str) -> dict:
        """The status of each of the plan's tasks, and the plan's status
        worked out from them: failed while a task is dead, completed once
        all are, running otherwise."""
        task_ids = self.plans.get(plan_id)
        if task_ids is None:
            raise PlanNotFound(f"plan {plan_id!r} not found")
        tasks = {tid: self.tasks[tid].status for tid in task_ids}
        statuses = set(tasks.values())
        if DEAD in statuses:
            status = PLAN_FAILED
        elif statuses == {COMPLETED}:
            status = PLAN_COMPLETED
        else:
            status = PLAN_RUNNING
        return {"plan_id": plan_id, "status": status, "tasks": tasks}

    def replay_task(self, task_id: str) -> None:
        """Operator override: resurrect a dead task with a fresh attempt budget."""
        task = self.get_task(task_id)
        if task.status != DEAD:
            raise InvalidArgument(f"task {task_id!r} is {task.status}, not dead")
        revived = replace(task, status=PENDING, attempts=0, lease_holder=None,
                          lease_until=0, last_error=None, replays=task.replays + 1)
        self._commit([self._task_op(revived)], [revived])

    # -- master --------------------------------------------------------------

    def poll_stream(self, view_key: str) -> Task | None:
        """Fire the controller's trigger if significant: advance the
        watermark and enqueue the covering train task in one atomic batch.
        None, and nothing written, when the stream is quiet; None too when
        the trigger's task id is already queued, and only the watermark
        advances."""
        ctl = self.datasets.get_controller(view_key)
        trigger = self.datasets.evaluate_trigger(ctl)
        if trigger is None:
            return None
        ops = [self.datasets.advance_op(ctl, trigger)]
        task = None
        if trigger.task_id not in self.tasks:
            task = self.build_task("", {
                "task_id": trigger.task_id, "kind": KIND_TRAIN, "input_dataset": view_key,
                "model_key": ctl.model_key, "output_dataset": ctl.output_dataset,
                "params": {"from_key": trigger.from_key, "upto_key": trigger.upto_key}})
            ops.append(self._task_op(task))
        kill_point("master.before_apply")
        self._commit(ops, [task] if task is not None else [])
        kill_point("master.after_apply")
        return task

    def master_step(self) -> dict:
        """One pass over the stream controllers, polling each. Returns the
        ids of the tasks the polls enqueued."""
        kill_point("master.before_step")
        tasks = [self.poll_stream(view_key) for view_key in self.datasets.list_controllers()]
        return {"stream_tasks": [task.task_id for task in tasks if task is not None]}


# --- long-running loops --------------------------------------------------------


def _tags_size_hint(tags: dict) -> int:
    """About the bytes a tag map adds to each output that carries it. The
    hint is rough: OUTPUT_FLUSH_BYTES leaves half a frame for what it misses."""
    return sum(len(name) + len(str(value)) + 16 for name, value in tags.items())


class TaskContext:
    """What a handler gets: the api, its task, and an output-writing helper.

    A handler hands its outputs over in batches that share a tag map
    (``write_outputs``; ``write_output`` is a batch of one). They are
    counted by ``written`` and buffered in ``pending``, which is sent with
    the completion; when the buffer would pass OUTPUT_FLUSH_BYTES or
    OUTPUT_FLUSH_COUNT it is staged first as one batch. A batch works out
    its tag map's share of the size hint once. The engine lists the task's
    outputs.
    """

    def __init__(self, api, task: Task, agent_id: str):
        self.api = api
        self.task = task
        self.agent_id = agent_id
        self.written = 0
        self.pending: list[Document] = []
        self._pending_bytes = 0

    def param(self, name: str, default=None):
        return self.task.params.get(name, default)

    def write_output(self, payload, label: str | None = None,
                     tags: dict | None = None) -> str:
        return self.write_outputs([payload], [label], tags)[0]

    def write_outputs(self, payloads: Sequence, labels: Sequence[str | None] | None = None,
                      tags: dict | None = None) -> list[str]:
        """Buffer one output per payload, the i-th labelled ``labels[i]``
        (no label when ``labels`` is None) and each tagged with its own copy
        of ``tags``; returns their keys."""
        if labels is None:
            labels = [None] * len(payloads)
        elif len(labels) != len(payloads):
            raise InvalidArgument(f"{len(payloads)} payloads but {len(labels)} labels")
        task_id = self.task.task_id
        tags = tags or {}
        fixed = _tags_size_hint(tags) + len(task_id) + 7 + 32  # the key's /NNNNNN; framing
        keys = []
        for payload, label in zip(payloads, labels):
            doc = output_document(task_id, self.written, payload, label, tags)
            size = fixed + (len(payload) if doc.is_inline else 256) + len(label or "")
            if self.pending and (self._pending_bytes + size > OUTPUT_FLUSH_BYTES
                                 or len(self.pending) == OUTPUT_FLUSH_COUNT):
                self.api.write_outputs(task_id, self.agent_id, self.pending)
                self.pending, self._pending_bytes = [], 0
            self.pending.append(doc)
            self._pending_bytes += size
            self.written += 1
            keys.append(doc.key)
        return keys

    def input_docs(self):
        """Documents of the task's input range (or the whole view), resolved."""
        if not self.task.input_dataset:
            return []
        after = self.task.params.get("from_key", "")
        upto = self.task.params.get("upto_key")
        return self.api.view_slice(self.task.input_dataset, after_key=after, upto_key=upto)


class _Heartbeats:
    """The one thread of a process that renews the leases of its running
    tasks, started with the first lease. Each lease is renewed every
    ``lease_ttl_ms / 3`` until its task ends or the engine answers
    ``StaleLease`` or ``TaskNotFound``; after any other error the next beat
    is tried. A task's lease costs a dict entry, not a thread: the thread
    is woken only when a lease falls due before it would wake anyway."""

    def __init__(self):
        self._cond = threading.Condition()
        # token -> [next beat (time.monotonic()), api, task_id, agent_id, lease_ttl_ms]
        self._leases: dict[object, list] = {}
        self._wake_at: float | None = None  # None: asleep until a lease is added
        self._thread: threading.Thread | None = None

    def add(self, api, task_id: str, agent_id: str, lease_ttl_ms: int) -> object:
        """Start renewing a lease; returns the token that ``remove`` takes."""
        token = object()
        due = time.monotonic() + lease_ttl_ms / 3000.0
        with self._cond:
            self._leases[token] = [due, api, task_id, agent_id, lease_ttl_ms]
            if self._thread is None or not self._thread.is_alive():  # first, or killed
                self._thread = threading.Thread(target=self._run, name="forge-heartbeats",
                                                daemon=True)
                self._thread.start()
            elif self._wake_at is None or due < self._wake_at:
                self._cond.notify()
        return token

    def remove(self, token: object) -> None:
        with self._cond:
            self._leases.pop(token, None)

    def _run(self) -> None:
        cond, leases = self._cond, self._leases
        while True:
            with cond:
                now = time.monotonic()
                self._wake_at = min((lease[0] for lease in leases.values()), default=None)
                if self._wake_at is None or self._wake_at > now:
                    cond.wait(None if self._wake_at is None else self._wake_at - now)
                    continue
                due = []
                for token, lease in leases.items():
                    if lease[0] <= now:
                        lease[0] = now + lease[4] / 3000.0
                        due.append((token, lease))
            for token, (_, api, task_id, agent_id, lease_ttl_ms) in due:
                if token not in leases:
                    continue  # its task ended since
                try:
                    api.heartbeat(task_id, agent_id, lease_ttl_ms)
                except (StaleLease, TaskNotFound):
                    self.remove(token)
                except Exception:
                    pass


_HEARTBEATS = _Heartbeats()


def run_agent(api, agent_id: str, handlers: dict, kinds: list[str] | None = None,
              poll_interval: float = 0.2, lease_ttl_ms: int = DEFAULT_LEASE_TTL_MS,
              stop: threading.Event | None = None, max_loops: int | None = None) -> None:
    """Agent loop: lease, execute, complete, with the lease renewed by the
    process's heartbeat thread while the handler runs. Handler failures, and
    outputs the completion's commit rejects, become error outcomes. A lost
    connection is waited out: a lost lease call is polled again, and a task
    whose run or completion loses it is given up without an outcome, so its
    lease runs out and it reruns. Only a simulated kill, or kinds the engine
    refuses, escapes the loop."""
    stop = stop or threading.Event()
    kinds = kinds if kinds is not None else sorted(handlers)
    loops = 0
    while not stop.is_set():
        loops += 1
        if max_loops is not None and loops > max_loops:
            return
        try:
            task = api.lease_task(agent_id, lease_ttl_ms, kinds)
        except ConnectionLost:
            task = None
        if task is None:
            stop.wait(poll_interval)
            continue
        kill_point("agent.after_lease")
        lease = _HEARTBEATS.add(api, task.task_id, agent_id, lease_ttl_ms)
        ctx = TaskContext(api, task, agent_id)
        try:
            handler = handlers.get(task.kind)
            if handler is None:
                raise InvalidArgument(f"agent has no handler for kind {task.kind!r}")
            handler(ctx)
            _HEARTBEATS.remove(lease)
            kill_point("agent.before_complete")
            api.complete_task(task.task_id, agent_id, "ok", outputs=ctx.pending)
            kill_point("agent.after_complete")
        except KillPoint:
            raise
        except (StaleLease, ConnectionLost):
            pass  # lease or connection lost mid-run; the task reruns
        except Exception as exc:
            try:
                api.complete_task(task.task_id, agent_id, "error", message=str(exc))
            except (StaleLease, ConnectionLost):
                pass
        finally:
            _HEARTBEATS.remove(lease)


def run_master(api, master_id: str, interval: float = 0.2,
               stop: threading.Event | None = None,
               max_loops: int | None = None) -> None:
    """Master loop: one ``master_step`` every ``interval`` seconds. Any number
    of masters may run against one engine; ``master_id`` names this one."""
    stop = stop or threading.Event()
    loops = 0
    while not stop.is_set():
        loops += 1
        if max_loops is not None and loops > max_loops:
            return
        api.master_step(master_id)
        stop.wait(interval)


def wait_for_plan(api, plan_id: str, timeout: float = 60.0, poll: float = 0.1) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        status = api.plan_status(plan_id)
        if status["status"] != PLAN_RUNNING:
            return status
        if time.monotonic() >= deadline:
            raise TimeoutError(f"plan {plan_id!r} still running after {timeout}s: {status}")
        time.sleep(poll)
