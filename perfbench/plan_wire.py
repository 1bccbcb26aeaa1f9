"""plan_wire: plans driven over TCP against a ``forge serve`` child process.

The pre-built store holds a history of finished plans, a 256-sample view
and a registered dropout-free model. A segment starts a server on a fresh
copy of that store and drives SEGMENT_SIZE[size] plans through it. Each plan
has one ``train``
task with ``emit=hidden:r`` and USER_FN_TASKS ``user_fn`` tasks that depend
on it and write OUTPUTS_PER_FN small outputs each. The client drives
``master_step``, reads ``plan_status`` and runs one inline agent loop until
the plan completes. The server fsyncs every log append.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.common import BENCH, Ledger, Outcome, dir_bytes, forge_env, rss_mb_of
from perfbench.spans import SWITCH_OPCODE, Pairs, unit_of

VIEW_SAMPLES = 256
DIMS = 32
HIDDEN = 64  # width of the emitted layer r
HISTORY_PLANS = 250
HISTORY_TASKS_PER_PLAN = 12
USER_FN_TASKS = 8
OUTPUTS_PER_FN = 4
OUTPUT_BYTES = 32
SEGMENT_SIZE = {"full": 10, "smoke": 2}  # plans per segment
MODEL = "enc"
VIEW = "train"
FN = "perfbench.write4"
SPEC = {"input_dims": [DIMS], "layers": [
    {"name": "h", "kind": "dense", "out_units": HIDDEN},
    {"name": "r", "kind": "relu"},
    {"name": "out", "kind": "dense", "out_units": 8},
]}
START_TIMEOUT_S = 120


def build(path, seed: int, smoke: bool) -> None:
    from forge.engine import Forge
    from forge.handlers import encode_sample
    from forge.store import Document

    rng = np.random.default_rng([seed, 2])
    with Forge(path, create=True, fsync=False) as forge:
        forge.create_index("dataset")
        forge.define_view(VIEW, f'dataset = "{VIEW}"')
        forge.register_model(MODEL, SPEC)
        xs = rng.standard_normal((VIEW_SAMPLES, DIMS)).astype(np.float32)
        ys = np.tanh(xs[:, :8])
        for i, (x, y) in enumerate(zip(xs, ys)):
            forge.put_document(Document(
                key=f"v{i:05d}", payload=encode_sample(x),
                label=",".join(f"{v:.5f}" for v in y), tags={"dataset": VIEW}))
        for p in range(10 if smoke else HISTORY_PLANS):
            forge.submit_plan({"plan_id": f"h{p:05d}", "tasks": [
                {"task_id": f"h{p:05d}-{t:02d}", "kind": "user_fn",
                 "params": {"fn": FN}} for t in range(HISTORY_TASKS_PER_PLAN)]})
            while (task := forge.lease_task("history", 60_000)) is not None:
                forge.complete_task(task.task_id, "history", "ok")
        forge.master_step("master")


def plan_doc(seed: int, segment: int, index: int) -> dict:
    pid = f"p{index:05d}"
    tasks = [{"task_id": f"{pid}-train", "kind": "train", "input_dataset": VIEW,
              "model": MODEL, "output_dataset": f"{pid}-emb",
              "params": {"emit": "hidden:r", "epochs": 1, "batch_size": 32,
                         "seed": (seed * 1009 + segment) * 1009 + index}}]
    tasks += [{"task_id": f"{pid}-u{k:02d}", "kind": "user_fn",
               "depends_on": [f"{pid}-train"], "output_dataset": f"{pid}-out",
               "params": {"fn": FN}} for k in range(USER_FN_TASKS)]
    return {"plan_id": pid, "tasks": tasks}


def write4(ctx) -> None:
    """The user function: OUTPUTS_PER_FN small outputs derived from the task."""
    for i in range(OUTPUTS_PER_FN):
        payload = (f"{ctx.task.task_id}:{i}:".encode() * OUTPUT_BYTES)[:OUTPUT_BYTES]
        ctx.write_output(payload, tags={"dataset": ctx.task.output_dataset})


class _TimedAgentApi:
    """The client as the agent sees it, timing each task from its lease
    until the completion is acknowledged."""

    def __init__(self, client):
        self._client = client
        self._leased: dict[str, float] = {}
        self.task_ms: list[float] = []
        self.completed = 0

    def __getattr__(self, name):
        return getattr(self._client, name)

    def lease_task(self, *args, **kwargs):
        task = self._client.lease_task(*args, **kwargs)
        if task is not None:
            self._leased[task.task_id] = time.perf_counter()
        return task

    def complete_task(self, task_id, agent_id, outcome, *args, **kwargs):
        self._client.complete_task(task_id, agent_id, outcome, *args, **kwargs)
        self.task_ms.append((time.perf_counter() - self._leased.pop(task_id)) * 1e3)
        self.completed += outcome == "ok"


class Server:
    """A ``forge serve`` child process on an ephemeral port."""

    def __init__(self, path: Path, spans: Path | None = None):
        serve = ["serve", "--path", str(path), "--addr", "127.0.0.1:0", "--fsync"]
        if spans is None:
            cmd = [sys.executable, "-m", "forge.cli"] + serve
        else:
            cmd = [sys.executable, str(BENCH / "serve_traced.py"), str(spans)] + serve
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=forge_env(),
                                     text=True)
        line = self.proc.stdout.readline()
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.rsplit(" on ", 1)[1].strip().rpartition(":")
        self.address = (host, int(port))

    def peak_rss_mb(self) -> float:
        return rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _start(path: Path, spans: Path | None):
    """Start a server and wait for its first reply; returns (server,
    client, seconds from spawn to that reply)."""
    from forge.wire import ForgeClient

    start = time.perf_counter()
    server = Server(path, spans)
    client = ForgeClient(*server.address, timeout=START_TIMEOUT_S)
    try:
        client.info()
    except Exception:
        client.close()
        server.stop()
        raise
    return server, client, time.perf_counter() - start


def _drive(client, api, handlers, doc, ledger, read_ms) -> bool:
    """Submit one plan and drive it to completion; True when it completed."""
    from forge.workflow import run_agent

    client.submit_plan(doc)
    ledger.ok()
    for _ in range(4 * len(doc["tasks"])):
        client.master_step("master")
        before = time.perf_counter()
        status = client.plan_status(doc["plan_id"])
        read_ms.append((time.perf_counter() - before) * 1e3)
        ledger.ok(2)
        if status["status"] != "running":
            return ledger.check(status["status"] == "completed",
                                f"plan {doc['plan_id']} ended {status['status']}")
        run_agent(api, "agent", handlers, max_loops=1, poll_interval=0.0)
        ledger.ok()
    ledger.fail(f"plan {doc['plan_id']} did not complete")
    return False


def _check_outputs(client, docs, ledger) -> None:
    """Each user_fn task exposes exactly OUTPUTS_PER_FN committed outputs;
    each train task exposes one output per view document."""
    for doc in docs:
        for task in doc["tasks"]:
            want = VIEW_SAMPLES if task["kind"] == "train" else OUTPUTS_PER_FN
            keys = client.get_task(task["task_id"]).output_keys
            ledger.check(len(keys) == want,
                         f"task {task['task_id']} exposes {len(keys)} outputs, not {want}")
        for out in {t["output_dataset"] for t in doc["tasks"]}:
            found, _ = client.scan(f'dataset = "{out}"')
            producers = [t for t in doc["tasks"] if t["output_dataset"] == out]
            want = sum(VIEW_SAMPLES if t["kind"] == "train" else OUTPUTS_PER_FN
                       for t in producers)
            ledger.check(len(found) == want,
                         f"{out}: {len(found)} committed outputs visible, not {want}")


def segment(path, seed: int, index: int, plans: int, spans: Path | None = None,
            pairs: Pairs | None = None) -> Outcome:
    """Start a server on a fresh copy of the pre-built store and drive one
    segment of plans through it. When traced, ``spans`` is the server's span
    file and each plan is one unit of ``pairs``."""
    from forge import handlers
    from forge.handlers import register_user_fn

    register_user_fn(FN, write4)
    ledger = Ledger()
    server, client, took = _start(path, spans)

    def server_switch(on: bool) -> None:
        client._call(SWITCH_OPCODE, {"on": on})

    if pairs is not None:
        pairs.switches.append(server_switch)
    try:
        api = _TimedAgentApi(client)
        handler_table = {"train": handlers.train_handler,
                         "user_fn": handlers.user_fn_handler}
        disk0 = dir_bytes(path)
        read_ms: list[float] = []
        rates: list[float] = []  # tasks completed per second, per plan
        done = 0
        for j in range(plans):
            with unit_of(pairs):
                before, t0 = api.completed, time.perf_counter()
                if not _drive(client, api, handler_table, plan_doc(seed, index, j),
                              ledger, read_ms):
                    break
                rates.append((api.completed - before) / (time.perf_counter() - t0))
            done += 1
        disk = dir_bytes(path) - disk0
        _check_outputs(client, [plan_doc(seed, index, j) for j in range(done)], ledger)
        rss = server.peak_rss_mb()
    finally:
        if pairs is not None:
            pairs.switches.remove(server_switch)
        client.close()
        server.stop()
    user_bytes = done * (VIEW_SAMPLES * HIDDEN * 4
                         + USER_FN_TASKS * OUTPUTS_PER_FN * OUTPUT_BYTES)
    return Outcome(rates=rates, op_ms=api.task_ms,
                   read_ms=read_ms, setup_s=[took], peak_rss_mb=rss, disk_bytes=disk,
                   user_bytes=user_bytes, ledger=ledger)
