"""Task workflow: leases, plans and the master, staged outputs, restarts and
kill points. Tests on the ``api`` fixture run in-process and over TCP."""

import gc
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import AgentHarness, make_engine

from forge import faults
from forge.clock import FakeClock
from forge.engine import Forge
from forge.dataset import MIN_MAX_AGE_MS
from forge.errors import (
    ConnectionLost,
    CycleDetected,
    DuplicateKey,
    InvalidArgument,
    ModelNotFound,
    NotFound,
    PayloadTooLarge,
    StaleLease,
    TaskNotFound,
    ViewNotFound,
)
from forge.handlers import DEFAULT_HANDLERS, encode_sample, register_user_fn
from forge.store import Document
from forge.store.store import _SortedKeys
from forge.store.types import DEFAULT_INLINE_THRESHOLD, MAX_PAYLOAD
from forge.workflow import (
    COMPLETED,
    DEAD,
    MIN_LEASE_TTL_MS,
    PENDING,
    _HEARTBEATS,
    Task,
    output_document,
    run_agent,
    run_master,
    wait_for_plan,
)

TTL = 5_000


def _visible(api, dataset: str) -> list[str]:
    keys, _ = api.scan(f'dataset = "{dataset}"')
    return keys


def _log_bytes(engine) -> int:
    return sum(p.stat().st_size for p in engine.store.path.glob("segment-*.log"))


def _plan(pid: str, children: int = 2, **root_fields) -> dict:
    tasks = [{"task_id": f"{pid}-root", "kind": "user_fn", **root_fields}]
    tasks += [{"task_id": f"{pid}-c{i}", "kind": "user_fn",
               "depends_on": [f"{pid}-root"]} for i in range(children)]
    return {"plan_id": pid, "tasks": tasks}


def _finish_next(api, outcome: str = "ok") -> str:
    task = api.lease_task("agent", TTL)
    assert task is not None
    api.complete_task(task.task_id, "agent", outcome, message=f"{outcome} outcome")
    return task.task_id


def _reopen(engine, clock) -> Forge:
    engine.close()
    return Forge(engine.store.path, clock=clock, fsync=False)


class TestLeases:
    def test_oldest_first_then_by_id_and_never_a_finished_task(self, api, clock):
        api.submit_task(kind="user_fn", task_id="b")
        api.submit_task(kind="user_fn", task_id="a")
        clock.advance(10)
        api.submit_task(kind="user_fn", task_id="0-later")
        order = [api.lease_task("agent", TTL).task_id for _ in range(3)]
        assert order == ["a", "b", "0-later"]
        assert api.lease_task("agent", TTL) is None

        api.complete_task("a", "agent", "ok")
        clock.advance(TTL)  # the other two leases expire and are claimable again
        order = [api.lease_task("other", TTL).task_id for _ in range(2)]
        assert order == ["b", "0-later"]
        assert api.lease_task("other", TTL) is None
        assert api.get_task("a").status == COMPLETED

    def test_expired_leases_exhaust_attempts_to_dead(self, api, clock):
        api.submit_task(kind="user_fn", task_id="t", max_attempts=2)
        for attempt in (1, 2):
            task = api.lease_task(f"agent{attempt}", TTL)
            assert (task.task_id, task.attempts) == ("t", attempt)
            clock.advance(TTL)
        assert api.lease_task("agent3", TTL) is None
        task = api.get_task("t")
        assert task.status == DEAD
        assert task.last_error == "lease expired; attempts exhausted"
        with pytest.raises(StaleLease):
            api.complete_task("t", "agent2", "ok")

    def test_a_ttl_below_the_minimum_is_refused(self, api, engine):
        api.submit_task(kind="user_fn", task_id="t")
        leased = api.lease_task("agent", TTL)
        seq = engine.store.snapshot_seq()
        for ttl in (-5, 0, MIN_LEASE_TTL_MS - 1):
            with pytest.raises(InvalidArgument, match="lease ttl must be >= "):
                api.heartbeat("t", "agent", ttl)
            with pytest.raises(InvalidArgument, match="lease ttl must be >= "):
                api.lease_task("other", ttl)
        assert engine.store.snapshot_seq() == seq
        assert api.get_task("t") == leased

    def test_kinds_filter_skips_other_kinds(self, api, engine):
        api.submit_task(kind="user_fn", task_id="u")
        assert api.lease_task("agent", TTL, ["train"]) is None
        # a kind no task can have, or none at all, would match nothing for good
        seq = engine.store.snapshot_seq()
        with pytest.raises(InvalidArgument, match="^unknown task kind 'usr_fn'; choose from "):
            api.lease_task("agent", TTL, ["user_fn", "usr_fn"])
        with pytest.raises(InvalidArgument, match="^kinds must name at least one task kind"):
            api.lease_task("agent", TTL, [])
        assert engine.store.snapshot_seq() == seq
        assert api.lease_task("agent", TTL, ["user_fn"]).task_id == "u"


IDLE_STEP = {"plans_completed": [], "plans_failed": [], "stream_tasks": []}


class TestPlans:
    def test_dependents_start_without_a_step_then_the_master_completes(self, api):
        api.submit_plan(_plan("p"))
        assert api.lease_task("agent", TTL).task_id == "p-root"
        assert api.lease_task("agent", TTL) is None  # the children wait for the root
        api.complete_task("p-root", "agent", "ok")
        assert sorted([_finish_next(api), _finish_next(api)]) == ["p-c0", "p-c1"]
        assert api.plan_status("p")["status"] == "running"

        step = api.master_step("m")
        assert step == {**IDLE_STEP, "plans_completed": ["p"]}
        assert api.plan_status("p") == {"plan_id": "p", "status": "completed",
                                        "tasks": dict.fromkeys(
                                            ["p-root", "p-c0", "p-c1"], COMPLETED)}
        assert api.master_step("m") == IDLE_STEP

    def test_a_task_starts_when_its_last_dependency_completes(self, api, engine, clock):
        """No step runs here: readiness is read from the task table at lease
        time, and a reopen rebuilds the table it is read from."""
        api.submit_plan({"plan_id": "p", "tasks": [
            {"task_id": "a", "kind": "user_fn"}, {"task_id": "b", "kind": "user_fn"},
            {"task_id": "c", "kind": "user_fn", "depends_on": ["a", "b"]}]})
        assert _finish_next(api) == "a"
        assert api.lease_task("agent", TTL).task_id == "b"
        assert api.lease_task("agent", TTL) is None  # c still waits for b
        api.complete_task("b", "agent", "error", "first attempt")  # b is pending again
        assert api.lease_task("agent", TTL).task_id == "b"
        assert api.lease_task("agent", TTL) is None

        reopened = _reopen(engine, clock)
        try:
            clock.advance(TTL)  # b's lease runs out
            assert reopened.lease_task("agent", TTL).task_id == "b"
            assert reopened.lease_task("agent", TTL) is None
            reopened.complete_task("b", "agent", "ok")
            reopened = _reopen(reopened, clock)
            assert reopened.lease_task("agent", TTL).task_id == "c"
            assert reopened.get_task("c").attempts == 1
        finally:
            reopened.close()

    def test_a_step_writes_only_plan_status_changes(self, api, engine):
        api.submit_plan(_plan("p"))
        for finished in ("p-root", "p-c0"):
            assert _finish_next(api) == finished
            size, seq = _log_bytes(engine), engine.store.snapshot_seq()
            assert api.master_step("m") == IDLE_STEP
            assert (_log_bytes(engine), engine.store.snapshot_seq()) == (size, seq)
        assert _finish_next(api) == "p-c1"
        seq = engine.store.snapshot_seq()
        assert api.master_step("m")["plans_completed"] == ["p"]
        assert engine.store.snapshot_seq() == seq + 1

    def test_dead_task_fails_plan_and_replay_revives_it(self, api):
        api.submit_plan(_plan("p", max_attempts=1))
        _finish_next(api, "error")
        step = api.master_step("m")
        assert step["plans_failed"] == ["p"]
        status = api.plan_status("p")
        assert status["status"] == "failed"
        assert status["tasks"] == {"p-root": DEAD, "p-c0": PENDING, "p-c1": PENDING}

        api.replay_task("p-root")
        assert api.plan_status("p")["status"] == "running"
        assert api.get_task("p-root").attempts == 0
        assert _finish_next(api) == "p-root"
        assert sorted([_finish_next(api), _finish_next(api)]) == ["p-c0", "p-c1"]
        assert api.master_step("m")["plans_completed"] == ["p"]

    def test_same_outcome_after_reopen(self, api, engine, clock):
        api.submit_plan(_plan("done"))
        api.submit_plan(_plan("fails", max_attempts=1))
        api.submit_plan(_plan("open"))
        roots = [api.lease_task("agent", TTL).task_id for _ in range(3)]
        assert roots == ["done-root", "fails-root", "open-root"]
        for task_id in roots:
            api.complete_task(task_id, "agent", "error" if task_id == "fails-root" else "ok")
        assert api.master_step("m") == {**IDLE_STEP, "plans_failed": ["fails"]}
        assert _finish_next(api) == "done-c0"
        assert _finish_next(api) == "done-c1"  # the master has not seen them finish
        before = {pid: api.plan_status(pid) for pid in ("done", "fails", "open")}

        reopened = _reopen(engine, clock)
        try:
            assert {pid: reopened.plan_status(pid)
                    for pid in ("done", "fails", "open")} == before
            assert reopened.master_step("m") == {**IDLE_STEP, "plans_completed": ["done"]}
            assert reopened.plan_status("fails")["status"] == "failed"
            while (task := reopened.lease_task("agent", TTL)) is not None:
                reopened.complete_task(task.task_id, "agent", "ok")
            assert reopened.master_step("m")["plans_completed"] == ["open"]
        finally:
            reopened.close()

    def test_store_with_leftover_notify_docs_steps_normally(self, api, engine, clock):
        api.submit_plan(_plan("p", children=1))
        _finish_next(api)
        # what older versions left behind: a notification per completion and a
        # master doc carrying a consumer offset
        for seq in range(3):
            note = {"task_id": "p-root", "outcome": "ok", "output_keys": [], "at": seq}
            engine.store.put_system(Document(key=f"__sys/notify/{seq:012d}",
                                              payload=json.dumps(note).encode()))
        engine.store.put_system(Document(key="__sys/master", payload=json.dumps(
            {"consumed_upto": 1, "holder": None, "until": 0}).encode()))

        reopened = _reopen(engine, clock)
        try:
            assert reopened.master_step("m") == IDLE_STEP
            assert _finish_next(reopened) == "p-c0"
            assert reopened.master_step("m")["plans_completed"] == ["p"]
            assert len(reopened.store.keys_with_prefix("__sys/notify/")) == 3
        finally:
            reopened.close()


def test_task_docs_with_an_unblocked_flag_are_leased_without_a_step(engine, clock):
    """Older versions kept an ``unblocked`` flag in each task doc, which only
    a step set, and a ``submitted_at`` in each plan doc. A store holding
    them opens, and a task whose dependencies have completed is leased
    whatever its flag says."""
    engine.submit_plan(_plan("p", children=1))
    _finish_next(engine)
    for key, old in [("__sys/task/p-c0", {"unblocked": False}),
                     ("__sys/task/p-root", {"unblocked": True}),
                     ("__sys/plan/p", {"submitted_at": 0})]:
        doc = json.loads(engine.get_document(key).payload)
        engine.store.put_system(Document(key=key, payload=json.dumps({**doc, **old}).encode()))

    reopened = _reopen(engine, clock)
    try:
        assert reopened.lease_task("agent", TTL).task_id == "p-c0"
        reopened.complete_task("p-c0", "agent", "ok")
        assert reopened.master_step("m")["plans_completed"] == ["p"]
    finally:
        reopened.close()


def test_store_with_old_lease_docs_steps_and_fires(engine, clock):
    """What older versions wrote, a live master lease doc and a stream
    controller leased to another master, stops neither a step nor a
    trigger, and the master doc is never rewritten."""
    engine.register_model(MODEL, SPEC)
    engine.define_view("v", 'dataset = "v"')
    engine.attach_stream("v", 2, 1_000, MODEL, "v-out")
    lease = {"holder": "old-master", "until": clock.now_ms() + 10**9}
    ctl = json.loads(engine.get_document("__sys/stream/v").payload)
    engine.store.put_system(Document(key="__sys/stream/v", payload=json.dumps(
        {**ctl, "lease_holder": "old-master", "lease_until": lease["until"]}).encode()))
    engine.store.put_system(Document(key="__sys/master", payload=json.dumps(lease).encode()))
    engine.submit_plan(_plan("p", children=0))
    _finish_next(engine)

    reopened = _reopen(engine, clock)
    try:
        assert reopened.datasets.get_controller("v").watermark == ""
        for i in range(2):
            reopened.put_document(Document(key=f"d{i}", payload=b"x", tags={"dataset": "v"}))
        step = reopened.master_step("m")
        assert step["plans_completed"] == ["p"]
        [task_id] = step["stream_tasks"]
        assert reopened.get_task(task_id).params == {"from_key": "", "upto_key": "d1"}
        assert reopened.datasets.get_controller("v").watermark == "d1"
        assert json.loads(reopened.get_document("__sys/master").payload) == lease
    finally:
        reopened.close()


def test_an_idle_engine_writes_nothing_as_time_passes(api, engine, clock):
    """Steps from two masters, with an idle stream attached, leave the log,
    the sequence and the seq of every system key's version as they were."""
    engine.register_model(MODEL, SPEC)
    engine.define_view("v", 'dataset = "v"')
    engine.attach_stream("v", 4, 1_000, MODEL, "v-out")
    engine.submit_plan(_plan("p", children=0))
    _finish_next(engine)
    assert api.master_step("m1")["plans_completed"] == ["p"]

    def seqs():
        return {key: state.seq for key, state in engine.store._entries.items()
                if key.startswith("__sys/")}

    size, seq, before = _log_bytes(engine), engine.store.snapshot_seq(), seqs()
    for i in range(1000):
        clock.advance(100)
        api.master_step(f"m{i % 2 + 1}")
    assert (_log_bytes(engine), engine.store.snapshot_seq(), seqs()) == (size, seq, before)


class TestMasterLease:
    """The master holds no lease of its own; the only leases next to its idle
    steps are tasks' leases, which a step neither writes nor breaks."""

    def test_idle_steps_write_nothing_and_the_lease_still_holds(self, api, engine, clock):
        api.submit_task(kind="user_fn", task_id="t")
        assert api.lease_task("agent", TTL).task_id == "t"
        size = _log_bytes(engine)
        for _ in range(100):
            clock.advance(TTL // 200)
            assert api.master_step("m1") == IDLE_STEP
        assert _log_bytes(engine) == size
        assert api.lease_task("agent2", TTL) is None
        assert api.get_task("t").lease_holder == "agent"

        api.heartbeat("t", "agent", TTL)  # half the lease has passed: renew it
        assert _log_bytes(engine) > size
        clock.advance(TTL // 2 + 1)  # past the first lease, inside the renewed one
        api.master_step("m2")
        assert api.lease_task("agent2", TTL) is None
        clock.advance(TTL)
        api.master_step("m2")
        assert api.lease_task("agent2", TTL).task_id == "t"
        with pytest.raises(StaleLease):
            api.complete_task("t", "agent", "ok")

    @staticmethod
    def _with_idle_stream(engine) -> None:
        engine.register_model(MODEL, SPEC)
        engine.define_view("v", 'dataset = "v"')
        engine.attach_stream("v", 4, 1_000, MODEL, "v-out")
        engine.master_step("m1")

    def test_idle_steps_with_a_stream_write_nothing(self, engine):
        """A quiet stream poll writes nothing."""
        self._with_idle_stream(engine)
        size = _log_bytes(engine)
        for _ in range(1000):
            assert engine.master_step("m1")["stream_tasks"] == []
        assert _log_bytes(engine) == size

    def test_idle_writes_are_lease_renewals(self, engine, clock):
        """With an idle stream and an agent renewing its task lease at half
        the ttl, the renewals are the only writes."""
        self._with_idle_stream(engine)
        engine.submit_task(kind="user_fn", task_id="t")
        engine.lease_task("agent", TTL)
        ctl = engine.datasets.get_controller("v")
        seq, steps, step_ms = engine.store.snapshot_seq(), 1000, 100
        for _ in range(steps):
            clock.advance(step_ms)
            engine.master_step("m1")
            if engine.get_task("t").lease_until - clock.now_ms() <= TTL // 2:
                engine.heartbeat("t", "agent", TTL)
        renewals = steps * step_ms // (TTL // 2)
        assert engine.store.snapshot_seq() - seq == renewals
        assert engine.datasets.get_controller("v") == ctl
        task = engine.get_task("t")
        assert task.lease_holder == "agent" and task.lease_until > clock.now_ms() + TTL // 2


class TestOutputs:
    def test_invisible_until_completion(self, api):
        api.submit_task(kind="user_fn", task_id="t", output_dataset="out")
        api.lease_task("agent", TTL)
        key0 = api.write_output("t", "agent", 0, b"zero", tags={"dataset": "out"})
        assert key0 == "t/000000"
        assert _visible(api, "out") == []
        with pytest.raises(NotFound):
            api.get_document(key0)
        ptr = api.put_blob(b"blob output" * 1000)
        rest = [output_document("t", 1, b"one", "L", {"dataset": "out"}),
                output_document("t", 2, ptr, None, {"dataset": "out"})]
        keys = (key0, "t/000001", "t/000002")
        api.complete_task("t", "agent", "ok", None, outputs=rest)
        assert _visible(api, "out") == list(keys)
        assert api.get_document("t/000001").label == "L"
        assert api.get_document("t/000002").payload == ptr
        assert api.get_task("t").output_keys == keys

    @pytest.mark.parametrize("ahead,sent", [
        ([0], [1]), ([], [0, 1, 2]), ([0, 1, 2], []), ([0, 2], [1, 3]), ([3], [0]),
    ])
    def test_the_record_lists_what_the_completion_commits(self, api, ahead, sent):
        api.submit_task(kind="user_fn", task_id="t")
        api.lease_task("agent", TTL)
        for i in ahead:
            api.write_output("t", "agent", i, b"ahead", tags={"dataset": "out"})
        api.complete_task("t", "agent", "ok", outputs=[
            output_document("t", i, b"sent", None, {"dataset": "out"}) for i in sent])
        task = api.get_task("t")
        assert task.status == COMPLETED
        assert list(task.output_keys) == _visible(api, "out")
        assert task.output_keys == tuple(f"t/{i:06d}" for i in sorted(ahead + sent))

    def test_a_user_document_in_the_namespace_is_not_listed(self, api):
        api.submit_task(kind="user_fn", task_id="t")
        api.put_document(Document(key="t/000007", payload=b"user", tags={"dataset": "out"}))
        api.lease_task("agent", TTL)
        api.write_output("t", "agent", 0, b"ahead", tags={"dataset": "out"})
        api.complete_task("t", "agent", "ok",
                          outputs=[output_document("t", 1, b"sent", None, {"dataset": "out"})])
        assert api.get_task("t").output_keys == ("t/000000", "t/000001")
        assert _visible(api, "out") == ["t/000000", "t/000001", "t/000007"]
        assert api.get_document("t/000007").payload == b"user"

    def test_output_keys_are_no_argument(self, api):
        api.submit_task(kind="user_fn", task_id="t")
        api.lease_task("agent", TTL)
        api.write_output("t", "agent", 0, b"staged", tags={"dataset": "out"})
        with pytest.raises(TypeError):
            api.complete_task("t", "agent", "ok", None, ("t/000000",))
        with pytest.raises(TypeError):
            api.complete_task("t", "agent", "ok", output_keys=("t/000000",))
        assert _visible(api, "out") == []
        task = api.get_task("t")
        assert (task.status, task.output_keys) == ("leased", ())

    def test_discarded_on_error_outcome(self, api):
        api.submit_task(kind="user_fn", task_id="t")
        api.lease_task("agent", TTL)
        api.write_output("t", "agent", 0, b"staged", tags={"dataset": "out"})
        api.complete_task("t", "agent", "error", "boom",
                          outputs=[output_document("t", 1, b"riding", None,
                                                   {"dataset": "out"})])
        assert _visible(api, "out") == []
        api.lease_task("agent", TTL)
        api.complete_task("t", "agent", "ok")
        assert _visible(api, "out") == []

    def test_failed_attempt_outputs_stay_hidden(self, api):
        api.submit_task(kind="user_fn", task_id="t")
        api.lease_task("agent", TTL)
        for i in range(5):
            api.write_output("t", "agent", i, b"attempt1", tags={"dataset": "out"})
        api.complete_task("t", "agent", "error", "first attempt failed")

        api.lease_task("agent", TTL)
        keys = tuple(api.write_output("t", "agent", i, b"attempt2", tags={"dataset": "out"})
                     for i in range(2))
        api.complete_task("t", "agent", "ok")
        assert _visible(api, "out") == list(keys)
        assert all(api.get_document(k).payload == b"attempt2" for k in keys)
        assert api.get_task("t").output_keys == keys

    def test_outputs_of_a_dead_attempt_stay_hidden_after_replay(self, api):
        api.submit_task(kind="user_fn", task_id="t", max_attempts=1)
        api.lease_task("agent", TTL)
        for i in range(3):
            api.write_output("t", "agent", i, b"before", tags={"dataset": "out"})
        api.complete_task("t", "agent", "error", "died")
        api.replay_task("t")  # attempts restart at 0: attempt 1 runs again
        assert api.lease_task("agent", TTL).attempts == 1
        key = api.write_output("t", "agent", 0, b"after", tags={"dataset": "out"})
        api.complete_task("t", "agent", "ok")
        assert _visible(api, "out") == [key]
        assert api.get_document(key).payload == b"after"
        assert api.get_task("t").output_keys == (key,)

    def test_keys_outside_the_task_namespace_are_rejected(self, api):
        api.submit_task(kind="user_fn", task_id="t")
        api.put_document(Document(key="t/000007", payload=b"user", tags={}))
        api.lease_task("agent", TTL)
        for key in ("u/000000", "t/00001", "t/abcdef", "t/000000/x"):
            with pytest.raises(InvalidArgument):
                api.write_outputs("t", "agent", [Document(key=key, payload=b"x")])
            with pytest.raises(InvalidArgument):
                api.complete_task("t", "agent", "ok",
                                  outputs=[Document(key=key, payload=b"x")])
        with pytest.raises(DuplicateKey):
            api.write_output("t", "agent", 7, b"clash", tags={})
        assert api.get_document("t/000007").payload == b"user"
        task = api.get_task("t")
        assert (task.status, task.output_keys) == ("leased", ())

    def test_agent_outputs_ride_the_completion(self, api):
        seen_during_run = []

        def fn(ctx):
            for i in range(3):
                ctx.write_output(f"{i}".encode(), tags={"dataset": "out"})
            seen_during_run.append(_visible(ctx.api, "out"))

        register_user_fn("three", fn)
        api.submit_task(kind="user_fn", task_id="t", params={"fn": "three"})
        run_agent(api, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        assert seen_during_run == [[]]
        assert _visible(api, "out") == ["t/000000", "t/000001", "t/000002"]
        assert api.get_task("t").status == COMPLETED

    def test_a_handler_emits_a_batch(self, api):
        tags = {"dataset": "out", "n": 1}

        def fn(ctx):
            assert ctx.write_output(b"first") == "t/000000"
            with pytest.raises(InvalidArgument, match="2 payloads but 1 labels"):
                ctx.write_outputs([b"a", b"b"], ["only one"])
            keys = ctx.write_outputs([b"a", b"b", b"c"], ["x", None, "z"], tags)
            assert keys == ["t/000001", "t/000002", "t/000003"]
            assert ctx.write_outputs([b"d"], tags=tags) == ["t/000004"]
            assert len({id(doc.tags) for doc in ctx.pending}) == len(ctx.pending)

        register_user_fn("batch", fn)
        api.submit_task(kind="user_fn", task_id="t", params={"fn": "batch"})
        run_agent(api, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = api.get_task("t")
        assert task.status == COMPLETED, task.last_error
        assert _visible(api, "out") == ["t/000001", "t/000002", "t/000003", "t/000004"]
        got = [api.get_document(k) for k in task.output_keys]
        assert [(d.payload, d.label, d.tags) for d in got] == [
            (b"first", None, {}), (b"a", "x", tags), (b"b", None, tags), (b"c", "z", tags),
            (b"d", None, tags)]

    def test_rejected_outputs_fail_the_attempt(self, api):
        api.put_document(Document(key="t/000000", payload=b"user", tags={}))
        register_user_fn("clash", lambda ctx: ctx.write_output(b"x"))
        api.submit_task(kind="user_fn", task_id="t", params={"fn": "clash"},
                        max_attempts=1)
        run_agent(api, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = api.get_task("t")
        assert task.status == DEAD
        assert "already exists" in task.last_error


class TestInlineBound:
    """A task output is a user document, so its inline payload is held to
    the store's ``inline_threshold`` as a ``put_document`` is."""

    def test_an_output_over_the_threshold_fails_its_attempt(self, api, engine):
        size = engine.store.inline_threshold + 1
        register_user_fn("big", lambda ctx: ctx.write_output(b"x" * size))
        api.submit_task(kind="user_fn", task_id="t", params={"fn": "big"}, max_attempts=1)
        run_agent(api, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = api.get_task("t")
        assert task.status == DEAD and task.output_keys == ()
        assert f"inline payload of {size} bytes" in task.last_error
        assert engine.store.staged_keys("t#0.1") == [] and not engine.store.exists("t/000000")

    def test_an_output_over_the_threshold_is_refused_and_stages_nothing(self, api, engine):
        big = output_document("t", 0, b"x" * (engine.store.inline_threshold + 1), None, {})
        api.submit_task(kind="user_fn", task_id="t")
        api.lease_task("agent", TTL)
        with pytest.raises(PayloadTooLarge):
            api.write_outputs("t", "agent", [big])
        with pytest.raises(PayloadTooLarge):
            api.complete_task("t", "agent", "ok", outputs=[big])
        assert engine.store.staged_keys("t#0.1") == []
        task = api.get_task("t")
        assert (task.status, task.output_keys) == ("leased", ())

    def test_an_output_at_the_threshold_commits(self, api, engine):
        payload = b"x" * engine.store.inline_threshold
        register_user_fn("full", lambda ctx: ctx.write_output(payload, tags={"dataset": "o"}))
        api.submit_task(kind="user_fn", task_id="t", params={"fn": "full"})
        run_agent(api, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = api.get_task("t")
        assert task.status == COMPLETED, task.last_error
        assert api.get_document("t/000000").payload == payload


def test_completion_and_its_outputs_are_one_frame(engine, monkeypatch):
    frames = []
    original = engine.store._log.append
    monkeypatch.setattr(engine.store._log, "append",
                        lambda body: (frames.append(len(body)), original(body)))
    register_user_fn("many", lambda ctx: [ctx.write_output(b"x" * 100, tags={"dataset": "o"})
                                          for _ in range(50)])
    engine.submit_task(kind="user_fn", task_id="t", params={"fn": "many"})
    frames.clear()
    run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
    assert len(frames) == 2  # the lease, then outputs + task record + commit
    assert len(_visible(engine, "o")) == 50


def test_a_completion_walks_no_keys(engine, monkeypatch):
    """complete_task reads what its attempt staged ahead without a walk over
    the store's keys, so it never sorts the keys that arrived since the last
    read."""
    engine.submit_task(kind="user_fn", task_id="t")
    engine.lease_task("agent", TTL)
    engine.write_output("t", "agent", 0, b"ahead", tags={"dataset": "out"})
    for i in range(20):
        engine.put_document(Document(key=f"d{i:02d}", payload=b"x", tags={"dataset": "in"}))
    settles = []
    original = _SortedKeys._settle
    monkeypatch.setattr(_SortedKeys, "_settle",
                        lambda keys: (settles.append(len(keys)), original(keys)))
    engine.complete_task("t", "agent", "ok",
                         outputs=[output_document("t", 1, b"sent", None, {"dataset": "out"})])
    assert settles == []
    assert engine.get_task("t").output_keys == ("t/000000", "t/000001")
    assert _visible(engine, "out") == ["t/000000", "t/000001"]


# -- a completion's outputs as one batch ----------------------------------------

# tag maps that share content and tell equal values of other types apart
OUTPUT_TAG_MAPS = [{"dataset": "out"}, {"dataset": "out", "c": 1}, {"dataset": "out", "c": True},
                   {"dataset": "out", "c": 1.0}, {"dataset": "out", "c": -0.0},
                   {"dataset": "out", "c": 0.0}, {"c": 1, "dataset": "out"}, {}]
OUTPUT_QUERIES = ['dataset = "out"', "c = 1", "c = true", "c = 1.0", "c = 0.0", "c >= 0"]


def _strict(doc: Document) -> tuple:
    """A document as values that tell 1, True and 1.0, and -0.0 and 0.0, apart."""
    return (doc.key, doc.payload, doc.label,
            sorted((name, type(v).__name__, repr(v)) for name, v in doc.tags.items()))


def _output_reads(engine, keys) -> dict:
    visible = {}
    for key in keys:
        try:
            visible[key] = _strict(engine.get_document(key))
        except NotFound:
            pass
    scans = {}
    for q in OUTPUT_QUERIES:
        scans[q] = engine.scan(q)[0]
        assert engine.scan(q, use_index=False)[0] == scans[q], q
    tasks = {t.task_id: (t.status, t.output_keys) for t in engine.list_tasks()}
    return {"visible": visible, "scans": scans, "tasks": tasks}


@pytest.mark.parametrize("seed", range(4))
def test_a_completion_equals_its_outputs_one_at_a_time(api, engine, clock, tmp_path, seed):
    """Outputs staged ahead in batches and sent with the completion leave the
    store as the same outputs written one at a time do, on both transports,
    through compaction and a reopen."""
    rng = np.random.default_rng(seed)
    ref = make_engine(tmp_path / "ref", clock)
    for e in (engine, ref):
        e.create_index("dataset")
        e.create_index("c")
    keys = []
    for t in range(6):
        task_id = f"t{t}"
        for e in (api, ref):
            e.submit_task(kind="user_fn", task_id=task_id, max_attempts=2)
        outputs = [output_document(task_id, i, f"{seed}:{t}:{i}".encode(),
                                   None if i % 3 else f"label{i}",
                                   OUTPUT_TAG_MAPS[int(rng.integers(len(OUTPUT_TAG_MAPS)))])
                   for i in range(int(rng.integers(0, 12)))]
        keys += [doc.key for doc in outputs]
        if rng.random() < 0.3:  # a failed attempt stages outputs that never show
            for e in (api, ref):
                e.lease_task("agent", TTL)
                e.write_outputs(task_id, "agent", outputs[:3])
                e.complete_task(task_id, "agent", "error", "first attempt")
        ahead = int(rng.integers(0, len(outputs) + 1))
        api.lease_task("agent", TTL)
        for start in range(0, ahead, 4):
            api.write_outputs(task_id, "agent", outputs[start:min(start + 4, ahead)])
        api.complete_task(task_id, "agent", "ok", outputs=outputs[ahead:])
        ref.lease_task("agent", TTL)
        for doc in outputs:
            ref.write_output(task_id, "agent", int(doc.key[-6:]), doc.payload, doc.label,
                             doc.tags)
        ref.complete_task(task_id, "agent", "ok")
        assert _output_reads(engine, keys) == _output_reads(ref, keys)
    expected = _output_reads(ref, keys)
    engine.compact()
    assert _output_reads(engine, keys) == expected
    ref.close()
    reopened = _reopen(engine, clock)
    try:
        assert _output_reads(reopened, keys) == expected
    finally:
        reopened.close()


@pytest.mark.parametrize("bad,error", [
    (Document(key="t/000009", payload=b"x", tags={"dataset": "out"}), DuplicateKey),
    (Document(key="__sys/x", payload=b"x"), InvalidArgument),  # a reserved key
    (Document(key="t/000004", payload=b"x", tags={"bad name": 1}), InvalidArgument),
    (Document(key="u/000004", payload=b"x"), InvalidArgument),  # outside t/NNNNNN
], ids=["visible-key", "reserved-key", "bad-tag-name", "outside-namespace"])
def test_a_completion_with_one_bad_output_writes_nothing(api, engine, bad, error):
    engine.create_index("dataset")
    api.put_document(Document(key="t/000009", payload=b"user", tags={"dataset": "out"}))
    api.submit_task(kind="user_fn", task_id="t")
    api.lease_task("agent", TTL)
    api.write_outputs("t", "agent", [output_document("t", i, b"ahead", None, {"dataset": "out"})
                                     for i in range(2)])
    sent = [output_document("t", i, b"sent", None, {"dataset": "out"}) for i in (2, 3)]
    keys = [f"t/{i:06d}" for i in range(10)] + [bad.key]
    before, size = _output_reads(engine, keys), _log_bytes(engine)
    group = "t#0.1"
    with pytest.raises(error):
        api.complete_task("t", "agent", "ok", outputs=[*sent, bad])
    assert _output_reads(engine, keys) == before and _log_bytes(engine) == size
    assert engine.store.staged_keys(group) == ["t/000000", "t/000001"]
    api.complete_task("t", "agent", "ok", outputs=sent)
    assert api.get_task("t").output_keys == tuple(f"t/{i:06d}" for i in range(4))


def test_per_tag_map_work_is_bounded_by_the_distinct_maps(api, engine, monkeypatch):
    """A 256-output completion whose outputs share one tag map checks,
    encodes and indexes that map a bounded number of times, not once per
    output; the calls are counted, never timed."""
    from forge.store import records
    from forge.store import store as store_module

    calls = {"validate_tags": 0, "encode_tags": 0, "sort_key": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(store_module, "validate_tags")
    counted(records, "encode_tags")
    counted(store_module, "sort_key")
    engine.create_index("dataset")
    api.submit_task(kind="user_fn", task_id="t")
    api.lease_task("agent", TTL)
    outputs = [output_document("t", i, b"x" * 64, "0.5", {"dataset": "out"}) for i in range(256)]
    calls.update(dict.fromkeys(calls, 0))
    api.complete_task("t", "agent", "ok", outputs=outputs)
    # two distinct maps, the outputs' and the task record's empty one; the
    # client encodes the outputs' once more to send them
    assert calls == {"validate_tags": 2, "encode_tags": 3 if api is not engine else 2,
                     "sort_key": 1}
    assert len(_visible(api, "out")) == 256


def test_outputs_beyond_the_frame_cap_complete_over_tcp(wire_pair):
    _, _, client = wire_pair
    size = DEFAULT_INLINE_THRESHOLD
    count = MAX_PAYLOAD // size + 64

    def big(ctx):
        for i in range(count):
            ctx.write_output(i.to_bytes(4, "little") * (size // 4), tags={"dataset": "big"})

    register_user_fn("big", big)
    client.submit_task(kind="user_fn", task_id="t", params={"fn": "big"})
    run_agent(client, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
    task = client.get_task("t")
    assert task.status == COMPLETED, task.last_error
    assert len(task.output_keys) == count
    visible = _visible(client, "big")
    assert visible == list(task.output_keys)
    for i in (0, count // 2, count - 1):
        assert client.get_document(visible[i]).payload == i.to_bytes(4, "little") * (size // 4)


def test_outputs_beyond_the_batch_record_count_complete(api):
    """More outputs than one BATCH can count (a u16) are staged ahead by
    count, so the completion still commits them all."""
    count = 70_000

    def many(ctx):
        ctx.write_outputs([b""] * count, tags={"dataset": "many"})

    register_user_fn("many", many)
    api.submit_task(kind="user_fn", task_id="t", params={"fn": "many"})
    run_agent(api, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
    task = api.get_task("t")
    assert task.status == COMPLETED, task.last_error
    assert task.output_keys == tuple(f"t/{i:06d}" for i in range(count))
    assert _visible(api, "many") == list(task.output_keys)


def test_heartbeats_do_not_grow_memory(engine):
    """A renewed lease replaces its task record, and the store keeps no
    version a reader cannot see, so 2000 renewals hold traced memory flat."""
    engine.submit_task(kind="user_fn", task_id="t")
    engine.lease_task("agent", TTL)
    for _ in range(10):
        engine.heartbeat("t", "agent", TTL)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            engine.heartbeat("t", "agent", TTL)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_a_retried_attempt_leaves_no_staging_group_behind(engine, clock):
    """A second attempt that stages the keys its failed first attempt staged
    takes them out of the first attempt's group, which the store then
    forgets: 20 such tasks leave no group, live or after a reopen."""
    for t in range(20):
        task_id = f"t{t}"
        engine.submit_task(kind="user_fn", task_id=task_id, max_attempts=2)
        outputs = [output_document(task_id, i, b"x" * 1000, None, {}) for i in range(50)]
        engine.lease_task("agent", TTL)
        engine.write_outputs(task_id, "agent", outputs)
        engine.complete_task(task_id, "agent", "error", "first attempt")
        engine.lease_task("agent", TTL)
        engine.write_outputs(task_id, "agent", outputs)
        engine.complete_task(task_id, "agent", "ok")
        assert engine.get_task(task_id).status == COMPLETED
    assert engine.store._staged == {}
    reopened = _reopen(engine, clock)
    try:
        assert reopened.store._staged == {}
        assert all(reopened.get_document(f"t{t}/{i:06d}").payload == b"x" * 1000
                   for t in range(20) for i in range(50))
    finally:
        reopened.close()


def test_back_to_back_tasks_share_one_heartbeat_thread(engine, monkeypatch):
    """The process's heartbeat thread renews every running task's lease, so
    50 tasks in a row start at most one thread between them (none when an
    earlier agent in this process started it)."""
    register_user_fn("noop", lambda ctx: None)
    for t in range(50):
        engine.submit_task(kind="user_fn", task_id=f"t{t}", params={"fn": "noop"})
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for _ in range(50):
        run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
    assert len(started) <= 1, started
    assert all(task.status == COMPLETED for task in engine.list_tasks())


def test_one_heartbeat_thread_serves_agents_in_many_threads():
    """Six agent threads add and end 100 leases each, every 25th held for
    50 ms, while the one heartbeat thread renews them at ttl/3 = 10 ms:
    each held lease is renewed, no lease is left behind, and no renewal
    comes once every task has ended."""
    beats: dict[str, int] = {}
    lock = threading.Lock()

    class Api:
        def heartbeat(self, task_id, agent_id, lease_ttl_ms):
            with lock:
                beats[task_id] = beats.get(task_id, 0) + 1

    api = Api()

    def agent(n):
        for i in range(100):
            lease = _HEARTBEATS.add(api, f"a{n}/{i}", "agent", 30)
            if i % 25 == 0:
                time.sleep(0.05)
            _HEARTBEATS.remove(lease)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        agents = [threading.Thread(target=agent, args=(n,)) for n in range(6)]
        for thread in agents:
            thread.start()
        for thread in agents:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in agents)
    finally:
        sys.setswitchinterval(interval)
    assert all(lease[1] is not api for lease in list(_HEARTBEATS._leases.values()))
    assert all(beats.get(f"a{n}/{i}", 0) >= 1 for n in range(6) for i in range(0, 100, 25))
    time.sleep(0.05)  # a beat already under way lands
    with lock:
        settled = dict(beats)
    time.sleep(0.1)
    assert beats == settled


# -- kill points on the completion path ---------------------------------------

MODEL = "m"
SPEC = {"input_dims": [4], "layers": [
    {"name": "h", "kind": "dense", "out_units": 3},
    {"name": "r", "kind": "relu"},
    {"name": "out", "kind": "dense", "out_units": 2},
]}
SAMPLES = 8
FN_OUTPUTS = 3


def _emit(ctx):
    for i in range(FN_OUTPUTS):
        ctx.write_output(f"{ctx.task.task_id}:{i}".encode(),
                         tags={"dataset": ctx.task.output_dataset})


def _setup_plan(engine) -> dict:
    rng = np.random.default_rng(5)
    engine.register_model(MODEL, SPEC)
    for i in range(SAMPLES):
        engine.put_document(Document(key=f"s{i:03d}",
                                     payload=encode_sample(rng.standard_normal(4)),
                                     label="0.5,-0.5", tags={"dataset": "train"}))
    engine.define_view("train", 'dataset = "train"')
    plan = {"plan_id": "p", "tasks": [
        {"task_id": "p-train", "kind": "train", "input_dataset": "train",
         "model": MODEL, "output_dataset": "p-train-out",
         "params": {"emit": "hidden:r", "seed": 3}}]}
    plan["tasks"] += [{"task_id": f"p-u{k}", "kind": "user_fn",
                       "depends_on": ["p-train"], "output_dataset": f"p-u{k}-out",
                       "params": {"fn": "emit"}} for k in range(2)]
    engine.submit_plan(plan)
    return plan


def _spawn(harness, engine, suffix):
    harness.spawn(run_agent, engine, f"agent-{suffix}", DEFAULT_HANDLERS,
                  poll_interval=0.01, lease_ttl_ms=TTL)
    harness.spawn(run_master, engine, f"master-{suffix}", interval=0.01)


def _kill(tmp_path, harness, point, hits) -> tuple[dict, FakeClock]:
    """Run the plan until the kill point fires, then close the engine."""
    clock = FakeClock()
    engine = make_engine(tmp_path / "store", clock)
    register_user_fn("emit", _emit)
    plan = _setup_plan(engine)
    faults.arm(point, hits)
    _spawn(harness, engine, "1")
    deadline = time.monotonic() + 30
    while not harness.errors and time.monotonic() < deadline:
        time.sleep(0.01)
    harness.shutdown()
    assert [type(e).__name__ for e in harness.errors] == ["KillPoint"]
    assert not any(t.is_alive() for t in harness.threads)
    engine.close()
    clock.advance(TTL)  # the dead agent's lease runs out
    return plan, clock


@pytest.mark.parametrize("point,hits", [
    ("agent.after_lease", 1),  # the train task
    ("agent.after_lease", 2),  # the first user_fn task
    ("handler.before_train", 1),
    ("handler.before_save", 1),
    ("handler.after_outputs", 1),
    ("agent.before_complete", 1),  # the train task, after its version is saved
    ("agent.before_complete", 2),  # the first user_fn task
    ("agent.after_complete", 1),  # the train task is committed; its dependents are ready
    ("agent.after_complete", 2),
    ("master.before_step", 2),
    ("master.before_apply", 1),
    ("master.before_apply", 3),
    ("master.after_apply", 1),
    ("master.after_apply", 2),
])
def test_kill_then_restart_is_exactly_once(tmp_path, harness, point, hits):
    plan, clock = _kill(tmp_path, harness, point, hits)
    engine = Forge(tmp_path / "store", clock=clock, fsync=False)
    rerun = AgentHarness()
    try:
        _spawn(rerun, engine, "2")
        status = wait_for_plan(engine, "p", timeout=30, poll=0.01)
        rerun.shutdown()
        assert rerun.errors == []
        assert status["status"] == "completed"
        assert len(engine.list_versions(MODEL)) == 1
        for task in plan["tasks"]:
            tid = task["task_id"]
            want = SAMPLES if task["kind"] == "train" else FN_OUTPUTS
            keys = [f"{tid}/{i:06d}" for i in range(want)]
            assert engine.get_task(tid).output_keys == tuple(keys)
            assert _visible(engine, task["output_dataset"]) == keys
            if task["kind"] == "user_fn":
                assert [engine.get_document(k).payload for k in keys] == [
                    f"{tid}:{i}".encode() for i in range(FN_OUTPUTS)]
    finally:
        rerun.shutdown()
        engine.close()


def test_train_events_are_recorded_once_across_a_kill(tmp_path, harness):
    """The first attempt saves its version and dies before completing; the
    rerun finds the version saved and must not record the events again."""
    _, clock = _kill(tmp_path, harness, "agent.before_complete", 1)
    engine = Forge(tmp_path / "store", clock=clock, fsync=False)
    rerun = AgentHarness()
    try:
        _spawn(rerun, engine, "2")
        assert wait_for_plan(engine, "p", timeout=30, poll=0.01)["status"] == "completed"
        rerun.shutdown()
        assert rerun.errors == []
        events = [(e.name, e.step) for e in engine.query_events(MODEL)]
        assert events == [("seed", 0), ("loss", 1)]
    finally:
        rerun.shutdown()
        engine.close()


# -- the agent loop against an unreliable connection ----------------------------


class _FlakyApi:
    """The agent's view of an engine holding one user_fn task. The n-th call
    of a method raises ``errors[method][n]`` when it names one; every call
    is recorded in ``calls``."""

    def __init__(self, errors: dict):
        self.errors = errors
        self.calls: list[tuple] = []
        self.leased = False
        self.beats = threading.Semaphore(0)  # released once per heartbeat call

    def _record(self, name: str, *args) -> None:
        self.calls.append((name, *args))
        hit = sum(call[0] == name for call in self.calls)
        error = self.errors.get(name, {}).get(hit)
        if error is not None:
            raise error(f"{name} call {hit}")

    def lease_task(self, agent_id, lease_ttl_ms, kinds=None):
        self._record("lease_task")
        if self.leased:
            return None
        self.leased = True
        return Task(task_id="t", kind="user_fn", input_dataset="", model_key="",
                    output_dataset="", status="leased", attempts=1, lease_holder=agent_id)

    def heartbeat(self, task_id, agent_id, lease_ttl_ms):
        self.beats.release()
        self._record("heartbeat")

    def complete_task(self, task_id, agent_id, outcome, message=None, *, outputs=()):
        self._record("complete_task", outcome)

    def work(self) -> list[tuple]:
        """The calls other than heartbeats, in order."""
        return [call for call in self.calls if call[0] != "heartbeat"]


def _fails(ctx):
    raise ValueError("handler failed")


def test_an_agent_polls_again_after_a_lost_lease_call():
    api = _FlakyApi({"lease_task": {1: ConnectionLost}})
    run_agent(api, "agent", {"user_fn": lambda ctx: None}, max_loops=3, poll_interval=0.0)
    assert api.work() == [("lease_task",), ("lease_task",), ("complete_task", "ok"),
                          ("lease_task",)]


@pytest.mark.parametrize("handler,outcome", [(lambda ctx: None, "ok"), (_fails, "error")],
                         ids=["ok", "error"])
def test_an_agent_gives_up_a_task_whose_completion_is_lost(handler, outcome):
    """No error outcome follows a lost completion: the lease runs out and the
    task reruns, and its commit keeps the outputs exactly-once."""
    api = _FlakyApi({"complete_task": {1: ConnectionLost}})
    run_agent(api, "agent", {"user_fn": handler}, max_loops=2, poll_interval=0.0)
    assert api.work() == [("lease_task",), ("complete_task", outcome), ("lease_task",)]


@pytest.mark.parametrize("stop", [StaleLease, TaskNotFound])
def test_a_heartbeat_outlives_a_lost_beat(stop):
    """A beat that loses its connection is followed by the next; only a lease
    the engine no longer grants ends the beats before the task does."""
    api = _FlakyApi({"heartbeat": {1: ConnectionLost, 3: stop}})

    def slow(ctx):
        for _ in range(3):
            assert api.beats.acquire(timeout=10)
        time.sleep(3 * MIN_LEASE_TTL_MS / 3000)  # room for three more beats

    run_agent(api, "agent", {"user_fn": slow}, max_loops=1, poll_interval=0.0,
              lease_ttl_ms=MIN_LEASE_TTL_MS)
    assert [call for call in api.calls if call[0] == "heartbeat"] == [("heartbeat",)] * 3
    assert api.work() == [("lease_task",), ("complete_task", "ok")]


@pytest.mark.parametrize("field,value", [
    ("task_id", 7), ("params", [1]), ("input_dataset", 3), ("model_key", ["m"]),
    ("max_attempts", True), ("max_attempts", "3"), ("task_id", ""),
])
def test_submit_task_fields_are_typed(engine, field, value):
    with pytest.raises(InvalidArgument, match=f"^{field} must be "):
        engine.submit_task(**{"kind": "user_fn", "task_id": "t", field: value})
    assert engine.list_tasks() == []


def test_depends_on_outside_a_plan_is_refused(engine):
    """Only a plan checks that the ids its tasks depend on exist and form no
    cycle, so a dependent task outside one could wait for good."""
    with pytest.raises(InvalidArgument, match="^depends_on needs a plan"):
        engine.workflow.submit_task(task_id="x", kind="user_fn", depends_on=["y"])
    assert engine.list_tasks() == []
    engine.workflow.submit_task(task_id="x", kind="user_fn", depends_on=[])
    assert engine.lease_task("agent", TTL).task_id == "x"


def test_a_missing_model_or_view_is_not_found(api, engine):
    """Every way in names a missing model or view with the error its own
    read would raise, and writes nothing."""
    api.register_model(MODEL, SPEC)
    api.define_view("v", "")
    seq = engine.store.snapshot_seq()
    for error, model, view in [(ModelNotFound, "ghost", "v"), (ViewNotFound, MODEL, "ghost")]:
        with pytest.raises(error):
            api.submit_task(kind="train", task_id="t", input_dataset=view, model_key=model)
        for model_field in ("model", "model_key"):
            with pytest.raises(error):
                api.submit_plan({"plan_id": "p", "tasks": [
                    {"task_id": "t", "kind": "train", "input_dataset": view,
                     model_field: model}]})
        with pytest.raises(error):
            api.attach_stream(view, 1, MIN_MAX_AGE_MS, model, "out")
    assert engine.store.snapshot_seq() == seq
    assert api.list_tasks() == [] and engine.workflow.plans == {}
    assert engine.datasets.list_controllers() == []


@pytest.mark.parametrize("task_id", ["__sys/stream/x", "__sys/task/t", "__sys/"])
def test_a_task_id_under_the_reserved_prefix_is_refused(api, engine, task_id):
    """Its outputs, ``{task_id}/NNNNNN``, would land among the system docs."""
    seq = engine.store.snapshot_seq()
    with pytest.raises(InvalidArgument, match="^task_id must not start with '__sys/'"):
        api.submit_task(kind="user_fn", task_id=task_id)
    assert engine.store.snapshot_seq() == seq
    assert api.list_tasks() == []
    assert api.master_step("m")["stream_tasks"] == []


def _entry(task_id: str, **fields) -> dict:
    return {"task_id": task_id, "kind": "user_fn", **fields}


@pytest.mark.parametrize("tasks,error,message", [
    ([["t"]], InvalidArgument, r"plan\.tasks\[0\] must be an object"),
    ([{"kind": "user_fn"}], InvalidArgument, r"plan\.tasks\[0\]\.task_id is required"),
    ([{"task_id": "t"}], InvalidArgument, r"plan\.tasks\[0\]\.kind is required"),
    ([_entry("t", kind="sweep")], InvalidArgument, "unknown task kind 'sweep'"),
    ([_entry("t", max_attempts=0)], InvalidArgument,
     r"plan\.tasks\[0\]\.max_attempts must be >= 1"),
    ([_entry("t"), _entry("t")], InvalidArgument, "plan task ids must be unique"),
    ([_entry("t"), _entry("u", depends_on=["x"])], InvalidArgument,
     r"plan\.tasks\[1\]\.depends_on references unknown task 'x'"),
    ([_entry("a", depends_on=["b"]), _entry("b", depends_on=["a"])], CycleDetected, "cycle"),
    ([_entry("t"), _entry("__sys/stream/x")], InvalidArgument,
     r"plan\.tasks\[1\]\.task_id must not start with '__sys/'"),
    ([_entry("t", model=MODEL, model_key="nope")], InvalidArgument,
     r"plan\.tasks\[0\]\.model and model_key name the same field"),
], ids=["not-an-object", "no-task-id", "no-kind", "unknown-kind", "no-attempts",
        "duplicate-id", "unknown-dependency", "cycle", "reserved-id", "model-and-model-key"])
def test_a_malformed_plan_is_refused_whole(api, engine, tasks, error, message):
    api.register_model(MODEL, SPEC)
    seq = engine.store.snapshot_seq()
    with pytest.raises(error, match=message):
        api.submit_plan({"plan_id": "p", "tasks": tasks})
    assert engine.store.snapshot_seq() == seq
    assert api.list_tasks() == [] and engine.workflow.plans == {}


@pytest.mark.parametrize("plan_id,tasks,message", [
    ("p", [_entry("x")], "plan 'p' already submitted"),
    ("q", [_entry("x"), _entry("solo")], "task id 'solo' already exists"),
    ("q", [_entry("p-c0")], "task id 'p-c0' already exists"),
], ids=["plan-id", "queued-task", "task-of-another-plan"])
def test_a_plan_reusing_a_taken_id_is_refused(api, engine, plan_id, tasks, message):
    """The workflow's own check, not the store, refuses it: task and plan
    records are system docs, which the store lets every write replace."""
    api.submit_plan(_plan("p", children=1))
    api.submit_task(kind="user_fn", task_id="solo")
    before = api.list_tasks()
    seq = engine.store.snapshot_seq()
    with pytest.raises(DuplicateKey, match=message):
        api.submit_plan({"plan_id": plan_id, "tasks": tasks})
    assert engine.store.snapshot_seq() == seq
    assert api.list_tasks() == before and list(engine.workflow.plans) == ["p"]
    assert api.plan_status("p")["tasks"] == {"p-root": PENDING, "p-c0": PENDING}
