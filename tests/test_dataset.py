"""Views, batch cursors, and stream-controller semantics."""

import errno
import json
import os
import random
import sys
import time

import pytest

from forge import dataset, faults
from forge.clock import FakeClock
from forge.dataset import stream_task_id
from forge.engine import Forge
from forge.errors import AlreadyAttached, DuplicateKey, StorageFull, ViewNotFound
from forge.query import parse
from forge.store import Document
from forge.workflow import run_master

from conftest import log_bytes


def doc(key, payload=b"x", label=None, **tags):
    return Document(key=key, payload=payload, label=label, tags=tags)


def fill(api, n, start=0, **tags):
    tags = tags or {"split": "train"}
    for i in range(start, start + n):
        api.put_document(doc(f"d{i:04d}", **tags))


class TestViews:
    def test_define_over_empty_store(self, api):
        view = api.define_view("v", 'split = "train"')
        assert view.view_key == "v"
        assert api.view_slice("v") == []

    def test_view_matches_split(self, api):
        for i in range(100):
            api.put_document(doc(f"d{i:03d}", split="train" if i < 60 else "test"))
        api.define_view("train", 'split = "train"')
        assert len(api.view_slice("train")) == 60

    def test_duplicate_view_key(self, api):
        api.define_view("v", "")
        with pytest.raises(DuplicateKey):
            api.define_view("v", "")

    def test_view_is_lazy_metadata_only(self, engine):
        fill(engine, 50)
        seq_before = engine.store.snapshot_seq()
        for i in range(10):
            engine.define_view(f"view{i}", 'split = "train"')
        # each definition writes exactly one system document, independent of
        # the document count
        assert engine.store.snapshot_seq() - seq_before == 10
        assert len(engine.view_slice("view0")) == 50

    def test_unknown_view(self, api):
        with pytest.raises(ViewNotFound):
            api.view_slice("ghost")
        with pytest.raises(ViewNotFound):
            api.open_cursor("ghost", 4)

    def test_a_view_is_parsed_once_per_open(self, tmp_path, monkeypatch):
        """Reads of a view parse its query text on the first read only, also
        across a compaction; a reopened store reads it again."""
        texts = []

        def counted(text):
            texts.append(text)
            return parse(text)

        monkeypatch.setattr(dataset, "parse", counted)
        path = tmp_path / "s"
        with Forge(path, create=True, clock=FakeClock(), fsync=False) as eng:
            fill(eng, 10)
            eng.define_view("v", 'split = "train"')
            cursor = eng.open_cursor("v", batch_size=2)
            for _ in range(4):
                _, cursor, _ = eng.read_batch(cursor)
            eng.compact()
            docs, cursor, _ = eng.read_batch(cursor)
            assert [d.key for d in docs] == ["d0008", "d0009"]
            assert len(eng.view_slice("v")) == 10
            assert texts == ['split = "train"']
        with Forge(path, clock=FakeClock(), fsync=False) as eng:
            assert len(eng.view_slice("v")) == 10
            eng.read_batch(eng.open_cursor("v", batch_size=2))
            assert texts == ['split = "train"'] * 2

    def test_a_failed_definition_leaves_no_view(self, engine, monkeypatch):
        """A definition the log refuses (a full device) leaves no view to
        read, and the same key can be defined once there is room."""
        fill(engine, 3)
        real = os.pwrite

        def full(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "pwrite", full)
        with pytest.raises(StorageFull):
            engine.define_view("v", 'split = "train"')
        monkeypatch.setattr(os, "pwrite", real)
        with pytest.raises(ViewNotFound):
            engine.get_view("v")
        with pytest.raises(ViewNotFound):
            engine.view_slice("v")
        engine.define_view("v", 'split = "test"')
        assert engine.get_view("v").query == parse('split = "test"')
        assert engine.view_slice("v") == []


class TestBatchCursor:
    def test_batches_partition_in_order(self, api):
        fill(api, 10)
        api.define_view("v", 'split = "train"')
        cursor = api.open_cursor("v", batch_size=4)
        sizes, all_keys = [], []
        while True:
            docs, cursor, end = api.read_batch(cursor)
            sizes.append(len(docs))
            all_keys.extend(d.key for d in docs)
            if end:
                break
        assert sizes == [4, 4, 2]
        assert all_keys == [f"d{i:04d}" for i in range(10)]

    def test_cursor_survives_restart_without_duplicates(self, tmp_path):
        """Consume 4 of 10, crash, reopen: the next batch starts at item 5."""
        clock = FakeClock()
        path = tmp_path / "s"
        eng = Forge(path, create=True, clock=clock, fsync=False)
        fill(eng, 10)
        eng.define_view("v", 'split = "train"')
        cursor = eng.open_cursor("v", batch_size=4, cursor_id="trainer")
        docs, cursor, _ = eng.read_batch(cursor)
        assert [d.key for d in docs] == [f"d{i:04d}" for i in range(4)]
        eng.close()  # simulated crash: all in-memory state gone

        eng = Forge(path, clock=clock, fsync=False)
        cursor = eng.open_cursor("v", batch_size=4, cursor_id="trainer")
        docs, cursor, _ = eng.read_batch(cursor)
        assert [d.key for d in docs] == [f"d{i:04d}" for i in range(4, 8)]
        eng.close()

    def test_cursor_doc_keeps_only_its_position(self, tmp_path):
        """A cursor doc holds its position; one that older versions wrote
        with a batch_size still opens, at the batch size the caller asks."""
        path = tmp_path / "s"
        eng = Forge(path, create=True, clock=FakeClock(), fsync=False)
        fill(eng, 10)
        eng.define_view("v", 'split = "train"')
        eng.store.put_system(Document(key="__sys/cursor/v/old",
                                      payload=b'{"position": "d0002", "batch_size": 7}'))
        _, cursor, _ = eng.read_batch(eng.open_cursor("v", batch_size=4, cursor_id="new"))
        assert json.loads(eng.store.get("__sys/cursor/v/new").payload) == {"position": "d0003"}
        eng.close()

        eng = Forge(path, clock=FakeClock(), fsync=False)
        cursor = eng.open_cursor("v", batch_size=3, cursor_id="old")
        docs, cursor, _ = eng.read_batch(cursor)
        assert [d.key for d in docs] == ["d0003", "d0004", "d0005"]
        assert json.loads(eng.store.get("__sys/cursor/v/old").payload) == {"position": "d0005"}
        eng.close()

    def test_an_empty_read_writes_nothing(self, api, engine):
        """A read that finds no new document leaves the cursor where it was,
        so it persists nothing: the log and the sequence stay as they were."""
        fill(api, 4)
        api.define_view("v", 'split = "train"')
        _, cursor, end = api.read_batch(api.open_cursor("v", batch_size=4, cursor_id="c"))
        assert end
        size, seq = log_bytes(engine.store.path), engine.store.snapshot_seq()
        for _ in range(100):
            docs, cursor, end = api.read_batch(cursor)
            assert (docs, cursor.position, end) == ([], "d0003", True)
        assert (log_bytes(engine.store.path), engine.store.snapshot_seq()) == (size, seq)
        assert json.loads(engine.store.get("__sys/cursor/v/c").payload) == {"position": "d0003"}

    def test_blob_payloads_resolved_transparently(self, api):
        data = random.Random(5).randbytes(60_000)
        ptr = api.put_blob(data)
        api.put_document(Document(key="big", payload=ptr, tags={"split": "train"}))
        api.define_view("v", 'split = "train"')
        cursor = api.open_cursor("v", batch_size=2)
        docs, _, end = api.read_batch(cursor)
        assert end
        assert docs[0].payload == data  # bytes, not the pointer

    def test_late_documents_appear_in_later_batches(self, api):
        fill(api, 4)
        api.define_view("v", 'split = "train"')
        cursor = api.open_cursor("v", batch_size=4)
        _, cursor, end = api.read_batch(cursor)
        assert end
        fill(api, 2, start=4)
        docs, cursor, end = api.read_batch(cursor)
        assert [d.key for d in docs] == ["d0004", "d0005"]


class TestStreamController:
    def _setup(self, api, threshold=32, max_age=5000):
        api.define_view("v", 'split = "train"')
        api.register_model("m", {"input_dims": [1], "layers": [
            {"name": "o", "kind": "dense", "out_units": 1}]})
        api.attach_stream("v", threshold, max_age, "m", "out")

    def test_below_threshold_no_trigger(self, api):
        self._setup(api)
        fill(api, 31)
        assert api.poll_stream("v") is None

    def test_threshold_crossing_emits_one_task_covering_all(self, api):
        self._setup(api)
        fill(api, 31)
        api.poll_stream("v")
        fill(api, 1, start=31)
        task = api.poll_stream("v")
        assert task is not None
        assert task.params["from_key"] == ""
        assert task.params["upto_key"] == "d0031"
        # trigger drains all pending; nothing left
        assert api.poll_stream("v") is None

    def test_overshoot_drains_everything(self, api):
        self._setup(api)
        fill(api, 70)
        task = api.poll_stream("v")
        assert task.params["upto_key"] == "d0069"
        assert api.poll_stream("v") is None

    def test_age_trigger_with_injected_clock(self, engine, clock):
        self._setup(engine, threshold=32, max_age=5000)
        fill(engine, 5)
        assert engine.poll_stream("v") is None
        clock.advance(4999)
        assert engine.poll_stream("v") is None
        clock.advance(2)
        task = engine.poll_stream("v")
        assert task is not None
        assert task.params["upto_key"] == "d0004"

    def test_attach_validations(self, api):
        api.define_view("v", "")
        api.register_model("m", {"input_dims": [1], "layers": [
            {"name": "o", "kind": "dense", "out_units": 1}]})
        with pytest.raises(ViewNotFound):
            api.attach_stream("ghost", 1, 100, "m", "out")
        api.attach_stream("v", 1, 100, "m", "out")
        with pytest.raises(AlreadyAttached):
            api.attach_stream("v", 1, 100, "m", "out")

    def test_two_masters_dispatch_every_document_once(self, engine, clock, harness):
        """Two master loops drive one stream while documents arrive: every
        document lands in exactly one task range."""
        engine.create_index("split")
        self._setup(engine, threshold=7, max_age=1000)
        count = 2000
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for master_id in ("m1", "m2"):
                harness.spawn(run_master, engine, master_id, interval=0.001)
            for start in range(0, count, 10):  # in bursts, so triggers fire often
                fill(engine, 10, start=start)
                time.sleep(0.0005)
            clock.advance(1000)  # the tail below the threshold ages out
            last, deadline = f"d{count - 1:04d}", time.monotonic() + 60
            while (engine.datasets.get_controller("v").watermark != last
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            harness.shutdown()
        finally:
            sys.setswitchinterval(switch)
        assert harness.errors == []
        assert not any(thread.is_alive() for thread in harness.threads)
        ranges = [(t.params["from_key"], t.params["upto_key"]) for t in engine.list_tasks()]
        owners = {f"d{i:04d}": 0 for i in range(count)}
        for lo, hi in ranges:
            for key in owners:
                owners[key] += lo < key <= hi
        assert set(owners.values()) == {1}

    def test_crash_between_trigger_and_dispatch_is_exactly_once(self, tmp_path):
        """A poll killed after its trigger fired and before its commit writes
        nothing; after a reopen the next poll fires the same trigger, under
        the same task id, once."""
        clock = FakeClock()
        path = tmp_path / "s"
        eng = Forge(path, create=True, clock=clock, fsync=False)
        self._setup(eng, threshold=5)
        fill(eng, 7)
        seq = eng.store.snapshot_seq()
        faults.arm("master.before_apply")
        with pytest.raises(faults.KillPoint):
            eng.poll_stream("v")
        assert eng.store.snapshot_seq() == seq
        eng.close()

        eng = Forge(path, clock=clock, fsync=False)
        try:
            task = eng.poll_stream("v")
            assert task.task_id == stream_task_id("v", "", "d0006")
            assert task.params == {"from_key": "", "upto_key": "d0006"}
            assert eng.poll_stream("v") is None
            assert [t.task_id for t in eng.list_tasks()] == [task.task_id]
        finally:
            eng.close()

    @pytest.mark.parametrize("point,hits", [
        ("master.before_apply", 1), ("master.before_apply", 2),
        ("master.after_apply", 1), ("master.after_apply", 2),
    ])
    def test_killed_master_dispatches_once(self, tmp_path, harness, point, hits):
        """A master loop drives the stream while documents arrive and dies on
        one side of a poll's commit. After a reopen and a drain, every
        document lies in exactly one task's range and no task id repeats."""
        clock = FakeClock()
        path = tmp_path / "s"
        eng = Forge(path, create=True, clock=clock, fsync=False)
        self._setup(eng, threshold=5, max_age=1000)
        faults.arm(point, hits)
        harness.spawn(run_master, eng, "m1", interval=0.001)
        count = 0
        while not harness.errors and count < 2000:
            fill(eng, 5, start=count)
            count += 5
            time.sleep(0.002)
        harness.shutdown()
        assert [type(e).__name__ for e in harness.errors] == ["KillPoint"]
        assert not any(thread.is_alive() for thread in harness.threads)
        fill(eng, 3, start=count)  # arrivals while no master runs
        count += 3
        eng.close()

        eng = Forge(path, clock=clock, fsync=False)
        try:
            clock.advance(1000)  # the tail below the threshold ages out
            eng.master_step("m2")
            assert eng.datasets.get_controller("v").watermark == f"d{count - 1:04d}"
            tasks = eng.list_tasks()
        finally:
            eng.close()
        ids = [t.task_id for t in tasks]
        assert len(ids) == len(set(ids))
        ranges = [(t.params["from_key"], t.params["upto_key"]) for t in tasks]
        assert ids == [stream_task_id("v", lo, hi) for lo, hi in ranges]
        owners = {f"d{i:04d}": 0 for i in range(count)}
        for lo, hi in ranges:
            for key in owners:
                owners[key] += lo < key <= hi
        assert set(owners.values()) == {1}


class TestExactlyOnceRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_partition_documents(self, tmp_path, seed):
        """Appends, polls, and crash-reopens in random order: every matching
        document lands in exactly one emitted task range."""
        rng = random.Random(seed)
        clock = FakeClock()
        path = tmp_path / "s"
        eng = Forge(path, create=True, clock=clock, fsync=False)
        eng.define_view("v", 'kind = "s"')
        eng.register_model("m", {"input_dims": [1], "layers": [
            {"name": "o", "kind": "dense", "out_units": 1}]})
        eng.attach_stream("v", rng.choice([2, 3, 5]), 500, "m", "out")
        appended = 0
        for _ in range(rng.randrange(10, 30)):
            action = rng.random()
            if action < 0.5:
                eng.put_document(doc(f"k{appended:04d}", kind="s"))
                appended += 1
            elif action < 0.8:
                eng.master_step(rng.choice(["m1", "m2"]))
                clock.advance(rng.randrange(0, 300))
            else:
                eng.close()
                eng = Forge(path, clock=clock, fsync=False)
        # drain
        for _ in range(20):
            clock.advance(1000)
            eng.poll_stream("v")
        ranges = [(t.params["from_key"], t.params["upto_key"])
                  for t in eng.list_tasks()]
        covered = {}
        for i in range(appended):
            key = f"k{i:04d}"
            owners = [r for r in ranges if r[0] < key <= r[1]]
            covered[key] = len(owners)
        assert all(n == 1 for n in covered.values()), covered
        eng.close()
