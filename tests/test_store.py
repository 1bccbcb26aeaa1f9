"""Store engine internals: durability, crash atomicity, indexes, blobs,
staging groups, snapshot pagination, compaction, and the writer lock."""

import errno
import gc
import hashlib
import json
import os
import random
import stat
import time
import tracemalloc
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import faults
from forge.clock import FakeClock
from forge.errors import (
    ChecksumMismatch,
    CorruptStore,
    DuplicateKey,
    EmptyBlob,
    InvalidArgument,
    NotFound,
    PayloadTooLarge,
    ReservedKey,
    StorageFull,
    StoreLocked,
)
from forge.query import MATCH_ALL, Predicate, TagQuery, parse, sort_key
from forge.nn import layers as nnlayers
from forge.nn import network as nnet
from forge.store import (
    CHUNK_SIZE,
    CODEC_ZLIB,
    BlobPointer,
    CommitGroupOp,
    Document,
    PutOp,
    ScanCursor,
    Store,
)
from forge.store import log as logio
from forge.store import records
from forge.store.blob import GC_GRACE_S, PROBE
from forge.store.log import frame, list_segments, replay
from forge.tensorio import encode_tensors

from conftest import log_bytes, write_raw_blob
from oracles import StoreModel, brute_force_filter
from test_records import DELETE_HEX, decoded, delete_body, log_bodies


def make_store(path, **kw):
    kw.setdefault("clock", FakeClock())
    kw.setdefault("fsync", False)
    return Store(path, **kw)


def doc(key, payload=b"x", label=None, **tags):
    return Document(key=key, payload=payload, label=label, tags=tags)


class TestBasics:
    def test_put_get_round_trip(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put(doc("s1", b"abcd", split="train"))
            got = s.get("s1")
            assert got.payload == b"abcd"
            assert got.tags == {"split": "train"}

    def test_duplicate_key(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put(doc("s1"))
            with pytest.raises(DuplicateKey):
                s.put(doc("s1"))

    def test_get_missing(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            with pytest.raises(NotFound):
                s.get("missing")

    def test_inline_threshold(self, tmp_path):
        with make_store(tmp_path / "s", create=True, inline_threshold=64) as s:
            s.put(doc("ok", b"x" * 64))
            with pytest.raises(PayloadTooLarge):
                s.put(doc("big", b"x" * 65))

    def test_reserved_prefix_rejected(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            with pytest.raises(ReservedKey):
                s.put(doc("__sys/evil"))

    def test_blob_backed_get_returns_pointer(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            ptr = s.put_blob(b"y" * 100_000)
            s.put(Document(key="b1", payload=ptr))
            got = s.get("b1")
            assert got.payload == ptr  # the pointer, not the bytes

    def test_thousand_documents_scan_all(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            keys = sorted(f"d{i:04d}" for i in range(1000))
            for k in keys:
                s.put(doc(k))
            got, end = s.scan(MATCH_ALL)
            assert got == keys
            assert end is None

    def test_tag_count_limit(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            with pytest.raises(InvalidArgument):
                s.put(doc("k", **{f"t{i}": i for i in range(65)}))


def _bucket(s: Store, name: str, value) -> list[str]:
    """The keys of index ``name``'s bucket for ``value`` as it walks them."""
    bucket = s._indexes[name].by_value.get(sort_key(value))
    return [] if bucket is None else list(bucket.walk(""))


def frame_starts(path) -> list[int]:
    """Where each frame of a store's log starts in its segment."""
    return [start - 8 for _, start, _ in replay(path)]


class TestDurability:
    def test_reopen_preserves_documents(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.put(doc("a", b"1", split="train"))
            s.put(doc("b", b"2", split="test"))
        with make_store(path) as s:
            assert s.get("a").payload == b"1"
            assert s.scan(MATCH_ALL)[0] == ["a", "b"]

    def test_reopen_preserves_indexes(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.create_index("split")
            s.put(doc("a", split="train"))
        with make_store(path) as s:
            assert s.indexes() == ["split"]
            assert s.scan(parse('split = "train"'))[0] == ["a"]

    def test_torn_tail_write_rolls_back(self, tmp_path):
        """A write interrupted mid-frame leaves the store as before the write,
        also with the zeros a live log keeps ahead of its end after the torn
        frame: the open cuts both. In an older segment a zero header is
        damage, even with bytes after it. (A frame whose missing bytes are
        zeros is whole again with the padding, and replays.)"""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.put(doc("a"))
            s.put(doc("b"))
        segment = list_segments(path)[-1]
        intact = segment.read_bytes()
        last_start = frame_starts(path)[-1]
        # cut at every byte boundary inside the final frame
        for cut in range(last_start + 1, len(intact)):
            for zeros in (0, 100):
                segment.write_bytes(intact[:cut] + bytes(zeros))
                whole = zeros and not intact[cut:].strip(b"\0")
                with make_store(path) as s:
                    assert s.scan(MATCH_ALL)[0] == (["a", "b"] if whole else ["a"]), \
                        f"cut at {cut}"
                assert segment.read_bytes() == (intact if whole else intact[:last_start])
            segment.write_bytes(intact)
        segment.write_bytes(intact + bytes(8) + frame(b"\x01" * 40))
        (path / "segment-000002.log").write_bytes(b"")
        with pytest.raises(CorruptStore):
            make_store(path)

    def test_a_crash_with_zeros_ahead_of_the_log_end_loses_nothing(self, tmp_path):
        """A store abandoned without close() leaves zeros after its last
        frame. The next open cuts them, so its puts follow the first ones,
        and a store abandoned again replays all of them."""
        path = tmp_path / "s"
        s = make_store(path, create=True)
        for i in range(5):
            s.put(doc(f"a{i}"))
        assert list_segments(path)[-1].stat().st_size > log_bytes(path)
        _abandon(s)
        s = make_store(path)
        for i in range(3):
            s.put(doc(f"b{i}"))
        _abandon(s)
        with make_store(path) as s:
            assert s.scan(MATCH_ALL)[0] == ([f"a{i}" for i in range(5)]
                                            + [f"b{i}" for i in range(3)])

    def test_a_roll_is_durable(self, tmp_path, monkeypatch):
        """A roll cuts the old segment to its last frame and fsyncs it, then
        creates the next segment and fsyncs the directory. A store abandoned
        right after a roll replays every put, and no segment holds zeros."""
        monkeypatch.setattr(logio, "SEGMENT_ROLL_BYTES", 512)
        path = tmp_path / "s"
        s = make_store(path, create=True, fsync=True)
        calls = []

        def recording(name, label):
            real = getattr(os, name)

            def call(*args, **kwargs):
                calls.append(label(*args))
                return real(*args, **kwargs)
            monkeypatch.setattr(os, name, call)

        recording("fsync", lambda fd: "fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                  else "fsync file")
        recording("ftruncate", lambda fd, size: "cut")
        recording("open", lambda p, *a: f"open {Path(p).name}")
        keys = []
        while len(list_segments(path)) == 1:
            keys.append(f"k{len(keys):03d}")
            s.put(doc(keys[-1], b"x" * 100))
        assert calls == ["cut", "fsync file", "open segment-000002.log", "open s", "fsync dir"]
        _abandon(s)
        assert log_bytes(path) == sum(p.stat().st_size for p in list_segments(path))
        with make_store(path) as s:
            assert s.scan(MATCH_ALL)[0] == keys

    @pytest.mark.parametrize("written", [0, 30], ids=["at-once", "short-write"])
    def test_a_full_device_while_the_log_extends_installs_nothing(self, tmp_path, monkeypatch,
                                                                   written):
        """A frame that extends the log onto a full device raises
        StorageFull, also after a short write, and leaves no byte of it in
        the log; the next append, with space back, succeeds."""
        path = tmp_path / "s"
        real = os.pwrite
        calls = []

        def full_once(fd, data, offset):
            calls.append(len(data))
            if len(calls) == 1 and written:
                return real(fd, data[:written], offset)
            if len(calls) == (2 if written else 1):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(fd, data, offset)

        with make_store(path, create=True) as s:
            s.put(doc("a"))
            size = log_bytes(path)
            monkeypatch.setattr(os, "pwrite", full_once)
            with pytest.raises(StorageFull):  # passes the 64 KiB of zeros the first put made
                s.put_system(doc("__sys/big", b"y" * 70_000))
            assert log_bytes(path) == list_segments(path)[-1].stat().st_size == size
            assert not s.exists("__sys/big")
            s.put(doc("c"))
        with make_store(path) as s:
            assert s.scan(MATCH_ALL)[0] == ["a", "c"] and not s.exists("__sys/big")

    def test_a_closed_log_is_its_frames(self, tmp_path, monkeypatch):
        """A closed store's segments hold the frame of each body appended and
        nothing else, as before the log kept zeros ahead of its end: across
        a reopen and a roll."""
        monkeypatch.setattr(logio, "SEGMENT_ROLL_BYTES", 4096)
        bodies = []
        append = logio.LogWriter.append

        def recording(self, body):
            bodies.append(body)
            append(self, body)
        monkeypatch.setattr(logio.LogWriter, "append", recording)
        path = tmp_path / "s"
        for n in range(2):
            with make_store(path, create=not n) as s:
                for i in range(30):
                    s.put(doc(f"k{n}-{i:02d}", b"x" * 100))
            assert b"".join(p.read_bytes() for p in list_segments(path)) == \
                b"".join(map(frame, bodies))
        assert len(list_segments(path)) > 1

    def test_batch_is_all_or_nothing_at_any_cut(self, tmp_path):
        """Three puts, and a frame shaped like a task's completion: its
        outputs staged, its task record, the commit of its group."""
        outputs = [doc(f"t/{i:06d}", b"o" * i) for i in range(4)]
        batches = [
            [PutOp(doc("x1")), PutOp(doc("x2")), PutOp(doc("x3"))],
            [PutOp(*outputs, group="t#0.1"), PutOp(doc("__sys/task/t", b"done")),
             CommitGroupOp("t#0.1")],
        ]
        for n, ops in enumerate(batches):
            path = tmp_path / f"s{n}"
            with make_store(path, create=True) as s:
                s.put(doc("base"))
                s.apply_ops(ops)
                seq = s.snapshot_seq()
            written = [d.key for op in ops if isinstance(op, PutOp) for d in op.docs
                       if not d.key.startswith("__sys/")]
            segment = list_segments(path)[-1]
            intact = segment.read_bytes()
            batch_start = frame_starts(path)[-1]
            for cut in range(batch_start, len(intact), 7):
                segment.write_bytes(intact[:cut])
                with make_store(path) as s:
                    keys = s.scan(MATCH_ALL)[0]
                    assert keys == ["base"], f"cut at {cut} leaked a partial batch"
                    assert s.keys_with_prefix("__sys/") == [] and s.snapshot_seq() == 1
                    assert s.staged_keys("t#0.1") == []
                segment.write_bytes(intact)
            with make_store(path) as s:
                assert s.scan(MATCH_ALL)[0] == ["base", *written]
                if n:  # the outputs are the commit's
                    assert [s.get_meta(key)[0] for key in written] == [seq] * len(written)
                    assert s.get("__sys/task/t").payload == b"done"

    @staticmethod
    def _corrupt_middle_frame(path):
        with make_store(path, create=True) as s:
            for i in range(5):
                s.put(doc(f"k{i}"))
        segment = list_segments(path)[-1]
        raw = bytearray(segment.read_bytes())
        # flip one byte inside the second frame's body; the tail after it is
        # then unreachable, which recovery must refuse to silently drop for
        # a non-final segment
        raw[frame_starts(path)[1] + 9] ^= 0xFF
        segment.write_bytes(bytes(raw))
        (path / "segment-00099.log").write_bytes(b"")  # make damaged one non-final

    def test_corrupt_middle_frame_detected(self, tmp_path):
        path = tmp_path / "s"
        self._corrupt_middle_frame(path)
        with pytest.raises(CorruptStore):
            make_store(path)

    def test_a_failed_open_releases_the_lock(self, tmp_path):
        """An open that fails on a corrupt log unlocks and closes ``LOCK``:
        while its error (and so the half-built store) is still referenced,
        the next open fails on the log, not on the lock, and collecting it
        leaves no file for the collector to close."""
        path = tmp_path / "s"
        self._corrupt_middle_frame(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(CorruptStore) as first:
                make_store(path)
            with pytest.raises(CorruptStore):
                make_store(path)
            del first
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_a_cut_long_or_malformed_manifest_fails_to_open(self, tmp_path):
        """Every strict prefix of a two-index MANIFEST, the MANIFEST with one
        byte more, and one with an index name that is not UTF-8 or repeated
        fail to open with CorruptStore and free ``LOCK`` (the next open would
        fail on the lock otherwise); the intact MANIFEST then opens."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.create_index("cls")
            s.create_index("split")
        manifest = path / "MANIFEST"
        intact = manifest.read_bytes()
        assert intact.endswith(b"\x03\x00cls\x05\x00split")
        bad = [intact[:cut] for cut in range(len(intact))]
        bad += [intact + b"\x00", intact.replace(b"cls", b"\xffls"),
                intact.replace(b"\x05\x00split", b"\x03\x00cls")]
        for raw in bad:
            manifest.write_bytes(raw)
            with pytest.raises(CorruptStore):
                make_store(path)
        manifest.write_bytes(intact)
        with make_store(path) as s:
            assert s.indexes() == ["cls", "split"]

    def test_a_rename_is_durable_before_what_follows_it(self, tmp_path, monkeypatch):
        """The MANIFEST's tmp file is fsynced before its rename and the
        directory after it; a snapshot segment is fsynced before its rename,
        and the directory after it and before the first old segment is
        unlinked. Files and directories are told apart by ``os.fstat``."""
        path = tmp_path / "s"
        calls = []

        def recording(name, real, label):
            def call(*args, **kwargs):
                calls.append(label(*args))
                return real(*args, **kwargs)
            monkeypatch.setattr(os, name, call)

        def fsync_label(fd):
            return "fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file"

        with make_store(path, create=True) as s:  # no fsync on append
            s.put(doc("a"))
            recording("fsync", os.fsync, fsync_label)
            recording("replace", os.replace, lambda src, dst: f"replace {Path(dst).name}")
            recording("unlink", os.unlink, lambda p: f"unlink {Path(p).name}")
            s.create_index("c")
            assert calls == ["fsync file", "replace MANIFEST", "fsync dir"]
            calls.clear()
            s.compact()
            assert calls == ["fsync file", "replace segment-000002.log", "fsync dir",
                             "unlink segment-000001.log"]

    def test_writer_lock_exclusive(self, tmp_path):
        path = tmp_path / "s"
        s1 = make_store(path, create=True)
        try:
            with pytest.raises(StoreLocked):
                make_store(path)
        finally:
            s1.close()
        s2 = make_store(path)  # released on close
        s2.close()


class TestIndexes:
    def test_index_on_empty_store(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.create_index("split")
            assert s.scan(parse('split = "train"'))[0] == []

    def test_index_built_over_existing_docs(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            expected = []
            for i in range(100):
                split = "train" if i < 60 else "test"
                s.put(doc(f"d{i:03d}", split=split))
                if split == "train":
                    expected.append(f"d{i:03d}")
            s.create_index("split")
            assert s.scan(parse('split = "train"'))[0] == expected

    def test_create_index_idempotent(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put(doc("a", split="train"))
            s.create_index("split")
            before = s.scan(parse('split = "train"'))[0]
            s.create_index("split")
            assert s.scan(parse('split = "train"'))[0] == before
            assert s.indexes() == ["split"]

    def test_range_query_on_index(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.create_index("step")
            for i in range(100):
                s.put(doc(f"d{i:03d}", step=i))
            got = s.scan(parse("step >= 10 AND step < 20"))[0]
            assert got == [f"d{i:03d}" for i in range(10, 20)]

    def test_other_variant_does_not_match_with_or_without_index(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.create_index("n")
            s.put(doc("k1", n=1))
            s.put(doc("k2", n="one"))
            s.put(doc("k3", n=2, m="x"))
            for use_index in (True, False):
                assert s.scan(parse("n = 1"), use_index=use_index) == (["k1"], None)
                assert s.scan(parse("n > 0"), use_index=use_index) == (["k1", "k3"], None)
                assert s.scan(parse("n = 2 AND m = 3"), use_index=use_index) == ([], None)
                assert s.scan(parse('m = "x"'), use_index=use_index) == (["k3"], None)

    def test_a_restaged_key_leaves_the_bucket_of_its_old_value(self, tmp_path):
        """Stage ``k0`` with ``d = 2``, restage it with no tags, then index
        ``d``: bucket ``d = 2`` is empty live, after a reopen and after
        compact(), and once the group commits a ``d = 2`` scan, which its
        bucket alone serves, finds nothing."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.apply_ops([PutOp(doc("k0", d=2), group="g")])
            s.apply_ops([PutOp(doc("k0"), group="g")])
            s.create_index("d")
            assert _bucket(s, "d", 2) == []
        with make_store(path) as s:
            assert _bucket(s, "d", 2) == []
            s.compact()
            assert _bucket(s, "d", 2) == []
            s.apply_ops([CommitGroupOp("g")])
            assert s.scan(parse("d = 2")) == ([], None)
            assert s.scan(MATCH_ALL) == (["k0"], None)
        with make_store(path) as s:
            assert _bucket(s, "d", 2) == []

    def test_a_deleted_key_leaves_its_bucket_and_the_keys(self, tmp_path):
        """An older log's DELETE takes its key out of its bucket and out of
        the store's keys; put again, the key is in its new bucket and listed
        once, live, after compact() and after a reopen."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.create_index("d")
            s.put(doc("k0", d=2))
            s.put(doc("k1", d=2))
            seq = s.snapshot_seq() + 1
        append_record(path, delete_body(seq, "k0"))
        with make_store(path) as s:
            assert _bucket(s, "d", 2) == ["k1"]
            assert list(s._keys.walk("")) == ["k1"]
            s.put(doc("k0", d=3))

            def check(s):
                assert _bucket(s, "d", 2) == ["k1"] and _bucket(s, "d", 3) == ["k0"]
                assert list(s._keys.walk("")) == ["k0", "k1"]
                assert s.keys_with_prefix("k") == ["k0", "k1"]
                assert s.scan(parse("d = 2")) == (["k1"], None)

            _check_live_compacted_reopened(s, check)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_index_scan_equals_linear_scan(self, tmp_path_factory, data):
        """For random docs and random well-typed queries, the indexed path and
        the brute-force path agree exactly."""
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        path = tmp_path_factory.mktemp("idx") / "s"
        tag_pool = ["color", "step", "ratio", "flag"]
        with make_store(path, create=True) as s:
            for name in rng.sample(tag_pool, k=2):
                s.create_index(name)
            docs = {}
            for i in range(rng.randrange(1, 120)):
                tags = {}
                if rng.random() < 0.9:
                    tags["color"] = rng.choice(["red", "green", "blue"])
                if rng.random() < 0.9:
                    tags["step"] = rng.randrange(20)
                if rng.random() < 0.5:
                    tags["ratio"] = rng.choice([0.25, 0.5, 0.75])
                if rng.random() < 0.5:
                    tags["flag"] = rng.random() < 0.5
                key = f"d{i:04d}"
                docs[key] = tags
                s.put(Document(key=key, payload=b"", tags=tags))
            preds, pred_objs = [], []
            for _ in range(rng.randrange(0, 3)):
                tag = rng.choice(tag_pool)
                op = rng.choice(["=", "!=", "<", "<=", ">", ">=", "IN"])
                value = {
                    "color": lambda: rng.choice(["red", "green", "blue"]),
                    "step": lambda: rng.randrange(20),
                    "ratio": lambda: rng.choice([0.25, 0.5, 0.75]),
                    "flag": lambda: rng.random() < 0.5,
                }[tag]
                if op == "IN":
                    vals = tuple({value() for _ in range(rng.randrange(1, 4))})
                    preds.append((tag, op, vals))
                    pred_objs.append(Predicate(tag, op, values=vals))
                else:
                    v = value()
                    preds.append((tag, op, v))
                    pred_objs.append(Predicate(tag, op, v))
            query = TagQuery(tuple(pred_objs))
            expected = brute_force_filter(docs, preds)
            assert s.scan(query, use_index=True)[0] == expected
            assert s.scan(query, use_index=False)[0] == expected


class TestPagination:
    def _fill(self, s, n=40):
        for i in range(n):
            s.put(doc(f"d{i:03d}", step=i))

    @pytest.mark.parametrize("limit", [1, 3, 7, 40, 100])
    def test_pages_concatenate_to_full_scan(self, tmp_path, limit):
        with make_store(tmp_path / "s", create=True) as s:
            self._fill(s)
            full = s.scan(MATCH_ALL)[0]
            collected, cursor = [], None
            while True:
                page, cursor = s.scan(MATCH_ALL, cursor, limit=limit)
                collected.extend(page)
                if cursor is None:
                    break
            assert collected == full

    def test_pages_read_at_first_snapshot(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            self._fill(s, 10)
            page, cursor = s.scan(MATCH_ALL, limit=4)
            s.put(doc("zzz-late"))
            rest = []
            while cursor is not None:
                page2, cursor = s.scan(MATCH_ALL, cursor, limit=4)
                rest.extend(page2)
            assert "zzz-late" not in page + rest
            assert page + rest == [f"d{i:03d}" for i in range(10)]

    def test_limit_must_be_positive(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            with pytest.raises(InvalidArgument):
                s.scan(MATCH_ALL, limit=0)


class TestStaging:
    def test_staged_docs_invisible_until_commit(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t1/000001", out=True), group="t1")])
            assert s.scan(MATCH_ALL)[0] == []
            assert not s.exists("t1/000001")
            s.apply_ops([CommitGroupOp("t1")])
            assert s.scan(MATCH_ALL)[0] == ["t1/000001"]

    def test_commit_and_writes_are_atomic_together(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t2/a"), group="t2"),
                         PutOp(doc("t2/b"), group="t2"),
                         CommitGroupOp("t2")])
            assert s.scan(MATCH_ALL)[0] == ["t2/a", "t2/b"]

    def test_replay_overwrites_uncommitted_stage(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t/x", b"attempt1"), group="t")])
            s.apply_ops([PutOp(doc("t/x", b"attempt2"), group="t")])
            s.apply_ops([CommitGroupOp("t")])
            assert s.get("t/x").payload == b"attempt2"

    def test_committed_doc_not_overwritable(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t/x"), group="t"), CommitGroupOp("t")])
            with pytest.raises(DuplicateKey):
                s.apply_ops([PutOp(doc("t/x"), group="t")])

    def test_a_later_group_restages_but_no_put_overwrites_a_visible_key(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t/x", b"a1"), group="t#0.1")])
            s.apply_ops([PutOp(doc("t/x", b"a2"), group="t#0.2")])  # no reader saw a1
            with pytest.raises(DuplicateKey):
                s.put(doc("t/x", b"user"))  # staged versions count for a user put
            with pytest.raises(DuplicateKey):
                s.apply_ops([PutOp(doc("t/x", b"user"))])
            s.apply_ops([CommitGroupOp("t#0.2")])
            with pytest.raises(DuplicateKey):
                s.apply_ops([PutOp(doc("t/x", b"a3"), group="t#0.3")])
            assert s.get("t/x").payload == b"a2"

    def test_a_reserved_key_cannot_be_staged(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put_system(doc("__sys/x", b"1"))
            seq = s.snapshot_seq()
            for key in ("__sys/x", "__sys/y"):
                with pytest.raises(InvalidArgument, match="cannot be staged"):
                    s.apply_ops([PutOp(doc("t/000000"), group="t#0.1"),
                                 PutOp(doc(key, b"2"), group="t#0.1")])
            assert s.snapshot_seq() == seq
            assert s.get("__sys/x").payload == b"1" and not s.exists("__sys/y")
            assert s.staged_keys("t#0.1") == []

    def test_staging_survives_restart(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.apply_ops([PutOp(doc("t/y"), group="t")])
        with make_store(path) as s:
            assert not s.exists("t/y")
            s.apply_ops([CommitGroupOp("t")])
            assert s.exists("t/y")

    def test_staged_keys_are_the_uncommitted_group(self, tmp_path):
        """Also when the earlier group commits from a log that still holds
        the key's first staging, not compacted."""

        def check(s):
            assert s.staged_keys("t#0.1") == ["t/000000", "t/000002", "u/000000"]
            assert s.staged_keys("t#0.2") == ["t/000001"]
            assert s.staged_keys("t#0.0") == []  # committed
            assert s.staged_keys("t#0.3") == []  # never staged anything

        for compacted in (True, False):
            path = tmp_path / f"s{compacted:d}"
            with make_store(path, create=True) as s:
                s.put(doc("t/000007"))  # a user document inside the namespace
                s.apply_ops([PutOp(doc("t/000002"), group="t#0.1"),
                             PutOp(doc("t/000000"), group="t#0.1"),
                             PutOp(doc("t/000001"), group="t#0.1"),
                             PutOp(doc("u/000000"), group="t#0.1"),  # any key counts
                             PutOp(doc("t/000003"), group="t#0.0"),
                             CommitGroupOp("t#0.0")])
                # a later attempt stages a key again: it leaves the earlier group
                s.apply_ops([PutOp(doc("t/000001", b"again"), group="t#0.2")])
                check(s)
                if compacted:
                    s.compact()
                    check(s)
            with make_store(path) as s:
                check(s)
                s.apply_ops([CommitGroupOp("t#0.1")])
                assert s.staged_keys("t#0.1") == []
                assert s.staged_keys("t#0.2") == ["t/000001"]
                assert s.exists("t/000002") and not s.exists("t/000001")


    def test_a_put_under_a_committed_group_waits_for_its_next_commit(self, tmp_path):
        def check(s):
            assert s.scan(MATCH_ALL)[0] == ["t/0"] and not s.exists("t/1")
            assert s.staged_keys("g") == ["t/1"]

        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.apply_ops([PutOp(doc("t/0"), group="g"), CommitGroupOp("g")])
            s.apply_ops([PutOp(doc("t/1"), group="g")])
            _check_live_compacted_reopened(s, check)
        with make_store(path) as s:
            s.apply_ops([PutOp(doc("t/1", b"again"), group="h")])  # still staged: restaged
            s.apply_ops([CommitGroupOp("g")])
            assert not s.exists("t/1")
            s.apply_ops([CommitGroupOp("h")])
            assert s.scan(MATCH_ALL)[0] == ["t/0", "t/1"]
            assert s.get("t/1").payload == b"again"

    def test_a_second_commit_changes_no_snapshot(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t/0"), group="g"), CommitGroupOp("g")])
            cursor = ScanCursor(s.snapshot_seq(), "")
            meta = s.get_meta("t/0")
            assert s.scan(MATCH_ALL, cursor)[0] == ["t/0"]
            s.apply_ops([CommitGroupOp("g")])
            assert s.snapshot_seq() == cursor.snapshot_seq + 1

            def check(s):
                assert s.scan(MATCH_ALL, cursor)[0] == ["t/0"]
                assert s.get_meta("t/0") == meta

            _check_live_compacted_reopened(s, check)

    def test_a_committed_output_takes_the_seq_of_its_commit(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t/0"), group="g")])
            s.put(doc("a"))
            s.apply_ops([CommitGroupOp("g")])
            assert s.snapshot_seq() == 3

            def check(s):
                assert s.get_meta("t/0")[0] == 3
                assert s.scan(MATCH_ALL, ScanCursor(2, ""))[0] == ["a"]
                assert s.scan(MATCH_ALL, ScanCursor(3, ""))[0] == ["a", "t/0"]

            _check_live_compacted_reopened(s, check)

    def test_commits_do_not_grow_memory(self, tmp_path):
        """A commit forgets its group: groups that staged nothing leave no
        trace in memory."""
        with make_store(tmp_path / "s", create=True) as s:
            for i in range(10):
                s.apply_ops([CommitGroupOp(f"warm#{i}")])
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for i in range(2000):
                    s.apply_ops([CommitGroupOp(f"t{i:06d}#0.1")])
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert grown < 16 * 1024


def _check_live_compacted_reopened(s: Store, check) -> None:
    """Run ``check`` on ``s`` as it is, after ``compact()`` and, once ``s``
    is closed, on the store reopened."""
    check(s)
    s.compact()
    check(s)
    s.close()
    with make_store(s.path) as s:
        check(s)


def append_record(path, body: bytes) -> None:
    """Append one framed record body to the store's newest log segment."""
    with open(list_segments(path)[-1], "ab") as f:
        f.write(frame(body))


class TestSystemDocs:
    def test_replace_and_delete(self, tmp_path):
        """A system document is replaced in place, by a PUT record. Nothing
        writes REPLACE or DELETE any more, but the REPLACE records older
        stores wrote, for a system doc or a staged output, still replay as
        new versions, and a DELETE record hides a document on replay."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.put_system(doc("__sys/x", b"1"))
            s.put_system(doc("__sys/x", b"2"))
            assert s.get("__sys/x").payload == b"2"
            seq = s.snapshot_seq() + 1
        written = [rec[0] for body in log_bodies(path) for rec in decoded(body)]
        assert written == ["put", "put"]
        append_record(path, records.encode_batch([
            records.encode_doc_op(records.OP_REPLACE, seq, 0, None, doc("__sys/x", b"3")),
            records.encode_doc_op(records.OP_REPLACE, seq + 1, 0, "t#0.1", doc("t/000000"))]))
        with make_store(path) as s:
            assert s.get("__sys/x").payload == b"3"
            assert s.staged_keys("t#0.1") == ["t/000000"]
            s.apply_ops([CommitGroupOp("t#0.1")])
            assert s.exists("t/000000")
            seq = s.snapshot_seq() + 1
        append_record(path, delete_body(seq, "__sys/x"))
        with make_store(path) as s:
            assert not s.exists("__sys/x")
            assert s.snapshot_seq() == seq

    def test_a_key_put_again_after_a_delete_is_listed_once(self, tmp_path):
        """An older log's DELETE drops a key, so a PUT of it after the
        DELETE, live or replayed, lists it once, also after compaction and a
        reopen."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.put_system(doc("__sys/x", b"1"))
            seq = s.snapshot_seq() + 1
        append_record(path, delete_body(seq, "__sys/x"))
        with make_store(path) as s:
            assert s.keys_with_prefix("__sys/") == []
            s.put_system(doc("__sys/x", b"2"))
            assert s.keys_with_prefix("__sys/") == ["__sys/x"]
        with make_store(path) as s:
            assert s.keys_with_prefix("__sys/") == ["__sys/x"]
            s.compact()
            assert s.keys_with_prefix("__sys/") == ["__sys/x"]
        with make_store(path) as s:
            assert s.keys_with_prefix("__sys/") == ["__sys/x"]
            assert s.get("__sys/x").payload == b"2"

    def test_sys_keys_hidden_from_scan(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put_system(doc("__sys/x"))
            s.put(doc("user"))
            assert s.scan(MATCH_ALL)[0] == ["user"]

    def test_keys_with_prefix(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put_system(doc("__sys/a/1"))
            s.put_system(doc("__sys/a/2"))
            s.put_system(doc("__sys/b/1"))
            assert s.keys_with_prefix("__sys/a/") == ["__sys/a/1", "__sys/a/2"]


def _compressible_payload() -> bytes:
    return b"".join(b"sample %06d label=%d split=train\n" % (i, i % 10) for i in range(16_000))


def _random_payload() -> bytes:
    """Bytes that do not compress, the same on every platform."""
    return b"".join(hashlib.sha256(i.to_bytes(4, "little")).digest() for i in range(18_000))


# (payload, blob id, sha-256 of the payload, sha-256 of each stored chunk file),
# as put_blob wrote them when it still took a chunk size and a codec and was
# called with the defaults; both payloads span three chunks
GOLDEN_BLOBS = [
    (_compressible_payload, "dad5b473c2356760e407e62130b833d1",
     "dcef459d5fe1564225b6920695378bf0e9b568032349b72a6284c717906a7306",
     ["5e57ad218f22c570ed6a1501f18a43ecc12714302f41f6da99ebc88e62026ef8",
      "76496e3da972e0fb1b9787dc3e9127495757802fc5947c03d671120f158a1603",
      "5a25f4a01ae5dc628a186a65b8bbf3998b8feb3ffea7aa96df6adf0dd0842345"]),
    (_random_payload, "70d0d18c6fc8ab42c85b69e5c7c8ad47",
     "b99a3a01de12debe5f1ea3f0c2dd342305a82032c74f51fe66d79c09eb89e433",
     ["cd276f3d128c29e9acfcc70f5c91acefc8e6c48e74c6872f47afbb3269453e28",
      "4c70b23ca7d61ca519b779a754ecd07a101557be4e8f34dd2ad2a2c8f42c15b6",
      "a4a925fb2e1619f620e1ecc7bb3aa7c274102cd399d3da7b559abcc5b6eab8b8"]),
]


class TestBlobs:
    def test_chunk_count_examples(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            assert s.put_blob(b"x" * (1 << 20)).chunk_count == 4
            one = s.put_blob(b"z")
            assert one.chunk_count == 1
            assert one.total_size == 1

    def test_round_trip_random_10mib(self, tmp_path):
        data = random.Random(7).randbytes(10 * (1 << 20))
        with make_store(tmp_path / "s", create=True) as s:
            ptr = s.put_blob(data)
            assert s.get_blob(ptr) == data

    def test_empty_blob_rejected(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            with pytest.raises(EmptyBlob):
                s.put_blob(b"")

    def test_chunk_size_bounds(self, tmp_path):
        """Every put writes CHUNK_SIZE chunks with CODEC_ZLIB; a chunk size or
        codec from an older caller is a TypeError, not an ignored argument."""
        with make_store(tmp_path / "s", create=True) as s:
            for args in [(4095, 0), (4 * 1024 * 1024 + 1,)]:
                with pytest.raises(TypeError):
                    s.put_blob(b"x", *args)
            ptr = s.put_blob(b"x" * (CHUNK_SIZE + 1))
            assert (ptr.chunk_size, ptr.chunk_count, ptr.codec_id) == (CHUNK_SIZE, 2, CODEC_ZLIB)
            assert sorted(os.listdir(s.blobs.root)) == [f"{ptr.blob_id}.0", f"{ptr.blob_id}.1"]

    def test_unknown_blob_id(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            ghost = BlobPointer(blob_id="f" * 32, total_size=10, chunk_count=1,
                                chunk_size=4096, codec_id=0, checksum=bytes(32))
            with pytest.raises(NotFound):
                s.get_blob(ghost)

    @pytest.mark.parametrize("payload,blob_id,checksum,chunks", GOLDEN_BLOBS,
                             ids=["compressible", "random"])
    def test_golden_blob_bytes(self, tmp_path, payload, blob_id, checksum, chunks):
        """A put's blob id and stored bytes are pinned: a blob written before
        the change dedupes with one written after it. The compressible
        payload's chunks are zlib level 6 output, so their digests hold for
        the zlib these were read with (1.2.13) and its compatible builds."""
        data = payload()
        with make_store(tmp_path / "s", create=True) as s:
            ptr = s.put_blob(data)
            assert ptr == BlobPointer(blob_id=blob_id, total_size=len(data), chunk_count=3,
                                      chunk_size=256 * 1024, codec_id=CODEC_ZLIB,
                                      checksum=bytes.fromhex(checksum))
            assert sorted(os.listdir(s.blobs.root)) == [f"{blob_id}.{i}" for i in range(3)]
            assert [hashlib.sha256(s.blobs.read_chunk(blob_id, i)).hexdigest()
                    for i in range(3)] == chunks
            assert s.get_blob(ptr) == data

    @pytest.mark.parametrize("codec", [0, 1])
    def test_corrupted_chunk_raises_checksum_mismatch(self, tmp_path, codec):
        """Flipping any single stored byte must surface, never silently: in a
        chunk put writes (codec 1) and in a raw one an older store wrote
        (codec 0, 4 KiB chunks)."""
        rng = random.Random(13)
        data = rng.randbytes(600_000 if codec else 50_000)
        with make_store(tmp_path / "s", create=True) as s:
            ptr = s.put_blob(data) if codec else write_raw_blob(s.blobs.root, data)
            assert ptr.codec_id == codec and ptr.chunk_count > 1
            assert s.get_blob(ptr) == data
            chunk_path = s.blobs._chunk_path(ptr.blob_id, rng.randrange(ptr.chunk_count))
            raw = bytearray(chunk_path.read_bytes())
            raw[rng.randrange(len(raw))] ^= 0x01
            chunk_path.write_bytes(bytes(raw))
            with pytest.raises(ChecksumMismatch):
                s.get_blob(ptr)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_blob_round_trip(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        size = rng.randrange(1, 1 << rng.randrange(1, 24))
        data = rng.randbytes(size)
        path = tmp_path_factory.mktemp("blob") / "s"
        with make_store(path, create=True) as s:
            ptr = s.put_blob(data)
            assert ptr.total_size == size
            assert ptr.chunk_count == -(-size // CHUNK_SIZE)
            assert s.get_blob(ptr) == data


def _tensor_container() -> bytes:
    spec = nnlayers.spec_from_dict({"input_dims": [256], "layers": [
        {"name": "h", "kind": "dense", "out_units": 512}, {"name": "r", "kind": "relu"},
        {"name": "out", "kind": "dense", "out_units": 8}]})
    return encode_tensors(nnet.state_tensors(nnet.build_network(spec, 3)))


class TestBlobStoredForm:
    """A zlib chunk is stored at level 6 when its first PROBE bytes compress
    at level 1 and as stored blocks (level 0) when they do not."""

    CHUNK = CHUNK_SIZE

    def _stored(self, s, data):
        ptr = s.put_blob(data)
        assert s.get_blob(ptr) == data
        return ptr, [s.blobs.read_chunk(ptr.blob_id, i) for i in range(ptr.chunk_count)]

    def _want(self, data, *levels):
        chunks = [data[i:i + self.CHUNK] for i in range(0, len(data), self.CHUNK)]
        assert len(chunks) == len(levels)
        return [zlib.compress(raw, level) for raw, level in zip(chunks, levels)]

    @pytest.mark.parametrize("kind", ["zeros", "json", "tensors"])
    def test_compressible_chunks_are_stored_at_level_6(self, tmp_path, kind):
        data = {"zeros": lambda: bytes(3 * self.CHUNK),
                "json": lambda: json.dumps([{"key": f"s{i:05d}", "split": "train", "step": i}
                                            for i in range(12_000)]).encode(),
                "tensors": _tensor_container}[kind]()
        data = data[:2 * self.CHUNK + 1000]
        with make_store(tmp_path / "s", create=True) as s:
            _, stored = self._stored(s, data)
        assert len(stored) > 1 and len(data) % self.CHUNK < PROBE  # a short last chunk too
        assert stored == self._want(data, *[6] * len(stored))

    def test_random_chunks_are_stored_blocks_and_parent_chunks_still_read(self, tmp_path):
        data = random.Random(21).randbytes(2 * self.CHUNK + 100)
        with make_store(tmp_path / "s", create=True) as s:
            ptr, stored = self._stored(s, data)
            assert stored == self._want(data, 0, 0, 0)
            for index, raw in enumerate(self._want(data, 6, 6, 6)):  # as level 6 always wrote
                s.blobs._chunk_path(ptr.blob_id, index).write_bytes(raw)
            assert s.get_blob(ptr) == data

    @pytest.mark.parametrize("tail,level", [(bytes(1000), 6), (b"\x07", 0)],
                             ids=["zeros-tail", "one-byte-tail"])
    def test_one_blob_mixes_the_two_forms(self, tmp_path, tail, level):
        noise = random.Random(22).randbytes(self.CHUNK)
        data = noise + bytes(self.CHUNK) + noise + tail
        with make_store(tmp_path / "s", create=True) as s:
            _, stored = self._stored(s, data)
        assert stored == self._want(data, 0, 6, 0, level)

    @pytest.mark.parametrize("damage", [
        lambda b: b[:100] + bytes([b[100] ^ 0x01]) + b[101:],  # payload byte
        lambda b: b[:3] + bytes([b[3] ^ 0x01]) + b[4:],  # LEN
        lambda b: b[:6] + bytes([b[6] ^ 0x80]) + b[7:],  # NLEN
        lambda b: b[:-1],  # the adler32 cut short
        lambda b: b[:PROBE],  # cut inside the block
    ], ids=["payload", "len", "nlen", "trailer", "block"])
    def test_a_damaged_stored_block_raises_checksum_mismatch(self, tmp_path, damage):
        data = random.Random(23).randbytes(8192)  # one chunk, short of CHUNK
        with make_store(tmp_path / "s", create=True) as s:
            ptr, [stored] = self._stored(s, data)
            assert stored[2] == 0x01  # one final stored block: LEN, NLEN, then the bytes
            s.blobs._chunk_path(ptr.blob_id, 0).write_bytes(damage(stored))
            with pytest.raises(ChecksumMismatch):
                s.get_blob(ptr)


# the sha-256 of the snapshot segment compact() writes for _compaction_store
SNAPSHOT_SHA256 = "7d880e5c7dde6d8fa4132fda3b01fbcf5ea73519d41876d827bd4b2053912565"


def _compaction_store(path) -> Store:
    """A FakeClock store holding plain puts (one of a blob pointer), a
    replaced system doc, a staged group, a committed group and an index."""
    clock = FakeClock()
    s = make_store(path, create=True, clock=clock)
    s.create_index("c")
    ptr = s.put_blob(random.Random(3).randbytes(3000))
    for i, key in enumerate(("k0", "k1", "k2")):
        clock.advance(5)
        payload = ptr if key == "k2" else bytes([i]) * 300
        s.put(Document(key=key, payload=payload, label=f"l{i}",
                       tags=dict(BATCH_TAG_MAPS[i + 1])))
    s.put_system(doc("__sys/r0", b"1"))
    s.put_system(doc("__sys/r0", b"2" * 300))
    s.apply_ops([PutOp(doc("t/000000", c=1), doc("t/000001", b"y" * 300, c="a"), group="g0")])
    clock.advance(5)
    s.apply_ops([PutOp(doc("t/000002", c=True), group="g1"), PutOp(doc("__sys/r1")),
                 CommitGroupOp("g1")])
    return s


def _abandon(s: Store) -> None:
    """Close the files a store killed mid-operation left open, as its
    process's death would, writing nothing."""
    os.close(s._log._fd)
    s._lock_file.close()


def _age_chunks(s: Store, *ptrs: BlobPointer) -> None:
    """Set the chunk files of ``ptrs`` older than the collector's grace window."""
    old = time.time() - GC_GRACE_S - 60
    for ptr in ptrs:
        for index in range(ptr.chunk_count):
            os.utime(s.blobs._chunk_path(ptr.blob_id, index), (old, old))


class TestCompaction:
    def test_compaction_drops_dead_versions_and_preserves_live(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            for i in range(20):
                s.put(doc(f"d{i:02d}", step=i))
            for i in range(50):
                s.put_system(doc("__sys/churn", payload=str(i).encode()))
            before_segments = log_bytes(path)
            s.compact()
            after_segments = log_bytes(path)
            assert after_segments < before_segments
            assert s.scan(MATCH_ALL)[0] == [f"d{i:02d}" for i in range(20)]
            assert s.get("__sys/churn").payload == b"49"
        with make_store(path) as s:
            assert s.scan(MATCH_ALL)[0] == [f"d{i:02d}" for i in range(20)]

    def test_compaction_collects_orphan_blobs(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            live = s.put_blob(b"live" * 100_000)
            s.put(Document(key="keeper", payload=live))
            orphan = s.put_blob(b"orphan" * 100_000)
            _age_chunks(s, live, orphan)
            assert len(os.listdir(path / "blobs")) > live.chunk_count
            s.compact()
            assert len(os.listdir(path / "blobs")) == live.chunk_count
            assert s.get_blob(live) == b"live" * 100_000

    def test_compaction_preserves_uncommitted_stage(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.apply_ops([PutOp(doc("t/out"), group="t")])
            s.compact()
            assert not s.exists("t/out")
            s.apply_ops([CommitGroupOp("t")])
            assert s.exists("t/out")

    def test_compaction_preserves_committed_visibility(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.apply_ops([PutOp(doc("t/out"), group="t"), CommitGroupOp("t")])
            s.compact()
            assert s.exists("t/out")
        with make_store(path) as s:
            assert s.exists("t/out")

    def test_compaction_keeps_a_later_commit_out_of_an_older_snapshot(self, tmp_path):
        with make_store(tmp_path / "s", create=True) as s:
            s.put(doc("a"))
            s.put(doc("b"))
            s.apply_ops([PutOp(doc("t/out"), group="t")])
            page, cursor = s.scan(MATCH_ALL, limit=1)
            s.apply_ops([CommitGroupOp("t")])
            s.compact()
            assert page + s.scan(MATCH_ALL, cursor)[0] == ["a", "b"]
            assert s.scan(MATCH_ALL, ScanCursor(cursor.snapshot_seq, ""))[0] == ["a", "b"]
            assert s.scan(MATCH_ALL)[0] == ["a", "b", "t/out"]

    def test_the_snapshot_segment_bytes_are_pinned(self, tmp_path):
        """compact() writes, for a fixed store, the bytes it always wrote."""
        path = tmp_path / "s"
        with _compaction_store(path) as s:
            s.compact()
            [segment] = list_segments(path)
            digest = hashlib.sha256(segment.read_bytes()).hexdigest()
        assert digest == SNAPSHOT_SHA256

    def test_a_failed_compaction_leaves_the_store_as_it_was(self, tmp_path, monkeypatch):
        """A device that fills up part-way through the snapshot fails
        compact() with StorageFull and leaves no tmp segment; the store keeps
        appending to its old segment, and a reopen reads what it did."""
        path = tmp_path / "s"
        s = _compaction_store(path)
        try:
            before = _store_reads(s)
            encode = records.encode_doc_op
            calls = []

            def full(*args):
                calls.append(args)
                if len(calls) == 5:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return encode(*args)

            with monkeypatch.context() as patched:
                patched.setattr(records, "encode_doc_op", full)
                with pytest.raises(StorageFull):
                    s.compact()
            assert len(calls) == 5
            assert not list(path.glob("*.tmp"))
            assert _store_reads(s) == before
            s.put(doc("k9", c=1))
            after = _store_reads(s)
            assert after["exists"] == before["exists"] and s.exists("k9")
        finally:
            s.close()
        with make_store(path) as s:
            assert _store_reads(s) == after and s.exists("k9")

    @pytest.mark.parametrize("point,hits", [
        ("log.after_snapshot_sync", 1),
        ("log.after_snapshot_rename", 1),
        ("log.before_segment_unlink", 1),
        ("log.before_segment_unlink", 2),
    ])
    def test_a_crash_inside_compaction_loses_nothing(self, tmp_path, monkeypatch, point, hits):
        """A store killed at any step of writing its snapshot segment reopens
        answering every read as before the compaction, staged groups and
        indexed scans included; the next compact() leaves no tmp segment."""
        path = tmp_path / "s"
        monkeypatch.setattr(logio, "SEGMENT_ROLL_BYTES", 512)  # several segments to unlink
        s = _compaction_store(path)
        before = _store_reads(s)
        assert len(list_segments(path)) > 2
        faults.arm(point, hits)
        with pytest.raises(faults.KillPoint):
            s.compact()
        _abandon(s)
        with make_store(path) as s:
            assert _store_reads(s) == before
            s.compact()
            assert not list(path.glob("*.tmp"))
            assert _store_reads(s) == before
        with make_store(path) as s:
            assert _store_reads(s) == before

    def test_a_damaged_segment_before_the_snapshot_is_never_read(self, tmp_path):
        """Replay starts at the newest snapshot segment and opens no older
        one, so damage in a segment the snapshot superseded does not stop
        an open."""
        path = tmp_path / "s"
        with _compaction_store(path) as s:
            s.compact()
            before = _store_reads(s)
        dead = frame(b"\x01" * 40)
        damaged = dead[:8] + b"\xff" + dead[9:] + dead
        (path / "segment-000001.log").write_bytes(damaged)
        with make_store(path) as s:
            assert _store_reads(s) == before
        assert (path / "segment-000001.log").read_bytes() == damaged

    def test_a_blob_put_just_before_compaction_survives_it(self, tmp_path):
        """An unreferenced chunk younger than the grace window is spared;
        put it again once it is older, and it is young again."""
        data = random.Random(7).randbytes(5000)
        with make_store(tmp_path / "s", create=True) as s:
            ptr = s.put_blob(data)
            s.compact()
            assert s.get_blob(ptr) == data
            _age_chunks(s, ptr)
            assert s.put_blob(data) == ptr
            s.compact()
            assert s.get_blob(ptr) == data
            _age_chunks(s, ptr)
            s.compact()
            with pytest.raises(NotFound):
                s.get_blob(ptr)

    def test_delete_then_compact_removes_key(self, tmp_path):
        """A log that holds a DELETE record (the pinned DELETE_HEX body: seq
        10, key sample/0001) opens with the key gone from every read, and
        compaction drops the key."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.put(doc("sample/0001"))
            s.put(doc("sample/0002"))
        append_record(path, bytes.fromhex(DELETE_HEX))
        with make_store(path) as s:
            with pytest.raises(NotFound):
                s.get("sample/0001")
            assert not s.exists("sample/0001")
            assert s.keys_with_prefix("sample/") == ["sample/0002"]
            assert s.scan(MATCH_ALL)[0] == ["sample/0002"]
            assert s.snapshot_seq() == 10
            s.compact()
            assert "sample/0001" not in s._entries
        with make_store(path) as s:
            assert "sample/0001" not in s._entries
            assert s.keys_with_prefix("sample/") == ["sample/0002"]


# -- batches: one op of many documents against the same ops one at a time ---------

# tag maps that share content, tell equal values of other types apart (1, True,
# 1.0; -0.0, 0.0) and hold the same items in another order
BATCH_TAG_MAPS = [{}, {"c": 1}, {"c": True}, {"c": 1.0}, {"c": -0.0}, {"c": 0.0},
                  {"c": "a", "d": 2}, {"d": 2, "c": "a"}]
BATCH_KEYS = ["k0", "k1", "k2", "t/000000", "t/000001", "t/000002", "__sys/r0", "__sys/r1"]
BATCH_GROUPS = ["g0", "g1", "g2"]
BATCH_QUERIES = ["", "c = 1", "c = true", "c = 1.0", "c = 0.0", 'c = "a"', "c >= 0",
                 "c < 1.0", "d = 2"]

_batch_docs = st.lists(st.tuples(st.sampled_from(BATCH_KEYS),
                                 st.integers(0, len(BATCH_TAG_MAPS) - 1),
                                 st.booleans()),  # its own copy of the map, or the shared one
                       min_size=1, max_size=5)
_batch_ops = st.one_of(
    st.tuples(st.just("put"), _batch_docs, st.sampled_from([None, *BATCH_GROUPS])),
    st.tuples(st.just("commit"), st.sampled_from(BATCH_GROUPS)))


def _batch(spec, step: int) -> list:
    ops = []
    for op in spec:
        if op[0] == "commit":
            ops.append(CommitGroupOp(op[1]))
            continue
        docs = []
        for key, i, copy in op[1]:
            tags = dict(BATCH_TAG_MAPS[i]) if copy else BATCH_TAG_MAPS[i]
            docs.append(Document(key=key, payload=f"{step}:{key}".encode(), tags=tags))
        ops.append(PutOp(*docs, group=op[2]))
    return ops


def _model_accepts(latest: dict, ops: list) -> bool:
    """The write rule as a model: ``latest`` maps each key to the group its
    newest version is still staged under (None: visible). A commit folds
    what is staged under its group at that moment. Applies ``ops`` in place
    when the rule accepts every one of them in turn."""
    new_latest = dict(latest)
    for op in ops:
        if isinstance(op, CommitGroupOp):
            for key, group in new_latest.items():
                if group == op.group:
                    new_latest[key] = None
            continue
        for d in op.docs:
            if d.key.startswith("__sys/"):
                if op.group is not None:
                    return False
                continue
            if d.key in new_latest:
                if op.group is None or new_latest[d.key] is None:
                    return False
            new_latest[d.key] = op.group
    latest.update(new_latest)
    return True


def _strict(d: Document) -> tuple:
    """A document as values that tell 1, True and 1.0, and -0.0 and 0.0, apart."""
    return (d.key, d.payload, d.label,
            sorted((name, type(v).__name__, repr(v)) for name, v in d.tags.items()))


def _every_read(s: Store) -> dict:
    visible = {}
    for key in BATCH_KEYS:
        try:
            visible[key] = _strict(s.get(key))
        except NotFound:
            pass
    scans = {}
    for q in BATCH_QUERIES:
        scans[q] = s.scan(parse(q))[0]
        assert s.scan(parse(q), use_index=False)[0] == scans[q], q
    return {"visible": visible, "listed": s.keys_with_prefix(""), "scans": scans,
            "staged": {g: s.staged_keys(g) for g in BATCH_GROUPS},
            "seq": s.snapshot_seq()}


class TestBatches:
    @given(st.lists(st.lists(_batch_ops, min_size=1, max_size=4), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_a_batch_equals_its_ops_one_at_a_time(self, tmp_path_factory, specs):
        """Each batch that the write rule accepts leaves the store as its ops
        applied one document at a time do, through compaction and a reopen;
        a batch it refuses raises and changes nothing."""
        root = tmp_path_factory.mktemp("batches")
        latest = {}
        with make_store(root / "a", create=True) as a, make_store(root / "b", create=True) as b:
            a.create_index("c")
            b.create_index("c")
            for step, spec in enumerate(specs):
                ops = _batch(spec, step)
                if _model_accepts(latest, ops):
                    a.apply_ops(ops)
                    for op in ops:
                        singles = ([op] if isinstance(op, CommitGroupOp)
                                   else [PutOp(d, group=op.group) for d in op.docs])
                        for single in singles:
                            b.apply_ops([single])
                    assert _every_read(a) == _every_read(b)
                else:
                    before, size = _every_read(a), log_bytes(root / "a")
                    with pytest.raises((DuplicateKey, InvalidArgument)):
                        a.apply_ops(ops)
                    assert _every_read(a) == before and log_bytes(root / "a") == size
            expected = _every_read(b)
            a.compact()
            assert _every_read(a) == expected
        with make_store(root / "a") as a:
            assert _every_read(a) == expected

    @pytest.mark.parametrize("bad,error", [
        (doc("k0"), DuplicateKey),  # a visible key
        (doc("__sys/r0"), InvalidArgument),  # a reserved key, staged
        (Document(key="t/000001", payload=b"x", tags={"bad name": 1}), InvalidArgument),
        (Document(key="t/000001", payload=b"x", tags={"c": float("nan")}), InvalidArgument),
        (doc("t/000000"), DuplicateKey),  # earlier in the same batch, and visible by then
    ], ids=["visible-key", "staged-reserved-key", "bad-tag-name", "nan-tag", "visible-in-batch"])
    def test_a_batch_with_one_bad_output_writes_nothing(self, tmp_path, bad, error):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.create_index("c")
            s.put(doc("k0"))
            s.put_system(doc("__sys/r0"))
            before, size = _every_read(s), log_bytes(path)
            outputs = [doc(f"t/{i:06d}", c=1) for i in range(3)]
            ops = [PutOp(*outputs[:1], group="g0"), CommitGroupOp("g0"),
                   PutOp(*outputs[1:], bad, group="g1"), CommitGroupOp("g1")]
            with pytest.raises(error):
                s.apply_ops(ops)
            assert _every_read(s) == before and log_bytes(path) == size
        with make_store(path) as s:
            assert _every_read(s) == before

    def test_a_user_key_put_twice_in_one_batch_is_refused(self, tmp_path):
        """As it would be one put at a time; a staged key may be staged again."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            with pytest.raises(DuplicateKey):
                s.apply_ops([PutOp(doc("k0", b"1"), doc("k0", b"2"))])
            with pytest.raises(DuplicateKey):
                s.apply_ops([PutOp(doc("k0", b"1")), PutOp(doc("k0", b"2"), group="g")])
            assert log_bytes(path) == 0
            s.apply_ops([PutOp(doc("t/0", b"1"), doc("t/0", b"2"), group="g"),
                         CommitGroupOp("g")])
            assert s.get("t/0").payload == b"2"
            assert s.scan(MATCH_ALL)[0] == ["t/0"]
            # staged under g after its commit, so it may be staged again
            s.apply_ops([CommitGroupOp("g"), PutOp(doc("t/1", b"1"), group="g"),
                         PutOp(doc("t/1", b"2"), group="h")])
            assert s.staged_keys("g") == [] and s.staged_keys("h") == ["t/1"]

    def test_a_frame_beyond_the_record_count_writes_nothing(self, tmp_path):
        """A BATCH counts its records in a u16: a put of one document more
        is refused before anything is written; one that fills it is taken."""
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            with pytest.raises(InvalidArgument):
                s.apply_ops([PutOp(*(doc(f"d{i:05d}", b"") for i in range(65_536)))])
            assert log_bytes(path) == 0 and s.snapshot_seq() == 0
            assert s.scan(MATCH_ALL) == ([], None)
            s.apply_ops([PutOp(*(doc(f"d{i:05d}", b"") for i in range(65_534)), group="g"),
                         CommitGroupOp("g")])
            assert s.snapshot_seq() == 65_535
            assert len(s.scan(MATCH_ALL)[0]) == 65_534

    def test_a_put_of_no_documents_writes_nothing(self, tmp_path):
        path = tmp_path / "s"
        with make_store(path, create=True) as s:
            s.apply_ops([PutOp(group="g"), PutOp()])
            s.apply_ops([])
            assert log_bytes(path) == 0 and s.snapshot_seq() == 0


# -- replay and compaction against a model of the store's reads --------------------

# BATCH_QUERIES as the oracle's predicate lists
REPLAY_QUERIES = {"": [], "c = 1": [("c", "=", 1)], "c = true": [("c", "=", True)],
                  "c = 1.0": [("c", "=", 1.0)], "c = 0.0": [("c", "=", 0.0)],
                  'c = "a"': [("c", "=", "a")], "c >= 0": [("c", ">=", 0)],
                  "c < 1.0": [("c", "<", 1.0)], "d = 2": [("d", "=", 2)]}
REPLAY_PREFIXES = ["", "k", "t/", "__sys/"]


def _store_reads(s: Store) -> dict:
    """Every read the model answers, with each indexed scan checked against
    the same scan without the index."""
    scans = {}
    for q in REPLAY_QUERIES:
        scans[q] = s.scan(parse(q))[0]
        assert s.scan(parse(q), use_index=False)[0] == scans[q], q
    return {"get": {key: _strict(s.get(key)) for key in BATCH_KEYS if s.exists(key)},
            "meta": {key: s.get_meta(key) for key in BATCH_KEYS if s.exists(key)},
            "exists": [key for key in BATCH_KEYS if s.exists(key)],
            "staged": {g: s.staged_keys(g) for g in BATCH_GROUPS},
            "prefix": {p: s.keys_with_prefix(p) for p in REPLAY_PREFIXES},
            "seq": s.snapshot_seq(), "scans": scans}


def _bucket_keys(s: Store, m: StoreModel) -> dict:
    """Each non-empty index bucket's keys as it walks them, checked to be
    exactly the user keys, ascending, whose version in the model, staged or
    not, carries the bucket's value."""
    held, expected = {}, {}
    for name, index in s._indexes.items():
        for vk, bucket in index.by_value.items():
            if bucket:
                held[name, vk] = list(bucket.walk(""))
        for key, version in sorted(m.versions.items()):
            if version is not None and name in version[0].tags and not key.startswith(m.RESERVED):
                expected.setdefault((name, sort_key(version[0].tags[name])), []).append(key)
    assert held == expected
    return held


def _model_reads(m: StoreModel) -> dict:
    visible = [key for key in BATCH_KEYS if m.visible(key) is not None]
    return {"get": {key: _strict(m.visible(key)[0]) for key in visible},
            "meta": {key: tuple(m.visible(key)[2:]) for key in visible},
            "exists": visible,
            "staged": {g: m.staged_keys(g) for g in BATCH_GROUPS},
            "prefix": {p: m.keys_with_prefix(p) for p in REPLAY_PREFIXES},
            "seq": m.seq, "scans": {q: m.scan(preds) for q, preds in REPLAY_QUERIES.items()}}


_replay_steps = st.one_of(
    st.tuples(st.just("batch"), st.lists(_batch_ops, min_size=1, max_size=4)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("index")),
    st.tuples(st.just("reopen")),
    # records as older stores wrote them, appended to the log while it is closed
    st.tuples(st.just("replace"), st.sampled_from(BATCH_KEYS),
              st.sampled_from([None, *BATCH_GROUPS]), st.integers(0, len(BATCH_TAG_MAPS) - 1)),
    st.tuples(st.just("delete"), st.sampled_from(BATCH_KEYS)),
    st.tuples(st.just("torn"), st.integers(1, 30)),
)


@given(st.lists(_replay_steps, min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_replay_answers_as_the_store_did_and_as_the_model(tmp_path_factory, steps):
    """Any mix of puts, restages, commits, compactions, an index built
    midway, reopens, older REPLACE and DELETE records and a torn tail: after
    every step the store answers every read as the model does and each index
    bucket holds exactly the keys whose version carries its value, and a
    reopen (with or without a torn tail) answers as the store did before it
    closed, with each bucket holding the keys it held."""
    path = tmp_path_factory.mktemp("replay") / "s"
    clock = FakeClock()
    model = StoreModel()
    s = make_store(path, create=True, clock=clock)
    s.create_index("c")
    try:
        for step, (kind, *args) in enumerate(steps):
            clock.advance(7)
            if kind == "batch":
                ops = _batch(args[0], step)
                spec = [("commit", op.group) if isinstance(op, CommitGroupOp)
                        else ("put", op.group, op.docs) for op in ops]
                if model.accepts(spec):
                    s.apply_ops(ops)
                    model.apply(spec, clock.now_ms())
                else:
                    with pytest.raises((DuplicateKey, InvalidArgument)):
                        s.apply_ops(ops)
            elif kind == "compact":
                s.compact()
            elif kind == "index":
                s.create_index("d")
            else:
                before = _store_reads(s)
                held = _bucket_keys(s, model)
                s.close()
                seq = model.seq + 1
                if kind == "replace":
                    key, group, tags = args
                    new = Document(key=key, payload=f"old {step}".encode(),
                                   tags=dict(BATCH_TAG_MAPS[tags]))
                    append_record(path, records.encode_doc_op(
                        records.OP_REPLACE, seq, clock.now_ms(), group, new))
                    model.replay_put(seq, clock.now_ms(), group, new)
                elif kind == "delete":
                    append_record(path, delete_body(seq, args[0]))
                    model.replay_delete(seq, args[0])
                elif kind == "torn":
                    torn = frame(delete_body(seq, BATCH_KEYS[0]))
                    with open(list_segments(path)[-1], "ab") as f:
                        f.write(torn[:min(args[0], len(torn) - 1)])
                s = make_store(path, clock=clock)
                if kind in ("reopen", "torn"):
                    assert _store_reads(s) == before
                    assert _bucket_keys(s, model) == held
            assert _store_reads(s) == _model_reads(model), (step, kind)
            _bucket_keys(s, model)
    finally:
        s.close()


def test_compaction_decodes_no_record(tmp_path, monkeypatch):
    """compact() writes the versions it walks without decoding a record:
    with the record decoder refusing every call, it still answers every
    read as before, leaves each index bucket holding exactly the keys whose
    version carries its value, and a reopen answers the same."""
    path = tmp_path / "s"
    clock = FakeClock()
    with make_store(path, create=True, clock=clock) as s:
        s.create_index("c")
        s.create_index("d")
        for i, tags in enumerate(BATCH_TAG_MAPS):
            s.put(Document(key=f"k{i}", payload=b"x", tags=dict(tags)))
        s.put_system(doc("__sys/r0", b"1"))
        s.put_system(doc("__sys/r0", b"2"))
        s.apply_ops([PutOp(doc("t/000000", c=1), doc("t/000001", c="a"), group="g0")])
        s.apply_ops([PutOp(doc("t/000001", c=True), doc("t/000002", d=2), group="g1"),
                     CommitGroupOp("g1")])
        s.apply_ops([PutOp(doc("t/000003", c=0.0), group="g2")])
    append_record(path, delete_body(100, "k1"))  # an older log's DELETE
    s = make_store(path, clock=clock)
    try:
        before = _store_reads(s)
        assert before["staged"] == {"g0": ["t/000000"], "g1": [], "g2": ["t/000003"]}

        def refuse(*args, **kwargs):
            raise AssertionError("compact() decoded a record")

        with monkeypatch.context() as patched:
            for name in ("decode_body", "_document_at"):  # a body, a document
                patched.setattr(records, name, refuse)
            s.compact()
            assert _store_reads(s) == before
        assert "k1" not in s._entries
        buckets = {name: {vk: list(b.walk("")) for vk, b in index.by_value.items() if b}
                   for name, index in s._indexes.items()}
        expected = {name: {} for name in ("c", "d")}
        for key, state in sorted(s._entries.items()):
            for name, value in state.doc.tags.items():
                if name in expected and not key.startswith("__sys/"):
                    expected[name].setdefault(sort_key(value), []).append(key)
        assert buckets == expected
        assert s._keys.main == sorted(s._entries)
    finally:
        s.close()
    with make_store(path, clock=clock) as s:
        assert _store_reads(s) == before
