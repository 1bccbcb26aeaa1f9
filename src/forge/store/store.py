"""Durable document store with tag secondary indexes and a chunked blob store.

Layout of a store directory:

    MANIFEST            magic, format version, inline threshold, index list
    LOCK                flock'd by the single writable process
    segment-NNNNNN.log  append-only document log (see log.py)
    blobs/              chunk files, <blob_id>.<chunk_index>

Durability model: every mutation is one log frame (a batch of ops is one
frame, hence atomic). In memory each key holds one version, its newest,
tagged with a monotonically increasing sequence number; a read at a snapshot
sees that version only when it is not staged and its seq is at or before the
snapshot, which gives snapshot reads for paged scans. A group's commit folds
the versions still staged under it into plain ones that take the commit's
seq, so a snapshot shows exactly what was committed at or before it, and no
later op changes that. One version per key is enough because the write rule
(``_validate_ops``) lets a put replace only versions that no reader can see
at any snapshot:

- a reserved key is read only at the newest seq (``get``, ``exists``,
  ``get_meta``, ``keys_with_prefix``, the write rule), and scans skip
  reserved keys;
- a user key is replaced only while its version is still staged. No read
  sees a staged version, and only its group's commit, by folding it, could
  make it visible; a replaced version is no longer the key's, so no commit
  folds it.

User documents are otherwise immutable after write, and nothing deletes a
key (a DELETE record in an older log still replays, emptying the key's
slot), so index maintenance is add-only between compactions and scans
re-verify candidates against the snapshot.

Write path: ``apply_ops`` takes ops in order, where one ``PutOp`` carries any
number of documents (a single ``put`` is a put of one; a task's outputs are
one put under their staging group). Each document takes its own sequence
number and its own PUT record, so the frame's bytes are what one record per
document would be. In one pass the ops are checked against the write rule,
per key and in order, and encoded into the frame with one join; nothing is
installed unless every op passes and the frame is appended. A memo that
lives for the call keys each distinct tag map by its values and their types
(``records.tags_key``): the map is checked and encoded once, and each index
bucket it names is looked up once for all the keys put with it.

Staged writes: a document put with a staging ``group`` stays invisible to
readers until the group is committed (one op, usually inside the same batch
that records the producing task's completion). That is the commit-marker
mechanism making task outputs appear all-or-nothing. A commit shows what is
staged under its group at that moment and forgets the group: a later put
under it waits for the group's next commit. Whether a put may replace a
key's current version is the store's rule (``_validate_ops``). The store
keeps, for each group, exactly the keys whose version is staged under it: a
key staged again under another group (a retried attempt's) leaves the
earlier group's set, and a set left empty is dropped with its group. So
``staged_keys`` reads what the commit would show, and the commit folds
them, without a walk; the completion records exactly the outputs its commit
shows.

Replay decodes each log record straight into that state in one pass:
``records.decode_body`` hands every record to ``_Replay``, which installs a
put as ``apply_ops`` did, folds a commit and keeps the next seq. Index
buckets are looked up through a memo that lives for the replay and keys
each value with its class (``_BucketMemo``), so each distinct (tag, value)
costs one ``sort_key``. Compaction writes every live version into a fresh
segment and rebuilds memory from the same walk without decoding a record:
the walk is in key order, so the store's and each bucket's keys become
sorted lists as they are written.

Read paths cost O(log n + keys visited). The store's keys, and each index
bucket's, are one ``_SortedKeys``: a large sorted ``main`` list, a small
sorted ``run`` list and the keys that arrived since the last read, in
arrival order. A put appends its key to the arrivals. The first read after
it sorts only the arrivals into ``run``; ``run`` is merged into ``main`` once
it outgrows a fixed fraction of ``main``, so that O(n) merge is paid once per
many puts, not on every read (the two-level scheme of O'Neil et al., "The
Log-Structured Merge-Tree", 1996). A scan bisects both levels at its cursor
and walks them as one ascending sequence, a slice of ``main`` at a time with
the ``run`` keys that fall inside it; a prefix walk (``keys_with_prefix``)
starts the same way at the prefix. A one-bucket ``=`` lookup hands the
bucket's own keys to the scan without a copy. Replay adds every key to the
arrivals, so the first read after it sorts everything once; compaction
leaves every structure sorted.
"""

from __future__ import annotations

import bisect
import fcntl
import os
import struct
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from forge.clock import Clock, SystemClock
from forge.errors import (
    CorruptStore,
    DuplicateKey,
    InvalidArgument,
    NotFound,
    PayloadTooLarge,
    ReservedKey,
    StoreLocked,
)
from forge.query import TagQuery, matches, sort_key
from forge.store import log as logio
from forge.store import records
from forge.store.blob import BlobStore
from forge.store.types import (
    DEFAULT_INLINE_THRESHOLD,
    SYSTEM_PREFIX,
    BlobPointer,
    Document,
    ScanCursor,
    validate_document,
    validate_tags,
)

MANIFEST_MAGIC = b"FGMF"
FORMAT_VERSION = 1


class PutOp:
    """Put each of ``docs``, staged under ``group`` when one is given: a
    single put is ``PutOp(doc)``, a task's outputs ``PutOp(*outputs,
    group=...)``. Each document takes its own sequence number."""

    __slots__ = ("docs", "group")

    def __init__(self, *docs: Document, group: str | None = None):
        self.docs = docs
        self.group = group


@dataclass(frozen=True)
class CommitGroupOp:
    group: str


StoreOp = PutOp | CommitGroupOp


class _State:
    """A key's one version: the document, the staging group it was put
    under (None when unstaged or folded in by the group's commit), when it
    arrived, and its seq: the put's, or the commit's once folded in. A newer
    put of the key replaces it (see the module docstring for why no reader
    can miss it)."""

    __slots__ = ("doc", "group", "arrived_ms", "seq")

    def __init__(self, doc: Document, group: str | None, arrived_ms: int, seq: int):
        self.doc = doc
        self.group = group
        self.arrived_ms = arrived_ms
        self.seq = seq


# ``run`` is merged into ``main`` once it holds more than 1/_RUN_RATIO of
# ``main``'s keys: a read then sorts at most about n/8 keys besides its own
# arrivals, and the O(n) merge comes once per n/8 new keys. A larger ratio
# makes the merges rarer but every read's sort of ``run`` longer.
_RUN_RATIO = 8
# A walk merges the two levels a slice of ``main`` at a time: one list.sort
# of the slice and its ``run`` keys costs far less per key than a per-key
# heapq.merge. Slices start at _FIRST_CHUNK keys and double up to _CHUNK, so
# a walk that stops after a few keys (a prefix walk, a small page) sorts
# little it does not use, and a long walk pays the sort's fixed cost rarely.
_FIRST_CHUNK = 32
_CHUNK = 256


class _SortedKeys:
    """A set of distinct keys that grows by ``add`` and is read in ascending
    order by ``walk`` (see the module docstring)."""

    __slots__ = ("main", "run", "_arrivals")

    def __init__(self):
        self.main: list[str] = []
        self.run: list[str] = []
        self._arrivals: list[str] = []

    def __len__(self) -> int:
        return len(self.main) + len(self.run) + len(self._arrivals)

    def add(self, key: str) -> None:
        """Add a key not yet present; O(1)."""
        self._arrivals.append(key)

    def _settle(self) -> None:
        """Sort the arrivals into ``run``, or ``run`` and the arrivals into
        ``main`` when ``run`` would outgrow its share; one sort either way."""
        arrivals = self._arrivals
        if not arrivals:
            return
        level = self.run
        if (len(level) + len(arrivals)) * _RUN_RATIO > len(self.main):
            level = self.main
            level += self.run
            self.run = []
        level += arrivals
        arrivals.clear()
        level.sort()

    def walk(self, start: str, *, after: bool = False) -> Iterator[str]:
        """The keys from ``start`` on (or past it, when ``after``), ascending.

        Nothing may be added while the walk is in use."""
        self._settle()
        find = bisect.bisect_right if after else bisect.bisect_left
        main, run = self.main, self.run
        i, j = find(main, start), find(run, start)
        size = _FIRST_CHUNK
        while True:
            chunk = main[i:i + size]
            i += size
            size = min(2 * size, _CHUNK)
            k = bisect.bisect_left(run, main[i], j) if i < len(main) else len(run)
            if k > j:
                chunk += run[j:k]
                chunk.sort()
                j = k
            yield from chunk
            if i >= len(main):
                return


class _Bucket:
    """The keys indexed under one value, as a set and as sorted keys."""

    __slots__ = ("keys", "sorted")

    def __init__(self):
        self.keys: set[str] = set()
        self.sorted = _SortedKeys()

    def add(self, key: str) -> None:
        if key not in self.keys:
            self.keys.add(key)
            self.sorted.add(key)


class _Index:
    """Secondary index for one tag: (variant, value) -> bucket of keys.

    Entries are added when a document carrying the tag is written and only
    dropped at compaction; scans re-verify candidates, so stale entries can
    produce false positives but never false negatives.
    """

    __slots__ = ("by_value", "_sorted", "_dirty")

    def __init__(self):
        self.by_value: dict[tuple, _Bucket] = {}
        self._sorted: list[tuple] = []
        self._dirty = False

    def bucket(self, value) -> _Bucket:
        """The bucket of ``value``, created empty if there is none."""
        vk = sort_key(value)
        bucket = self.by_value.get(vk)
        if bucket is None:
            bucket = self.by_value[vk] = _Bucket()
            self._dirty = True
        return bucket

    def sorted_values(self) -> list[tuple]:
        if self._dirty:
            self._sorted = sorted(self.by_value)
            self._dirty = False
        return self._sorted


class _TagMap:
    """What one ``apply_ops`` call works out once per distinct tag map: the
    map, checked, its encoded section, and the user keys put with it, which
    join each of its index buckets after one lookup."""

    __slots__ = ("tags", "section", "keys")

    def __init__(self, tags: dict, section: bytes):
        self.tags = tags
        self.section = section
        self.keys: list[str] = []


class _BucketMemo:
    """Each indexed (tag, value) resolved to its bucket once for one replay
    or compaction, where ``index.bucket`` would build a ``sort_key`` for
    every tag of every document. A hit needs the value's class as well as
    an equal value: 1, True and 1.0 are equal in Python but are three
    buckets; -0.0 and 0.0, both floats, get the one bucket ``by_value``
    holds for both."""

    __slots__ = ("_memos", "_ascending")

    def __init__(self, indexes: dict[str, _Index], *, ascending: bool = False):
        self._memos = [(name, index, {}) for name, index in indexes.items()]
        # keys come each once and in ascending order (compaction's walk), so
        # they go straight onto the end of each bucket's sorted ``main``
        self._ascending = ascending

    def add(self, key: str, tags: dict) -> None:
        for name, index, memo in self._memos:
            value = tags.get(name)
            if value is None:
                continue
            hit = memo.get(value)  # (class, the bucket's key set, its sorted keys' add)
            if hit is None or hit[0] is not value.__class__:
                bucket = index.bucket(value)
                hit = memo[value] = (value.__class__, bucket.keys, bucket.sorted.main.append
                                     if self._ascending else bucket.sorted.add)
            keys = hit[1]
            if key not in keys:
                keys.add(key)
                hit[2](key)


class _Replay:
    """What ``records.decode_body`` hands each replayed record to: the
    record goes straight into the store's state, as the write that made it
    left that state."""

    __slots__ = ("_store", "_buckets", "next_seq")

    def __init__(self, store: Store):
        self._store = store
        self._buckets = _BucketMemo(store._indexes) if store._indexes else None
        self.next_seq = store._next_seq

    def put(self, seq: int, arrived_ms: int, group: str | None, doc: Document) -> None:
        self._store._install(doc, group, arrived_ms, seq)
        if seq >= self.next_seq:
            self.next_seq = seq + 1
        if self._buckets is not None and not doc.key.startswith(SYSTEM_PREFIX):
            self._buckets.add(doc.key, doc.tags)

    def delete(self, seq: int, key: str) -> None:  # only older logs hold one
        entries = self._store._entries
        state = entries.get(key)
        if state is not None:
            if state.group is not None:
                self._store._unstage(key, state.group)
            entries[key] = None  # the key stays in ``_keys``
        if seq >= self.next_seq:
            self.next_seq = seq + 1

    def commit(self, seq: int, group: str) -> None:
        self._store._fold(group, seq)
        if seq >= self.next_seq:
            self.next_seq = seq + 1

    def snapshot(self, next_seq: int) -> None:
        self.next_seq = max(self.next_seq, next_seq)


class Store:
    """The single persistence substrate. One writable process per directory."""

    def __init__(self, path: str | os.PathLike, *, create: bool = False,
                 clock: Clock | None = None, fsync: bool = True,
                 inline_threshold: int = DEFAULT_INLINE_THRESHOLD):
        self.path = Path(path)
        self.clock = clock or SystemClock()
        self.fsync = fsync
        self._lock = threading.RLock()
        self._entries: dict[str, _State | None] = {}  # None: deleted by an older log
        self._indexes: dict[str, _Index] = {}
        self._staged: dict[str, set[str]] = {}  # group -> keys whose version is staged under it
        self._next_seq = 1
        self._keys = _SortedKeys()
        self._closed = False

        manifest = self.path / "MANIFEST"
        if create:
            if manifest.exists():
                raise DuplicateKey(f"store already exists at {self.path}")
            self.path.mkdir(parents=True, exist_ok=True)
            self.inline_threshold = inline_threshold
            self._write_manifest(indexes=[])
        elif not manifest.exists():
            raise NotFound(f"no store at {self.path}")

        self._acquire_lock()
        try:
            for name in self._read_manifest():
                self._indexes[name] = _Index()
            self.blobs = BlobStore(self.path / "blobs", fsync=fsync)
            self._replay()
            self._log = logio.LogWriter(self.path, fsync=fsync)
        except BaseException:
            self._release_lock()
            raise

    # -- lifecycle ----------------------------------------------------------

    def _acquire_lock(self) -> None:
        self._lock_file = open(self.path / "LOCK", "a+")
        try:
            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._lock_file.close()
            raise StoreLocked(f"store at {self.path} is opened writable by another process")
        self._lock_file.seek(0)
        self._lock_file.truncate()
        self._lock_file.write(str(os.getpid()))
        self._lock_file.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._log.close()
            self._release_lock()

    def _release_lock(self) -> None:
        fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
        self._lock_file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _write_manifest(self, indexes: list[str]) -> None:
        buf = bytearray()
        buf += MANIFEST_MAGIC
        buf += struct.pack("<I", FORMAT_VERSION)
        buf += struct.pack("<Q", self.inline_threshold)
        buf += struct.pack("<H", len(indexes))
        for name in indexes:
            raw = name.encode("utf-8")
            buf += struct.pack("<H", len(raw)) + raw
        tmp = self.path / "MANIFEST.tmp"
        tmp.write_bytes(bytes(buf))
        os.replace(tmp, self.path / "MANIFEST")

    def _read_manifest(self) -> list[str]:
        raw = (self.path / "MANIFEST").read_bytes()
        if raw[:4] != MANIFEST_MAGIC:
            raise CorruptStore("bad manifest magic")
        version = struct.unpack_from("<I", raw, 4)[0]
        if version != FORMAT_VERSION:
            raise CorruptStore(f"unsupported format version {version}")
        self.inline_threshold = struct.unpack_from("<Q", raw, 8)[0]
        count = struct.unpack_from("<H", raw, 16)[0]
        names, off = [], 18
        for _ in range(count):
            n = struct.unpack_from("<H", raw, off)[0]
            off += 2
            names.append(raw[off:off + n].decode("utf-8"))
            off += n
        return names

    def _replay(self) -> None:
        replay = _Replay(self)
        for body in logio.replay(self.path):
            records.decode_body(body, replay)
        self._next_seq = replay.next_seq

    # -- in-memory application ------------------------------------------------

    def _install(self, doc: Document, group: str | None, arrived_ms: int, seq: int) -> None:
        """Make ``doc`` its key's one version. A staged version it replaces
        leaves its group's set of keys, so ``_staged`` holds exactly the
        keys staged under each group."""
        key = doc.key
        entries = self._entries
        if key not in entries:
            self._keys.add(key)
        elif (old := entries[key]) is not None and old.group is not None and old.group != group:
            self._unstage(key, old.group)
        entries[key] = _State(doc, group, arrived_ms, seq)
        if group is not None:
            staged = self._staged.get(group)
            if staged is None:
                staged = self._staged[group] = set()
            staged.add(key)

    def _unstage(self, key: str, group: str) -> None:
        """Take ``key`` out of ``group``'s staged keys; a group left with
        none is forgotten."""
        staged = self._staged[group]
        staged.discard(key)
        if not staged:
            del self._staged[group]

    def _fold(self, group: str, seq: int) -> None:
        """Commit ``group`` at ``seq``: each key staged under it becomes a
        plain version of that seq, and the store forgets the group."""
        entries = self._entries
        for key in self._staged.pop(group, ()):
            state = entries[key]
            state.group = None
            state.seq = seq

    # -- visibility -----------------------------------------------------------

    def _state_at(self, key: str, snapshot_seq: int) -> _State | None:
        state = self._entries.get(key)
        if state is None or state.seq > snapshot_seq or state.group is not None:
            return None
        return state

    def snapshot_seq(self) -> int:
        with self._lock:
            return self._next_seq - 1

    # -- mutations ------------------------------------------------------------

    def put(self, doc: Document) -> str:
        """Public write path: immutable user documents, no system prefix."""
        if doc.key.startswith(SYSTEM_PREFIX):
            raise ReservedKey(f"keys under {SYSTEM_PREFIX!r} are reserved")
        if doc.is_inline and len(doc.payload) > self.inline_threshold:
            raise PayloadTooLarge(
                f"inline payload of {len(doc.payload)} bytes exceeds the "
                f"{self.inline_threshold}-byte threshold; use put_blob")
        self.apply_ops([PutOp(doc)])
        return doc.key

    def put_system(self, doc: Document) -> None:
        """Write a reserved key, replacing its current version if it has one."""
        if not doc.key.startswith(SYSTEM_PREFIX):
            raise InvalidArgument("put_system is for reserved keys only")
        self.apply_ops([PutOp(doc)])

    def apply_ops(self, ops: list[StoreOp]) -> None:
        """Validate and apply a list of ops as one atomic, durable record.

        Each document is checked, encoded and installed on its own, but each
        distinct tag map among them is checked, encoded and resolved to its
        index buckets once, through a memo that lives for this call. More
        than ``records.MAX_BATCH_RECORDS`` records do not fit one frame and
        are refused."""
        with self._lock:
            if self._closed:
                raise InvalidArgument("store is closed")
            now = self.clock.now_ms()
            memo: dict = {}
            writer = self._validate_ops(ops, now, memo)
            if not writer.count:
                return  # no op, or only puts of no documents
            if writer.count > records.MAX_BATCH_RECORDS:
                raise InvalidArgument(
                    f"{writer.count} records do not fit one frame; "
                    f"the most is {records.MAX_BATCH_RECORDS}")
            self._log.append(writer.body())
            seq = self._next_seq
            for op in ops:
                if isinstance(op, PutOp):
                    seq = self._put(op, seq, now)
                else:
                    self._fold(op.group, seq)
                    seq += 1
            self._next_seq = seq
            for tag_map in memo.values():
                if tag_map.keys and self._indexes:
                    for name, value in tag_map.tags.items():
                        index = self._indexes.get(name)
                        if index is not None:
                            bucket = index.bucket(value)
                            for key in tag_map.keys:
                                bucket.add(key)

    def _put(self, op: PutOp, seq: int, now: int) -> int:
        """Install a validated put whose first document takes ``seq``;
        returns the next seq."""
        install, group = self._install, op.group
        for doc in op.docs:
            install(doc, group, now, seq)
            seq += 1
        return seq

    def _validate_ops(self, ops: list[StoreOp], now: int,
                      memo: dict) -> records.BodyWriter:
        """The record that writes ``ops`` at ``now``, once they pass the
        write rule, which is checked per key in op order, as if each op were
        applied alone. A put to a reserved key replaces its current version,
        and is never staged. Any other key is written once: an unstaged put
        needs a key with no current version, a staged put one whose current
        version is still staged (not folded in by a commit, also one earlier
        in the batch), which is how an attempt reruns over what it or an
        earlier one staged. Either way the version replaced is one no
        reader can see at any snapshot, so the store keeps only the new one.

        Each distinct tag map is checked and encoded once, into ``memo``
        (keyed by ``records.tags_key``), which also collects the user keys
        put with it, for the index."""
        writer = records.BodyWriter()
        earlier: dict[str, tuple] = {}  # user key -> (group, seq a commit folds it from)
        committed: dict[str, int] = {}  # group -> seq of its newest commit in this batch
        seq = first = self._next_seq
        for op in ops:
            if isinstance(op, CommitGroupOp):
                committed[op.group] = seq
                writer.commit_group(seq, op.group)
                seq += 1
                continue
            if not isinstance(op, PutOp):
                raise InvalidArgument(f"unknown store op {op!r}")
            group = op.group
            for doc in op.docs:
                validate_document(doc)
                tags = doc.tags
                tag_map = memo.get(memo_key := records.tags_key(tags))
                if tag_map is None:
                    validate_tags(tags)
                    tag_map = memo[memo_key] = _TagMap(tags, records.encode_tags(tags))
                writer.put(seq, now, group, doc, tag_map.section)
                seq += 1
                key = doc.key
                if key.startswith(SYSTEM_PREFIX):
                    if group is not None:
                        raise InvalidArgument(f"reserved key {key!r} cannot be staged")
                    continue
                if key in earlier:
                    exists, (current, since) = True, earlier[key]
                else:
                    state = self._entries.get(key)
                    exists, since = state is not None, first
                    current = state.group if exists else None
                if exists and (group is None or current is None
                               or committed.get(current, 0) >= since):
                    raise DuplicateKey(f"document key {key!r} already exists")
                earlier[key] = (group, seq)
                tag_map.keys.append(key)
        return writer

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> Document:
        with self._lock:
            state = self._state_at(key, self._next_seq - 1)
            if state is None:
                raise NotFound(f"document {key!r} not found")
            return state.doc

    def get_meta(self, key: str) -> tuple[int, int]:
        """(seq, arrived_ms) of the key's visible version."""
        with self._lock:
            state = self._state_at(key, self._next_seq - 1)
            if state is None:
                raise NotFound(f"document {key!r} not found")
            return state.seq, state.arrived_ms

    def exists(self, key: str) -> bool:
        with self._lock:
            return self._state_at(key, self._next_seq - 1) is not None

    def staged_keys(self, group: str) -> list[str]:
        """Keys whose newest version is staged under ``group``, ascending:
        what committing the group would make visible. Empty right after the
        group commits."""
        with self._lock:
            return sorted(self._staged.get(group, ()))

    def keys_with_prefix(self, prefix: str) -> list[str]:
        """Visible keys under a prefix, ascending. System keys included."""
        with self._lock:
            snap = self._next_seq - 1
            out = []
            for key in self._keys.walk(prefix):
                if not key.startswith(prefix):
                    break
                if self._state_at(key, snap) is not None:
                    out.append(key)
            return out

    # -- index management -------------------------------------------------

    def create_index(self, tag_name: str) -> None:
        """Build (or no-op re-build) the secondary index for one tag."""
        if not tag_name or not isinstance(tag_name, str):
            raise InvalidArgument("tag name must be a non-empty string")
        with self._lock:
            if tag_name in self._indexes:
                return
            index = _Index()
            for key, state in self._entries.items():
                if (state is not None and tag_name in state.doc.tags
                        and not key.startswith(SYSTEM_PREFIX)):
                    index.bucket(state.doc.tags[tag_name]).add(key)
            self._indexes[tag_name] = index
            self._write_manifest(sorted(self._indexes))

    def indexes(self) -> list[str]:
        with self._lock:
            return sorted(self._indexes)

    # -- scan ---------------------------------------------------------------

    def scan(self, query: TagQuery, cursor: ScanCursor | None = None,
             limit: int | None = None, *, use_index: bool = True) -> tuple[list[str], ScanCursor | None]:
        """Matching visible document keys in ascending key order.

        Pages taken with the returned cursor all read at the snapshot of the
        first call; their concatenation equals a single unbounded scan at
        that snapshot. System keys never appear.
        """
        if limit is not None and limit < 1:
            raise InvalidArgument("limit must be positive")
        with self._lock:
            if cursor is None:
                snap = self._next_seq - 1
                after = ""
            else:
                snap = cursor.snapshot_seq
                after = cursor.last_key
            candidates = self._candidates(query) if use_index else None
            keys = candidates if candidates is not None else self._keys

            out: list[str] = []
            last = after
            exhausted = True
            match_all = query.is_match_all
            state_at = self._state_at
            for key in keys.walk(after, after=True):
                if key.startswith(SYSTEM_PREFIX):
                    continue
                state = state_at(key, snap)
                if state is None:
                    continue
                if not match_all and not matches(query, state.doc.tags):
                    continue
                if limit is not None and len(out) >= limit:
                    exhausted = False
                    break
                out.append(key)
                last = key
            if exhausted:
                return out, None
            return out, ScanCursor(snapshot_seq=snap, last_key=last)

    def _candidates(self, query: TagQuery) -> _SortedKeys | None:
        """Keys from the best covering index; None = no usable index.

        A one-bucket ``=`` lookup returns the bucket's own keys, which the
        caller must not change; IN and range lookups return a sorted list as
        the ``main`` of a new structure."""
        best: _SortedKeys | set[str] | None = None
        for pred in query.predicates:
            index = self._indexes.get(pred.tag)
            if index is None or pred.op == "!=":
                continue
            if pred.op == "=":
                bucket = index.by_value.get(sort_key(pred.value))
                found = bucket.sorted if bucket is not None else set()
            elif pred.op == "IN":
                found = set()
                for v in pred.values:
                    bucket = index.by_value.get(sort_key(v))
                    if bucket is not None:
                        found |= bucket.keys
            else:
                found = self._range_lookup(index, pred)
            if best is None or len(found) < len(best):
                best = found
            if not best:
                break
        if best is None or isinstance(best, _SortedKeys):
            return best
        keys = _SortedKeys()
        keys.main = sorted(best)
        return keys

    @staticmethod
    def _range_lookup(index: _Index, pred) -> set[str]:
        variant = pred.variant
        values = index.sorted_values()
        lo = bisect.bisect_left(values, (variant,))
        hi = bisect.bisect_left(values, (variant + 1,))
        vk = sort_key(pred.value)
        if pred.op == "<":
            hi = min(hi, bisect.bisect_left(values, vk, lo, hi))
        elif pred.op == "<=":
            hi = min(hi, bisect.bisect_right(values, vk, lo, hi))
        elif pred.op == ">":
            lo = max(lo, bisect.bisect_right(values, vk, lo, hi))
        elif pred.op == ">=":
            lo = max(lo, bisect.bisect_left(values, vk, lo, hi))
        found: set[str] = set()
        for i in range(lo, hi):
            found |= index.by_value[values[i]].keys
        return found

    # -- blobs ----------------------------------------------------------------

    def put_blob(self, data: bytes) -> BlobPointer:
        return self.blobs.put(data)

    def get_blob(self, ptr: BlobPointer) -> bytes:
        return self.blobs.get(ptr)

    # -- compaction -------------------------------------------------------

    def compact(self) -> None:
        """Rewrite live state into a fresh snapshot segment.

        Writes each key's one version as it is held, skipping keys an older
        log deleted, and garbage-collects unreferenced blob chunks. Memory is
        rebuilt from the same walk, with no record decoded: the walk's keys
        come in ascending order, so they become the store's and each index
        bucket's sorted ``main`` as they are written, which drops deleted
        keys and stale index entries. The staged keys of each group stay as
        they are. Open scan cursors from before the compaction stay valid
        because every version keeps its sequence number, and a staged one its
        group.
        """
        with self._lock:
            self._log.close()
            number = logio.segment_number(logio.list_segments(self.path)[-1]) + 1
            tmp = self.path / f"segment-{number:06d}.log.tmp"
            live_blobs: set[str] = set()
            entries: dict[str, _State | None] = {}
            indexes = {name: _Index() for name in self._indexes}
            buckets = _BucketMemo(indexes, ascending=True)
            with open(tmp, "wb") as f:
                f.write(logio.frame(records.encode_snapshot_marker(self._next_seq)))
                for key in self._keys.walk(""):
                    state = self._entries[key]
                    if state is None:
                        continue
                    body = records.encode_doc_op(records.OP_PUT, state.seq, state.arrived_ms,
                                                 state.group, state.doc)
                    f.write(logio.frame(body))
                    entries[key] = state
                    if not state.doc.is_inline:
                        live_blobs.add(state.doc.payload.blob_id)
                    if not key.startswith(SYSTEM_PREFIX):
                        buckets.add(key, state.doc.tags)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, logio.segment_path(self.path, number))
            for path in logio.list_segments(self.path)[:-1]:
                path.unlink()
            self._entries = entries
            self._keys = _SortedKeys()
            self._keys.main = list(entries)
            self._indexes = indexes
            self.blobs.collect_garbage(live_blobs)
            self._log = logio.LogWriter(self.path, fsync=self.fsync)
