"""Durable document store with tag secondary indexes and a chunked blob store.

Layout of a store directory:

    MANIFEST            magic, format version, inline threshold, index list
    LOCK                flock'd by the single writable process
    segment-NNNNNN.log  append-only document log (see log.py)
    blobs/              the blob log: segment-NNNNNN.log files whose frames are
                        blob chunks, made by the first blob put (see blob.py)

Who owns what: the store owns records (what each body says, encoded and
decoded by records.py) and the in-memory state they build. The log (log.py)
owns the segment files: their names, framing and CRCs, torn-tail recovery,
where replay starts, and the snapshot protocol compaction writes through.
The store hands the log bodies, and takes each one back as its bounds in a
segment's bytes; it names no segment file.

Durability model: every mutation is one log frame (a batch of ops is one
frame, hence atomic), durable when ``apply_ops`` returns if the store syncs:
the log writes the frame over zeros it keeps ahead of its end and
fdatasyncs it, so the sync commits no new file size (see log.py). In memory
each key holds one version, its newest, tagged with a monotonically
increasing sequence number; a read at a snapshot sees that version only
when it is not staged and its seq is at or before the snapshot, which gives
snapshot reads for paged scans. A group's commit folds
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
key (a DELETE record in an older log still replays, dropping the key).

Indexes are exact: an index bucket holds exactly the user keys whose
current version, staged or not, carries the bucket's value, live, after a
reopen and after a compaction. A key that holds a version changes buckets
only when that version is replaced (a restage, or an older log's REPLACE or
DELETE on replay), so only those paths take a key out of a bucket. A scan
whose candidates come from an index (one ``=`` bucket, or the buckets of an
IN set or a range) therefore never re-checks the predicate that chose them:
it checks visibility and the query's other predicates only.

Write path: ``apply_ops`` takes ops in order, where one ``PutOp`` carries any
number of documents (a single ``put`` is a put of one; a task's outputs are
one put under their staging group). Each document takes its own sequence
number and its own PUT record, so the frame's bytes are what one record per
document would be. In one pass the ops are checked against the write rule,
per key and in order, and encoded into the frame with one join; nothing is
installed unless every op passes and the frame is appended. A memo that
lives for the call keys each distinct tag map by its values and their types
(``records.tags_key``), so the map is checked and encoded once. The frame's
records are then installed as replay installs them (below).

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

A write and a replay install through one sink: ``apply_ops`` hands each
record of the frame it appended to a ``_Sink``, and on reopen
``records.decode_body`` decodes each body where it lies in its segment's
bytes and hands every record to one, with the same ``put`` and ``commit``
calls. The sink makes a put its key's version, moves the key from the
buckets of a replaced version's tag values to those of the new one's, folds
a commit and keeps the next seq, so the state after a write is the state a
reopen rebuilds. A bucket is found by ``(variant, value)``, the tuple
``sort_key`` builds, so 1, True and 1.0 are three buckets and -0.0 and 0.0
one, on a write and on a replay alike. Compaction streams every live
version to the log's snapshot without decoding a record and keeps the
indexes it has; its walk is in key order, so the store's keys become one
sorted list as they are written.

Read paths cost O(log n + keys visited). The store's keys, and each index
bucket's, are one ``_SortedKeys``: a large sorted ``main`` list, a small
sorted ``run`` list and the keys that arrived since the last read, in
arrival order. A put appends its key to the arrivals. The first read after
it sorts only the arrivals into ``run``; ``run`` is merged into ``main`` once
it outgrows a fixed fraction of ``main``, so that O(n) merge is paid once per
many puts, not on every read (the two-level scheme of O'Neil et al., "The
Log-Structured Merge-Tree", 1996). A scan bisects both levels at its cursor
and walks them as one ascending sequence of lists, each a slice of ``main``
merged with the ``run`` keys that fall inside it; a prefix walk
(``keys_with_prefix``) starts the same way at the prefix. The scan loops
over each list in turn: it drops reserved keys only from a list whose ends
straddle their range, and spends per key one lookup of its version and at
most one call of the query's test, compiled once per scan. A one-bucket
``=`` lookup hands the bucket's own keys to the scan without a copy. Replay
adds every key to the arrivals, so the first read after it sorts everything
once. A key leaves by ``discard``, which settles the arrivals and deletes it
from its level.
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
from forge.query import Predicate, TagQuery, _variant, compile_predicates, sort_key
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
    validate_tag_name,
    validate_tags,
)

MANIFEST_MAGIC = b"FGMF"
FORMAT_VERSION = 1
# magic, format version, inline threshold, index count; each index name
# follows as ``u16 len | name``
_MANIFEST_HEAD = struct.Struct("<4sIQH")
_U16 = struct.Struct("<H")


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
# Reserved keys sort in [SYSTEM_PREFIX, _SYSTEM_END): the prefix with its
# last character's successor
_SYSTEM_END = SYSTEM_PREFIX[:-1] + chr(ord(SYSTEM_PREFIX[-1]) + 1)


class _SortedKeys:
    """A set of distinct keys that changes by ``add`` and ``discard`` and is
    read in ascending order by ``walk`` (see the module docstring)."""

    __slots__ = ("main", "run", "_arrivals", "add")

    def __init__(self):
        self.main: list[str] = []
        self.run: list[str] = []
        self._arrivals: list[str] = []
        # add(key) adds a key not yet present, in O(1): a list append, which
        # the hot paths call with no Python frame between
        self.add = self._arrivals.append

    def __len__(self) -> int:
        return len(self.main) + len(self.run) + len(self._arrivals)

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

    def discard(self, key: str) -> None:
        """Remove ``key`` if it is present."""
        self._settle()
        for level in (self.run, self.main):
            i = bisect.bisect_left(level, key)
            if i < len(level) and level[i] == key:
                del level[i]
                return

    def walk(self, start: str, *, after: bool = False) -> Iterator[list[str]]:
        """The keys from ``start`` on (or past it, when ``after``), ascending,
        as consecutive non-empty lists, each a new one.

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
            if chunk:
                yield chunk
            if i >= len(main):
                return


def _joined(buckets) -> list[str]:
    """Every key of ``buckets``, in no order; a ``None`` bucket holds none."""
    found: list[str] = []
    for bucket in buckets:
        if bucket is not None:
            for chunk in bucket.walk(""):
                found += chunk
    return found


class _Index:
    """Secondary index for one tag: (variant, value) -> the bucket of the
    user keys whose current version carries that value. A key is in one
    bucket at most, so buckets need no set to tell whether they hold it.

    A bucket that a replaced version leaves empty stays in ``by_value``
    (``sorted_values`` changes only when a value is first indexed); empty
    ones are bounded by the distinct values indexed since the open.
    """

    __slots__ = ("by_value", "_sorted", "_dirty")

    def __init__(self):
        self.by_value: dict[tuple, _SortedKeys] = {}
        self._sorted: list[tuple] = []
        self._dirty = False

    def bucket(self, value) -> _SortedKeys:
        """The bucket of ``value``, created empty if there is none."""
        vk = (_variant(value), value)  # sort_key's tuple, by exact type first
        bucket = self.by_value.get(vk)
        if bucket is None:
            bucket = self.by_value[vk] = _SortedKeys()
            self._dirty = True
        return bucket

    def sorted_values(self) -> list[tuple]:
        if self._dirty:
            self._sorted = sorted(self.by_value)
            self._dirty = False
        return self._sorted


class _Sink:
    """The one way a record goes into the store's state: ``apply_ops`` hands
    it each record of a batch it has logged, and ``records.decode_body``
    each record replay reads, with the same calls, so a write leaves the
    state that a reopen rebuilds. ``next_seq`` follows the records."""

    __slots__ = ("_entries", "_keys", "_staged", "_indexes", "next_seq")

    def __init__(self, store: Store):
        self._entries = store._entries
        self._keys = store._keys
        self._staged = store._staged
        self._indexes = store._indexes
        self.next_seq = store._next_seq

    def put(self, seq: int, arrived_ms: int, group: str | None, doc: Document) -> None:
        """Make ``doc`` its key's one version. A staged version it replaces
        leaves its group's set of keys, so ``_staged`` holds exactly the
        keys staged under each group, and the key moves to the buckets of
        the new version's tag values."""
        key = doc.key
        old = self._entries.get(key)
        if old is None:
            self._keys.add(key)
        elif old.group is not None and old.group != group:
            self._unstage(key, old.group)
        self._entries[key] = _State(doc, group, arrived_ms, seq)
        if group is not None:
            staged = self._staged.get(group)
            if staged is None:
                staged = self._staged[group] = set()
            staged.add(key)
        if seq >= self.next_seq:
            self.next_seq = seq + 1
        if self._indexes and not key.startswith(SYSTEM_PREFIX):
            self._reindex(key, {} if old is None else old.doc.tags, doc.tags)

    def delete(self, seq: int, key: str) -> None:  # only older logs hold one
        state = self._entries.pop(key, None)
        if state is not None:
            self._keys.discard(key)
            if state.group is not None:
                self._unstage(key, state.group)
            if self._indexes and not key.startswith(SYSTEM_PREFIX):
                self._reindex(key, state.doc.tags, {})
        if seq >= self.next_seq:
            self.next_seq = seq + 1

    def commit(self, seq: int, group: str) -> None:
        """Each key staged under ``group`` becomes a plain version of
        ``seq``, and the store forgets the group."""
        entries = self._entries
        for key in self._staged.pop(group, ()):
            state = entries[key]
            state.group = None
            state.seq = seq
        if seq >= self.next_seq:
            self.next_seq = seq + 1

    def snapshot(self, next_seq: int) -> None:
        self.next_seq = max(self.next_seq, next_seq)

    def _unstage(self, key: str, group: str) -> None:
        """Take ``key`` out of ``group``'s staged keys; a group left with
        none is forgotten."""
        staged = self._staged[group]
        staged.discard(key)
        if not staged:
            del self._staged[group]

    def _reindex(self, key: str, old: dict, new: dict) -> None:
        """Move ``key`` out of the bucket of each indexed value in ``old``
        (its replaced version's tags) that ``new`` does not carry, and into
        the bucket of each one in ``new`` that ``old`` did not."""
        for name, index in self._indexes.items():
            was, value = old.get(name), new.get(name)
            left = None if was is None else index.bucket(was)
            joined = None if value is None else index.bucket(value)
            if left is not joined:
                if left is not None:
                    left.discard(key)
                if joined is not None:
                    joined.add(key)


class Store:
    """The single persistence substrate. One writable process per directory."""

    def __init__(self, path: str | os.PathLike, *, create: bool = False,
                 clock: Clock | None = None, fsync: bool = True,
                 inline_threshold: int = DEFAULT_INLINE_THRESHOLD):
        self.path = Path(path)
        self.clock = clock or SystemClock()
        self.fsync = fsync
        self._lock = threading.RLock()
        self._entries: dict[str, _State] = {}
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
            self.blobs.close()
            self._release_lock()

    def _release_lock(self) -> None:
        fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
        self._lock_file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _write_manifest(self, indexes: list[str]) -> None:
        parts = [_MANIFEST_HEAD.pack(MANIFEST_MAGIC, FORMAT_VERSION, self.inline_threshold,
                                     len(indexes))]
        for name in indexes:
            raw = name.encode("utf-8")
            parts += (_U16.pack(len(raw)), raw)
        logio.write_whole(self.path / "MANIFEST", b"".join(parts))

    def _read_manifest(self) -> list[str]:
        """The index names. A MANIFEST cut short, with bytes after its last
        name, or with a name that is empty, repeated or not UTF-8 raises
        CorruptStore."""
        raw = (self.path / "MANIFEST").read_bytes()
        try:
            magic, version, threshold, count = _MANIFEST_HEAD.unpack_from(raw)
            if magic != MANIFEST_MAGIC:
                raise CorruptStore("bad manifest magic")
            if version != FORMAT_VERSION:
                raise CorruptStore(f"unsupported format version {version}")
            names, off = [], _MANIFEST_HEAD.size
            for _ in range(count):
                (n,) = _U16.unpack_from(raw, off)
                off += 2 + n
                if off > len(raw):
                    raise CorruptStore("manifest cut short")
                name = raw[off - n:off].decode("utf-8")
                if not name or name in names:
                    raise CorruptStore(f"bad index name {name!r} in the manifest")
                names.append(name)
        except (struct.error, UnicodeDecodeError) as exc:
            raise CorruptStore(f"manifest cut short or malformed: {exc}") from exc
        if off != len(raw):
            raise CorruptStore(f"{len(raw) - off} bytes after the manifest")
        self.inline_threshold = threshold
        return names

    def _replay(self) -> None:
        sink = _Sink(self)
        for data, start, end in logio.replay(self.path):
            records.decode_body(data, sink, start, end)
        self._next_seq = sink.next_seq

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
        self.apply_ops([PutOp(doc)])
        return doc.key

    def put_system(self, doc: Document) -> None:
        """Write a reserved key, replacing its current version if it has one."""
        if not doc.key.startswith(SYSTEM_PREFIX):
            raise InvalidArgument("put_system is for reserved keys only")
        self.apply_ops([PutOp(doc)])

    def apply_ops(self, ops: list[StoreOp]) -> None:
        """Validate and apply a list of ops as one atomic, durable record.

        Each document is checked and encoded on its own, but each distinct
        tag map among them is checked and encoded once. Once the frame is
        appended, each record goes to a ``_Sink`` as replay hands it on.
        More than ``records.MAX_BATCH_RECORDS`` records do not fit one frame
        and are refused."""
        with self._lock:
            if self._closed:
                raise InvalidArgument("store is closed")
            now = self.clock.now_ms()
            writer = self._validate_ops(ops, now)
            if not writer.count:
                return  # no op, or only puts of no documents
            if writer.count > records.MAX_BATCH_RECORDS:
                raise InvalidArgument(
                    f"{writer.count} records do not fit one frame; "
                    f"the most is {records.MAX_BATCH_RECORDS}")
            self._log.append(writer.body())
            sink = _Sink(self)
            seq = self._next_seq
            for op in ops:
                if isinstance(op, PutOp):
                    put, group = sink.put, op.group
                    for doc in op.docs:
                        put(seq, now, group, doc)
                        seq += 1
                else:
                    sink.commit(seq, op.group)
                    seq += 1
            self._next_seq = seq

    def _validate_ops(self, ops: list[StoreOp], now: int) -> records.BodyWriter:
        """The record that writes ``ops`` at ``now``, once they pass the
        write rule, which is checked per key in op order, as if each op were
        applied alone. A put to a reserved key replaces its current version,
        and is never staged; its payload is unbounded. Any other key holds a
        user document, whose inline payload is at most ``inline_threshold``
        bytes, and is written once: an unstaged put
        needs a key with no current version, a staged put one whose current
        version is still staged (not folded in by a commit, also one earlier
        in the batch), which is how an attempt reruns over what it or an
        earlier one staged. Either way the version replaced is one no
        reader can see at any snapshot, so the store keeps only the new one.

        Each distinct tag map is checked and encoded once, into a memo
        keyed by ``records.tags_key``."""
        writer = records.BodyWriter()
        sections: dict = {}
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
                section = sections.get(memo_key := records.tags_key(tags))
                if section is None:
                    validate_tags(tags)
                    section = sections[memo_key] = records.encode_tags(tags)
                writer.put(seq, now, group, doc, section)
                seq += 1
                key = doc.key
                if key.startswith(SYSTEM_PREFIX):
                    if group is not None:
                        raise InvalidArgument(f"reserved key {key!r} cannot be staged")
                    continue
                if doc.is_inline and len(doc.payload) > self.inline_threshold:
                    raise PayloadTooLarge(
                        f"inline payload of {len(doc.payload)} bytes exceeds the "
                        f"{self.inline_threshold}-byte threshold; use put_blob")
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
            for chunk in self._keys.walk(prefix):
                for key in chunk:
                    if not key.startswith(prefix):
                        return out
                    if self._state_at(key, snap) is not None:
                        out.append(key)
            return out

    # -- index management -------------------------------------------------

    def create_index(self, tag_name: str) -> None:
        """Build (or no-op re-build) the secondary index for one tag. A name
        no tag can carry is refused before the MANIFEST is written."""
        validate_tag_name(tag_name)
        with self._lock:
            if tag_name in self._indexes:
                return
            index = _Index()
            for key, state in self._entries.items():
                value = state.doc.tags.get(tag_name)
                if value is not None and not key.startswith(SYSTEM_PREFIX):
                    index.bucket(value).add(key)
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
        that snapshot. System keys never appear. The candidates, every key
        or those of the best covering index, are walked a list at a time;
        each costs one lookup of its version, checked for visibility at the
        snapshot, and at most one call of the query's test, compiled once
        per scan (``compile_predicates``) from every predicate but the one
        whose index chose the candidates: its buckets hold exactly the keys
        whose version carries a value it accepts.
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
            candidates, chosen = self._candidates(query) if use_index else (None, None)
            keys = self._keys if candidates is None else candidates
            test = compile_predicates(tuple(p for p in query.predicates if p is not chosen))
            entries = self._entries
            out: list[str] = []
            for chunk in keys.walk(after, after=True):
                if chunk[0] < _SYSTEM_END and chunk[-1] >= SYSTEM_PREFIX:
                    chunk = [key for key in chunk if not key.startswith(SYSTEM_PREFIX)]
                for key in chunk:
                    state = entries.get(key)
                    if state is None or state.seq > snap or state.group is not None:
                        continue
                    if test is not None and not test(state.doc.tags):
                        continue
                    if len(out) == limit:
                        return out, ScanCursor(snapshot_seq=snap, last_key=out[-1])
                    out.append(key)
            return out, None

    def _candidates(self, query: TagQuery) -> tuple[_SortedKeys | None, Predicate | None]:
        """Keys from the best covering index and the predicate whose index
        gave them; (None, None) when no index serves the query.

        The keys are exactly those whose current version satisfies that
        predicate, since a bucket holds exactly the keys whose version
        carries its value. A one-bucket ``=`` lookup returns the bucket
        itself, which the caller must not change; IN and range lookups join
        their buckets, which share no key, and return them sorted as the
        ``main`` of a new structure."""
        best: _SortedKeys | list[str] | None = None
        chosen = None
        for pred in query.predicates:
            index = self._indexes.get(pred.tag)
            if index is None or pred.op == "!=":
                continue
            if pred.op == "=":
                found = index.by_value.get(sort_key(pred.value)) or []
            elif pred.op == "IN":
                found = _joined(index.by_value.get(sort_key(v)) for v in pred.values)
            else:
                found = self._range_lookup(index, pred)
            if best is None or len(found) < len(best):
                best, chosen = found, pred
            if not best:
                break
        if best is None or isinstance(best, _SortedKeys):
            return best, chosen
        keys = _SortedKeys()
        keys.main = sorted(best)
        return keys, chosen

    @staticmethod
    def _range_lookup(index: _Index, pred) -> list[str]:
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
        return _joined(index.by_value[values[i]] for i in range(lo, hi))

    # -- blobs ----------------------------------------------------------------

    def put_blob(self, data: bytes) -> BlobPointer:
        return self.blobs.put(data)

    def get_blob(self, ptr: BlobPointer) -> bytes:
        return self.blobs.get(ptr)

    # -- compaction -------------------------------------------------------

    def compact(self) -> None:
        """Rewrite live state into a fresh snapshot segment.

        Streams each key's one version as it is held to the log's snapshot,
        and garbage-collects unreferenced blob chunks that are not young
        (blob.py), with no record decoded. The walk's keys come in
        ascending order, so they become the store's sorted ``main`` as they
        are written. The versions, the staged keys of each group and the
        indexes, which are exact already, stay as they are. Open scan
        cursors from before the compaction stay valid because every version
        keeps its sequence number, and a staged one its group. A snapshot
        that fails leaves the store as it was.
        """
        with self._lock:
            live_blobs: set[str] = set()
            keys: list[str] = []

            def bodies() -> Iterator[bytes]:
                yield records.encode_snapshot_marker(self._next_seq)
                for chunk in self._keys.walk(""):
                    keys.extend(chunk)
                    for key in chunk:
                        state = self._entries[key]
                        if not state.doc.is_inline:
                            live_blobs.add(state.doc.payload.blob_id)
                        yield records.encode_doc_op(records.OP_PUT, state.seq, state.arrived_ms,
                                                    state.group, state.doc)

            self._log.snapshot(bodies())
            self._keys = _SortedKeys()
            self._keys.main = keys
            self.blobs.collect_garbage(live_blobs)
