"""ingest_scan: in-process puts of random-key documents mixed with reads.

The pre-built store holds PREBUILT_DOCS documents. A segment opens a fresh
copy of it and puts SEGMENT_SIZE[size] more: every BLOB_EVERY-th put (2 %)
is a 40 KB blob through ``put_blob``, the others are 64-byte inline
payloads. Documents are tagged ``split`` and ``cls`` (both indexed) and
``w`` (not indexed). The puts come in batches of READ_EVERY, each with the
same number of blobs. After each batch comes one read round, whose time is
kept out of the put throughput: the first page of an indexed query
``cls = k AND w > x`` with x below 0.5, the first page of a linear query
``w < x`` that matches 5 to 15 % of the documents, and one ``read_batch``
page from a persisted cursor over ``split = "train"``. At the end of the
segment the store is compacted and reopened, and every acknowledged put is
read back. The log is fsynced on every append.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.common import Ledger, Outcome, dir_bytes, rss_mb_of
from perfbench.spans import Pairs, unit_of

PREBUILT_DOCS = 20_000
INLINE_BYTES = 64
BLOB_BYTES = 40 * 1024
BLOB_EVERY = 50  # every 50th put (2 %) is a blob, so every batch holds 4
CLASSES = 10
READ_EVERY = 200  # a chosen mix: puts take most of the loop time
PAGE = 100
SEGMENT_SIZE = {"full": 10_000, "smoke": 500}  # puts per segment
VIEW = "train"


class DocSource:
    """Seeded random documents: the same seed and stream give the same
    sequence."""

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.default_rng([seed, 3, stream])
        self.count = 0

    def next(self):
        r = self.rng
        self.count += 1
        key = f"d{int(r.integers(0, 2**63)):019d}"
        blob = self.count % BLOB_EVERY == 0
        data = r.bytes(BLOB_BYTES if blob else INLINE_BYTES)
        tags = {"split": "train" if r.random() < 0.8 else "test",
                "cls": int(r.integers(0, CLASSES)), "w": float(r.random())}
        return key, data, blob, tags


def _put(forge, key, data, blob, tags):
    from forge.store import Document

    payload = forge.put_blob(data) if blob else data
    forge.put_document(Document(key=key, payload=payload, tags=tags))


def build(path, seed: int, smoke: bool) -> None:
    from forge.engine import Forge

    source = DocSource(seed, 0)
    with Forge(path, create=True, fsync=False) as forge:
        forge.create_index("split")
        forge.create_index("cls")
        forge.define_view(VIEW, 'split = "train"')
        for _ in range(PREBUILT_DOCS // 10 if smoke else PREBUILT_DOCS):
            _put(forge, *source.next())


def segment(path, seed: int, index: int, puts: int,
            pairs: Pairs | None = None) -> Outcome:
    """Open a fresh copy of the pre-built store and run one segment of puts
    and reads, then compact, reopen and read every acknowledged put back.
    The throughput counts each batch of READ_EVERY puts over the batch's
    put time. When traced, a unit of ``pairs`` is a batch and its read
    round."""
    from forge.engine import Forge

    source = DocSource(seed, 1 + index)
    docs = [source.next() for _ in range(puts)]  # made before any timing
    ledger = Ledger()
    start = time.perf_counter()
    forge = Forge(path)
    setup = [time.perf_counter() - start]
    reads = np.random.default_rng([seed, 4, index])
    acked: dict[str, tuple[bytes, bool]] = {}
    put_ms, read_ms, query_ms, page_ms, rates = [], [], [], [], []
    try:
        cursor = forge.open_cursor(VIEW, PAGE, "c0")
        wraps = 0
        disk0 = dir_bytes(path)
        for first in range(0, puts, READ_EVERY):
            with unit_of(pairs):
                batch, acked_before = time.perf_counter(), len(acked)
                for key, data, blob, tags in docs[first:first + READ_EVERY]:
                    t0 = time.perf_counter()
                    try:
                        _put(forge, key, data, blob, tags)
                    except Exception as exc:  # noqa: BLE001 - count it and go on
                        ledger.fail(f"put {key}: {exc!r}")
                        continue
                    put_ms.append((time.perf_counter() - t0) * 1e3)
                    acked[key] = (data, blob)
                    ledger.ok()
                rates.append((len(acked) - acked_before) / (time.perf_counter() - batch))
                if first + READ_EVERY > puts:
                    break
                cls, above = int(reads.integers(0, CLASSES)), 0.5 * reads.random()
                indexed = f"cls = {cls} AND w > {above:.4f}"
                linear = f"w < {0.05 + 0.1 * reads.random():.4f}"
                t0 = time.perf_counter()
                keys, _ = forge.scan(indexed, limit=PAGE)
                forge.scan(linear, limit=PAGE)
                t1 = time.perf_counter()
                _, cursor, end = forge.read_batch(cursor)
                t2 = time.perf_counter()
                ledger.ok(3)
                query_ms.append((t1 - t0) * 1e3)
                page_ms.append((t2 - t1) * 1e3)
                read_ms.append((t2 - t0) * 1e3)
                if end:
                    wraps += 1
                    cursor = forge.open_cursor(VIEW, PAGE, f"c{wraps}")
                plain, _ = forge.scan(indexed, limit=PAGE, use_index=False)
                ledger.check(keys == plain,
                             f"indexed query {indexed!r} differs from a linear scan")
        disk = dir_bytes(path) - disk0
        rss = rss_mb_of()
        forge.compact()
    finally:
        forge.close()
    with Forge(path) as forge:
        for key, (data, blob) in acked.items():
            try:
                payload = forge.get_document(key).payload
                if blob:
                    payload = forge.get_blob(payload)
            except Exception as exc:  # noqa: BLE001 - a lost put is a failed check
                ledger.fail(f"put {key} unreadable after reopen: {exc!r}")
                continue
            ledger.check(payload == data, f"put {key} reads back different bytes")
    return Outcome(rates=rates, op_ms=put_ms, read_ms=read_ms,
                   setup_s=setup, peak_rss_mb=rss, disk_bytes=disk,
                   user_bytes=sum(len(data) for data, _ in acked.values()),
                   ledger=ledger, extra={"query_ms": query_ms, "page_ms": page_ms})
