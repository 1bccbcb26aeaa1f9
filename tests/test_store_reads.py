"""Store reads: cost guards counted in keys touched (not in time), and
paged scans and prefix walks against a brute-force oracle: a property test
under interleaved puts, staged groups, system-key churn and compaction, and
walks across the two levels and the chunks of the sorted keys."""

import random
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.clock import FakeClock
from forge.errors import DuplicateKey
from forge.query import MATCH_ALL, parse
from forge.store import CommitGroupOp, Document, PutOp, ScanCursor, Store
from forge.store.store import _CHUNK, _RUN_RATIO, _SortedKeys

from oracles import VersionChain, brute_force_scan


def make_store(path):
    return Store(path, create=True, clock=FakeClock(), fsync=False)


# -- cost guards ------------------------------------------------------------------

class _CountedKey(str):
    """A document key that counts how often the store orders or prefix-tests
    it, which is how many times a read touches it."""

    touches = 0

    def __lt__(self, other):
        _CountedKey.touches += 1
        return str.__lt__(self, other)

    def __le__(self, other):
        _CountedKey.touches += 1
        return str.__le__(self, other)

    def __gt__(self, other):
        _CountedKey.touches += 1
        return str.__gt__(self, other)

    def __ge__(self, other):
        _CountedKey.touches += 1
        return str.__ge__(self, other)

    def startswith(self, *args):
        _CountedKey.touches += 1
        return str.startswith(self, *args)


class _CountedEntries(dict):
    """A store's key -> version map that counts the lookups reads make, one
    per key they check."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)


def _counted_store(path, keys, **tags):
    s = make_store(path)
    s.create_index("split")
    for i, key in enumerate(keys):
        s.put(Document(key=_CountedKey(key), payload=b"", tags={**tags, "w": i}))
    s.keys_with_prefix("")  # the first read after the puts merges them in
    s._entries = _CountedEntries(s._entries)
    return s


@pytest.mark.parametrize("query,use_index", [('split = "train"', True),
                                             ("w >= 0", False)])
def test_full_paged_walk_touches_each_key_a_bounded_number_of_times(
        tmp_path, query, use_index):
    n, page = 2000, 50
    rng = random.Random(3)
    keys = [f"d{rng.randrange(10**9):09d}" for _ in range(n)]
    with _counted_store(tmp_path / "s", keys, split="train") as s:
        s.scan(parse(query), limit=1, use_index=use_index)  # merges the index too
        s._entries.reads = _CountedKey.touches = 0
        walked, cursor = [], None
        while True:
            got, cursor = s.scan(parse(query), cursor, limit=page, use_index=use_index)
            walked += got
            if cursor is None:
                break
        assert walked == sorted(set(keys))
        assert n <= s._entries.reads <= 3 * n
        # a skip-walk from the first key on every page touches ~n * pages / 2
        assert _CountedKey.touches <= 3 * n


def test_prefix_walk_touches_only_its_range(tmp_path):
    keys = [f"a{i:05d}" for i in range(4997)] + ["m1", "m2", "m3"]
    with _counted_store(tmp_path / "s", keys) as s:
        s._entries.reads = _CountedKey.touches = 0
        assert s.keys_with_prefix("m") == ["m1", "m2", "m3"]
        assert s._entries.reads == 3
        # two binary searches plus the three matches and the first non-match
        assert _CountedKey.touches <= 4 + 2 * (len(keys) - 1).bit_length()


@pytest.mark.parametrize("query,use_index", [('split = "train"', True),
                                             ("w >= 0", False)])
def test_a_read_after_a_few_puts_sorts_only_them(tmp_path, query, use_index):
    n, k = 8000, 16
    rng = random.Random(5)
    keys = [f"d{rng.randrange(10**9):09d}" for _ in range(n + k)]
    with _counted_store(tmp_path / "s", keys[:n], split="train") as s:
        s.scan(parse(query), limit=1, use_index=use_index)  # settles the index too
        for key in keys[n:]:
            s.put(Document(key=_CountedKey(key), payload=b"", tags={"split": "train", "w": 1}))
        _CountedKey.touches = 0
        got, _ = s.scan(parse(query), limit=1, use_index=use_index)
        assert got == [min(keys)]
        # sorting the k arrivals, bisecting both levels at the cursor and
        # sorting one chunk of the walk; not the n settled keys
        assert k * 8 < n // _RUN_RATIO
        assert _CountedKey.touches <= 4 * k * k.bit_length() + 2 * _CHUNK + 4 * n.bit_length()


@pytest.mark.parametrize("indexed", [False, True], ids=["linear", "indexed"])
def test_a_float_subclass_tag_is_a_float(tmp_path, indexed):
    """A document put in-process with an ``np.float64`` tag is found by a
    float range, with and without an index on the tag, and after a reopen."""
    path = tmp_path / "s"
    with make_store(path) as s:
        if indexed:
            s.create_index("w")
        for key, w in (("a", np.float64(0.25)), ("b", np.float64(0.75)), ("c", 0), ("d", 0.125)):
            s.put(Document(key=key, payload=b"", tags={"w": w}))
        for use_index in (True, False):
            assert s.scan(parse("w < 0.5"), use_index=use_index) == (["a", "d"], None)
    with Store(path, clock=FakeClock(), fsync=False) as s:
        assert s.scan(parse("w < 0.5")) == (["a", "d"], None)


# -- property test against a brute-force oracle -------------------------------------

QUERIES = [
    "", "n = 1", "n > 0", "n IN {1, 2}", 'n = "one"', "n != 1", 'c = "a"',
    'c < "b" AND n >= 1', "n = 2 AND m = 3", "f <= 1.5", "n = true",
    # the predicate an index chose comes with others, on its tag or another
    "n > 0 AND n < 2", "n IN {1, 2} AND f <= 1.5", 'c = "a" AND n != 1',
    "f > 0.5 AND f <= 2.5", "f > 0.5 AND f < 2.5",
]
TAG_VALUES = {"n": [0, 1, 2, "one", 1.5, True], "c": ["a", "b", 1], "m": [3, "x"],
              "f": [0.5, 1.5, 2.5, 1]}


class _Model:
    """What the store must show: visible user docs, staged groups and the
    visible system keys."""

    def __init__(self):
        self.visible: dict[str, dict] = {}
        self.staged: dict[str, dict[str, dict]] = {}
        self.system: set[str] = set()
        self.used: set[str] = set()

    def scan(self, query_text):
        preds = [(p.tag, p.op, p.values if p.op == "IN" else p.value)
                 for p in parse(query_text).predicates]
        return brute_force_scan(self.visible, preds)

    def with_prefix(self, prefix):
        return sorted(k for k in set(self.visible) | self.system if k.startswith(prefix))


def _tags(rng):
    return {tag: rng.choice(values) for tag, values in TAG_VALUES.items()
            if rng.random() < 0.7}


def _key(rng, model):
    while True:
        key = f"k{rng.randrange(400):03d}"
        if key not in model.used:
            model.used.add(key)
            return key


@given(st.integers(0, 2**32), st.sampled_from([(), ("n",), ("n", "c"), ("c", "f")]))
@settings(max_examples=60, deadline=None)
def test_paged_scans_match_the_oracle_under_interleaved_writes(tmp_path_factory, seed,
                                                               indexes):
    """Paged scans concatenate to the oracle's scan at their snapshot. Puts
    the write rule refuses raise and take no seq, and a whole scan at every
    snapshot taken so far shows what ``VersionChain``, every version ever
    written, shows there. A group commits again, and stages new keys after
    its commit, which wait for its next commit."""
    rng = random.Random(seed)
    model = _Model()
    chain = VersionChain()
    committed = set()  # groups committed at least once
    walks = []  # [query, limit, snapshot, cursor, pages so far, expected]
    path = tmp_path_factory.mktemp("reads") / "s"
    with make_store(path) as s:
        for name in indexes:
            s.create_index(name)
        for step in range(rng.randrange(20, 120)):
            action = rng.random()
            if action < 0.35:
                key, tags = _key(rng, model), _tags(rng)
                s.put(Document(key=key, payload=b"", tags=tags))
                model.visible[key] = tags
                chain.put(key)
            elif action < 0.45:
                group = f"g{step}"
                docs = {_key(rng, model): _tags(rng) for _ in range(rng.randrange(1, 4))}
                s.apply_ops([PutOp(Document(key=k, payload=b"", tags=t), group=group)
                             for k, t in docs.items()])
                model.staged[group] = docs
                for k in docs:
                    chain.put(k, group)
            elif action < 0.5 and model.staged:
                group = rng.choice(sorted(model.staged))
                s.apply_ops([CommitGroupOp(group)])
                model.visible.update(model.staged.pop(group))
                chain.commit(group)
                committed.add(group)
            elif action < 0.54 and any(model.staged.values()):
                # a rerun stages a key again under its own group, often the same doc
                old = rng.choice(sorted(g for g, docs in model.staged.items() if docs))
                key = rng.choice(sorted(model.staged[old]))
                tags = model.staged[old].pop(key)
                if rng.random() < 0.5:
                    tags = _tags(rng)
                s.apply_ops([PutOp(Document(key=key, payload=b"", tags=tags),
                                   group=f"g{step}")])
                model.staged[f"g{step}"] = {key: tags}
                chain.put(key, f"g{step}")
            elif action < 0.6:
                key = f"__sys/p/{rng.randrange(6)}"
                s.put_system(Document(key=key, payload=b"v"))
                model.system.add(key)
                chain.put(key)
            elif action < 0.68:
                s.compact()
            elif action < 0.76:
                query = rng.choice(QUERIES)
                expected = model.scan(query)
                full, more = s.scan(parse(query))
                assert more is None
                assert full == expected
                assert s.scan(parse(query), use_index=False) == (expected, None)
                walks.append([query, rng.randrange(1, 5), s.snapshot_seq(), None, [],
                              expected])
                for snap in sorted({walk[2] for walk in walks}):
                    assert s.scan(MATCH_ALL, ScanCursor(snap, ""))[0] == [
                        k for k in chain.visible_keys(snap) if not k.startswith("__sys/")]
            elif action < 0.82:
                prefix = rng.choice(["", "k", "k1", "k05", "__sys/", "__sys/p/3", "z"])
                assert s.keys_with_prefix(prefix) == model.with_prefix(prefix)
            elif action < 0.9 and model.visible:
                # the write rule refuses a put over a visible key, staged or
                # not, an unstaged put over a staged key, and a restage of a
                # key whose group the same batch commits
                key = rng.choice(sorted(model.visible))
                ops = [PutOp(Document(key=key, payload=b"", tags=_tags(rng)),
                             group=rng.choice([None, f"g{step}"]))]
                if rng.random() < 0.5 and any(model.staged.values()):
                    old = rng.choice(sorted(g for g, docs in model.staged.items() if docs))
                    key = rng.choice(sorted(model.staged[old]))
                    ops = rng.choice([
                        [PutOp(Document(key=key, payload=b""))],
                        [CommitGroupOp(old), PutOp(Document(key=key, payload=b""),
                                                   group=f"g{step}")]])
                with pytest.raises(DuplicateKey):
                    s.apply_ops(ops)
            elif action < 0.95 and committed:
                # a committed group commits again
                group = rng.choice(sorted(committed))
                s.apply_ops([CommitGroupOp(group)])
                model.visible.update(model.staged.pop(group, {}))
                chain.commit(group)
            elif committed:
                # a new key staged under a committed group
                group = rng.choice(sorted(committed))
                key, tags = _key(rng, model), _tags(rng)
                s.apply_ops([PutOp(Document(key=key, payload=b"", tags=tags), group=group)])
                model.staged.setdefault(group, {})[key] = tags
                chain.put(key, group)
            assert s.snapshot_seq() == chain.seq
            # advance every open walk by one page
            for walk in walks:
                query, limit, snap, cursor, pages, expected = walk
                if cursor is False:
                    continue
                page, cursor = s.scan(parse(query), cursor or ScanCursor(snap, ""),
                                      limit=limit, use_index=rng.random() < 0.5)
                assert len(page) <= limit
                pages += page
                walk[3] = False if cursor is None else cursor
        for query, limit, snap, cursor, pages, expected in walks:
            while cursor is not False:
                page, cursor = s.scan(parse(query), cursor or ScanCursor(snap, ""),
                                      limit=limit)
                pages += page
                cursor = False if cursor is None else cursor
            assert pages == expected
            for use_index in (True, False):
                assert s.scan(parse(query), ScanCursor(snap, ""),
                              use_index=use_index) == (expected, None)
        assert s.scan(MATCH_ALL)[0] == sorted(model.visible)


# -- walks across the two levels and their chunks -------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_walks_across_levels_and_chunks_match_the_oracle(tmp_path, seed):
    """Batches of puts below and above the point where the run of new keys
    merges into the main level, with staged groups, compaction and reopen;
    after each, paged scans from cursors anywhere in the key space, with
    pages that end inside a chunk and across its edges, and prefix walks."""
    rng = random.Random(seed)
    model = _Model()
    path = tmp_path / "s"
    s = make_store(path)
    levels = set()  # (run empty, run non-empty) seen by reads
    try:
        s.create_index("n")
        s.create_index("c")
        for step in range(10):
            size = len(model.visible)
            count = rng.choice([rng.randrange(1, 6),
                                rng.randrange(1, size // (2 * _RUN_RATIO) + 2),
                                rng.randrange(size // 4 + 1, size // 2 + 2)])
            if step == 0:
                count = 4 * _CHUNK
            docs = {}
            while len(docs) < count:
                key = f"k{rng.randrange(10**6):06d}"
                if key not in model.used:
                    model.used.add(key)
                    docs[key] = _tags(rng)
            group = f"g{step}" if step and rng.random() < 0.3 else None
            s.apply_ops([PutOp(Document(key=k, payload=b"", tags=t), group=group)
                         for k, t in docs.items()])
            if group is None:
                model.visible.update(docs)
            else:
                model.staged[group] = docs
            if model.staged and rng.random() < 0.5:
                group = rng.choice(sorted(model.staged))
                s.apply_ops([CommitGroupOp(group)])
                model.visible.update(model.staged.pop(group))
            action = rng.random()
            if action < 0.15:
                s.compact()
            elif action < 0.3:
                s.close()
                s = Store(path, clock=FakeClock(), fsync=False)

            keys = sorted(model.visible)
            for query in ("", "n = 1", 'c = "a"', "n IN {1, 2}", "f <= 1.5"):
                expected = model.scan(query)
                start = rng.choice(["", rng.choice(keys), rng.choice(keys[-3:]),
                                    f"k{rng.randrange(10**6):06d}"])
                limit = rng.choice([1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK])
                cursor, pages = ScanCursor(s.snapshot_seq(), start), []
                while cursor is not None:
                    page, cursor = s.scan(parse(query), cursor, limit=limit,
                                          use_index=rng.random() < 0.7)
                    assert len(page) <= limit
                    pages += page
                    assert len(pages) <= len(expected)
                assert pages == [k for k in expected if k > start]
                levels.add(bool(s._keys.run))
            for prefix in ("", "k", f"k{rng.randrange(10)}", f"k{rng.randrange(1000):03d}"):
                assert s.keys_with_prefix(prefix) == model.with_prefix(prefix)
        assert s.scan(MATCH_ALL)[0] == sorted(model.visible)
        assert levels == {False, True}
    finally:
        s.close()


_SET_KEYS = [f"k{i:05d}" for i in range(0, 12_000, 2)]  # a walk may start between them
_SET_SIZES = st.sampled_from([0, 1, 3, 16, 64, 256, 1024])


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(_SET_SIZES, st.booleans(), _SET_SIZES, st.booleans()),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_sorted_keys_read_as_a_sorted_set(seed, rounds):
    """Rounds of adds, discards (of the keys just added or of any keys) and
    walks from any start, past it or not, read as a sorted set does. Small
    and large batches come next to each other and a discard may come before
    or after a walk settles the adds, so keys leave the arrivals and both
    levels, ``run`` merges into ``main``, and walks cross its slices."""
    rng = random.Random(seed)
    keys, oracle = _SortedKeys(), set()

    def check():
        start = rng.choice(["", f"k{rng.randrange(12_000):05d}", *sorted(oracle)[-1:]])
        after = rng.random() < 0.5
        assert list(chain.from_iterable(keys.walk(start, after=after))) == sorted(
            k for k in oracle if (k > start if after else k >= start))
        assert len(keys) == len(oracle)

    for added, walk, discarded, recent in rounds:
        new = [key for key in rng.sample(_SET_KEYS, added) if key not in oracle]
        for key in new:
            keys.add(key)
            oracle.add(key)
        if walk:
            check()
        pool = new if recent else _SET_KEYS
        for key in rng.sample(pool, min(discarded, len(pool))):
            keys.discard(key)
            oracle.discard(key)
        check()
    assert list(chain.from_iterable(keys.walk(""))) == sorted(oracle)
