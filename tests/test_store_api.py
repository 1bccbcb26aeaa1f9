"""Store operation surface exercised through both transports (the `api`
fixture runs every test here against the local engine and the TCP client)."""

import random

import pytest
from conftest import make_engine, over_transport_of, write_raw_blob

from forge.clock import FakeClock
from forge.engine import Forge
from forge.errors import (
    ChecksumMismatch,
    DuplicateKey,
    InvalidArgument,
    NotFound,
    PayloadTooLarge,
)
from forge.store import CODEC_NONE, Document
from forge.store.types import BlobPointer


def doc(key, payload=b"x", label=None, **tags):
    return Document(key=key, payload=payload, label=label, tags=tags)


class TestDocuments:
    def test_put_then_get_identical(self, api):
        original = doc("s1", b"\x00\x01\x02", label="lbl", split="train", step=3)
        assert api.put_document(original) == "s1"
        assert api.get_document("s1") == original

    def test_duplicate_key(self, api):
        api.put_document(doc("dup"))
        with pytest.raises(DuplicateKey):
            api.put_document(doc("dup"))

    def test_not_found(self, api):
        with pytest.raises(NotFound):
            api.get_document("missing")

    def test_payload_too_large_for_inline(self, api):
        with pytest.raises(PayloadTooLarge):
            api.put_document(doc("big", b"x" * (16 * 1024 + 1)))

    def test_blob_document_two_layer_contract(self, api):
        data = b"v" * 100_000
        ptr = api.put_blob(data)
        api.put_document(Document(key="vid", payload=ptr, tags={"kind": "video"}))
        got = api.get_document("vid")
        assert isinstance(got.payload, BlobPointer)
        assert api.get_blob(got.payload) == data


class TestScan:
    def test_empty_query_returns_everything(self, api):
        for k in ("a", "b", "c"):
            api.put_document(doc(k))
        keys, cursor = api.scan("")
        assert keys == ["a", "b", "c"]
        assert cursor is None

    def test_equality_filter(self, api):
        for i in range(10):
            api.put_document(doc(f"d{i}", split="train" if i % 2 else "test"))
        keys, _ = api.scan('split = "train"')
        assert keys == [f"d{i}" for i in range(10) if i % 2]

    def test_range_conjunction(self, api):
        for i in range(100):
            api.put_document(doc(f"d{i:03d}", step=i))
        keys, _ = api.scan("step >= 10 AND step < 20")
        assert keys == [f"d{i:03d}" for i in range(10, 20)]

    def test_paged_scan_through_cursor(self, api):
        for i in range(25):
            api.put_document(doc(f"d{i:03d}"))
        collected, cursor = [], None
        while True:
            page, cursor = api.scan("", cursor, limit=8)
            collected.extend(page)
            if cursor is None:
                break
        assert collected == [f"d{i:03d}" for i in range(25)]

    def test_index_and_linear_agree(self, api):
        api.create_index("split")
        for i in range(50):
            api.put_document(doc(f"d{i:03d}", split="train" if i < 30 else "test"))
        with_index, _ = api.scan('split = "train"', use_index=True)
        without, _ = api.scan('split = "train"', use_index=False)
        assert with_index == without == [f"d{i:03d}" for i in range(30)]

    def test_create_index_visible_in_info(self, api):
        api.create_index("split")
        assert "split" in api.list_indexes()

    @pytest.mark.parametrize("name", ["a b", "x\n", "", "é"])
    def test_an_index_name_no_tag_can_carry_is_refused(self, api, engine, name):
        """The name rule of a tag map: refused before the MANIFEST is written."""
        api.create_index("split")
        manifest = engine.store.path / "MANIFEST"
        before = manifest.read_bytes()
        with pytest.raises(InvalidArgument) as refused:
            api.create_index(name)
        assert refused.value.code == "invalid_argument"
        assert api.list_indexes() == ["split"]
        assert manifest.read_bytes() == before


class TestBlobs:
    def test_a_blob_put_just_before_compaction_survives_it(self, api, engine):
        """A blob uploaded and not yet referenced outlives a compaction, so
        the put that references it still finds its bytes."""
        data = random.Random(5).randbytes(5000)
        ptr = api.put_blob(data)
        engine.compact()
        api.put_document(Document(key="late", payload=ptr))
        assert api.get_blob(api.get_document("late").payload) == data

    def test_round_trip(self, api):
        data = random.Random(3).randbytes(1_000_000)
        ptr = api.put_blob(data)
        assert ptr.chunk_count == 4
        assert api.get_blob(ptr) == data

    def test_single_byte(self, api):
        ptr = api.put_blob(b"q")
        assert (ptr.total_size, ptr.chunk_count) == (1, 1)
        assert api.get_blob(ptr) == b"q"

    def test_unknown_blob(self, api):
        ghost = BlobPointer(blob_id="0" * 32, total_size=5, chunk_count=1,
                            chunk_size=4096, codec_id=1, checksum=bytes(32))
        with pytest.raises((NotFound, ChecksumMismatch)):
            api.get_blob(ghost)

    def test_a_raw_blob_an_older_store_wrote_still_reads(self, api, tmp_path):
        """Chunk files of a CODEC_NONE blob with 4 KiB chunks, written by
        hand into a closed store, and a document that points to them read
        back in full."""
        data = random.Random(4).randbytes(10_000)
        path = tmp_path / "old"
        make_engine(path).close()
        ptr = write_raw_blob(path / "blobs", data)
        assert (ptr.codec_id, ptr.chunk_size, ptr.chunk_count) == (CODEC_NONE, 4096, 3)
        with Forge(path, clock=FakeClock(), fsync=False) as old, \
                over_transport_of(api, old) as again:
            again.put_document(doc("old", ptr))
            assert again.get_blob(again.get_document("old").payload) == data

    def test_identical_content_dedupes(self, api):
        a = api.put_blob(b"same" * 1000)
        b = api.put_blob(b"same" * 1000)
        assert a == b
