"""Binary codecs: documents, tag values, log record bodies, tensor container."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.clock import FakeClock
from forge.errors import CorruptStore, InvalidArgument
from forge.store import CommitGroupOp, PutOp, Store, records
from forge.store.log import replay
from forge.store.types import BlobPointer, Document, json_doc
from forge.wire.protocol import pack_documents, unpack_documents
from forge.tensorio import decode_tensors, encode_tensors

from conftest import tensor_container

_tag_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=16),
)

_tag_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=10)

_documents = st.builds(
    Document,
    key=st.text(min_size=1, max_size=20).filter(lambda k: not k.startswith("__sys/")),
    payload=st.binary(max_size=256),
    label=st.one_of(st.none(), st.text(max_size=16)),
    tags=st.dictionaries(_tag_names, _tag_values, max_size=6),
)


@given(_documents)
@settings(max_examples=500, deadline=None)
def test_document_round_trip(doc):
    assert records.decode_document(records.encode_document(doc)) == doc


def test_pointer_document_round_trip():
    ptr = BlobPointer(blob_id="ab" * 16, total_size=1000, chunk_count=4,
                      chunk_size=256, codec_id=1, checksum=bytes(range(32)))
    doc = Document(key="k", payload=ptr, label="L", tags={"a": 1})
    assert records.decode_document(records.encode_document(doc)) == doc


def test_pointer_chunk_count_invariant():
    with pytest.raises(InvalidArgument):
        BlobPointer(blob_id="x", total_size=1000, chunk_count=3, chunk_size=256,
                    codec_id=0, checksum=bytes(32))


class Records(list):
    """A ``records.decode_body`` sink that keeps each record it is handed as
    a tuple: ``("put", seq, arrived_ms, group, doc)`` (a REPLACE reads as a
    put), ``("delete", seq, key)``, ``("commit", seq, group)`` or
    ``("snapshot", next_seq)``."""

    def put(self, seq, arrived_ms, group, doc):
        self.append(("put", seq, arrived_ms, group, doc))

    def delete(self, seq, key):
        self.append(("delete", seq, key))

    def commit(self, seq, group):
        self.append(("commit", seq, group))

    def snapshot(self, next_seq):
        self.append(("snapshot", next_seq))


def log_bodies(path) -> list[bytes]:
    """Each record body of a store's log, as ``replay`` bounds it."""
    return [data[start:end] for data, start, end in replay(path)]


def decoded(body: bytes) -> Records:
    out = Records()
    records.decode_body(body, out)
    return out


@given(_documents, st.integers(min_value=0, max_value=2**40),
       st.sampled_from([records.OP_PUT, records.OP_REPLACE]))
@settings(max_examples=200, deadline=None)
def test_doc_op_round_trip(doc, seq, op):
    body = records.encode_doc_op(op, seq, 12345, "grp", doc)
    assert decoded(body) == [("put", seq, 12345, "grp", doc)]


def delete_body(seq: int, key: str) -> bytes:
    """A DELETE record body as older stores wrote it; nothing writes one now,
    but logs that hold one still replay."""
    raw = key.encode()
    return struct.pack("<BQH", records.OP_DELETE, seq, len(raw)) + raw


def test_batch_round_trip():
    doc = Document(key="k", payload=b"x", tags={})
    bodies = [
        records.encode_doc_op(records.OP_PUT, 1, 0, None, doc),
        delete_body(2, "k"),
        records.encode_commit_group(3, "g"),
    ]
    assert decoded(records.encode_batch(bodies)) == [
        ("put", 1, 0, None, doc), ("delete", 2, "k"), ("commit", 3, "g")]



# --- the byte format, pinned ----------------------------------------------------
#
# Hex written by the codec before its one-pass rewrite, field by field.

INLINE = Document(key="sample/0001", payload=b"\x00\x01hello", label="cat",
                  tags={"name": "ünï", "n": -7, "w": 0.25, "ok": True})
INLINE_HEX = (
    "0b00 73616d706c652f30303031"  # key "sample/0001"
    "00 07000000 000168656c6c6f"  # inline payload, 7 bytes
    "01 03000000 636174"  # label "cat"
    "0400"  # four tags, in name order:
    "0100 6e 01 f9ffffffffffffff"  # n = -7
    "0400 6e616d65 00 05000000 c3bc6ec3af"  # name = "ünï"
    "0200 6f6b 03 01"  # ok = true
    "0100 77 02 000000000000d03f"  # w = 0.25
)
POINTER = Document(key="blob/1", payload=BlobPointer(
    blob_id="ab" * 16, total_size=1000, chunk_count=4, chunk_size=256, codec_id=1,
    checksum=bytes(range(32))), tags={"split": "train"})
POINTER_HEX = (
    "0600 626c6f622f31"  # key "blob/1"
    "01 2000" + "6162" * 16 +  # blob pointer: blob id
    "e803000000000000 04000000 00010000 01"  # total 1000, 4 chunks of 256, zlib
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"  # sha-256
    "00"  # no label
    "0100 0500 73706c6974 00 05000000 747261696e"  # split = "train"
)
PUT_GROUP_HEX = "01 0700000000000000 7b68e5cf8b010000 01 0600 7461736b2d31" + INLINE_HEX
PUT_HEAD_HEX = "01 0800000000000000 7c68e5cf8b010000 00"  # seq 8, no group
PUT_HEX = PUT_HEAD_HEX + POINTER_HEX
REPLACE_HEX = "02 0900000000000000 0500000000000000 00" + INLINE_HEX
DELETE_HEX = "03 0a00000000000000 0b00 73616d706c652f30303031"
COMMIT_HEX = "04 0b00000000000000 0600 7461736b2d31"
SNAPSHOT_HEX = "06 2a00000000000000"
BATCH_HEX = ("05 0300 6b000000" + PUT_GROUP_HEX + "16000000" + DELETE_HEX
             + "11000000" + COMMIT_HEX)

PUT_GROUP_OP = ("put", 7, 1700000000123, "task-1", INLINE)
DELETE_OP = ("delete", 10, "sample/0001")
COMMIT_OP = ("commit", 11, "task-1")
GOLDEN_BODIES = [  # (encoding, hex, decoded records as ``Records`` tuples)
    (records.encode_doc_op(records.OP_PUT, 7, 1700000000123, "task-1", INLINE),
     PUT_GROUP_HEX, [PUT_GROUP_OP]),
    (records.encode_doc_op(records.OP_PUT, 8, 1700000000124, None, POINTER),
     PUT_HEX, [("put", 8, 1700000000124, None, POINTER)]),
    (records.encode_doc_op(records.OP_REPLACE, 9, 5, None, INLINE),
     REPLACE_HEX, [("put", 9, 5, None, INLINE)]),  # read only, as a put
    (delete_body(10, "sample/0001"), DELETE_HEX, [DELETE_OP]),  # decoded, never written
    (records.encode_commit_group(11, "task-1"), COMMIT_HEX, [COMMIT_OP]),
    (records.encode_snapshot_marker(42), SNAPSHOT_HEX, [("snapshot", 42)]),
    (records.encode_batch([bytes.fromhex(PUT_GROUP_HEX), bytes.fromhex(DELETE_HEX),
                           bytes.fromhex(COMMIT_HEX)]),
     BATCH_HEX, [PUT_GROUP_OP, DELETE_OP, COMMIT_OP]),
]


@pytest.mark.parametrize("doc,hex_", [(INLINE, INLINE_HEX), (POINTER, POINTER_HEX)],
                         ids=["inline", "pointer"])
def test_golden_document_encoding(doc, hex_):
    raw = bytes.fromhex(hex_)
    assert records.encode_document(doc) == raw
    assert records.decode_document(raw) == doc
    assert records.decode_document_at(b"xy" + raw + b"tail", 2) == (doc, 2 + len(raw))


@pytest.mark.parametrize("encoded,hex_,ops", GOLDEN_BODIES,
                         ids=["put_group", "put", "replace", "delete", "commit_group",
                              "snapshot", "batch"])
def test_golden_body_encoding(encoded, hex_, ops):
    assert encoded == bytes.fromhex(hex_)
    assert decoded(encoded) == ops


# --- a completion's frame: one batch against the per-op reference ---------------

GROUP = "t#0.1"
# equal in Python, each its own bytes: 1, True and 1.0; -0.0 and 0.0
MIXED_TAGS = [{"dataset": "out", "c": v} for v in (1, True, 1.0, -0.0, 0.0, "1")]


def _strict(doc: Document) -> tuple:
    """A document as values that tell 1, True and 1.0, and -0.0 and 0.0, apart."""
    return (doc.key, doc.payload, doc.label,
            sorted((name, type(v).__name__, repr(v)) for name, v in doc.tags.items()))


def _outputs(n: int, mixed: bool) -> list[Document]:
    return [Document(key=f"t/{i:06d}", payload=bytes([i % 256]) * 16,
                     label=None if i % 2 else f"label {i}",
                     tags=dict(MIXED_TAGS[i % len(MIXED_TAGS)] if mixed else {"dataset": "out"}))
            for i in range(n)]


@pytest.mark.parametrize("n,mixed", [(1, False), (256, False), (12, True)],
                         ids=["one", "shared-map", "mixed-values"])
def test_golden_completion_frame(tmp_path, n, mixed):
    """The frame a completion writes (its staged outputs under one group,
    the task record, the commit) is byte for byte the per-op reference:
    ``encode_doc_op`` per put, then ``encode_batch``; and it decodes back to
    the same documents."""
    outputs = _outputs(n, mixed)
    task = json_doc("__sys/task/t", {"task_id": "t", "status": "completed"})
    clock = FakeClock()
    with Store(tmp_path / "s", create=True, clock=clock, fsync=False) as s:
        s.put(Document(key="before", payload=b"x", tags={"dataset": "in"}))
        seq = s.snapshot_seq() + 1
        s.apply_ops([PutOp(*outputs, group=GROUP), PutOp(task), CommitGroupOp(GROUP)])
    now = clock.now_ms()
    reference = records.encode_batch(
        [records.encode_doc_op(records.OP_PUT, seq + i, now, GROUP, doc)
         for i, doc in enumerate(outputs)]
        + [records.encode_doc_op(records.OP_PUT, seq + n, now, None, task),
           records.encode_commit_group(seq + n + 1, GROUP)])
    single, body = log_bodies(tmp_path / "s")
    assert single == records.encode_doc_op(
        records.OP_PUT, 1, now, None, Document(key="before", payload=b"x", tags={"dataset": "in"}))
    assert body == reference
    recs = decoded(body)
    assert [_strict(rec[4]) for rec in recs[:n]] == [_strict(doc) for doc in outputs]
    assert [rec[:2] + rec[3:4] if rec[0] == "put" else rec for rec in recs] == (
        [("put", seq + i, GROUP) for i in range(n)]
        + [("put", seq + n, None), ("commit", seq + n + 1, GROUP)])


@pytest.mark.parametrize("mixed", [False, True], ids=["shared-map", "mixed-values"])
def test_a_docs_tail_matches_its_documents_one_by_one(mixed):
    """A ``docs`` tail is each document's own encoding behind its length,
    and it decodes to the same documents, each with its own tags dict."""
    outputs = _outputs(48, mixed)
    if mixed:  # NaNs whose sign bits differ: unequal, and no tag map the store takes
        nan = struct.unpack("<d", bytes.fromhex("000000000000f87f"))[0]
        neg_nan = struct.unpack("<d", bytes.fromhex("000000000000f8ff"))[0]
        outputs += [Document(key=f"n/{i}", payload=b"", tags={"c": v})
                    for i, v in enumerate([nan, neg_nan, nan, neg_nan])]
    tail = pack_documents(outputs)
    assert tail == b"".join(struct.pack("<I", len(raw)) + raw
                            for raw in map(records.encode_document, outputs))
    docs = unpack_documents(tail)
    assert [_strict(doc) for doc in docs] == [_strict(doc) for doc in outputs]
    assert len({id(doc.tags) for doc in docs}) == len(docs)


# --- truncated and malformed input ------------------------------------------------

@st.composite
def _pointers(draw):
    chunk_size = draw(st.integers(min_value=4 * 1024, max_value=4 * 1024 * 1024))
    total_size = draw(st.integers(min_value=1, max_value=2**40))
    return BlobPointer(blob_id=draw(st.text(max_size=40)), total_size=total_size,
                       chunk_count=-(-total_size // chunk_size), chunk_size=chunk_size,
                       codec_id=draw(st.sampled_from([0, 1])),
                       checksum=draw(st.binary(min_size=32, max_size=32)))


_any_documents = st.one_of(
    _documents,
    st.builds(Document, key=st.text(min_size=1, max_size=20), payload=_pointers(),
              label=st.one_of(st.none(), st.text(max_size=16)),
              tags=st.dictionaries(_tag_names, _tag_values, max_size=3)))

_simple_bodies = st.one_of(
    st.builds(records.encode_doc_op, st.sampled_from([records.OP_PUT, records.OP_REPLACE]),
              st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
              st.one_of(st.none(), st.text(max_size=12)), _any_documents),
    st.builds(delete_body, st.integers(0, 2**64 - 1), st.text(min_size=1)),
    st.builds(records.encode_commit_group, st.integers(0, 2**64 - 1), st.text(min_size=1)),
    st.builds(records.encode_snapshot_marker, st.integers(0, 2**64 - 1)),
)
_bodies = st.one_of(_simple_bodies,
                    st.lists(_simple_bodies, max_size=3).map(records.encode_batch))


@given(_any_documents)
@settings(max_examples=200, deadline=None)
def test_every_proper_prefix_of_a_document_is_corrupt(doc):
    raw = records.encode_document(doc)
    for cut in range(len(raw)):
        with pytest.raises(CorruptStore):
            records.decode_document_at(raw[:cut], 0)
        with pytest.raises(CorruptStore):
            records.decode_document(raw[:cut])


@given(_bodies)
@settings(max_examples=200, deadline=None)
def test_every_proper_prefix_of_a_body_is_corrupt(body):
    """Each cut raises, and only records read whole before the cut were
    handed on: a prefix of the body's records, short of the last."""
    whole = decoded(body)
    for cut in range(len(body)):
        out = Records()
        with pytest.raises(CorruptStore):
            records.decode_body(body[:cut], out)
        assert out == whole[:len(out)]
        assert not whole or len(out) < len(whole)


@given(_bodies, st.binary(max_size=24), st.binary(max_size=24), st.data())
@settings(max_examples=200, deadline=None)
def test_a_body_is_decoded_at_its_bounds(body, before, after, data):
    """A body embedded between other bytes decodes by its bounds alone: whole,
    to its records; cut short, to CorruptStore, though the bytes past the cut
    are the rest of the body and would complete it."""
    buf = before + body + after
    start = len(before)
    whole = Records()
    records.decode_body(buf, whole, start, start + len(body))
    assert whole == decoded(body)
    cut = data.draw(st.integers(0, len(body) - 1), label="cut")
    out = Records()
    with pytest.raises(CorruptStore):
        records.decode_body(buf, out, start, start + cut)
    assert out == whole[:len(out)]
    assert not whole or len(out) < len(whole)


def _replace(hex_: str, old: str, new: str) -> bytes:
    assert hex_.count(old) == 1
    return bytes.fromhex(hex_.replace(old, new))


@pytest.mark.parametrize("raw", [
    _replace(INLINE_HEX, "0b00 73616d706c652f30303031", "0b00 73616d706c652fff303031"),
    _replace(INLINE_HEX, "6e616d65 00 05000000 c3bc", "6e616d65 00 05000000 bcc3"),
    _replace(POINTER_HEX, "04000000 00010000", "04000000 00000000"),  # chunk_size 0
    _replace(POINTER_HEX, "04000000 00010000", "05000000 00010000"),  # wrong chunk count
    _replace(POINTER_HEX, "00010000 01", "00010000 07"),  # unknown codec
    _replace(INLINE_HEX, "0200 6f6b 03 01", "0200 6f6b 04 01"),  # unknown tag variant
], ids=["utf8_key", "utf8_tag", "zero_chunk_size", "chunk_count", "codec", "variant"])
def test_malformed_document_is_corrupt(raw):
    with pytest.raises(CorruptStore):
        records.decode_document(raw)
    with pytest.raises(CorruptStore):
        decoded(bytes.fromhex(PUT_HEAD_HEX) + raw)


def test_document_with_bytes_left_over_is_corrupt():
    with pytest.raises(CorruptStore, match="1 bytes after"):
        records.decode_document(bytes.fromhex(INLINE_HEX) + b"\x00")


@pytest.mark.parametrize("raw", [
    b"",
    b"\x09" + bytes(16),  # unknown op
    _replace(DELETE_HEX, "2f30303031", "2f303030ff"),  # key not UTF-8
    # a sub-body that runs past the length its batch slot declares
    _replace(BATCH_HEX, "16000000", "15000000"),
    # an empty sub-body, whose op byte would be the next slot's length
    bytes.fromhex("05 0200 00000000 11000000" + COMMIT_HEX),
], ids=["empty", "op", "utf8", "sub_body_overrun", "empty_sub_body"])
def test_malformed_body_is_corrupt(raw):
    with pytest.raises(CorruptStore):
        decoded(raw)
    # decoded by its bounds with a well-formed body after it
    buf = b"\x07" + raw + bytes.fromhex(COMMIT_HEX)
    with pytest.raises(CorruptStore):
        records.decode_body(buf, Records(), 1, 1 + len(raw))


# --- tensor container ----------------------------------------------------------

@st.composite
def _named_tensors(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    out = {}
    for i in range(n):
        rank = draw(st.integers(min_value=0, max_value=3))
        dims = tuple(draw(st.integers(min_value=1, max_value=5)) for _ in range(rank))
        seed = draw(st.integers(min_value=0, max_value=2**31))
        arr = np.random.default_rng(seed).normal(size=dims).astype(np.float32)
        out[f"t{i}"] = arr
    return out


@given(_named_tensors())
@settings(max_examples=300, deadline=None)
def test_tensor_container_bitexact_round_trip(tensors):
    decoded = decode_tensors(encode_tensors(tensors))
    assert set(decoded) == set(tensors)
    for name in tensors:
        assert decoded[name].dtype == np.float32
        assert decoded[name].shape == tensors[name].shape
        assert decoded[name].tobytes() == tensors[name].tobytes()


def test_tensor_container_is_deterministic():
    tensors = {"b": np.ones((2, 3), np.float32), "a": np.zeros(4, np.float32)}
    assert encode_tensors(tensors) == encode_tensors(dict(reversed(tensors.items())))


def test_tensor_container_layout():
    buf = encode_tensors({"w": np.array([[1.0, 2.0]], np.float32)})
    assert buf[:4] == b"FGTS"
    assert buf[4] == 1  # format version
    assert int.from_bytes(buf[5:9], "little") == 1  # tensor count
    assert int.from_bytes(buf[9:11], "little") == 1  # name length
    assert buf[11:12] == b"w"
    assert buf[12] == 0  # dtype f32
    assert buf[13] == 2  # rank
    dims = [int.from_bytes(buf[14 + 4 * i:18 + 4 * i], "little") for i in range(2)]
    assert dims == [1, 2]
    assert buf[22:] == np.array([1.0, 2.0], "<f4").tobytes()


def test_tensor_container_rejects_f64():
    with pytest.raises(InvalidArgument):
        encode_tensors({"x": np.zeros(2, np.float64)})


@given(_named_tensors())
@settings(max_examples=200, deadline=None)
def test_encoder_output_is_its_own_canonical_form(tensors):
    """Encoder output decodes to a container whose encoding is those same
    bytes, and so is the encoding of the arrays it decodes to."""
    raw = encode_tensors(tensors)
    container = decode_tensors(raw)
    assert encode_tensors(container) is container.raw == raw
    assert container.shapes == {name: arr.shape for name, arr in sorted(tensors.items())}
    assert encode_tensors(dict(container)) == raw


def test_a_container_whose_arrays_were_read_is_encoded_from_them():
    """Its arrays are the reader's to write to, so once one is read the
    container's encoding is that of its arrays, not its ``raw``."""
    raw = encode_tensors({"a": np.zeros(2, np.float32), "b": np.ones(3, np.float32)})
    container = decode_tensors(raw)
    container["a"]
    assert encode_tensors(container) == raw
    container["a"][:] += 1.0
    assert encode_tensors(container) == encode_tensors(
        {"a": np.ones(2, np.float32), "b": np.ones(3, np.float32)})
    assert container.raw == raw


def test_a_hand_built_container_is_the_encoding_of_its_arrays():
    raw = tensor_container([("a", (2,)), ("b", (1, 3)), ("c", ())])
    assert raw == encode_tensors({"a": np.arange(2, dtype=np.float32),
                                  "b": np.arange(3, dtype=np.float32).reshape(1, 3),
                                  "c": np.zeros((), np.float32)})


NON_CANONICAL = {
    "trailing bytes": tensor_container([("a", (2,))], trailing=b"junk"),
    "a repeated name": tensor_container([("a", (2,)), ("a", (2,)), ("b", (1,))]),
    "names out of order": tensor_container([("z", (1,)), ("a", (2,))]),
}


@pytest.mark.parametrize("raw", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
def test_a_non_canonical_container_is_refused(raw):
    with pytest.raises(CorruptStore):
        decode_tensors(raw)


@pytest.mark.parametrize("cut", [1, 4, 9, 12, 20])
def test_a_truncated_container_is_refused(cut):
    raw = tensor_container([("a", (2, 2)), ("b", (3,))])
    with pytest.raises(CorruptStore):
        decode_tensors(raw[:-cut])


@pytest.mark.parametrize("at,value", [(0, b"X"), (4, b"\x02"), (13, b"\x01")])
def test_a_container_with_a_bad_magic_version_or_dtype_is_refused(at, value):
    raw = bytearray(tensor_container([("ab", (2,))]))  # the dtype byte is at 13
    raw[at:at + 1] = value
    with pytest.raises(CorruptStore):
        decode_tensors(bytes(raw))
