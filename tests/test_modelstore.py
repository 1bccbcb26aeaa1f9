"""Model registry, versioned states, cache behavior, and the event log."""

import numpy as np
import pytest

from forge.clock import FakeClock
from forge.engine import Forge
from forge.errors import (
    DuplicateKey,
    InvalidArgument,
    InvalidSpec,
    ModelNotFound,
    ShapeMismatch,
    VersionNotFound,
)
from forge.models import VERSION_PREFIX
from forge.store import BlobPointer, Document, PutOp
from forge.tensorio import encode_tensors

from conftest import log_bytes, over_transport_of, stored_chunks

MLP = {
    "input_dims": [3],
    "layers": [
        {"name": "h", "kind": "dense", "out_units": 4},
        {"name": "act", "kind": "tanh"},
        {"name": "out", "kind": "dense", "out_units": 2},
    ],
}


def tensors_for(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "h.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "h.bias": rng.normal(size=4).astype(np.float32),
        "out.weight": rng.normal(size=(4, 2)).astype(np.float32),
        "out.bias": rng.normal(size=2).astype(np.float32),
    }


class TestRegistry:
    def test_register_and_read_back(self, api):
        record = api.register_model("mlp", MLP)
        got = api.get_model("mlp")
        assert got.spec == record.spec
        assert got.spec["layers"][0]["out_units"] == 4

    def test_duplicate_key(self, api):
        api.register_model("mlp", MLP)
        with pytest.raises(DuplicateKey):
            api.register_model("mlp", MLP)

    def test_dangling_parameter_share_rejected(self, api):
        bad = {
            "input_dims": [3],
            "layers": [
                {"name": "a", "kind": "dense", "out_units": 4, "param_key": "shared"},
                {"name": "b", "kind": "dense", "out_units": 5, "param_key": "shared"},
            ],
        }
        # same share key, different inferred shapes
        with pytest.raises(InvalidSpec):
            api.register_model("bad", bad)

    def test_unknown_model(self, api):
        with pytest.raises(ModelNotFound):
            api.get_model("ghost")


class TestVersions:
    def test_save_load_bit_identical(self, api):
        api.register_model("mlp", MLP)
        tensors = tensors_for(1)
        api.save_state("mlp", 10, tensors)
        loaded = api.load_state("mlp", "latest")
        for name in tensors:
            assert loaded[name].tobytes() == tensors[name].tobytes()

    def test_wrong_shape_rejected(self, api):
        api.register_model("mlp", MLP)
        bad = tensors_for()
        bad["h.weight"] = np.zeros((3, 5), np.float32)
        with pytest.raises(ShapeMismatch):
            api.save_state("mlp", 0, bad)

    def test_a_step_past_twelve_digits_is_refused(self, api):
        api.register_model("mlp", MLP)
        api.save_state("mlp", 10**12 - 1, tensors_for())
        for step in (-1, 10**12):
            with pytest.raises(InvalidArgument):
                api.save_state("mlp", step, tensors_for())

    def test_missing_tensor_rejected(self, api):
        api.register_model("mlp", MLP)
        bad = tensors_for()
        del bad["out.bias"]
        with pytest.raises(ShapeMismatch):
            api.save_state("mlp", 0, bad)

    def test_versions_ordered_latest_last(self, api):
        api.register_model("mlp", MLP)
        v10 = api.save_state("mlp", 10, tensors_for(1))
        v20 = api.save_state("mlp", 20, tensors_for(2))
        versions = api.list_versions("mlp")
        assert [v.version_id for v in versions] == [v10.version_id, v20.version_id]
        assert api.get_version("mlp", "latest").version_id == v20.version_id

    def test_version_id_scheme(self, api):
        api.register_model("mlp", MLP)
        version = api.save_state("mlp", 7, tensors_for())
        step, digest = version.version_id.split("-")
        assert step == "s7"
        assert len(digest) == 8
        int(digest, 16)

    def test_save_is_idempotent_for_identical_content(self, api):
        api.register_model("mlp", MLP)
        a = api.save_state("mlp", 3, tensors_for(9))
        b = api.save_state("mlp", 3, tensors_for(9))
        assert a.version_id == b.version_id
        assert len(api.list_versions("mlp")) == 1

    def test_metrics_and_parent_round_trip(self, api):
        api.register_model("mlp", MLP)
        a = api.save_state("mlp", 1, tensors_for(1))
        b = api.save_state("mlp", 2, tensors_for(2), metrics={"acc": 0.75},
                           parent_version=a.version_id)
        got = api.get_version("mlp", b.version_id)
        assert got.metrics == {"acc": 0.75}
        assert got.parent_version == a.version_id

    def test_latest_is_the_later_save_at_the_top_step(self, api):
        """Of two versions at the highest step, ``latest`` is the one saved
        later, whichever digest sorts first; a lower step saved after them
        does not change it."""
        for model, seeds in (("a", (1, 2)), ("b", (2, 1))):
            api.register_model(model, MLP)
            api.save_state(model, 3, tensors_for(7))
            saved = [api.save_state(model, 5, tensors_for(seed)) for seed in seeds]
            api.save_state(model, 4, tensors_for(8))
            assert api.get_version(model, "latest").version_id == saved[1].version_id
            assert api.get_version(model).version_id == api.list_versions(model)[-1].version_id
            assert api.get_version(model, saved[0].version_id) == saved[0]

    def test_an_unknown_or_malformed_version_id_is_not_found(self, api):
        api.register_model("mlp", MLP)
        version = api.save_state("mlp", 1, tensors_for(1))
        digest = version.version_id.split("-")[1]
        for selector in ("x", "s", "s1", "s1-", f"s01-{digest}", f"s1-{digest}0",
                         f"s1-{digest.upper()}", f"s2-{digest}", "s1-00000000", "v999"):
            with pytest.raises(VersionNotFound):
                api.get_version("mlp", selector)
        with pytest.raises(ModelNotFound):
            api.get_version("ghost", version.version_id)
        with pytest.raises(ModelNotFound):
            api.get_version("ghost")

    def test_get_version_reads_one_version(self, api, engine, monkeypatch):
        """``get_version`` makes as many ``store.get`` calls at 200 versions
        as at 2, by id and for ``latest``."""
        api.register_model("mlp", MLP)
        calls = []
        real_get = engine.store.get

        def counting_get(key):
            calls.append(key)
            return real_get(key)

        def gets(selector):
            calls.clear()
            version = api.get_version("mlp", selector)
            return version.version_id, len(calls)

        counts = []
        for size in (2, 200):
            saved = [api.save_state("mlp", step, tensors_for(0))
                     for step in range(len(counts) and 2, size)]
            with monkeypatch.context() as patched:
                patched.setattr(engine.store, "get", counting_get)
                first, by_id = gets(saved[0].version_id)
                last, latest = gets("latest")
            assert (first, last) == (saved[0].version_id, saved[-1].version_id)
            counts.append((by_id, latest))
        assert counts[0] == counts[1] == (1, 1)

    def test_load_unknown_version(self, api):
        api.register_model("mlp", MLP)
        with pytest.raises(VersionNotFound):
            api.load_state("mlp", "v999")
        with pytest.raises(VersionNotFound):
            api.load_state("mlp", "latest")  # no versions yet

    def test_second_load_served_from_cache(self, engine):
        """Repeated loads of one version must not re-read blobs."""
        engine.register_model("mlp", MLP)
        engine.save_state("mlp", 1, tensors_for())
        engine.load_state("mlp", "latest")
        reads_after_first = engine.model_cache_stats()["blob_reads"]
        engine.load_state("mlp", "latest")
        engine.load_state("mlp", "latest")
        assert engine.model_cache_stats()["blob_reads"] == reads_after_first
        assert engine.model_cache_stats()["hits"] >= 2

    def test_cached_tensors_are_isolated_copies(self, engine):
        engine.register_model("mlp", MLP)
        engine.save_state("mlp", 1, tensors_for(4))
        first = engine.load_state("mlp")
        first["h.weight"][:] = 999.0
        again = engine.load_state("mlp")
        assert not np.array_equal(again["h.weight"], first["h.weight"])

    def test_version_state_immutable_across_saves(self, api):
        api.register_model("mlp", MLP)
        v1 = api.save_state("mlp", 1, tensors_for(1))
        api.save_state("mlp", 2, tensors_for(2))
        reloaded = api.load_state("mlp", v1.version_id)
        for name, arr in tensors_for(1).items():
            assert reloaded[name].tobytes() == arr.tobytes()


def _assert_loads(api, version_id, tensors):
    loaded = api.load_state("mlp", version_id)
    assert {name: arr.tobytes() for name, arr in loaded.items()} == \
        {name: arr.tobytes() for name, arr in tensors.items()}


class TestInlineStates:
    """A state whose encoding fits the store's ``inline_threshold`` is the
    payload of its version document; a larger one is a blob."""

    def test_the_threshold_is_inclusive(self, api, engine):
        api.register_model("mlp", MLP)
        tensors = tensors_for(1)
        size = len(encode_tensors(tensors))
        engine.store.inline_threshold = size
        inline = api.save_state("mlp", 1, tensors)
        assert inline.state is None
        assert stored_chunks(engine.store.path) == []
        engine.store.inline_threshold = size - 1
        pointed = api.save_state("mlp", 2, tensors)
        assert isinstance(pointed.state, BlobPointer)
        assert pointed.state.total_size == size
        assert len(stored_chunks(engine.store.path)) == 1
        assert [v.state for v in api.list_versions("mlp")] == [None, pointed.state]
        assert inline.version_id.split("-")[1] == pointed.version_id.split("-")[1]
        for version in (inline, pointed):
            _assert_loads(api, version.version_id, tensors)
        assert engine.model_cache_stats()["blob_reads"] == 2

    def test_an_inline_state_loads_after_compaction_and_a_reopen(self, api, engine):
        api.register_model("mlp", MLP)
        version = api.save_state("mlp", 1, tensors_for(1))
        assert version.state is None
        engine.compact()
        _assert_loads(api, version.version_id, tensors_for(1))
        assert stored_chunks(engine.store.path) == []
        path = engine.store.path
        engine.close()
        with Forge(path, clock=FakeClock(), fsync=False) as reopened, \
                over_transport_of(api, reopened) as again:
            assert [v.version_id for v in again.list_versions("mlp")] == [version.version_id]
            _assert_loads(again, version.version_id, tensors_for(1))
            assert reopened.model_cache_stats()["blob_reads"] == 1

    def test_a_resave_writes_nothing(self, api, engine):
        api.register_model("mlp", MLP)
        events = [(0, "seed", 3.0), (1, "loss", 0.25)]
        first = api.save_state("mlp", 1, tensors_for(1), events=events)
        size = log_bytes(engine.store.path)
        again = api.save_state("mlp", 1, tensors_for(1), events=events)
        assert again == first and again.state is None
        assert log_bytes(engine.store.path) == size
        assert [(e.step, e.name, e.value) for e in api.query_events("mlp")] == events

    def test_a_pointer_version_written_before_inline_states_loads(self, api, engine):
        """A version as stores wrote every one before inline states: the
        state put as a blob, then a version document whose payload is its
        pointer."""
        api.register_model("mlp", MLP)
        tensors = tensors_for(2)
        ptr = engine.put_blob(encode_tensors(tensors))
        version_id = "s3-0a1b2c3d"
        engine.store.apply_ops([PutOp(Document(
            key=f"{VERSION_PREFIX}mlp/{3:012d}/{version_id}", payload=ptr,
            label=version_id, tags={"step": 3, "at": 5}))])
        inline = api.save_state("mlp", 4, tensors_for(1))
        assert [(v.version_id, v.state) for v in api.list_versions("mlp")] == \
            [(version_id, ptr), (inline.version_id, None)]
        engine.compact()
        assert stored_chunks(engine.store.path) == [(ptr.blob_id, 0)]
        assert [v.state for v in api.list_versions("mlp")] == [ptr, None]
        _assert_loads(api, version_id, tensors)
        _assert_loads(api, inline.version_id, tensors_for(1))


class TestEvents:
    def test_record_then_query(self, api):
        api.register_model("mlp", MLP)
        api.record_event("mlp", 1, "loss", 0.5)
        events = api.query_events("mlp")
        assert len(events) == 1
        assert (events[0].name, events[0].step, events[0].value) == ("loss", 1, 0.5)

    def test_step_range_filter_matches_brute_force(self, api):
        api.register_model("mlp", MLP)
        recorded = []
        for step in range(100):
            api.record_event("mlp", step, "loss", float(step) / 100)
            recorded.append(step)
        got = api.query_events("mlp", step_range=(10, 20))
        expected = [s for s in recorded if 10 <= s < 20]
        assert [e.step for e in got] == expected

    def test_step_range_is_two_ints(self, api):
        api.register_model("mlp", MLP)
        api.record_event("mlp", 1, "loss", 0.5)
        for bad in [(1, "x"), (1,), (1, 2, 3), (1.0, 2), (True, 2)]:
            with pytest.raises(InvalidArgument, match="step_range must be"):
                api.query_events("mlp", step_range=bad)
        assert [e.step for e in api.query_events("mlp", step_range=(0, 2))] == [1]

    def test_name_filter(self, api):
        api.register_model("mlp", MLP)
        api.record_event("mlp", 1, "loss", 0.5)
        api.record_event("mlp", 1, "acc", 0.9)
        assert [e.name for e in api.query_events("mlp", name="acc")] == ["acc"]

    def test_unknown_model(self, api):
        with pytest.raises(ModelNotFound):
            api.record_event("ghost", 1, "loss", 0.0)
        with pytest.raises(ModelNotFound):
            api.query_events("ghost")

    def test_events_ordered_by_step_then_insertion(self, api):
        api.register_model("mlp", MLP)
        api.record_event("mlp", 5, "a", 1.0)
        api.record_event("mlp", 2, "b", 2.0)
        api.record_event("mlp", 5, "c", 3.0)
        assert [e.name for e in api.query_events("mlp")] == ["b", "a", "c"]

    def test_monotone_append(self, api):
        api.register_model("mlp", MLP)
        seen = 0
        for step in range(20):
            api.record_event("mlp", step, "loss", 0.1)
            now = len(api.query_events("mlp", step_range=(0, 20)))
            assert now == seen + 1
            seen = now

    def test_events_ride_a_new_version_only(self, api):
        api.register_model("mlp", MLP)
        events = [(0, "seed", 3.0), (1, "loss", 0.25)]
        first = api.save_state("mlp", 1, tensors_for(1), events=events)
        again = api.save_state("mlp", 1, tensors_for(1), events=events)
        assert again.version_id == first.version_id
        assert [(e.step, e.name, e.value) for e in api.query_events("mlp")] == events
