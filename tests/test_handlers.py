"""Built-in task handlers: the sample byte convention, targets from labels,
the train handler's checks, user functions, and replay-stable version ids."""

import numpy as np
import pytest
from conftest import make_engine

from forge.errors import InvalidArgument, InvalidSpec
from forge.handlers import (
    DEFAULT_HANDLERS,
    decode_samples,
    encode_sample,
    parse_targets,
    train_handler,
    user_fn_handler,
)
from forge.store import Document
from forge.workflow import COMPLETED, TaskContext, run_agent

TTL = 5_000
MODEL = "m"
SPEC = {"input_dims": [4], "layers": [
    {"name": "h", "kind": "dense", "out_units": 3},
    {"name": "r", "kind": "relu"},
    {"name": "out", "kind": "dense", "out_units": 2},
]}


def test_sample_round_trip():
    vec = np.arange(6, dtype=np.float64).reshape(2, 3) / 7
    raw = encode_sample(vec)
    assert raw == vec.astype("<f4").tobytes()
    [back] = decode_samples([raw], (2, 3))
    assert back.dtype == np.float32 and back.shape == (2, 3)
    assert back.tobytes() == raw


@pytest.mark.parametrize("dims", [(5,), (2, 2), (7,)])
def test_sample_with_the_wrong_float_count_is_rejected(dims):
    with pytest.raises(InvalidArgument, match="6 floats"):
        decode_samples([encode_sample(np.zeros(6))], dims)


def test_a_payload_of_no_whole_float_count_is_rejected():
    payloads = [encode_sample(np.ones(4)), b"\0" * 21]
    with pytest.raises(InvalidArgument, match="has 5.25 floats, spec expects 4"):
        decode_samples(payloads, (4,))
    assert decode_samples(payloads[:1] * 3, (2, 2)).shape == (3, 2, 2)
    assert decode_samples([], (4,)).shape == (0, 4)


def _labelled(*labels):
    return [Document(key=f"k{i}", payload=b"", label=label) for i, label in enumerate(labels)]


def test_labels_parse_into_one_target_array():
    targets = parse_targets(_labelled("0.5,-1.25,3", "1e-3,7,-0"), "mse", (3,))
    assert targets.dtype == np.float32 and targets.shape == (2, 3)
    want = np.stack([np.array([float(part) for part in label.split(",")], dtype=np.float32)
                     for label in ("0.5,-1.25,3", "1e-3,7,-0")])
    assert targets.tobytes() == want.tobytes()
    classes = parse_targets(_labelled("3", "0"), "softmax-xent", (4,))
    assert classes.dtype == np.int64 and classes.tolist() == [3, 0]
    for loss in ("mse", "softmax-xent"):
        with pytest.raises(InvalidArgument, match="need a label"):
            parse_targets(_labelled("1", None), loss, (2,))


def test_mse_targets_take_the_output_shape():
    targets = parse_targets(_labelled("1,2,3,4", "0,0.5,0,-1"), "mse", (2, 2))
    assert targets.shape == (2, 2, 2) and targets[1].tolist() == [[0, 0.5], [0, -1]]
    with pytest.raises(InvalidArgument, match=r"^label of 'k0' has 2 values, .* 4 outputs"):
        parse_targets(_labelled("1,2"), "mse", (2, 2))
    with pytest.raises(InvalidArgument, match=r"^softmax-xent needs an output of rank 1"):
        parse_targets(_labelled("1"), "softmax-xent", (2, 2))


@pytest.mark.parametrize("labels,loss,message", [
    (("1,2", "abc"), "mse", "label 'abc' of 'k1' is not comma-separated floats"),
    (("",), "mse", "label '' of 'k0' is not comma-separated floats"),
    (("1,,2",), "mse", "label '1,,2' of 'k0' is not comma-separated floats"),
    (("3", "1.5"), "softmax-xent", "label '1.5' of 'k1' is not an integer class"),
    (("1,2", "nan,inf"), "mse", "label 'nan,inf' of 'k1' is not finite"),
    (("0.5,1", "-inf,1", "1,1"), "mse", "label '-inf,1' of 'k1' is not finite"),
    (("1e39,0",), "mse", "label '1e39,0' of 'k0' is not finite"),  # past float32's range
    (("0.5", "0.25"), "mse", "label of 'k0' has 1 values, the network has 2 outputs"),
    (("1,2", "1,2,3"), "mse", "label of 'k1' has 3 values, the network has 2 outputs"),
    (("1", "2"), "softmax-xent", r"label '2' of 'k1' is not a class in \[0, 2\)"),
    (("-1",), "softmax-xent", r"label '-1' of 'k0' is not a class in \[0, 2\)"),
    (("0", "9" * 20), "softmax-xent", f"label '{'9' * 20}' of 'k1' is not a class"),
], ids=["word", "empty", "empty-part", "fraction-class", "nan-inf", "minus-inf",
        "float32-overflow", "narrower-than-outputs", "wider-than-outputs",
        "class-past-outputs", "negative-class", "int64-overflow"])
def test_a_label_that_is_no_target_names_its_document(labels, loss, message):
    with pytest.raises(InvalidArgument, match=f"^{message}"):
        parse_targets(_labelled(*labels), loss, (2,))


def _engine_with_samples(path, count=6):
    engine = make_engine(path)
    engine.register_model(MODEL, SPEC)
    rng = np.random.default_rng(11)
    for i in range(count):
        engine.put_document(Document(key=f"s{i:03d}",
                                     payload=encode_sample(rng.standard_normal(4)),
                                     label="0.5,-0.5", tags={"dataset": "train"}))
    engine.define_view("train", 'dataset = "train"')
    return engine


def _leased_context(engine, **fields) -> TaskContext:
    engine.submit_task(task_id="t", **fields)
    task = engine.lease_task("agent", TTL)
    assert task is not None and task.task_id == "t"
    return TaskContext(engine, task, "agent")


def test_emit_from_an_unknown_layer_is_rejected(tmp_path):
    engine = _engine_with_samples(tmp_path / "store")
    try:
        ctx = _leased_context(engine, kind="train", input_dataset="train", model_key=MODEL,
                              output_dataset="out", params={"emit": "hidden:nope"})
        with pytest.raises(InvalidSpec, match="nope"):
            train_handler(ctx)
        assert ctx.pending == []
    finally:
        engine.close()


def test_unregistered_user_fn_is_rejected(tmp_path):
    engine = make_engine(tmp_path / "store")
    try:
        ctx = _leased_context(engine, kind="user_fn", params={"fn": "missing"})
        with pytest.raises(InvalidArgument, match="missing"):
            user_fn_handler(ctx)
    finally:
        engine.close()


def _trained_version(path) -> str:
    engine = _engine_with_samples(path)
    try:
        engine.submit_task(task_id="t", kind="train", input_dataset="train",
                           model_key=MODEL, output_dataset="out",
                           params={"seed": 4, "epochs": 2, "batch_size": 4, "emit": "hidden:r"})
        run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        assert engine.get_task("t").status == COMPLETED
        [version] = engine.list_versions(MODEL)
        return version.version_id
    finally:
        engine.close()


def test_the_same_train_task_gives_the_same_version_id(tmp_path):
    assert _trained_version(tmp_path / "a") == _trained_version(tmp_path / "b")


def test_a_sample_of_the_wrong_length_fails_the_train_task(tmp_path):
    engine = _engine_with_samples(tmp_path / "store")
    try:
        engine.put_document(Document(key="s002a", payload=encode_sample(np.zeros(3)),
                                     label="0.5,-0.5", tags={"dataset": "train"}))
        ctx = _leased_context(engine, kind="train", input_dataset="train", model_key=MODEL,
                              output_dataset="out")
        with pytest.raises(InvalidArgument) as info:
            train_handler(ctx)
        assert str(info.value) == "sample payload has 3 floats, spec expects 4"
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()


def test_ragged_labels_fail_the_train_task_naming_the_document(tmp_path):
    engine = _engine_with_samples(tmp_path / "store")
    try:
        engine.put_document(Document(key="s002a", payload=encode_sample(np.zeros(4)),
                                     label="0.5", tags={"dataset": "train"}))
        ctx = _leased_context(engine, kind="train", input_dataset="train", model_key=MODEL,
                              output_dataset="out")
        with pytest.raises(InvalidArgument) as info:
            train_handler(ctx)
        assert str(info.value) == "label of 's002a' has 1 values, the network has 2 outputs"
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()


def test_labels_narrower_than_the_outputs_fail_the_train_task(tmp_path):
    """Labels of one value each on a two-output net do not broadcast into
    the mse loss: the task fails naming the first document and saves no
    version."""
    engine = _engine_with_samples(tmp_path / "store", count=0)
    try:
        for i, label in enumerate(["0.5", "0.25"]):
            engine.put_document(Document(key=f"s{i:03d}", payload=encode_sample(np.ones(4)),
                                         label=label, tags={"dataset": "train"}))
        engine.submit_task(task_id="t", kind="train", input_dataset="train",
                           model_key=MODEL, output_dataset="out", max_attempts=1)
        run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = engine.get_task("t")
        assert task.status != COMPLETED
        assert "label of 's000' has 1 values, the network has 2 outputs" in task.last_error
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()


@pytest.mark.parametrize("label", ["5", "-1"])
def test_a_class_outside_the_outputs_fails_the_train_task(tmp_path, label):
    engine = _engine_with_samples(tmp_path / "store", count=0)
    try:
        for i, cls in enumerate(["1", label, "0"]):
            engine.put_document(Document(key=f"s{i:03d}", payload=encode_sample(np.ones(4)),
                                         label=cls, tags={"dataset": "train"}))
        ctx = _leased_context(engine, kind="train", input_dataset="train", model_key=MODEL,
                              output_dataset="out", params={"loss": "softmax-xent"})
        with pytest.raises(InvalidArgument) as info:
            train_handler(ctx)
        assert str(info.value) == f"label {label!r} of 's001' is not a class in [0, 2)"
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()


def test_an_agent_records_the_wrong_length_as_the_task_error(tmp_path):
    engine = _engine_with_samples(tmp_path / "store")
    try:
        engine.put_document(Document(key="s004a", payload=encode_sample(np.zeros(5)),
                                     label="0.5,-0.5", tags={"dataset": "train"}))
        engine.submit_task(task_id="t", kind="train", input_dataset="train",
                           model_key=MODEL, output_dataset="out", max_attempts=1)
        run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = engine.get_task("t")
        assert task.status != COMPLETED
        assert "sample payload has 5 floats, spec expects 4" in task.last_error
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()


def test_an_empty_slice_trains_nothing_and_saves_a_version(tmp_path):
    engine = _engine_with_samples(tmp_path / "store", count=0)
    try:
        engine.submit_task(task_id="t", kind="train", input_dataset="train",
                           model_key=MODEL, output_dataset="out",
                           params={"seed": 4, "epochs": 2, "emit": "hidden:r"})
        run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        assert engine.get_task("t").status == COMPLETED
        [version] = engine.list_versions(MODEL)
        assert version.step == 0 and version.metrics == {}
        assert engine.scan('dataset = "out"')[0] == []
    finally:
        engine.close()


def _rank2_engine(path, labels):
    """A model whose output is its ``[2, 2]`` input (no layers), and one
    sample per label."""
    engine = make_engine(path)
    engine.register_model(MODEL, {"input_dims": [2, 2], "layers": []})
    for i, label in enumerate(labels):
        engine.put_document(Document(key=f"s{i:03d}", payload=encode_sample(np.ones(4)),
                                     label=label, tags={"dataset": "train"}))
    engine.define_view("train", 'dataset = "train"')
    return engine


def test_an_mse_label_fills_an_output_of_rank_two(tmp_path):
    engine = _rank2_engine(tmp_path / "store", ["1,2,3,4", "0.5,0.25,0,-1"])
    try:
        engine.submit_task(task_id="t", kind="train", input_dataset="train",
                           model_key=MODEL, output_dataset="out", max_attempts=1)
        run_agent(engine, "agent", DEFAULT_HANDLERS, max_loops=1, poll_interval=0.0)
        task = engine.get_task("t")
        assert task.status == COMPLETED, task.last_error
        [version] = engine.list_versions(MODEL)
        assert version.step == 1 and version.metrics["loss"] > 0
    finally:
        engine.close()


def test_an_mse_label_narrower_than_an_output_of_rank_two_names_its_document(tmp_path):
    engine = _rank2_engine(tmp_path / "store", ["1,2,3,4", "0.5,0.25"])
    try:
        ctx = _leased_context(engine, kind="train", input_dataset="train", model_key=MODEL,
                              output_dataset="out")
        with pytest.raises(InvalidArgument) as info:
            train_handler(ctx)
        assert str(info.value) == "label of 's001' has 2 values, the network has 4 outputs"
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()


def test_softmax_xent_on_an_output_of_rank_two_is_refused(tmp_path):
    engine = _rank2_engine(tmp_path / "store", ["1", "0", "1"])
    try:
        ctx = _leased_context(engine, kind="train", input_dataset="train", model_key=MODEL,
                              output_dataset="out", params={"loss": "softmax-xent"})
        with pytest.raises(InvalidArgument, match=r"softmax-xent .* output of shape \(2, 2\)"):
            train_handler(ctx)
        assert engine.list_versions(MODEL) == []
    finally:
        engine.close()
