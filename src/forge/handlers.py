"""Built-in task handlers and the sample byte conventions.

Sample documents carry their feature vector as little-endian f32 bytes in
the payload; the training target rides in the label (an integer class for
softmax-xent, comma-separated floats for mse). The train handler checks the
length of every payload, then decodes its whole input slice with one
``np.frombuffer`` over the joined payloads; it parses the mse labels into
lists of floats and builds one float32 array from them, shaped like the
network's output (a label holds all of an output's values, in row-major
order). A label that does not parse, a class or an mse width that does not
fit the network's outputs, or a target that is not finite, fails the task
naming the document. Softmax-xent needs an output of rank 1.

The train handler is deterministic given its task and its input: it starts
from the explicit ``init_version`` param or a fresh seed, and trains on its
input slice in order. That slice is read when an attempt runs: a stream
task's key range, or a plan task's whole view. A replayed attempt therefore
reproduces the same trained bytes and the same content-addressed version id
only while the view's documents are unchanged. A document put into the view
between two attempts makes the second save a second version (ROADMAP item 2
fixes a task's input once).
"""

from __future__ import annotations

import threading

import numpy as np

from forge.errors import InvalidArgument, InvalidSpec
from forge.faults import kill_point
from forge.nn import layers as nnlayers
from forge.nn import network as nnet
from forge.workflow import TaskContext


def encode_sample(vec: np.ndarray) -> bytes:
    return np.ascontiguousarray(vec, dtype="<f4").tobytes()


def decode_samples(payloads: list[bytes], dims: tuple[int, ...]) -> np.ndarray:
    """The samples stacked as one ``(len(payloads), *dims)`` f32 array."""
    want = int(np.prod(dims))
    for payload in payloads:
        if len(payload) != 4 * want:
            raise InvalidArgument(
                f"sample payload has {len(payload) / 4:.10g} floats, spec expects {want}")
    return np.frombuffer(b"".join(payloads), dtype="<f4").reshape(-1, *dims).copy()


def _floats(label: str) -> list[float]:
    return [float(part) for part in label.split(",")]


def _parse_label(doc, parse, what: str):
    try:
        return parse(doc.label)
    except ValueError:
        raise InvalidArgument(f"label {doc.label!r} of {doc.key!r} is not {what}") from None


def parse_targets(docs: list, loss: str, out_dims: tuple[int, ...]) -> np.ndarray:
    """The training targets in the labels of ``docs`` for a network whose
    output has shape ``out_dims``: int64 classes in ``[0, out_dims[0])`` for
    softmax-xent, which needs an output of rank 1; otherwise one
    ``(len(docs), *out_dims)`` float32 array, where every label holds the
    ``prod(out_dims)`` values of an output as comma-separated floats in
    row-major order, each finite as a float32. A label that breaks this is an
    InvalidArgument naming its document."""
    for doc in docs:
        if doc.label is None:
            raise InvalidArgument("training documents need a label")
    if loss == "softmax-xent":
        if len(out_dims) > 1:
            raise InvalidArgument(f"softmax-xent needs an output of rank 1, the network "
                                  f"has an output of shape {out_dims}")
        labels = [_parse_label(doc, int, "an integer class") for doc in docs]
        for doc, label in zip(docs, labels):
            if not 0 <= label < out_dims[0]:
                raise InvalidArgument(
                    f"label {doc.label!r} of {doc.key!r} is not a class in [0, {out_dims[0]})")
        return np.array(labels, dtype=np.int64)
    outputs = int(np.prod(out_dims))
    rows = [_parse_label(doc, _floats, "comma-separated floats") for doc in docs]
    for doc, row in zip(docs, rows):
        if len(row) != outputs:
            raise InvalidArgument(f"label of {doc.key!r} has {len(row)} values, "
                                  f"the network has {outputs} outputs")
    with np.errstate(over="ignore"):  # a float past float32's range becomes inf
        targets = np.array(rows, dtype=np.float32).reshape(len(rows), outputs)
    finite = np.isfinite(targets).all(axis=1)
    if not finite.all():
        doc = docs[int(np.argmin(finite))]
        raise InvalidArgument(f"label {doc.label!r} of {doc.key!r} is not finite as float32")
    return targets.reshape(len(rows), *out_dims)


def _batches(xs: np.ndarray, ts: np.ndarray, batch_size: int):
    def epoch():
        for i in range(0, len(xs), batch_size):
            yield xs[i:i + batch_size], ts[i:i + batch_size]

    return epoch


def train_handler(ctx: TaskContext) -> None:
    """Built-in "train" kind: read the input slice, run SGD, save a version
    with its loss events, and optionally emit per-sample output documents."""
    api = ctx.api
    task = ctx.task
    record = api.get_model(task.model_key)
    spec = nnlayers.spec_from_dict(record.spec)

    loss = str(ctx.param("loss", "mse"))
    lr = float(ctx.param("lr", 0.1))
    epochs = int(ctx.param("epochs", 1))
    batch_size = int(ctx.param("batch_size", 32))
    seed = int(ctx.param("seed", 1))
    init_version = ctx.param("init_version")

    if init_version:
        version = api.get_version(task.model_key, init_version)
        tensors = api.load_state(task.model_key, init_version)
        state = nnet.state_from_tensors(spec, tensors, seed, step=version.step)
    else:
        state = nnet.build_network(spec, seed)

    docs = ctx.input_docs()
    xs = decode_samples([d.payload for d in docs], spec.input_dims)
    events = [("seed", state.step, float(seed))]
    kill_point("handler.before_train")
    if docs and epochs > 0:
        out_dims = tuple(nnlayers.infer_shapes(spec)[-1] if spec.layers else spec.input_dims)
        ts = parse_targets(docs, loss, out_dims)
        state, events = nnet.train_epochs(state, _batches(xs, ts, batch_size),
                                          loss, lr, epochs)
    kill_point("handler.before_save")
    metrics = {"loss": float(events[-1][2])} if events[-1][0] == "loss" else {}
    api.save_state(task.model_key, state.step, nnet.state_tensors(state),
                   metrics=metrics, parent_version=init_version if init_version else None,
                   events=[(step, name, value) for name, step, value in events])

    emit = str(ctx.param("emit", "none"))
    if emit != "none" and docs:
        eval_state = state
        if emit.startswith("hidden:"):
            layer_name = emit.split(":", 1)[1]
            names = [layer.name for layer in spec.layers]
            if layer_name not in names:
                raise InvalidSpec(f"emit layer {layer_name!r} not in network")
            truncated = nnlayers.NetworkSpec(
                input_dims=spec.input_dims,
                layers=spec.layers[:names.index(layer_name) + 1])
            eval_state = nnet.NetworkState(spec=truncated, params=state.params,
                                           seed=state.seed, step=state.step)
        outputs, _ = nnet.forward(eval_state, xs, nnet.EVAL)
        ctx.write_outputs([encode_sample(vec) for vec in outputs], [doc.label for doc in docs],
                          tags={"dataset": task.output_dataset})
        kill_point("handler.after_outputs")


_user_fns: dict[str, object] = {}
_user_fns_lock = threading.Lock()


def register_user_fn(name: str, fn) -> None:
    """Register a callable for "user_fn" tasks; dispatched by the `fn` param."""
    with _user_fns_lock:
        _user_fns[name] = fn


def clear_user_fns() -> None:
    with _user_fns_lock:
        _user_fns.clear()


def user_fn_handler(ctx: TaskContext) -> None:
    name = ctx.param("fn")
    with _user_fns_lock:
        fn = _user_fns.get(name)
    if fn is None:
        raise InvalidArgument(f"no user function registered under {name!r}")
    fn(ctx)


DEFAULT_HANDLERS = {"train": train_handler, "user_fn": user_fn_handler}
