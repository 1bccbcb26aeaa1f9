"""Reference trainer: parameter init, forward/backward, SGD, epoch loop.

Forward records a tape of per-layer saved values; backward walks it in
reverse accumulating gradients per share key, so parameter-sharing gradients
are the sum over all sites. Production arithmetic is f32; pass
``dtype=np.float64`` for gradient-verification work.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from forge.errors import InvalidArgument, NonFiniteLoss, ShapeMismatch
from forge.nn import layers as L
from forge.nn.rng import XorShift64, derive_seed

TRAIN = "train"
EVAL = "eval"


@dataclass
class NetworkState:
    spec: L.NetworkSpec
    params: dict[str, dict[str, np.ndarray]]  # share key -> {"weight", "bias"}
    seed: int
    step: int = 0
    mode: str = TRAIN
    dtype: type = np.float32


def build_network(spec: L.NetworkSpec, seed: int, dtype=np.float32) -> NetworkState:
    """Deterministic init: dense weights uniform in +-sqrt(6/(fan_in+fan_out)),
    biases zero. Shared keys are initialized once, from a stream derived from
    the key itself, so stacking order does not change the values."""
    L.validate_spec(spec)
    params: dict[str, dict[str, np.ndarray]] = {}
    for key, shapes in L.param_shapes(spec).items():
        fan_in, fan_out = shapes["weight"]
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        stream = XorShift64(derive_seed(seed, "init", key))
        weight = stream.fill_uniform(fan_in * fan_out, -bound, bound).astype(dtype)
        weight = weight.reshape(fan_in, fan_out)
        bias = np.zeros(fan_out, dtype=dtype)
        params[key] = {"weight": weight, "bias": bias}
    return NetworkState(spec=spec, params=params, seed=seed, dtype=dtype)


def _dropout_mask(state: NetworkState, layer: L.LayerSpec, shape: tuple[int, ...]) -> np.ndarray:
    stream = XorShift64(derive_seed(state.seed, "dropout", layer.name, state.step))
    keep = stream.fill_random(int(np.prod(shape))) < layer.keep_prob
    return keep.astype(state.dtype).reshape(shape)


def forward(state: NetworkState, x: np.ndarray, mode: str | None = None):
    """Run the stack; returns (output, tape). Dropout scales by 1/keep_prob in
    train mode and is the identity in eval mode."""
    mode = mode or state.mode
    if mode not in (TRAIN, EVAL):
        raise InvalidArgument(f"mode must be {TRAIN!r} or {EVAL!r}")
    x = np.asarray(x, dtype=state.dtype)
    squeeze = False
    if x.shape == tuple(state.spec.input_dims):
        x = x[None, ...]
        squeeze = True
    if x.shape[1:] != tuple(state.spec.input_dims):
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} does not match spec {tuple(state.spec.input_dims)}")
    tape: list[tuple[L.LayerSpec, dict]] = []
    for layer in state.spec.layers:
        if layer.kind == L.DENSE:
            p = state.params[layer.share_key]
            saved = {"x": x}
            x = x @ p["weight"] + p["bias"]
        elif layer.kind == L.RELU:
            saved = {"mask": x > 0}
            x = np.maximum(x, 0)
        elif layer.kind == L.SIGMOID:
            x = 1.0 / (1.0 + np.exp(-x))
            saved = {"y": x}
        elif layer.kind == L.TANH:
            x = np.tanh(x)
            saved = {"y": x}
        elif layer.kind == L.DROPOUT:
            if mode == TRAIN and layer.keep_prob < 1.0:
                mask = _dropout_mask(state, layer, x.shape)
                saved = {"mask": mask}
                x = x * mask / layer.keep_prob
            else:
                saved = {"mask": None}
        else:  # lambda
            impl = L.lambda_impl(layer.registry)
            saved = {"x": x}
            x = np.asarray(impl.forward(x), dtype=state.dtype)
        tape.append((layer, saved))
    if squeeze:
        x = x[0]  # tape keeps the batch axis; only the returned output is squeezed
    return x, tape


def backward(state: NetworkState, tape, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every parameter, keyed "<share_key>.weight" / ".bias".

    Shared keys accumulate contributions from every layer bound to them.
    """
    g = np.asarray(grad_out, dtype=state.dtype)
    shapes = L.infer_shapes(state.spec)
    out_dims = shapes[-1] if shapes else tuple(state.spec.input_dims)
    if g.shape == tuple(out_dims):
        g = g[None, ...]  # forward squeezed a single sample; restore batch axis
    grads: dict[str, np.ndarray] = {}
    for layer, saved in reversed(tape):
        if layer.kind == L.DENSE:
            x = saved["x"]
            p = state.params[layer.share_key]
            gw = x.T @ g
            gb = g.sum(axis=0)
            wkey, bkey = f"{layer.share_key}.weight", f"{layer.share_key}.bias"
            grads[wkey] = grads.get(wkey, 0) + gw
            grads[bkey] = grads.get(bkey, 0) + gb
            g = g @ p["weight"].T
        elif layer.kind == L.RELU:
            g = g * saved["mask"]
        elif layer.kind == L.SIGMOID:
            y = saved["y"]
            g = g * y * (1.0 - y)
        elif layer.kind == L.TANH:
            y = saved["y"]
            g = g * (1.0 - y * y)
        elif layer.kind == L.DROPOUT:
            mask = saved["mask"]
            if mask is not None:
                g = g * mask / layer.keep_prob
        else:
            impl = L.lambda_impl(layer.registry)
            g = np.asarray(impl.backward(saved["x"], g), dtype=state.dtype)
    for key in state.params:
        grads.setdefault(f"{key}.weight", np.zeros_like(state.params[key]["weight"]))
        grads.setdefault(f"{key}.bias", np.zeros_like(state.params[key]["bias"]))
    return grads


def sgd_step(state: NetworkState, grads: dict[str, np.ndarray], lr: float) -> NetworkState:
    if lr < 0:
        raise InvalidArgument("learning rate must be non-negative")
    for key, tensors in state.params.items():
        tensors["weight"] -= (lr * grads[f"{key}.weight"]).astype(state.dtype)
        tensors["bias"] -= (lr * grads[f"{key}.bias"]).astype(state.dtype)
    return state


# --- losses ------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray):
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(np.asarray(target, dtype=pred.dtype))
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def softmax_xent_loss(logits: np.ndarray, classes: np.ndarray):
    logits = np.atleast_2d(logits)
    classes = np.asarray(classes, dtype=np.int64).reshape(-1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(logits.dtype).tiny
    loss = float(-np.mean(np.log(probs[np.arange(n), classes] + eps)))
    grad = probs.copy()
    grad[np.arange(n), classes] -= 1.0
    return loss, grad / n


LOSSES = {"mse": mse_loss, "softmax-xent": softmax_xent_loss}


# --- training loop -----------------------------------------------------------

def train_epochs(state: NetworkState, batches: Callable[[], Iterable], loss: str,
                 lr: float, epochs: int):
    """Run SGD; ``batches()`` yields (inputs, targets) per call (one epoch).

    Returns (state, events) where events are (name, step, value) tuples: the
    RNG seed at start and the mean loss after each epoch. Raises
    NonFiniteLoss the moment the loss leaves the reals.
    """
    if lr <= 0:
        raise InvalidArgument("learning rate must be positive")
    if loss not in LOSSES:
        raise InvalidArgument(f"unknown loss {loss!r}; choose from {sorted(LOSSES)}")
    loss_fn = LOSSES[loss]
    events: list[tuple[str, int, float]] = [("seed", state.step, float(state.seed))]
    for _ in range(epochs):
        total, count = 0.0, 0
        for x, target in batches():
            y, tape = forward(state, x, TRAIN)
            value, grad = loss_fn(y, target)
            if not math.isfinite(value):
                raise NonFiniteLoss(f"loss became {value} at step {state.step}")
            grads = backward(state, tape, grad)
            sgd_step(state, grads, lr)
            state.step += 1
            total += value
            count += 1
        events.append(("loss", state.step, total / max(count, 1)))
    return state, events


# --- state <-> named tensors --------------------------------------------------

def state_tensors(state: NetworkState) -> dict[str, np.ndarray]:
    out = {}
    for key, tensors in state.params.items():
        out[f"{key}.weight"] = tensors["weight"].astype(np.float32, copy=True)
        out[f"{key}.bias"] = tensors["bias"].astype(np.float32, copy=True)
    return out


def state_from_tensors(spec: L.NetworkSpec, tensors: Mapping[str, np.ndarray],
                       seed: int, step: int = 0) -> NetworkState:
    L.check_shapes(spec, {name: np.shape(arr) for name, arr in tensors.items()})
    params = {key: {part: np.array(tensors[f"{key}.{part}"], dtype=np.float32)
                    for part in shapes}
              for key, shapes in L.param_shapes(spec).items()}
    return NetworkState(spec=spec, params=params, seed=seed, step=step)
