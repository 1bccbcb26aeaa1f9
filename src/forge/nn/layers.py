"""Declarative layer specs, shape inference, and the lambda registry.

Networks are an ordered stack of layers over a fixed input shape. Dense is
the only parameterized kind; its ``param_key`` is the parameter-sharing
handle — layers naming the same key are bound to one weight/bias pair and
their gradients sum. Lambda layers reference process-registered callables by
name, so specs stay serializable.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from forge.errors import DuplicateName, InvalidSpec, MissingBackward, ShapeMismatch

if TYPE_CHECKING:
    import numpy as np

DENSE = "dense"
RELU = "relu"
SIGMOID = "sigmoid"
TANH = "tanh"
DROPOUT = "dropout"
LAMBDA = "lambda"

KINDS = (DENSE, RELU, SIGMOID, TANH, DROPOUT, LAMBDA)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    out_units: int | None = None     # dense
    keep_prob: float | None = None   # dropout
    registry: str | None = None      # lambda
    param_key: str | None = None     # dense; defaults to the layer name

    @property
    def share_key(self) -> str:
        return self.param_key or self.name


@dataclass(frozen=True)
class NetworkSpec:
    input_dims: tuple[int, ...]
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class LambdaImpl:
    forward: Callable[[np.ndarray], np.ndarray]
    backward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    infer_dims: Callable[[tuple[int, ...]], tuple[int, ...]] | None = None


_registry_lock = threading.Lock()
_lambdas: dict[str, LambdaImpl] = {}


def register_lambda(name: str, forward, backward, infer_dims=None) -> None:
    """Register a custom layer. ``forward(x) -> y``; ``backward(x, dy) -> dx``.

    ``infer_dims`` maps input dims to output dims; omitted means
    shape-preserving.
    """
    if forward is None:
        raise InvalidSpec("lambda forward function is required")
    if backward is None:
        raise MissingBackward(f"lambda {name!r} needs a backward function")
    with _registry_lock:
        if name in _lambdas:
            raise DuplicateName(f"lambda {name!r} already registered")
        _lambdas[name] = LambdaImpl(forward, backward, infer_dims)


def lambda_impl(name: str) -> LambdaImpl | None:
    with _registry_lock:
        return _lambdas.get(name)


def clear_lambdas() -> None:
    """Test hook; the registry is process-global."""
    with _registry_lock:
        _lambdas.clear()


# --- validation and shape inference ----------------------------------------

def validate_layer(layer: LayerSpec) -> None:
    if not layer.name:
        raise InvalidSpec("layer name must be non-empty")
    if layer.kind not in KINDS:
        raise InvalidSpec(f"layer {layer.name!r}: unknown kind {layer.kind!r}")
    if layer.kind == DENSE:
        if not isinstance(layer.out_units, int) or layer.out_units < 1:
            raise InvalidSpec(f"layer {layer.name!r}: dense needs positive out_units")
    elif layer.param_key is not None:
        raise InvalidSpec(f"layer {layer.name!r}: param_key is only valid on dense layers")
    if layer.kind == DROPOUT:
        if not isinstance(layer.keep_prob, (int, float)) or not (0.0 < layer.keep_prob <= 1.0):
            raise InvalidSpec(f"layer {layer.name!r}: keep_prob must be in (0, 1]")
    if layer.kind == LAMBDA and not layer.registry:
        raise InvalidSpec(f"layer {layer.name!r}: lambda needs a registry name")


def infer_shapes(spec: NetworkSpec) -> list[tuple[int, ...]]:
    """Output dims after each layer; raises InvalidSpec on any failure."""
    if not spec.input_dims or any(not isinstance(d, int) or d < 1 for d in spec.input_dims):
        raise InvalidSpec("input_dims must be positive integers")
    dims = tuple(spec.input_dims)
    out = []
    for layer in spec.layers:
        validate_layer(layer)
        if layer.kind == DENSE:
            if len(dims) != 1:
                raise InvalidSpec(
                    f"layer {layer.name!r}: dense expects a rank-1 input, got {dims}")
            dims = (layer.out_units,)
        elif layer.kind == LAMBDA:
            impl = lambda_impl(layer.registry)
            if impl is None:
                raise InvalidSpec(
                    f"layer {layer.name!r}: lambda {layer.registry!r} is not registered")
            if impl.infer_dims is not None:
                dims = tuple(impl.infer_dims(dims))
        out.append(dims)
    return out


def param_shapes(spec: NetworkSpec) -> dict[str, dict[str, tuple[int, ...]]]:
    """Map share key -> {"weight": shape, "bias": shape}; validates sharing."""
    shapes: dict[str, dict[str, tuple[int, ...]]] = {}
    dims = tuple(spec.input_dims)
    per_layer = infer_shapes(spec)
    for layer, out_dims in zip(spec.layers, per_layer):
        if layer.kind == DENSE:
            want = {"weight": (dims[0], layer.out_units), "bias": (layer.out_units,)}
            key = layer.share_key
            if key in shapes and shapes[key] != want:
                raise InvalidSpec(
                    f"param_key {key!r}: conflicting shapes {shapes[key]} vs {want}")
            shapes[key] = want
        dims = out_dims
    return shapes


def check_shapes(spec: NetworkSpec, shapes: Mapping[str, tuple[int, ...]]) -> None:
    """ShapeMismatch unless ``shapes`` names exactly the parameters of
    ``spec``, ``<share key>.weight`` and ``<share key>.bias``, with their
    shapes."""
    expect = {f"{key}.{part}": shape for key, parts in param_shapes(spec).items()
              for part, shape in parts.items()}
    if set(shapes) != set(expect):
        raise ShapeMismatch(
            f"tensor names {sorted(shapes)} do not match spec parameters {sorted(expect)}")
    for name, shape in shapes.items():
        if shape != expect[name]:
            raise ShapeMismatch(f"tensor {name!r}: shape {shape} != spec {expect[name]}")


def validate_spec(spec: NetworkSpec) -> None:
    names = [layer.name for layer in spec.layers]
    if len(set(names)) != len(names):
        raise InvalidSpec("layer names must be unique within a network")
    param_shapes(spec)


# --- serialization ----------------------------------------------------------
#
# JSON schema: {"input_dims": [int...], "layers": [{"name": str, "kind": str,
# "out_units"?: int, "keep_prob"?: float, "registry"?: str, "param_key"?: str}]}

_LAYER_FIELDS = {"name", "kind", "out_units", "keep_prob", "registry", "param_key"}


def spec_to_dict(spec: NetworkSpec) -> dict:
    layers = []
    for layer in spec.layers:
        entry: dict = {"name": layer.name, "kind": layer.kind}
        if layer.out_units is not None:
            entry["out_units"] = layer.out_units
        if layer.keep_prob is not None:
            entry["keep_prob"] = layer.keep_prob
        if layer.registry is not None:
            entry["registry"] = layer.registry
        if layer.param_key is not None:
            entry["param_key"] = layer.param_key
        layers.append(entry)
    return {"input_dims": list(spec.input_dims), "layers": layers}


def spec_from_dict(doc: dict) -> NetworkSpec:
    if not isinstance(doc, dict):
        raise InvalidSpec("network spec must be a JSON object")
    for field in ("input_dims", "layers"):
        if field not in doc:
            raise InvalidSpec(f"network spec missing {field!r}")
    dims = doc["input_dims"]
    if not isinstance(dims, list):
        raise InvalidSpec("input_dims must be a list")
    layers = []
    for i, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict):
            raise InvalidSpec(f"layers[{i}] must be an object")
        unknown = set(entry) - _LAYER_FIELDS
        if unknown:
            raise InvalidSpec(f"layers[{i}]: unknown fields {sorted(unknown)}")
        if "name" not in entry or "kind" not in entry:
            raise InvalidSpec(f"layers[{i}]: name and kind are required")
        layers.append(LayerSpec(
            name=entry["name"],
            kind=entry["kind"],
            out_units=entry.get("out_units"),
            keep_prob=entry.get("keep_prob"),
            registry=entry.get("registry"),
            param_key=entry.get("param_key"),
        ))
    return NetworkSpec(input_dims=tuple(dims), layers=tuple(layers))


def spec_to_json(spec: NetworkSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)


def spec_from_json(raw: str | bytes) -> NetworkSpec:
    try:
        return spec_from_dict(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"network spec is not valid JSON: {exc}") from exc
