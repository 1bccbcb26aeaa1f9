"""Model registry: immutable architecture specs, versioned parameter states,
and the append-only event log.

A version's state is its ``tensorio`` encoding. When the encoding is no
longer than the store's ``inline_threshold``, it is the version document's
payload, so a save is one durable log frame. A larger state goes to the blob
store and the payload is its pointer, so compaction's pointer-occurrence
refcounting keeps state blobs alive for free. An inline state stays in memory
with its document, as every inline payload does: at most ``inline_threshold``
bytes per version, for the store's whole life. ``ModelVersion`` carries no
state bytes either way, so listing versions ships none.

Version ids are content-addressed (``s<step>-<8-hex digest prefix>`` of the
encoding), which makes saving a deterministically retrained state
idempotent — the property task replay relies on.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from forge.errors import (
    DuplicateKey,
    InvalidArgument,
    ModelNotFound,
    NotFound,
    VersionNotFound,
)
from forge.nn import layers as nnlayers
from forge.nn import network as nnet
from forge.query import TagScalar
from forge.store import BlobPointer, Document, PutOp, Store
from forge.store.types import validate_tags
from forge.tensorio import decode_tensors, encode_tensors

MODEL_PREFIX = "__sys/model/"
VERSION_PREFIX = "__sys/modelver/"
EVENT_PREFIX = "__sys/event/"

CACHE_BYTES = 256 * 1024 * 1024  # decoded states kept for load_state
_METRIC_TAG = "m."
# a version id as save_state makes it; its step names the version's key
_VERSION_ID = re.compile(r"s(0|[1-9][0-9]*)-[0-9a-f]{8}")
_MAX_STEP = 10**12 - 1  # a version key's 12 step digits sort as numbers


def _version_key(model_key: str, step: int, version_id: str) -> str:
    return f"{VERSION_PREFIX}{model_key}/{step:012d}/{version_id}"


@dataclass(frozen=True)
class ModelRecord:
    model_key: str
    spec: dict
    created_at: int


@dataclass(frozen=True)
class ModelVersion:
    model_key: str
    version_id: str
    step: int
    state: BlobPointer | None  # None: the state is inline in the version document
    metrics: dict[str, TagScalar]
    parent_version: str | None
    created_at: int


@dataclass(frozen=True)
class ModelEvent:
    model_key: str
    step: int
    name: str
    value: float
    at: int


class _TensorCache:
    """Bounded LRU over deserialized states, sized by tensor bytes."""

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.entries: OrderedDict[tuple[str, str], dict[str, np.ndarray]] = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _size(tensors: dict[str, np.ndarray]) -> int:
        return sum(t.nbytes for t in tensors.values())

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.move_to_end(key)
        return {name: arr.copy() for name, arr in entry.items()}

    def put(self, key, tensors) -> None:
        size = self._size(tensors)
        if size > self.capacity:
            return
        if key in self.entries:
            return
        self.entries[key] = {name: arr.copy() for name, arr in tensors.items()}
        self.bytes += size
        while self.bytes > self.capacity and self.entries:
            _, evicted = self.entries.popitem(last=False)
            self.bytes -= self._size(evicted)


class ModelStore:
    def __init__(self, store: Store):
        self.store = store
        self.cache = _TensorCache(CACHE_BYTES)
        self.blob_reads = 0
        self._event_seq: dict[str, int] = {}

    # -- registry ---------------------------------------------------------

    def register_model(self, model_key: str, spec: dict) -> ModelRecord:
        if not model_key or "/" in model_key:
            raise InvalidArgument("model keys must be non-empty and must not contain '/'")
        key = MODEL_PREFIX + model_key
        if self.store.exists(key):
            raise DuplicateKey(f"model {model_key!r} already exists")
        parsed = nnlayers.spec_from_dict(spec)
        nnlayers.validate_spec(parsed)
        created = self.store.clock.now_ms()
        doc = Document(key=key, payload=nnlayers.spec_to_json(parsed).encode(),
                       tags={"at": created})
        self.store.put_system(doc)
        return ModelRecord(model_key=model_key, spec=nnlayers.spec_to_dict(parsed),
                           created_at=created)

    def get_model(self, model_key: str) -> ModelRecord:
        try:
            doc = self.store.get(MODEL_PREFIX + model_key)
        except NotFound:
            raise ModelNotFound(f"model {model_key!r} not registered") from None
        return ModelRecord(model_key=model_key, spec=json.loads(doc.payload.decode()),
                           created_at=doc.tags["at"])

    def has_model(self, model_key: str) -> bool:
        return self.store.exists(MODEL_PREFIX + model_key)

    def list_models(self) -> list[str]:
        return [k[len(MODEL_PREFIX):] for k in self.store.keys_with_prefix(MODEL_PREFIX)]

    # -- versioned states ----------------------------------------------------

    def save_state(self, model_key: str, step: int, tensors: dict[str, np.ndarray],
                   metrics: dict[str, TagScalar] | None = None,
                   parent_version: str | None = None, *,
                   events: list[tuple[int, str, float]] = ()) -> ModelVersion:
        """Save a version; ``events`` are (step, name, value) triples recorded
        in the same log frame, and only when the version is new, so a
        replayed save records them once. A state whose encoding fits the
        store's ``inline_threshold`` is that frame's version payload; a
        larger one is put as a blob first."""
        record = self.get_model(model_key)
        if not 0 <= step <= _MAX_STEP:
            raise InvalidArgument(f"step must be in [0, {_MAX_STEP}]")
        metrics = metrics or {}
        validate_tags(metrics)
        nnet.check_tensors(nnlayers.spec_from_dict(record.spec), tensors)
        state = encode_tensors(tensors)
        version_id = f"s{step}-{hashlib.sha256(state).hexdigest()[:8]}"
        key = _version_key(model_key, step, version_id)
        if self.store.exists(key):
            return self._version_from_doc(model_key, self.store.get(key))
        if len(state) > self.store.inline_threshold:
            state = self.store.put_blob(state)
        tags: dict[str, TagScalar] = {"step": step, "at": self.store.clock.now_ms()}
        if parent_version is not None:
            tags["parent"] = parent_version
        for name, value in metrics.items():
            tags[_METRIC_TAG + name] = value
        doc = Document(key=key, payload=state, label=version_id, tags=tags)
        self.store.apply_ops([PutOp(doc)] + [PutOp(self._event_doc(model_key, *event))
                                             for event in events])
        return self._version_from_doc(model_key, doc)

    @staticmethod
    def _version_from_doc(model_key: str, doc: Document) -> ModelVersion:
        metrics = {name[len(_METRIC_TAG):]: value for name, value in doc.tags.items()
                   if name.startswith(_METRIC_TAG)}
        return ModelVersion(
            model_key=model_key,
            version_id=doc.label,
            step=doc.tags["step"],
            state=None if doc.is_inline else doc.payload,
            metrics=metrics,
            parent_version=doc.tags.get("parent"),
            created_at=doc.tags["at"],
        )

    def list_versions(self, model_key: str) -> list[ModelVersion]:
        self.get_model(model_key)
        prefix = f"{VERSION_PREFIX}{model_key}/"
        keys = self.store.keys_with_prefix(prefix)
        keys.sort(key=lambda k: self.store.get_meta(k)[0])  # insertion order
        versions = [self._version_from_doc(model_key, self.store.get(k)) for k in keys]
        versions.sort(key=lambda v: v.step)  # stable: step, then insertion
        return versions

    def load_state(self, model_key: str, selector: str = "latest") -> dict[str, np.ndarray]:
        """The version's tensors. A cache miss counts as a ``blob_reads``
        whether the state is read from its blob or from its inline
        document."""
        version = self.get_version(model_key, selector)
        cached = self.cache.get((model_key, version.version_id))
        if cached is not None:
            return cached
        self.blob_reads += 1
        if version.state is None:  # inline in the version document
            key = _version_key(model_key, version.step, version.version_id)
            state = self.store.get(key).payload
        else:
            state = self.store.get_blob(version.state)
        tensors = decode_tensors(state)
        self.cache.put((model_key, version.version_id), tensors)
        return tensors

    def get_version(self, model_key: str, selector: str = "latest") -> ModelVersion:
        """The version ``selector`` names, read alone: ``latest`` is the
        newest save at the highest step (the same as ``list_versions``'s
        last), any other selector a version id, whose step names its key."""
        if selector == "latest":
            keys = self.store.keys_with_prefix(f"{VERSION_PREFIX}{model_key}/")
            if keys:  # key order is step order; the top step's keys end the list
                top_step = keys[-1][:keys[-1].rindex("/") + 1]
                key = max(self.store.keys_with_prefix(top_step),
                          key=lambda k: self.store.get_meta(k)[0])
                return self._version_from_doc(model_key, self.store.get(key))
            self.get_model(model_key)  # an unknown model raises ModelNotFound
            raise VersionNotFound(f"model {model_key!r} has no saved versions")
        found = _VERSION_ID.fullmatch(selector) if isinstance(selector, str) else None
        if found is not None:
            try:
                doc = self.store.get(_version_key(model_key, int(found[1]), selector))
                return self._version_from_doc(model_key, doc)
            except NotFound:
                pass
        self.get_model(model_key)
        raise VersionNotFound(f"model {model_key!r} has no version {selector!r}")

    def cache_stats(self) -> dict:
        return {"hits": self.cache.hits, "misses": self.cache.misses,
                "bytes": self.cache.bytes, "blob_reads": self.blob_reads}

    # -- events ------------------------------------------------------------

    def record_event(self, model_key: str, step: int, name: str, value: float) -> None:
        if not self.has_model(model_key):
            raise ModelNotFound(f"model {model_key!r} not registered")
        self.store.put_system(self._event_doc(model_key, step, name, value))

    def _event_doc(self, model_key: str, step: int, name: str, value: float) -> Document:
        seq = self._next_event_seq(model_key)
        payload = {"step": int(step), "name": name, "value": float(value),
                   "at": self.store.clock.now_ms()}
        key = f"{EVENT_PREFIX}{model_key}/{seq:012d}"
        return Document(key=key, payload=json.dumps(payload).encode())

    def _next_event_seq(self, model_key: str) -> int:
        seq = self._event_seq.get(model_key)
        if seq is None:
            existing = self.store.keys_with_prefix(f"{EVENT_PREFIX}{model_key}/")
            seq = int(existing[-1].rsplit("/", 1)[1]) + 1 if existing else 0
        self._event_seq[model_key] = seq + 1
        return seq

    def query_events(self, model_key: str, name: str | None = None,
                     step_range: tuple[int, int] | None = None) -> list[ModelEvent]:
        """Events ordered by (step, at, insertion); step_range is [lo, hi)."""
        if step_range is not None and not (
                type(step_range) is tuple and len(step_range) == 2
                and all(type(bound) is int for bound in step_range)):
            raise InvalidArgument(f"step_range must be a tuple of two ints, got {step_range!r}")
        if not self.has_model(model_key):
            raise ModelNotFound(f"model {model_key!r} not registered")
        prefix = f"{EVENT_PREFIX}{model_key}/"
        out: list[tuple[tuple, ModelEvent]] = []
        for key in self.store.keys_with_prefix(prefix):
            meta = json.loads(self.store.get(key).payload.decode())
            if name is not None and meta["name"] != name:
                continue
            if step_range is not None and not (step_range[0] <= meta["step"] < step_range[1]):
                continue
            seq = int(key.rsplit("/", 1)[1])
            event = ModelEvent(model_key=model_key, step=meta["step"], name=meta["name"],
                               value=meta["value"], at=meta["at"])
            out.append(((meta["step"], meta["at"], seq), event))
        out.sort(key=lambda pair: pair[0])
        return [event for _, event in out]
