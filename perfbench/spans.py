"""Span tracing around the public calls into each engine layer, and the
per-layer metrics derived from the written spans.

The wrappers live only here: ``Tracer.install`` swaps each traced function
or method for a timing wrapper and ``uninstall`` puts the original back.
Nothing under ``src/forge`` is changed. A span is ``(id, parent, name,
start, end, attrs)``; parents come from a per-thread stack, so a span's
children are the traced calls made while it was open on the same thread.
Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

# -- what is traced -------------------------------------------------------------
# (module, class or None for a module function, attribute, span name,
#  attrs(args, kwargs, result) -> dict or None)


def _n_rows(x):
    return int(x.shape[0]) if getattr(x, "ndim", 0) > 1 else 1


def _forward_attrs(args, kwargs, result):
    state, x = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return {"mode": mode or state.mode, "n": _n_rows(x)}


def _payload_bytes(payload):
    return len(payload) if isinstance(payload, bytes) else payload.total_size


TARGETS = [
    # store: log, blobs, scan/index, replay and compaction
    ("forge.store.store", "Store", "apply_ops", "store.apply_ops", None),
    ("forge.store.store", "Store", "get", "store.get", None),
    ("forge.store.store", "Store", "scan", "store.scan",
     lambda a, k, r: {"n": len(r[0])}),
    ("forge.store.store", "Store", "keys_with_prefix", "store.keys_with_prefix", None),
    ("forge.store.store", "Store", "_replay", "store.replay", None),
    ("forge.store.store", "Store", "compact", "store.compact", None),
    ("forge.store.log", "LogWriter", "append", "store.log.append",
     lambda a, k, r: {"bytes": len(a[1]) + 8}),
    ("forge.store.blob", "BlobStore", "put", "store.blob.put",
     lambda a, k, r: {"bytes": len(a[1])}),
    ("forge.store.blob", "BlobStore", "get", "store.blob.get",
     lambda a, k, r: {"bytes": len(r)}),
    # query: parse is bound by name in the modules that call it
    ("forge.engine", None, "parse", "query.parse", None),
    ("forge.dataset", None, "parse", "query.parse", None),
    # dataset
    ("forge.dataset", "DatasetManager", "read_batch", "dataset.read_batch", None),
    ("forge.dataset", "DatasetManager", "slice_docs", "dataset.slice_docs", None),
    ("forge.dataset", "DatasetManager", "evaluate_trigger", "dataset.evaluate_trigger",
     lambda a, k, r: {"fired": r is not None}),
    # models and tensorio
    ("forge.models", "ModelStore", "save_state", "models.save_state", None),
    ("forge.models", "ModelStore", "list_versions", "models.list_versions", None),
    ("forge.models", "ModelStore", "record_event", "models.record_event", None),
    ("forge.models", None, "encode_tensors", "tensorio.encode", None),
    ("forge.wire.client", None, "encode_tensors", "tensorio.encode", None),
    # nn
    ("forge.nn.network", None, "build_network", "nn.build_network", None),
    ("forge.nn.network", None, "forward", "nn.forward", _forward_attrs),
    ("forge.nn.network", None, "backward", "nn.backward",
     lambda a, k, r: {"n": _n_rows(a[2])}),
    ("forge.nn.network", None, "train_epochs", "nn.train_epochs", None),
    # handlers
    ("forge.handlers", None, "train_handler", "handlers.train", None),
    # workflow
    ("forge.workflow", "WorkflowManager", "lease_task", "workflow.lease_task",
     lambda a, k, r: {"hit": r is not None}),
    ("forge.workflow", "WorkflowManager", "master_step", "workflow.master_step",
     lambda a, k, r: {"useful": bool(r.get("unblocked") or r.get("plans_completed")
                                     or r.get("plans_failed"))}),
    ("forge.workflow", "WorkflowManager", "complete_task", "workflow.complete_task",
     lambda a, k, r: {"ok": (a[3] if len(a) > 3 else k.get("outcome")) == "ok"}),
    ("forge.workflow", "WorkflowManager", "write_output", "workflow.write_output", None),
    # engine facade: the calls that carry user payload, and the master cycle
    ("forge.engine", "Forge", "put_document", "engine.put_document",
     lambda a, k, r: {"user_bytes": _payload_bytes(a[1].payload)}),
    ("forge.engine", "Forge", "put_blob", "engine.put_blob",
     lambda a, k, r: {"user_bytes": len(a[1])}),
    ("forge.engine", "Forge", "write_output", "engine.write_output",
     lambda a, k, r: {"user_bytes": _payload_bytes(a[4] if len(a) > 4
                                                   else k["payload"])}),
    ("forge.engine", "Forge", "master_step", "engine.master_step", None),
    # wire client: one span per round trip, named by the client method
    ("forge.wire.client", "ForgeClient", "_call", "wire.call", None),
]
WIRE_METHODS = ("write_output", "lease_task", "master_step", "complete_task",
                "view_slice", "save_state")
TARGETS += [("forge.wire.client", "ForgeClient", m, f"wire.rtt.{m}", None)
            for m in WIRE_METHODS]


class Tracer:
    def __init__(self, process: str):
        self.process = process
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            tracer.spans.append((sid, parent, name, start, end, extra))
            return result

        return traced

    def install(self) -> "Tracer":
        for module_name, owner_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, attrs))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def switch(self, on: bool) -> None:
        if on:
            self.install()
        else:
            self.uninstall()

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, start, end, extra in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start,
                       "end": end, "process": self.process}
                if extra:
                    rec.update(extra)
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


# an opcode no engine request uses: serve_traced.py answers it by switching
# the server's tracer on or off, so the switch is in place before the reply
SWITCH_OPCODE = 0xF0


class Pairs:
    """Leaves every other unit of work untraced, in pairs of one traced and
    one untraced unit that alternate which runs first, so that both halves of
    a pair see the same machine state and run order cancels out. ``ratios``
    holds each pair's traced over untraced time.

    Tracing is on when a unit starts; ``switches`` are called with False
    before an untraced unit, in order, and with True after it, in reverse.
    """

    def __init__(self, *switches):
        self.switches = list(switches)
        self.ratios: list[float] = []
        self._count = 0
        self._first: tuple[bool, float] | None = None

    @contextlib.contextmanager
    def unit(self):
        k = self._count
        self._count += 1
        traced = (k % 2 == 0) == (k % 4 < 2)  # pairs run TU, UT, TU, ...
        if not traced:
            for switch in self.switches:
                switch(False)
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            if not traced:
                for switch in reversed(self.switches):
                    switch(True)
        if k % 2 == 0:
            self._first = (traced, took)
        else:
            first_traced, first_took = self._first
            on, off = (first_took, took) if first_traced else (took, first_took)
            self.ratios.append(on / off)


def unit_of(pairs: Pairs | None):
    """The context for one unit of work: paired when tracing, else nothing."""
    return pairs.unit() if pairs is not None else contextlib.nullcontext()


# -- per-layer metrics from a span file -----------------------------------------

PER_LAYER_UNITS = {
    "nn.forward.train.us_per_sample": "us",
    "nn.forward.eval.us_per_sample": "us",
    "nn.backward.us_per_sample": "us",
    "nn.build_network.ms_p50": "ms",
    "nn.train_epochs.busy_ms": "ms",
    "handlers.train.self_ms_p50": "ms",
    "store.apply_ops.calls": "count",
    "store.apply_ops.us_p50": "us",
    "store.apply_ops.busy_ms": "ms",
    "store.log.frames_per_task": "count",
    "store.log.bytes_per_user_byte": "B/B",
    "store.scan.calls": "count",
    "store.scan.us_p50": "us",
    "store.scan.us_per_key_returned": "us",
    "store.keys_with_prefix.calls": "count",
    "store.keys_with_prefix.us_p50": "us",
    "store.get.us_p50": "us",
    "store.blob.put.mb_per_s": "MB/s",
    "store.blob.get.mb_per_s": "MB/s",
    "tensorio.encode.us_p50": "us",
    "models.save_state.ms_p50": "ms",
    "models.list_versions.us_p50": "us",
    "models.record_event.us_p50": "us",
    "store.replay_s": "s",
    "store.compact_s": "s",
    "query.parse.calls": "count",
    "query.parse.busy_ms": "ms",
    "dataset.read_batch.us_p50": "us",
    "dataset.slice_docs.ms_p50": "ms",
    "dataset.evaluate_trigger.us_p50": "us",
    "dataset.trigger_fire_ratio": "ratio",
    "workflow.lease_task.us_p50": "us",
    "workflow.master_step.us_p50": "us",
    "workflow.complete_task.us_p50": "us",
    "workflow.write_output.calls_per_task": "count",
    "workflow.lease_hit_ratio": "ratio",
    "workflow.master_step.useful_ratio": "ratio",
    "engine.master_step.us_p50": "us",
    "wire.calls_per_task": "count",
    "wire.rtt_us_p50.write_output": "us",
    "wire.rtt_us_p50.lease_task": "us",
    "wire.rtt_us_p50.master_step": "us",
    "wire.rtt_us_p50.complete_task": "us",
    "wire.rtt_us_p50.view_slice": "us",
    "wire.rtt_us_p50.save_state": "us",
    "trace.overhead_ratio": "ratio",
}


def load_spans(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _self_ns(span: dict, children: list[dict]) -> int:
    """Duration minus the part of the interval its children cover."""
    covered, cur_start, cur_end = 0, None, None
    for c in sorted(children, key=lambda c: c["start"]):
        s, e = max(c["start"], span["start"]), min(c["end"], span["end"])
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span["end"] - span["start"] - covered


def layer_metrics(spans: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never called reads 0."""
    by_id = {(s["process"], s["id"]): s for s in spans}
    by_name: dict[str, list[dict]] = {}
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"]:
            children.setdefault((s["process"], s["parent"]), []).append(s)

    def under_compact(s):
        parent = by_id.get((s["process"], s["parent"]))
        return parent is not None and parent["name"] == "store.compact"

    def durs(name, unit_ns, where=None):
        return [(s["end"] - s["start"]) / unit_ns for s in by_name.get(name, ())
                if where is None or where(s)]

    def p50(name, unit_ns, where=None):
        values = durs(name, unit_ns, where)
        return statistics.median(values) if values else 0.0

    def busy(name, unit_ns):
        return sum(durs(name, unit_ns))

    def count(name, where=None):
        return sum(1 for s in by_name.get(name, ()) if where is None or where(s))

    def total(name, key, where=None):
        return sum(s.get(key, 0) for s in by_name.get(name, ())
                   if where is None or where(s))

    def ratio(num, den):
        return num / den if den else 0.0

    def per_sample(name, where=None):
        return ratio(sum(durs(name, 1e3, where)), total(name, "n", where))

    def mb_per_s(name):
        return ratio(total(name, "bytes") / 1e6, busy(name, 1e9))

    tasks_ok = count("workflow.complete_task", lambda s: s.get("ok"))
    user_bytes = sum(total(n, "user_bytes") for n in
                     ("engine.put_document", "engine.put_blob", "engine.write_output"))
    train_self = [_self_ns(s, children.get((s["process"], s["id"]), [])) / 1e6
                  for s in by_name.get("handlers.train", ())]
    out = {
        "nn.forward.train.us_per_sample":
            per_sample("nn.forward", lambda s: s.get("mode") == "train"),
        "nn.forward.eval.us_per_sample":
            per_sample("nn.forward", lambda s: s.get("mode") == "eval"),
        "nn.backward.us_per_sample": per_sample("nn.backward"),
        "nn.build_network.ms_p50": p50("nn.build_network", 1e6),
        "nn.train_epochs.busy_ms": busy("nn.train_epochs", 1e6),
        "handlers.train.self_ms_p50": statistics.median(train_self) if train_self else 0.0,
        "store.apply_ops.calls": count("store.apply_ops"),
        "store.apply_ops.us_p50": p50("store.apply_ops", 1e3),
        "store.apply_ops.busy_ms": busy("store.apply_ops", 1e6),
        "store.log.frames_per_task": ratio(count("store.log.append"), tasks_ok),
        "store.log.bytes_per_user_byte": ratio(total("store.log.append", "bytes"),
                                               user_bytes),
        "store.scan.calls": count("store.scan"),
        "store.scan.us_p50": p50("store.scan", 1e3),
        "store.scan.us_per_key_returned": ratio(busy("store.scan", 1e3),
                                                total("store.scan", "n")),
        "store.keys_with_prefix.calls": count("store.keys_with_prefix"),
        "store.keys_with_prefix.us_p50": p50("store.keys_with_prefix", 1e3),
        "store.get.us_p50": p50("store.get", 1e3),
        "store.blob.put.mb_per_s": mb_per_s("store.blob.put"),
        "store.blob.get.mb_per_s": mb_per_s("store.blob.get"),
        "tensorio.encode.us_p50": p50("tensorio.encode", 1e3),
        "models.save_state.ms_p50": p50("models.save_state", 1e6),
        "models.list_versions.us_p50": p50("models.list_versions", 1e3),
        "models.record_event.us_p50": p50("models.record_event", 1e3),
        "store.replay_s": p50("store.replay", 1e9, lambda s: not under_compact(s)),
        "store.compact_s": p50("store.compact", 1e9),
        "query.parse.calls": count("query.parse"),
        "query.parse.busy_ms": busy("query.parse", 1e6),
        "dataset.read_batch.us_p50": p50("dataset.read_batch", 1e3),
        "dataset.slice_docs.ms_p50": p50("dataset.slice_docs", 1e6),
        "dataset.evaluate_trigger.us_p50": p50("dataset.evaluate_trigger", 1e3),
        "dataset.trigger_fire_ratio": ratio(
            count("dataset.evaluate_trigger", lambda s: s.get("fired")),
            count("dataset.evaluate_trigger")),
        "workflow.lease_task.us_p50": p50("workflow.lease_task", 1e3),
        "workflow.master_step.us_p50": p50("workflow.master_step", 1e3),
        "workflow.complete_task.us_p50": p50("workflow.complete_task", 1e3),
        "workflow.write_output.calls_per_task": ratio(count("workflow.write_output"),
                                                      tasks_ok),
        "workflow.lease_hit_ratio": ratio(
            count("workflow.lease_task", lambda s: s.get("hit")),
            count("workflow.lease_task")),
        "workflow.master_step.useful_ratio": ratio(
            count("workflow.master_step", lambda s: s.get("useful")),
            count("workflow.master_step")),
        "engine.master_step.us_p50": p50("engine.master_step", 1e3),
        "wire.calls_per_task": ratio(count("wire.call"), tasks_ok),
        "trace.overhead_ratio": overhead_ratio,
    }
    for op in WIRE_METHODS:
        out[f"wire.rtt_us_p50.{op}"] = p50(f"wire.rtt.{op}", 1e3)
    if set(out) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metric table out of step with its units")
    return {k: float(v) for k, v in out.items()}

