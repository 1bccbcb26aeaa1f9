"""stream_train: in-process stream rounds that each train and save a model.

A segment opens a fresh copy of the pre-built store, which already holds
HISTORY_ROUNDS finished rounds, and runs SEGMENT_SIZE[size] rounds on it, so
every segment walks the same store sizes however long the run is. A round
puts ROUND labelled 32-float samples under monotone keys into the
indexed ``dataset = "live"`` view, runs one ``master_step`` (the stream
trigger fires one train task) and one inline ``run_agent(max_loops=1)``,
which trains an MLP with a dropout layer and saves a version. Freshness is
the time from the acknowledgement of the round's last put until
``list_versions`` lists the new version. The log is not fsynced.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from perfbench.common import BENCH, Ledger, Outcome, dir_bytes, rss_mb_of
from perfbench.spans import Pairs, unit_of

ROUND = 256
DIMS = 32
OUTPUTS = 8
HISTORY_ROUNDS = 16
SEGMENT_SIZE = {"full": 40, "smoke": 8}  # rounds per segment
MODEL = "mlp"
VIEW = "live"
SPEC = {"input_dims": [DIMS], "layers": [
    {"name": "h", "kind": "dense", "out_units": 256},
    {"name": "r", "kind": "relu"},
    {"name": "d", "kind": "dropout", "keep_prob": 0.8},
    {"name": "out", "kind": "dense", "out_units": OUTPUTS},
]}


def round_docs(seed: int, phase: str, index: int, key_round: int):
    """The samples of one round; their values depend only on the seed, the
    phase (history or measured) and the round's index within that phase."""
    from forge.handlers import encode_sample
    from forge.store import Document

    rng = np.random.default_rng([seed, 0 if phase == "history" else 1, index])
    xs = rng.standard_normal((ROUND, DIMS)).astype(np.float32)
    ys = np.tanh(xs[:, :OUTPUTS] + 0.1 * rng.standard_normal((ROUND, OUTPUTS)))
    return [Document(key=f"r{key_round:06d}-{i:04d}", payload=encode_sample(x),
                     label=",".join(f"{v:.5f}" for v in y), tags={"dataset": VIEW})
            for i, (x, y) in enumerate(zip(xs, ys))]


def _round(forge, handlers, docs):
    """One round; returns (freshness_ms, list_versions_ms, versions)."""
    from forge.workflow import run_agent

    for doc in docs:
        forge.put_document(doc)
    acked = time.perf_counter()
    forge.master_step("master")
    run_agent(forge, "agent", handlers, max_loops=1, poll_interval=0.0)
    before = time.perf_counter()
    versions = forge.list_versions(MODEL)
    listed = time.perf_counter()
    return (listed - acked) * 1e3, (listed - before) * 1e3, versions


def build(path, seed: int, smoke: bool) -> None:
    from forge.engine import Forge
    from forge.handlers import DEFAULT_HANDLERS

    with Forge(path, create=True, fsync=False) as forge:
        forge.create_index("dataset")
        forge.define_view(VIEW, f'dataset = "{VIEW}"')
        forge.register_model(MODEL, SPEC)
        forge.attach_stream(VIEW, threshold=ROUND, max_age_ms=3_600_000,
                            model_key=MODEL, output_dataset="preds")
        for r in range(2 if smoke else HISTORY_ROUNDS):
            _round(forge, DEFAULT_HANDLERS, round_docs(seed, "history", r, r))


def _rounds(forge, seed: int, index: int, rounds: int, ledger: Ledger,
            pairs: Pairs | None = None):
    """Run one segment's rounds on an open store; returns the freshness and
    list_versions times, the new version ids and the samples trained per
    second of round time, one per good round."""
    from forge import handlers

    handler_table = {"train": handlers.train_handler}
    known = len(forge.list_versions(MODEL))
    first = len(forge.datasets.slice_docs(VIEW, resolve=False)) // ROUND
    fresh, lv, new_ids, rates = [], [], [], []
    for r in range(rounds):
        docs = round_docs(seed, "measured", index * rounds + r, first + r)
        try:
            with unit_of(pairs):
                t0 = time.perf_counter()
                ms, lv_ms, versions = _round(forge, handler_table, docs)
                took = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - count it and end the segment
            ledger.fail(f"round {r}: {exc!r}")
            break
        ledger.ok(len(docs) + 3)
        if ledger.check(len(versions) == known + 1,
                        f"round {r}: {len(versions) - known} new versions"):
            fresh.append(ms)
            lv.append(lv_ms)
            new_ids.append(versions[-1].version_id)
            rates.append(len(docs) / took)
        known = len(versions)
    return fresh, lv, new_ids, rates


def segment(path, seed: int, index: int, rounds: int,
            pairs: Pairs | None = None) -> Outcome:
    """Open a fresh copy of the pre-built store and run one segment of
    rounds. When traced, a unit of ``pairs`` is one round."""
    from forge.engine import Forge

    ledger = Ledger()
    start = time.perf_counter()
    forge = Forge(path, fsync=False)
    setup = [time.perf_counter() - start]
    try:
        disk0 = dir_bytes(path)
        fresh, lv, _, rates = _rounds(forge, seed, index, rounds, ledger, pairs)
        disk = dir_bytes(path) - disk0
    finally:
        forge.close()
    return Outcome(rates=rates, op_ms=fresh, read_ms=lv,
                   setup_s=setup, peak_rss_mb=rss_mb_of(), disk_bytes=disk,
                   user_bytes=len(fresh) * ROUND * DIMS * 4, ledger=ledger)


def golden() -> dict:
    """The pinned golden case: its seed, its number of rounds and the
    digest their version ids must hash to."""
    return json.loads((BENCH / "expected.json").read_text())["stream_train"]


def golden_digest(path) -> str:
    """Run the golden case's rounds as segment 0 on a fresh copy of the
    golden seed's smoke-size store and hash the new version ids. Version ids
    are content hashes of the trained bytes, so the digest holds the RNG and
    the trainer to bit-exact outputs."""
    from forge.engine import Forge

    case, ledger = golden(), Ledger()
    with Forge(path, fsync=False) as forge:
        _, _, ids, _ = _rounds(forge, case["seed"], 0, case["rounds"], ledger)
    if ledger.failed:
        raise RuntimeError("; ".join(ledger.problems))
    return hashlib.sha256("\n".join(ids).encode()).hexdigest()
