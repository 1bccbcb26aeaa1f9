"""tensorforge benchmark: the command line.

    python3 perfbench/run.py --workload stream_train --seed 1 --seconds 45 --trace 0

runs one workload (or ``all`` three) in fixed-size segments, each against a
fresh copy of the workload's pre-built store, for about ``--seconds``. It
checks the outputs and prints every metric by name and unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` records spans around every layer call, leaving every other
unit of work untraced to measure the tracing overhead, writes the spans to
``.perfbench_work/spans/`` and reports the per-layer metrics derived from
that file. Every run first checks the pinned golden digest. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream_train", "plan_wire", "ingest_scan")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "read_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "disk_bytes_per_user_byte": "B/B",
}
# op_ms.tail is the p99 where a 45 s run keeps at least ten samples beyond
# it (20k or more puts) and the p90 where it may not (a few hundred rounds,
# 500 to 1200 tasks)
TAIL_PCT = {"stream_train": 90, "plan_wire": 90, "ingest_scan": 99}
# each workload's names for its unit of work per second, its operation
# latency and its read latency; the readable report prints them too
ALIASES = {
    "stream_train": ("trained_samples_per_s", "freshness_ms", "list_versions_ms"),
    "plan_wire": ("tasks_per_s", "task_ms", "plan_status_ms"),
    "ingest_scan": ("put_docs_per_s", "put_ms", "read_round_ms"),
}


def _module(name: str):
    import importlib

    return importlib.import_module(f"perfbench.{name}")


def end_to_end(name: str, out) -> dict[str, float]:
    from perfbench.common import pct

    def ratio(num, den):  # NaN when nothing succeeded; the run is then incorrect
        return num / den if den else math.nan

    return {
        "setup_s": statistics.median(out.setup_s),
        "throughput_per_s": statistics.median(out.rates) if out.rates else math.nan,
        "op_ms.p50": pct(out.op_ms, 50),
        "op_ms.tail": pct(out.op_ms, TAIL_PCT[name]),
        "read_ms.p50": pct(out.read_ms, 50),
        "peak_rss_mb": out.peak_rss_mb,
        "disk_bytes_per_user_byte": ratio(out.disk_bytes, out.user_bytes),
    }


def named_samples(name: str, out) -> dict[str, tuple[float, str]]:
    """The workload's latencies under its own names, with sample counts."""
    from perfbench.common import pct

    _, op, read = ALIASES[name]
    lists = {op: out.op_ms, read: out.read_ms, **out.extra}
    named = {}
    for key, values in lists.items():
        for q in (50, 90, 99):
            named[f"{key}.p{q}"] = (pct(values, q), "ms")
        named[f"{key}.samples"] = (len(values), "count")
    return named


def run_segment(name: str, store: Path, seed: int, index: int, smoke: bool, **traced):
    """One segment on a fresh copy of the pre-built store; ``traced`` holds
    the tracing arguments of a traced run."""
    from perfbench.common import fresh_copy

    module = _module(name)
    copy = fresh_copy(store, name)
    gc.collect()
    try:
        return module.segment(copy, seed, index,
                              module.SEGMENT_SIZE["smoke" if smoke else "full"], **traced)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def repeat(seconds: float, step) -> int:
    """Call ``step(index)`` while the time used plus the last step's time
    stays within ``seconds``; at least once. Returns the number of steps."""
    started = time.perf_counter()
    index = 0
    while True:
        before = time.perf_counter()
        step(index)
        index += 1
        now = time.perf_counter()
        if now - started + (now - before) > seconds:
            return index


def golden_check(ledger) -> None:
    """Run stream_train's pinned golden case in a child process, so neither
    its engine nor its memory touches the measured process, and count a
    digest that differs from expected.json as a failed check."""
    from perfbench.common import BENCH, forge_env
    from perfbench.stream_train import golden

    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--golden"],
                          capture_output=True, text=True, env=forge_env(), timeout=300)
    lines = proc.stdout.strip().splitlines()
    digest = lines[-1] if proc.returncode == 0 and lines else proc.stderr.strip()[-300:]
    ledger.check(digest == golden()["version_digest"],
                 f"stream_train golden digest {digest!r} differs from expected.json")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Returns (ledger, metrics, units) for one workload and prints its
    readable report."""
    from perfbench.common import WORK, prebuilt_store
    from perfbench.spans import PER_LAYER_UNITS, Pairs, Tracer, layer_metrics, load_spans

    store = prebuilt_store(name, seed, smoke)
    outs: list = []
    ratios: list[float] = []  # traced over untraced unit time, per pair
    named: dict[str, tuple[float, str]] = {}
    if not trace:
        segments = repeat(seconds, lambda index: outs.append(
            run_segment(name, store, seed, index, smoke)))
        parts = [end_to_end(name, out) for out in outs]
    else:
        # every segment runs once with the tracer on, except that every
        # other unit of work runs untraced; see spans.Pairs
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for stale in spans_dir.glob(f"{name}*.jsonl"):
            stale.unlink()
        tracer = Tracer("bench")

        def step(index):
            pairs = Pairs(tracer.switch)
            traced = {"pairs": pairs}
            if name == "plan_wire":
                traced["spans"] = spans_dir / f"{name}.server-{index}.jsonl"
            tracer.install()
            try:
                outs.append(run_segment(name, store, seed, index, smoke, **traced))
            finally:
                tracer.uninstall()
            ratios.extend(pairs.ratios)

        segments = repeat(seconds, step)
        path = spans_dir / f"{name}.jsonl"
        tracer.write(path)
        with open(path, "a") as f:
            for part in sorted(spans_dir.glob(f"{name}.server-*.jsonl")):
                f.write(part.read_text())
                part.unlink()
        parts = []
    total = outs[0]
    for out in outs[1:]:
        total.add(out)
    if trace:
        overhead = statistics.median(ratios) if ratios else math.nan
        metrics = layer_metrics(load_spans(path), overhead_ratio=overhead)
        units = PER_LAYER_UNITS
        named["spans_written"] = (sum(1 for _ in open(path)), "count")
        named["trace.overhead_ratio.pairs"] = (len(ratios), "count")
    else:
        metrics, units = end_to_end(name, total), END_TO_END_UNITS
        named[ALIASES[name][0]] = (metrics["throughput_per_s"], "1/s")
        named.update(named_samples(name, total))
    ledger = total.ledger
    named["segments"] = (segments, "count")
    named["ops_failed_ratio"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    print(f"{name} (seed {seed}, trace {int(trace)}):")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    for key, (value, unit) in named.items():
        print(f"  [{name}] {key} = {value:.6g} {unit}")
    for key in ("throughput_per_s", "op_ms.p50", "op_ms.tail") if parts else ():
        print(f"  [segments] {key} = " + " ".join(f"{p[key]:.5g}" for p in parts))
    if len(ratios) > 1:
        print("  [pairs] trace.overhead_ratio quartiles = "
              + " ".join(f"{q:.4f}" for q in statistics.quantiles(ratios, n=4)))
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    return ledger, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pre-built stores, for the benchmark's own tests")
    parser.add_argument("--build-into", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--golden", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "forge" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'forge'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # a terminated run still stops its server child and removes its copies
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.build_into is not None:
        if args.workload == "all":
            parser.error("--build-into needs one workload")
        _module(args.workload).build(args.build_into, args.seed, args.smoke)
        return 0

    if args.golden:
        from perfbench.common import fresh_copy, prebuilt_store
        from perfbench.stream_train import golden, golden_digest

        copy = fresh_copy(prebuilt_store("stream_train", golden()["seed"], True), "golden")
        try:
            print(golden_digest(copy))
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        return 0

    from perfbench.common import Ledger

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = Ledger()
    golden_check(total)
    for problem in total.problems:
        print(f"FAILED: {problem}")
    result: dict[str, dict] = {}
    started = time.perf_counter()
    for name in names:
        ledger, metrics, units = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), args.smoke)
        total.merge(ledger)
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, value in metrics.items():
            result[prefix + key] = {"value": value, "unit": units[key]}
    finite = all(math.isfinite(m["value"]) for m in result.values())
    for m in result.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    print(f"total {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": finite and total.failed == 0,
                      "attempted": max(total.attempted, 1), "failed": total.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
