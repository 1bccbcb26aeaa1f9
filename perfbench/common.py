"""Shared pieces of the benchmark: paths, the outcome record, the failure
ledger, percentiles and the cache of pre-built stores."""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
CACHE_KEEP = 4  # pre-built stores kept per workload, newest first


class Ledger:
    """Operations attempted and failed, output checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(message)
        return condition

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


@dataclass
class Outcome:
    """What one or more measured segments of a workload produced.

    ``rates`` holds, for each unit of work (a round, a plan, or a batch of
    puts), the work it did (samples trained, tasks completed, documents
    put) per second of its measured time; the throughput is their median.
    ``disk_bytes`` is how much the store directory grew while ``user_bytes``
    of user payload went in. ``extra`` holds further sample lists a workload
    reports under its own metric names.
    """

    rates: list[float]
    op_ms: list[float]
    read_ms: list[float]
    setup_s: list[float]
    peak_rss_mb: float
    disk_bytes: int
    user_bytes: int
    ledger: Ledger
    extra: dict[str, list[float]] = field(default_factory=dict)

    def add(self, other: "Outcome") -> None:
        self.rates += other.rates
        self.op_ms += other.op_ms
        self.read_ms += other.read_ms
        self.setup_s += other.setup_s
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)
        self.disk_bytes += other.disk_bytes
        self.user_bytes += other.user_bytes
        self.ledger.merge(other.ledger)
        for key, values in other.extra.items():
            self.extra.setdefault(key, []).extend(values)


def pct(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q < 100), linear between closest ranks."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return float(cuts[round(q * 10) - 1])


def rss_mb_of(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def forge_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _code_digest() -> str:
    """Digest of the engine and benchmark sources: a pre-built store is
    reused only by the exact code that built it."""
    h = hashlib.sha256()
    for base in (SRC / "forge", BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prebuilt_store(workload: str, seed: int, smoke: bool) -> Path:
    """Path of the workload's pre-built store for this seed, building it in
    a child process on first use so the build never inflates this process's
    peak memory."""
    scale = "smoke" if smoke else "full"
    cache = WORK / "cache"
    path = cache / f"{workload}-{scale}-s{seed}-{_code_digest()}"
    if (path / "MANIFEST").exists():
        os.utime(path)
        return path
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".{path.name}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "run.py"), "--build-into", str(tmp),
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    subprocess.run(cmd, check=True, env=forge_env(), stdout=subprocess.DEVNULL,
                   timeout=600)
    fsync_tree(tmp)
    os.replace(tmp, path)
    older = sorted((p for p in cache.glob(f"{workload}-*") if p != path),
                   key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in older[CACHE_KEEP - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def fsync_tree(root: Path) -> None:
    """Flush every file and directory under root to disk, so that the
    kernel's writeback of them does not fall into a measured window."""
    for path in [*root.rglob("*"), root]:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def fresh_copy(src: Path, name: str) -> Path:
    dst = WORK / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(dst, ignore_errors=True)
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(src, dst)
    fsync_tree(dst)
    return dst
