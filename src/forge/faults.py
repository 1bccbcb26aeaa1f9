"""Cooperative kill-point injection for crash-recovery tests.

The agent loop, the train handler, the master's step and each stream
poll's commit, and the log's snapshot protocol call :func:`kill_point` at
named boundaries; every name has a test that arms it. In normal operation
every point is unarmed and the call is a no-op. Tests arm a point to raise
:class:`KillPoint` on its nth hit, simulating a process dying there; the
harness then restarts the component from persisted state.
"""

from __future__ import annotations

import threading

_lock = threading.Lock()
_armed: dict[str, int] = {}


class KillPoint(BaseException):
    """Simulated process death. BaseException so handlers cannot swallow it."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def arm(name: str, hits: int = 1) -> None:
    """Arm ``name`` to fire on its ``hits``-th traversal."""
    with _lock:
        _armed[name] = hits


def disarm_all() -> None:
    with _lock:
        _armed.clear()


def kill_point(name: str) -> None:
    with _lock:
        left = _armed.get(name)
        if left is None:
            return
        left -= 1
        if left > 0:
            _armed[name] = left
            return
        del _armed[name]
    raise KillPoint(name)
