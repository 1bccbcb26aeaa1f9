"""tensorforge: desk-scale deep-learning experiment orchestration.

One writable engine process owns a store directory; agents, the master, and
the CLI reach it either in-process (`forge.engine.Forge`) or over TCP
(`forge.wire`).
"""

__version__ = "0.1.0"
