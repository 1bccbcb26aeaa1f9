"""Run ``forge serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS_FILE serve --path ... --addr ...

The arguments after SPANS_FILE go to the ``forge`` command line unchanged.
Tracing starts on; a request with opcode ``SWITCH_OPCODE`` and head
``{"on": bool}`` switches it. The server's spans are written to SPANS_FILE
when it exits.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from forge.cli import main as forge_main
    import forge.wire.server as wire_server
    from perfbench.spans import SWITCH_OPCODE, Tracer

    tracer = Tracer("server").install()

    def switch(_server, head, _tail):
        tracer.switch(head["on"])
        return {}, b""

    wire_server._HANDLERS[SWITCH_OPCODE] = switch
    atexit.register(tracer.write, Path(sys.argv[1]))
    forge_main(sys.argv[2:], prog_name="forge")


if __name__ == "__main__":
    main()
