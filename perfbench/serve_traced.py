"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py OUT_PREFIX SERVE_ARGS...``

Each ``SIGUSR1`` writes the spans recorded since the previous one to
``OUT_PREFIX.<n>.json`` (n = 1, 2, ...) and starts a new phase, so the
benchmark can split server time by phase without touching the server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import (  # noqa: E402
    SERVER_TARGETS,
    Recorder,
    install,
    install_json_encode,
)


def main(argv: list[str]) -> int:
    prefix = argv[0]
    recorder = Recorder()
    install(recorder, SERVER_TARGETS)
    install_json_encode(recorder, "repro.serve.server")
    dumps = [0]

    def dump(_signum, _frame) -> None:
        dumps[0] += 1
        path = Path(f"{prefix}.{dumps[0]}.json")
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(recorder.drain()))
        os.replace(temporary, path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv[1:]])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
