"""Run ``repro serve`` with the flow modules imported up front and,
given ``--trace OUT.jsonl``, the benchmark's layer wrappers and the
program's tracing on (the traced run of the service-mix workload).

    python3 perfbench/serverhost.py [--trace OUT.jsonl] serve --port 0 ...

The arguments from ``serve`` on are passed to ``repro``.  A traced server
appends its spans, counts, cache keys and obs counters to ``OUT.jsonl``
as one JSON line when it stops.  Without ``--trace`` the server is the
untraced reference: the same imports, nothing wrapped.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, layers  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    out = None
    if args[:1] == ["--trace"]:
        out, args = args[1], args[2:]
    common.require_program()
    import repro.cli
    from repro import obs

    recorder = layers.Recorder(os.path.dirname(out or "."))
    recorder.preload()
    if out is None:
        return repro.cli.main(args)
    layers.activate(recorder)
    recorder.install()
    obs.enable_tracing(fresh=True)
    try:
        return repro.cli.main(args)
    finally:
        obs.disable_tracing()
        record = recorder.drain()
        record["counters"] = layers.counters()
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
