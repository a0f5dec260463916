"""Traced run of every workload, with the per-layer metrics side by side.

    python3 perfbench/trace.py

Runs ``run.py --trace 1`` with seed 1 once per workload of
``BENCHMARK.json``: the untraced run with its checks, then three reference
rounds alternating with three rounds that have the layers wrapped and the
program's tracing on.  Collects the per-layer metrics of all workloads
into ``.perfbench/out/layers.json`` (one Chrome trace per workload sits
beside it as ``<workload>-trace.json``), prints them as a table, and
prints each process's reconciliation: its work time against its layer
self times, the benchmark's bookkeeping and the unattributed rest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, WORK, BenchError, invoke  # noqa: E402

#: The traced runs' seed.
SEED = 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    out = WORK / "out"
    records = {}
    ok = True
    for workload in workloads:
        try:
            result = invoke(workload, SEED, bench["run_seconds"], 1)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        records[workload] = json.loads(
            (out / f"{workload}-layers.json").read_text())

    names = [m["name"] for m in bench["per_layer"]]
    print(f"{'metric':<28}" + "".join(f"{w:>14}" for w in workloads))
    for name in names:
        print(f"{name:<28}" + "".join(
            f"{records[w]['metrics'][name]['value']:>14.6g}"
            for w in workloads))
    print()
    for workload in workloads:
        r = records[workload]
        layers = ", ".join(f"{k} {v:.3f}"
                           for k, v in sorted(r["layer_self_s"].items()))
        walls = ", ".join(f"{w:.3f}" for w in r["traced_walls_s"])
        refs = ", ".join(f"{w:.3f}" for w in r["reference_walls_s"])
        print(f"{workload}: traced rounds {walls} s, reference rounds "
              f"{refs} s; layer self times, all processes: {layers}")
        for p in r["processes"]:
            print(f"  {p['process']}: work {p['work_s']:.3f} s = layers "
                  f"{p['layer_s']:.3f} + bookkeeping "
                  f"{p['bookkeeping_s']:.3f} + unattributed "
                  f"{p['unattributed_s']:.4f} s (waited "
                  f"{p['wait_s']:.3f} s)")
    (out / "layers.json").write_text(json.dumps(records, indent=2,
                                                sort_keys=True))
    print(f"\nrecord: {out / 'layers.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
