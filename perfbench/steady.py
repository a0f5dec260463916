"""Steadiness: run two sets of runs of the same code and compare them.

    python3 perfbench/steady.py

Each of the two sets runs every workload of ``BENCHMARK.json`` once per
seed 1..10 with its ``run_seconds``.  For every workload and end-to-end
metric it prints each set's median and quartiles (``statistics.quantiles``,
n=4), the spread (quartile distance over median) and whether the sets
agree within the metric's bound: each spread within the bound, and the two
medians within the bound of each other (``|m2 / m1 - 1| <= bound``).  It
also requires the same share of failed operations and, seed by seed, the
same result digest in both sets.  The full record goes to
``.perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, WORK, BenchError, invoke  # noqa: E402

#: Runs per set, one per seed.
RUNS = 10


def summarise(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = names
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets: List[Dict[str, List[Dict[str, Any]]]] = []
    for number in range(2):
        runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
        for seed in range(1, RUNS + 1):
            for workload in workloads:
                try:
                    result = invoke(workload, seed, bench["run_seconds"], 0)
                except BenchError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                runs[workload].append(result)
                print(f"set {number + 1} seed {seed} {workload}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
        sets.append(runs)

    report: Dict[str, Any] = {"runs": RUNS, "sets": [], "verdict": {}}
    all_ok = True
    for workload in workloads:
        print(f"\n{workload}")
        shares = []
        per_set = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs[workload])
            failed = sum(r["failed"] for r in runs[workload])
            shares.append(failed / attempted)
            per_set.append({name: summarise([r["metrics"][name]["value"]
                                             for r in runs[workload]])
                            for name in bounds})
            if not all(r["correct"] for r in runs[workload]):
                all_ok = False
                print("  a run reported incorrect output")
        verdict: Dict[str, Any] = {"failed_share": shares}
        for name, bound in bounds.items():
            stats = [s[name] for s in per_set]
            ok = (all(s["spread"] <= bound for s in stats)
                  and abs(stats[1]["median"] / stats[0]["median"] - 1)
                  <= bound)
            all_ok = all_ok and ok
            verdict[name] = ok
            cells = "  ".join(
                f"set{i + 1} median {s['median']:.4g} "
                f"[{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.2%}"
                for i, s in enumerate(stats))
            print(f"  {name:<18} {cells}  bound {bound:.0%}  "
                  f"{'agree' if ok else 'DISAGREE'}")
        same = [a.get("digest") == b.get("digest") for a, b in
                zip(sets[0][workload], sets[1][workload])]
        verdict["digests_equal"] = all(same)
        verdict["failed_share_equal"] = shares[0] == shares[1]
        all_ok = all_ok and all(same) and shares[0] == shares[1]
        print(f"  failed share {shares}  digests equal per seed: "
              f"{all(same)}")
        report["verdict"][workload] = verdict
    report["sets"] = [{w: [{k: r[k] for k in ("metrics", "attempted",
                                               "failed", "digest")}
                           for r in runs[w]] for w in workloads}
                      for runs in sets]
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=2))
    print(f"\n{'STEADY' if all_ok else 'NOT STEADY'} "
          f"(record: {out / 'steady.json'})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
