"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cell-char --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(host time, tracing off).  With ``--trace 1`` the run then alternates
three untraced reference rounds with three rounds that have every layer
wrapped and the program's tracing on, writes the per-layer metrics and a
Chrome trace under ``.perfbench/out/``, and the last line carries the
per-layer metrics instead.  Lines before the last
start with ``#`` and record the result digest, rounds and checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    SETUP_REPEATS,
    WORK,
    BenchError,
    median,
    now,
    percentile,
    peak_rss_mb,
    remove_dir,
    require_program,
    result_line,
    scratch_dir,
)

OUT = WORK / "out"
#: Traced rounds of a ``--trace 1`` run, each after a reference round.
TRACED_ROUNDS = 3


def _info(key: str, value) -> None:
    print(f"# {key}: {json.dumps(value)}", flush=True)


def run_rounds(workload, seconds: float):
    rounds = []
    start = now()
    while now() - start < seconds or not workload.enough(rounds):
        rounds.append(workload.run_round(len(rounds)))
    return rounds


def end_to_end(workload, seconds: float):
    """Set-ups, timed rounds and checks; returns (rounds, metrics,
    problems)."""
    setups = [workload.setup_seconds() for _ in range(SETUP_REPEATS)]
    workload.open()
    try:
        rounds = run_rounds(workload, seconds)
    finally:
        workload.close()
    rss = peak_rss_mb()
    try:
        problems = workload.check(rounds)
    finally:
        workload.discard()
    if workload.repeats_inputs and len({r.digest for r in rounds}) > 1:
        problems.append("rounds with the same inputs gave different results")
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": median([r.wall for r in rounds]), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    _info("digest", rounds[0].digest)
    _info("rounds", [round(r.wall, 4) for r in rounds])
    _info("setups", [round(s, 4) for s in setups])
    return rounds, metrics, problems


def traced(workload, rounds):
    """TRACED_ROUNDS more rounds with every layer wrapped, each after an
    untraced reference round in the same state; per-layer metrics."""
    from perfbench import layers
    from repro import obs

    references, traced_rounds, tracers = [], [], []
    counters: dict = {}
    outdir = scratch_dir("trace")
    try:
        recorder = layers.Recorder(outdir)
        layers.activate(recorder)
        for index in range(TRACED_ROUNDS):
            # The reference round runs in the traced round's state: a warm
            # process, or a fresh server with the same modules loaded.
            workload.open(preload=True)
            try:
                references.append(workload.run_round(0))
            finally:
                workload.close()
                workload.discard()
            recorder.round = index
            workload.open(recorder)
            tracers.append(obs.enable_tracing(fresh=True))
            before = layers.counters()
            try:
                traced_rounds.append(workload.run_round(0))
            finally:
                obs.disable_tracing()
                for key, value in layers.delta(layers.counters(),
                                               before).items():
                    counters[key] = counters.get(key, 0) + value
                workload.close()
                recorder.uninstall()
            workload.discard()
        main = recorder.drain()
        remote = layers.read_remote(outdir)
    finally:
        remove_dir(outdir)

    walls = [r.wall for r in traced_rounds]
    processes, problems = layers.reconcile(
        main, remote, recorder.campaigns, walls,
        workload.server_work_seconds(traced_rounds))
    service = workload.layer_metrics(traced_rounds, main["spans"])
    jobs = [t for r in rounds for t in r.jobs]
    if jobs:
        service["service.job_latency_p50_s"] = percentile(jobs, 0.5)
        service["service.job_latency_p90_s"] = percentile(jobs, 0.9)
    metrics = layers.per_layer_metrics(main, remote, recorder.campaigns,
                                       counters, service)
    metrics["import.s"] = layers.import_seconds(workload.modules)
    metrics["trace.overhead_s"] = (median(walls)
                                   - median([r.wall for r in references]))
    metrics["trace.unattributed_s"] = sum(p["unattributed_s"]
                                          for p in processes)
    for label, again in (("reference", references), ("traced",
                                                      traced_rounds)):
        if any(r.digest != rounds[0].digest for r in again):
            problems.append(f"a {label} round's result digest differs")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced_walls_s": walls,
        "reference_walls_s": [r.wall for r in references],
        "layer_self_s": layers.layer_self_times(
            main["spans"] + [s for r in remote for s in r.get("spans", [])]),
        "processes": processes,
        "metrics": {k: {"value": v, "unit": layers.PER_LAYER[k]}
                    for k, v in metrics.items()},
    }
    with open(OUT / f"{workload.name}-layers.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    with open(OUT / f"{workload.name}-trace.json", "w",
              encoding="utf-8") as handle:
        json.dump(layers.chrome_trace(main, remote, tracers), handle)
    for proc in processes:
        _info(f"reconciled {proc['process']}",
              {k: round(v, 6) for k, v in proc.items() if k != "process"})
    return ({k: {"value": v, "unit": layers.PER_LAYER[k]}
             for k, v in metrics.items()}, problems)


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS, make

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        workload = make(args.workload, args.seed)
        rounds, metrics, problems = end_to_end(workload, args.seconds)
        if args.trace:
            metrics, traced_problems = traced(workload, rounds)
            problems += traced_problems
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"# CHECK FAILED: {problem}", flush=True)
    _info("checks", "ok" if not problems else f"{len(problems)} failed")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(result_line(not problems, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
