"""The four workloads: their seeded inputs, one timed round, their checks.

A round is the unit a run repeats, with the same operations every time.
The library workloads also repeat the same inputs, so each of their rounds
yields the same result digest.  Each workload drives the program only
through ``Session``, ``repro serve`` with the HTTP client, and the layers'
public functions.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from perfbench import checks
from perfbench.common import (
    ROOT,
    BenchError,
    digest,
    library_setup_seconds,
    median,
    now,
    program_env,
    remove_dir,
    scratch_dir,
    stop_process,
    wait_for_file,
)


@dataclass
class Round:
    """One timed round: wall time, its outputs and, for the service, each
    job's latency from submit to result."""

    index: int
    wall: float
    attempted: int
    failed: int
    digest: str
    data: Any = None
    jobs: List[float] = field(default_factory=list)


def _pool_workers() -> int:
    """Two campaign workers (one on a single-CPU machine): never more than
    ``nproc``, and the same pool wherever ``nproc`` is at least two."""
    return max(1, min(2, os.cpu_count() or 1))


class Workload:
    """Base class: library workloads set up by importing modules and
    opening a Session in a fresh interpreter."""

    name = ""
    #: Modules the workload calls, imported during set-up.
    modules: tuple = ()
    #: Whether the workload's Session owns a result cache.
    cached = False
    session_workers = 1
    #: Whole rounds every run makes, so that every run mixes cold and warm
    #: rounds alike whatever the machine's speed.
    min_rounds = 2
    #: Every round has the same inputs, hence the same result digest.
    repeats_inputs = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def setup_seconds(self) -> float:
        return library_setup_seconds(self.modules, self.cached,
                                     self.session_workers)

    def open(self, recorder=None, preload: bool = False) -> None:
        """In-process set-up; ``recorder`` wraps the layers (traced run).
        ``preload`` imports up front what a traced run's wrappers import,
        for the untraced reference round of a traced run."""
        for name in self.modules:
            __import__(name)
        if recorder is not None:
            recorder.install()

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever :meth:`open` started."""

    def check(self, rounds: List[Round]) -> List[str]:
        raise NotImplementedError

    def discard(self) -> None:
        """Remove scratch files kept for the checks."""

    def enough(self, rounds: List[Round]) -> bool:
        """Whether a run may stop once its time is up."""
        return len(rounds) >= self.min_rounds

    def layer_metrics(self, traced: List[Round],
                      spans: List[Dict[str, Any]]) -> Dict[str, float]:
        """Per-layer metrics only this workload can compute."""
        return {}

    def server_work_seconds(self, traced: List[Round]) -> float:
        """Seconds the server spent running the traced rounds' jobs."""
        return 0.0


# ---------------------------------------------------------------------------
# cell-char: Table II, both designs, three corners, store and restore
# ---------------------------------------------------------------------------


class CellChar(Workload):
    name = "cell-char"
    modules = ("repro.analysis.tables",)
    cached = True
    CORNERS = ("fast", "typical", "slow")
    #: Transient step [s]; the naive-engine check re-runs at the same step.
    DT = 8e-12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.kept_cache: Optional[str] = None

    def run_round(self, index: int) -> Round:
        from repro.api import Session

        self.discard()
        cache = scratch_dir("cell-char-cache")
        data: Dict[str, Any] = {}
        start = now()
        with Session(cache=cache, workers=1) as session:
            for corner in self.CORNERS:
                table = session.table2(corners=[corner], dt=self.DT)
                data[corner] = (table.standard[corner],
                                table.proposed[corner])
        wall = now() - start
        self.kept_cache = cache          # the checks read it back
        record = {c: [asdict(m) for m in pair] for c, pair in data.items()}
        return Round(index, wall, len(data), 0, digest(record), data)

    def check(self, rounds: List[Round]) -> List[str]:
        return checks.cell_char(rounds[-1].data, self.DT, self.kept_cache)

    def discard(self) -> None:
        if self.kept_cache is not None:
            remove_dir(self.kept_cache)
            self.kept_cache = None


# ---------------------------------------------------------------------------
# mc-restore: restore-failure campaign on the 2-bit latch, process pool
# ---------------------------------------------------------------------------


class McRestore(Workload):
    name = "mc-restore"
    modules = ("repro.faults.analyses", "repro.faults")
    SAMPLES = 40
    DESIGN = "proposed"
    #: Samples re-run on one worker (bit-identity) and on the naive engine.
    SERIAL_SAMPLES = 6
    NAIVE_SAMPLES = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.session_workers = _pool_workers()
        self.campaign_seed = self.rng.randrange(1, 2 ** 31)

    @staticmethod
    def specs():
        from repro.faults import FaultSpec

        # A rare stuck junction (wrong reads happen) plus an SA offset well
        # inside the 2-bit cell's sense margin (it flips near 50 mV).
        return [FaultSpec("mtj.stuck", 0.02), FaultSpec("sa.offset", 0.02)]

    def open(self, recorder=None, preload: bool = False) -> None:
        from repro.api import Session

        super().open(recorder, preload)
        self.session = Session(workers=self.session_workers)

    def run_round(self, index: int) -> Round:
        workdir = scratch_dir("mc-restore")
        checkpoint = os.path.join(workdir, "campaign.jsonl")
        specs = self.specs()
        try:
            start = now()
            outcome = self.session.campaign(
                self.DESIGN, specs, samples=self.SAMPLES,
                seed=self.campaign_seed, checkpoint=checkpoint)
            wall = now() - start
        finally:
            remove_dir(workdir)
        records = outcome.report.records
        failed = sum(1 for r in records if r.status != "completed")
        record = {"failure_rate": outcome.failure_rate,
                  "mean_margin": outcome.mean_margin,
                  "records": [[r.index, r.status, r.attempts, r.result]
                              for r in records]}
        return Round(index, wall, len(records), failed, digest(record),
                     outcome)

    def close(self) -> None:
        self.session.close()

    def check(self, rounds: List[Round]) -> List[str]:
        return checks.mc_restore(
            rounds[-1].data, self.DESIGN, self.specs(), self.campaign_seed,
            self.SERIAL_SAMPLES, self.NAIVE_SAMPLES)


# ---------------------------------------------------------------------------
# system-flow: Table III rows, from 15-flop ISCAS89 to 1317-flop ITC99
# ---------------------------------------------------------------------------


class SystemFlow(Workload):
    name = "system-flow"
    modules = ("repro.analysis.tables",)
    BENCHMARKS = ("s344", "s838", "s1423", "s5378", "s13207", "s38584",
                  "b14", "b15", "b17")

    def open(self, recorder=None, preload: bool = False) -> None:
        from repro.api import Session

        super().open(recorder, preload)
        self.session = Session(workers=1)

    def run_round(self, index: int) -> Round:
        rows: Dict[str, Any] = {}
        start = now()
        for name in self.BENCHMARKS:
            ((result, _paper_pairs),) = self.session.table3([name])
            rows[name] = result
        wall = now() - start
        record = {name: row.to_json() for name, row in rows.items()}
        return Round(index, wall, len(rows), 0, digest(record), rows)

    def close(self) -> None:
        self.session.close()

    def check(self, rounds: List[Round]) -> List[str]:
        # Every round runs the same flows (equal digests), so a benchmark
        # whose placement is illegal fails in every round.
        problems, illegal = checks.system_flow(rounds[-1].data)
        for r in rounds:
            r.failed = len(illegal)
        return problems


# ---------------------------------------------------------------------------
# service-mix: repro serve driven by one closed-loop HTTP client
# ---------------------------------------------------------------------------


class ServiceMix(Workload):
    name = "service-mix"
    modules = ("repro.cli", "repro.service.http")
    repeats_inputs = False         # each round draws its own jobs
    TABLE2 = {"corners": ["typical"], "dt": 4e-12, "include_write": False}
    TABLE3_POOL = ("s344", "s838", "s1423")
    #: Jobs per round: repeated Table II, one coalescing burst, Table III.
    TABLE2_JOBS = 8
    BURST = 4
    TABLE3_JOBS = 12
    #: The bursts' campaign seed, the same in every round and every run.
    #: The seed fixes the stored bits and a burst's cost depends on them:
    #: with a seed drawn per run, ``wall_s`` differed up to twofold from
    #: one run to another.
    CAMPAIGN_SEED = 20240607
    #: A run keeps going past its time until this many jobs completed (ten
    #: rounds): 24 lie beyond the 90th percentile, which then falls among
    #: the warm rounds' campaign jobs rather than on the edge of round 0's
    #: few first-call jobs.
    MIN_JOBS = 240

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.proc: Optional[subprocess.Popen] = None
        self.dirs: List[str] = []
        self.requests: Dict[str, Dict[str, Any]] = {}
        self.coalesced = 0
        self.followers = 0
        self.refused = 0
        # A distinct SA offset per round makes every burst a new, cold
        # submission, whose leader is still running when its followers
        # arrive.
        self.offsets = self.rng.sample(range(100, 300), 200)

    def _launch(self, trace_file: Optional[str] = None,
                preload: bool = False):
        workdir = scratch_dir("service")
        self.dirs.append(workdir)
        ready = os.path.join(workdir, "ready.json")
        serve = ["serve", "--port", "0",
                 "--db", os.path.join(workdir, "jobs.sqlite"),
                 "--cache", os.path.join(workdir, "cache"),
                 "--ready-file", ready]
        if trace_file is None and not preload:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            trace = ["--trace", trace_file] if trace_file else []
            cmd = [sys.executable, str(ROOT / "perfbench" / "serverhost.py"),
                   *trace, *serve]
        start = now()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                env=program_env(), cwd=str(ROOT))
        try:
            info = wait_for_file(ready, proc)
        except BaseException:
            stop_process(proc)
            raise
        return proc, info, now() - start

    def setup_seconds(self) -> float:
        proc, _info, seconds = self._launch()
        stop_process(proc)
        return seconds

    def open(self, recorder=None, preload: bool = False) -> None:
        from repro.service.client import ServiceClient

        trace_file = None
        if recorder is not None:
            trace_file = recorder.remote_file("server")
            recorder.install()
        self.proc, info, _seconds = self._launch(trace_file, preload)
        self.client = ServiceClient(info["url"], timeout=120.0)
        self.coalesced_before = self._coalesced()

    def _coalesced(self) -> int:
        counters = self.client.metrics().get("counters", {})
        return int(counters.get("service.coalesced", 0))

    def _plan(self, index: int) -> List[Any]:
        """The round's jobs in seeded order; a burst is one entry."""
        rng = random.Random(f"{self.seed}:{index}")
        campaign = {"design": "proposed", "samples": 2, "dt": 4e-12,
                    "seed": self.CAMPAIGN_SEED,
                    "specs": [{"model": "sa.offset",
                               "magnitude": self.offsets[index] * 1e-4,
                               "target": "", "params": {}}]}
        plan: List[Any] = [("table2", dict(self.TABLE2))
                           for _ in range(self.TABLE2_JOBS)]
        # The same jobs every round, in a seeded order.
        plan += [("table3", {"benchmarks": [name]})
                 for name in self.TABLE3_POOL
                 for _ in range(self.TABLE3_JOBS // len(self.TABLE3_POOL))]
        plan.append(("burst", campaign))
        rng.shuffle(plan)
        return plan

    def _submit(self, flow: str, params: Dict[str, Any]):
        from repro.errors import QuotaError, ServiceError

        try:
            return self.client.submit(flow, params)
        except (QuotaError, ServiceError):
            self.refused += 1
            return None

    def run_round(self, index: int) -> Round:
        from repro.serialize import stable_digest

        jobs: List[float] = []
        records: List[Dict[str, Any]] = []
        failed = attempted = 0
        start = now()
        for kind, params in self._plan(index):
            flow = "campaign" if kind == "burst" else kind
            count = self.BURST if kind == "burst" else 1
            submitted = []
            for _ in range(count):
                t0 = now()
                job = self._submit(flow, params)
                submitted.append((t0, job))
            attempted += count
            for t0, job in submitted:
                if job is None:
                    failed += 1
                    continue
                record = self.client.result(job["job_id"], wait=True,
                                            timeout=120.0)
                jobs.append(now() - t0)
                if record.get("state") != "done":
                    failed += 1
                    continue
                record["received"] = time.time()
                records.append(record)
            if kind == "burst":
                self.followers += count - 1
        wall = now() - start
        outputs = []
        for record in records:
            request = record["request"]
            key = stable_digest({"flow": request["flow"],
                                 "params": request["params"]})
            self.requests.setdefault(key, {"flow": request["flow"],
                                           "params": request["params"],
                                           "digests": set()})
            result = checks.result_digest(record["result"])
            self.requests[key]["digests"].add(result)
            outputs.append([key, result])
        return Round(index, wall, attempted, failed, digest(outputs),
                     records, jobs)

    def enough(self, rounds: List[Round]) -> bool:
        return sum(len(r.jobs) for r in rounds) >= self.MIN_JOBS

    @staticmethod
    def _leaders(traced: List[Round]) -> List[Dict[str, Any]]:
        """Jobs the server ran (a coalesced follower shares its leader's
        job).  Job ids restart with every fresh server."""
        return [r for t in traced
                for r in {r["job_id"]: r for r in t.data}.values()]

    def layer_metrics(self, traced: List[Round],
                      spans: List[Dict[str, Any]]) -> Dict[str, float]:
        submits = [s["end"] - s["start"] for s in spans
                   if s["name"] == "service.submit" and s["end"] is not None]
        leaders = self._leaders(traced)
        return {
            "service.submit_s": median(submits),
            "service.queue_wait_s": median(
                [r["started"] - r["submitted"] for r in leaders]),
            "service.run_s": median(
                [r["finished"] - r["started"] for r in leaders]),
            "service.result_s": median(
                [r["received"] - r["finished"] for t in traced
                 for r in t.data]),
            "service.jobs": float(sum(len(t.jobs) for t in traced)),
        }

    def server_work_seconds(self, traced: List[Round]) -> float:
        return sum(r["finished"] - r["started"]
                   for r in self._leaders(traced))

    def close(self) -> None:
        if self.proc is not None:
            try:
                self.coalesced = self._coalesced() - self.coalesced_before
            finally:
                stop_process(self.proc)
                self.proc = None

    def check(self, rounds: List[Round]) -> List[str]:
        return checks.service_mix(self.requests, self.coalesced,
                                  self.followers, self.refused)

    def discard(self) -> None:
        for path in self.dirs:
            remove_dir(path)
        self.dirs = []


WORKLOADS = {cls.name: cls for cls in (CellChar, McRestore, SystemFlow,
                                        ServiceMix)}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}") from None


__all__ = ["Round", "Workload", "WORKLOADS", "make"]
