"""Traced run: wrap each layer's public entry points, time them, and read
the counters the program keeps.

A :class:`Recorder` replaces every reference a ``repro`` module holds to a
wrapped function (module attributes and default arguments alike) with a
timing wrapper, and restores them on :meth:`Recorder.uninstall`.  Spans
nest per thread; a layer's self time is its spans' durations minus their
children's.  Work done in other processes (campaign pool workers, the
service) is recorded there and shipped back as JSON lines.  Every process
that does the workload's work is reconciled against its own work time,
measured apart from the layer spans (see :func:`reconcile`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.common import now, percentile

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER: Dict[str, str] = {
    "import.s": "s",
    "cells.build_s": "s", "cells.builds": "count", "cells.measure_s": "s",
    "lint.preflight_s": "s", "lint.preflight_calls": "count",
    "cache.key_s": "s", "cache.lookup_s": "s", "cache.store_s": "s",
    "cache.hits": "count", "cache.misses": "count",
    "cache.hit_ratio": "ratio", "cache.repeat_share": "ratio",
    "spice.transient_s": "s", "spice.transient_calls": "count",
    "spice.dc_s": "s", "spice.dc_calls": "count",
    "spice.timesteps": "count", "spice.newton_iters": "count",
    "spice.lu_factorizations": "count", "spice.jacobian_reuses": "count",
    "spice.stamp_s.mosfet": "s", "spice.stamp_s.mtj": "s",
    "spice.stamp_s.other": "s", "spice.host_us_per_timestep": "us",
    "recovery.rungs_climbed": "count", "recovery.condition_checks": "count",
    "faults.task_s_p50": "s", "faults.task_s_p90": "s",
    "faults.attempts": "count", "faults.checkpoint_bytes": "B",
    "parallel.pool_start_s": "s", "parallel.worker_busy_share": "ratio",
    "physd.generate_s": "s", "physd.floorplan_s": "s",
    "physd.global_place_s": "s", "physd.legalize_s": "s",
    "physd.cells_placed": "count", "physd.hpwl_m": "m",
    "core.merge_s": "s", "core.merge_candidates": "count",
    "core.merged_pairs": "count", "core.evaluate_s": "s",
    "service.submit_s": "s", "service.queue_wait_s": "s",
    "service.run_s": "s", "service.result_s": "s",
    "service.coalesced": "count", "service.jobs": "count",
    "service.job_latency_p50_s": "s", "service.job_latency_p90_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

#: Program counters read from the obs registry → per-layer metric.
COUNTERS = {
    "engine.timesteps": "spice.timesteps",
    "engine.newton_iterations": "spice.newton_iters",
    "engine.jacobian_factorizations": "spice.lu_factorizations",
    "engine.jacobian_reuses": "spice.jacobian_reuses",
    "recovery.rungs_climbed": "recovery.rungs_climbed",
    "recovery.condition_checks": "recovery.condition_checks",
    "cache.hit": "cache.hits",
    "cache.miss": "cache.misses",
    "service.coalesced": "service.coalesced",
}

#: Span name → per-layer metric that sums the span's self time.
SELF_TIME_METRICS = {
    "cells.build": "cells.build_s",
    "cells.measure": "cells.measure_s",
    "lint.preflight": "lint.preflight_s",
    "cache.key": "cache.key_s",
    "cache.lookup": "cache.lookup_s",
    "cache.store": "cache.store_s",
    "spice.transient": "spice.transient_s",
    "spice.dc": "spice.dc_s",
    "physd.generate": "physd.generate_s",
    "physd.floorplan": "physd.floorplan_s",
    "physd.global_place": "physd.global_place_s",
    "physd.legalize": "physd.legalize_s",
    "core.merge": "core.merge_s",
    "core.evaluate": "core.evaluate_s",
}

#: Spans that only group calls into the layers (their self time is
#: wrapper-only time, not any layer's work) and the benchmark's own
#: bookkeeping span.
WRAPPER_SPANS = frozenset({"api.session", "faults.campaign", "faults.trial",
                           "service.submit", "service.result"})
BOOKKEEPING = "trace.bookkeeping"
#: Largest share of a process's work time that may lie outside every
#: layer's own spans before the reconciliation fails.
UNATTRIBUTED_SHARE = 0.10

#: Span name → metric counting the span's calls.
CALL_METRICS = {
    "cells.build": "cells.builds",
    "lint.preflight": "lint.preflight_calls",
    "spice.transient": "spice.transient_calls",
    "spice.dc": "spice.dc_calls",
}


def counters() -> Dict[str, float]:
    from repro.obs import metrics

    return dict(metrics().snapshot().get("counters", {}))


def delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


class Recorder:
    """Spans, counts and cache keys of one process's traced work."""

    def __init__(self, outdir: str) -> None:
        self.outdir = outdir
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.keys: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, Any, Any]] = []
        self.installed = False
        #: One entry per traced campaign (every install adds to it).
        self.campaigns: List[Dict[str, Any]] = []
        #: The traced round in progress (forked pool workers inherit it).
        self.round = 0

    # -- spans ---------------------------------------------------------------

    def _fork_check(self) -> None:
        """A forked pool worker inherits the parent's records: drop them."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.keys = [], []
            self.counts = defaultdict(float)
            self._local = threading.local()
            self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, wait: bool = False) -> Dict[str, Any]:
        """Open a span; ``wait`` marks one in which this process waits for
        work done in another (a pool, the server)."""
        self._fork_check()
        stack = self._stack()
        span = {"name": name, "layer": name.split(".")[0], "pid": self.pid,
                "tid": threading.get_ident(), "start": now(), "end": None,
                "parent": stack[-1] if stack else None, "children": 0.0,
                "wait": wait}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = now()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        if span["parent"] is not None:
            parent = self.spans[span["parent"]]
            parent["children"] += span["end"] - span["start"]

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None, wait: bool = False
             ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = recorder.begin(name, wait)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                trace = recorder.begin(BOOKKEEPING)
                try:
                    after(result, args, kwargs)
                finally:
                    recorder.end(trace)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        """Point every reference a repro module holds at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                elif inspect.isfunction(value) and value.__defaults__ \
                        and any(d is original for d in value.__defaults__):
                    old = value.__defaults__
                    value.__defaults__ = tuple(
                        wrapper if d is original else d for d in old)
                    self._patches.append((value, "__defaults__", old))

    def patch(self, module_name: str, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        module = sys.modules.get(module_name) or __import__(
            module_name, fromlist=["_"])
        original = getattr(module, attr)
        self._replace(original, self.wrap(original, name, after))

    def patch_method(self, cls: type, attr: str, name: str,
                     wait: bool = False) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, wait=wait))
        self._patches.append((cls, attr, original))

    @staticmethod
    def preload() -> None:
        """Import every module :meth:`install` wraps."""
        import repro.analysis.tables  # noqa: F401
        import repro.faults.analyses  # noqa: F401
        import repro.service.client  # noqa: F401

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        if self.installed:
            return
        self.preload()
        from repro.api import Session
        from repro.cache.analysis import DCHandle, TransientHandle

        self.patch("repro.cells.nvlatch_1bit", "build_standard_latch",
                   "cells.build")
        self.patch("repro.cells.nvlatch_2bit", "build_proposed_latch",
                   "cells.build")
        for fn in ("characterize_standard", "characterize_proposed",
                   "leakage_power"):
            self.patch("repro.cells.characterize", fn, "cells.measure")
        self.patch("repro.faults.inject", "build_faulty_standard",
                   "faults.inject")
        self.patch("repro.faults.inject", "build_faulty_proposed",
                   "faults.inject")
        self.patch("repro.lint", "preflight", "lint.preflight")
        self.patch("repro.cache.analysis", "transient_handle", "cache.key")
        self.patch("repro.cache.analysis", "dc_handle", "cache.key")
        for cls in (TransientHandle, DCHandle):
            self.patch_method(cls, "lookup", "cache.lookup")
            self.patch_method(cls, "store", "cache.store")
        self._patch_transient()
        self.patch("repro.spice.analysis.dc", "solve_dc", "spice.dc")
        self._patch_campaign()
        self.patch("repro.physd.benchmarks", "generate_benchmark",
                   "physd.generate")
        self.patch("repro.physd.floorplan", "build_floorplan",
                   "physd.floorplan")
        self.patch("repro.physd.placement.global_place", "global_place",
                   "physd.global_place")
        self.patch("repro.physd.placement.legalize", "legalize",
                   "physd.legalize", after=self._after_legalize)
        self.patch("repro.physd.placement.driver", "place_design",
                   "physd.place")
        self.patch("repro.core.merge", "find_mergeable_pairs", "core.merge",
                   after=self._after_merge)
        self.patch("repro.core.replace", "plan_replacement", "core.replace")
        self.patch("repro.core.evaluate", "evaluate_system", "core.evaluate")
        self.patch("repro.core.flow", "run_system_flow", "core.flow")
        for method in ("table2", "table3", "campaign"):
            self.patch_method(Session, method, "api.session")
        from repro.service.client import ServiceClient

        self.patch_method(ServiceClient, "submit", "service.submit", wait=True)
        self.patch_method(ServiceClient, "result", "service.result", wait=True)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []
        self.installed = False

    # -- layer hooks -----------------------------------------------------------

    def _patch_transient(self) -> None:
        """``run_transient``, plus the cache key of every request (cache on
        or off) for ``cache.repeat_share``."""
        from repro.cache.keys import request_key, transient_request
        from repro.recovery.policy import DEFAULT_POLICY
        from repro.spice.analysis import transient

        original = transient.run_transient
        signature = inspect.signature(original)

        def key_of(args: Any, kwargs: Any) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            engine = a["engine"] or transient.get_default_engine()
            adaptive = None
            if engine == "sparse":
                from repro.spice.analysis.sparse import (
                    DEFAULT_LTE_TOL,
                    DEFAULT_MAX_DT_FACTOR,
                )
                adaptive = {"adaptive": a["adaptive"],
                            "lte_tol": a["lte_tol"] or DEFAULT_LTE_TOL,
                            "max_dt_factor": a["max_dt_factor"]
                            or DEFAULT_MAX_DT_FACTOR}
            policy = a["recovery"] or DEFAULT_POLICY
            request = transient_request(
                a["circuit"], stop_time=a["stop_time"], dt=a["dt"],
                integrator=a["integrator"],
                initial_voltages=a["initial_voltages"],
                dc_seed=a["dc_seed"], max_iterations=a["max_iterations"],
                vtol=a["vtol"], damping=a["damping"], engine=engine,
                adaptive=adaptive, recovery=policy.fingerprint())
            # Tagged with the traced round: repeats count within a round.
            self.keys.append(f"{self.round}:{request_key(request)}")

        timed = self.wrap(original, "spice.transient")

        @functools.wraps(original)
        def run_transient(*args: Any, **kwargs: Any) -> Any:
            # Keyed before the run: the run changes the circuit's state.
            span = self.begin(BOOKKEEPING)
            try:
                key_of(args, kwargs)
            finally:
                self.end(span)
            return timed(*args, **kwargs)

        self._replace(original, run_transient)

    def _patch_campaign(self) -> None:
        """``run_campaign`` runs each task through :class:`TracedTask`, so
        pool workers ship their spans and counters back."""
        from repro.faults import campaign

        original = campaign.run_campaign
        recorder = self

        @functools.wraps(original)
        def run_campaign(fn: Callable, items: Any, *args: Any,
                         **kwargs: Any) -> Any:
            workers = kwargs.get("workers") or 1
            span = recorder.begin("faults.campaign", wait=workers > 1)
            try:
                report = original(TracedTask(fn, recorder.outdir), items,
                                  *args, **kwargs)
            finally:
                recorder.end(span)
            recorder.campaigns.append({
                "start": span["start"], "end": span["end"],
                "workers": workers,
                "elapsed": [r.elapsed for r in report.records],
                "attempts": report.attempts_total,
                "checkpoint_bytes": (os.path.getsize(kwargs["checkpoint"])
                                     if kwargs.get("checkpoint") else 0)})
            return report

        self._replace(original, run_campaign)

    def _after_legalize(self, placement: Any, args: Any, kwargs: Any) -> None:
        self.counts["physd.cells_placed"] += len(placement.positions)
        self.counts["physd.hpwl_m"] += placement.hpwl()

    def _after_merge(self, merge: Any, args: Any, kwargs: Any) -> None:
        self.counts["core.merge_candidates"] += merge.candidate_count
        self.counts["core.merged_pairs"] += len(merge.pairs)

    # -- remote processes -------------------------------------------------------

    def remote_file(self, tag: str) -> str:
        return os.path.join(self.outdir, f"remote-{tag}-{os.getpid()}.jsonl")

    def drain(self) -> Dict[str, Any]:
        """This process's records as one JSON-able dict (and forget them)."""
        self._fork_check()
        out = {"pid": self.pid, "spans": self.spans,
               "counts": dict(self.counts), "keys": self.keys}
        self.spans, self.keys = [], []
        self.counts = defaultdict(float)
        return out


class TracedTask:
    """Picklable campaign task wrapper: runs the trial, then appends the
    worker's spans, keys and counter deltas to a per-process file."""

    def __init__(self, fn: Callable, outdir: str) -> None:
        self.fn = fn
        self.outdir = outdir

    def __call__(self, item: Any, rng: Any) -> Any:
        recorder = _ACTIVE.get("recorder")
        before = counters()
        start = now()
        span = recorder.begin("faults.trial") if recorder else None
        try:
            return self.fn(item, rng)
        finally:
            if recorder is not None:
                recorder.end(span)
            end = now()
            if os.getpid() != _ACTIVE.get("pid"):
                record = recorder.drain() if recorder else {"spans": []}
                record.update(pid=os.getpid(), task_start=start,
                              task_end=end,
                              counters=delta(counters(), before))
                path = os.path.join(self.outdir,
                                    f"remote-worker-{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")


#: The main process's recorder and pid, inherited by forked workers.
_ACTIVE: Dict[str, Any] = {}


def activate(recorder: Recorder) -> None:
    _ACTIVE["recorder"] = recorder
    _ACTIVE["pid"] = os.getpid()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span name → summed self time."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["end"] is None:
            continue
        out[span["name"]] += span["end"] - span["start"] - span["children"]
    return dict(out)


def layer_self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        out[name.split(".")[0]] += seconds
    return dict(out)


def _split(spans: List[Dict[str, Any]]) -> Tuple[float, float, float]:
    """(layer self time, bookkeeping self time, wait self time) of one
    process's spans."""
    layer = book = wait = 0.0
    for span in spans:
        if span["end"] is None:
            continue
        own = span["end"] - span["start"] - span["children"]
        if span.get("wait"):
            wait += own
        elif span["name"] == BOOKKEEPING:
            book += own
        elif span["name"] not in WRAPPER_SPANS:
            layer += own
    return layer, book, wait


def reconcile(main: Dict[str, Any], remote: List[Dict[str, Any]],
              campaigns: List[Dict[str, Any]], walls: List[float],
              server_work: float) -> Tuple[List[Dict[str, Any]],
                                           List[str]]:
    """Account for every process's work time with its layer spans.

    A process's work time is measured apart from the layer spans: the
    traced rounds' wall time less the time the main process waits for a
    pool or the server; each pool worker's task times; the server's job
    run times from its own job records.  Work time = layer self time +
    bookkeeping + unattributed, where unattributed is the time outside
    every layer's own spans (wrapper-only self time included).  The check
    fails when a working process leaves more than
    :data:`UNATTRIBUTED_SHARE` of its work unattributed, when spans claim
    more than the work time, or when other processes did more work than
    the main process waited for."""
    procs: Dict[str, Dict[str, Any]] = {}

    def account(name: str, spans: List[Dict[str, Any]], work: float,
                wall: float) -> None:
        proc = procs.setdefault(name, {"process": name, "wall_s": 0.0,
                                       "work_s": 0.0, "layer_s": 0.0,
                                       "bookkeeping_s": 0.0, "wait_s": 0.0})
        layer, book, wait = _split(spans)
        proc["wall_s"] += wall
        proc["work_s"] += work - wait
        proc["layer_s"] += layer
        proc["bookkeeping_s"] += book
        proc["wait_s"] += wait

    account("main", main["spans"], sum(walls), sum(walls))
    for record in remote:
        if "task_start" in record:
            task = record["task_end"] - record["task_start"]
            account(f"worker-{record['pid']}", record["spans"], task, task)
        else:
            account("server", record["spans"], 0.0, 0.0)
    if "server" in procs:
        procs["server"]["work_s"] = procs["server"]["wall_s"] = server_work

    problems: List[str] = []
    main_wall = procs["main"]["wall_s"]
    for proc in procs.values():
        proc["unattributed_s"] = (proc["work_s"] - proc["layer_s"]
                                  - proc["bookkeeping_s"])
        if proc["work_s"] < 0.05 * main_wall:
            continue            # a process that only waits or barely works
        share = proc["unattributed_s"] / proc["work_s"]
        if not -0.01 <= share <= UNATTRIBUTED_SHARE:
            problems.append(f"{proc['process']}: {share:.1%} of its "
                            f"{proc['work_s']:.3f} s of work is outside the "
                            f"layers' spans (allowed 0 to "
                            f"{UNATTRIBUTED_SHARE:.0%})")
    remote_work = sum(p["work_s"] for p in procs.values()
                      if p["process"] != "main")
    waited = procs["main"]["wait_s"]
    capacity = sum((c["end"] - c["start"]) * c["workers"]
                   for c in campaigns if c["workers"] > 1)
    if "server" in procs:
        capacity += waited      # one closed-loop client: jobs run while it waits
    if remote_work > 1.01 * capacity + 0.01:
        problems.append(f"other processes worked {remote_work:.3f} s, more "
                        f"than the {capacity:.3f} s the main process waited "
                        "for (times the pool size)")
    return sorted(procs.values(), key=lambda p: p["process"]), problems


def read_remote(outdir: str) -> List[Dict[str, Any]]:
    records = []
    for entry in sorted(os.listdir(outdir)):
        if entry.startswith("remote-") and entry.endswith(".jsonl"):
            with open(os.path.join(outdir, entry), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh if line.strip())
    return records


def per_layer_metrics(main: Dict[str, Any], remote: List[Dict[str, Any]],
                      campaigns: List[Dict[str, Any]],
                      main_counters: Dict[str, float],
                      service: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``import.s`` and ``trace.*``
    (the caller measures those)."""
    spans = list(main["spans"])
    keys = list(main["keys"])
    counts: Dict[str, float] = defaultdict(float, main["counts"])
    totals: Dict[str, float] = defaultdict(float, main_counters)
    busy = 0.0
    task_starts = []
    for record in remote:
        spans.extend(record.get("spans", []))
        if "task_start" in record:
            keys.extend(record.get("keys", []))
        else:           # a server: one process per traced round
            keys.extend(f"{record['pid']}:{k}" for k in record.get("keys", []))
        for k, v in record.get("counts", {}).items():
            counts[k] += v
        for k, v in record.get("counters", {}).items():
            totals[k] += v
        if "task_start" in record:
            busy += record["task_end"] - record["task_start"]
            task_starts.append(record["task_start"])

    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name, seconds in self_times(spans).items():
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += seconds
    for span in spans:
        if span["name"] in CALL_METRICS and span["end"] is not None:
            out[CALL_METRICS[span["name"]]] += 1
    for counter, metric in COUNTERS.items():
        out[metric] = float(totals.get(counter, 0))
    for key, value in totals.items():
        if key.startswith("engine.stamp_seconds."):
            cls = key.rsplit(".", 1)[1]
            kind = ("mosfet" if "MOSFET" in cls
                    else "mtj" if "MTJ" in cls else "other")
            out[f"spice.stamp_s.{kind}"] += value
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    if keys:
        out["cache.repeat_share"] = 1.0 - len(set(keys)) / len(keys)
    if out["spice.timesteps"]:
        out["spice.host_us_per_timestep"] = (
            1e6 * out["spice.transient_s"] / out["spice.timesteps"])
    for name in ("physd.cells_placed", "physd.hpwl_m",
                 "core.merge_candidates", "core.merged_pairs"):
        out[name] = float(counts.get(name, 0.0))

    elapsed = [e for c in campaigns for e in c["elapsed"]]
    if elapsed:
        out["faults.task_s_p50"] = percentile(elapsed, 0.5)
        out["faults.task_s_p90"] = percentile(elapsed, 0.9)
        out["faults.attempts"] = float(sum(c["attempts"] for c in campaigns))
        out["faults.checkpoint_bytes"] = float(
            sum(c["checkpoint_bytes"] for c in campaigns))
        pooled = [c for c in campaigns if c["workers"] > 1]
        if pooled and task_starts:
            first = min(c["start"] for c in pooled)
            out["parallel.pool_start_s"] = min(task_starts) - first
            capacity = sum((c["end"] - c["start"]) * c["workers"]
                           for c in pooled)
            out["parallel.worker_busy_share"] = busy / capacity
    out.update(service)
    return out


def chrome_trace(main: Dict[str, Any], remote: List[Dict[str, Any]],
                 tracers: List[Any]) -> Dict[str, Any]:
    """Chrome ``trace_event`` document: the benchmark's layer spans of
    every process plus the program's own spans of the main process (one
    tracer per traced round), all on one clock (``perf_counter`` is shared
    by every process of the machine) that starts at the first tracer."""
    epoch = min(t.epoch for t in tracers)
    events = []
    for record in [main] + remote:
        for span in record.get("spans", []):
            if span["end"] is None:
                continue
            events.append({"name": span["name"], "cat": span["layer"],
                           "ph": "X", "pid": span["pid"],
                           "tid": span["tid"] % 100000,
                           "ts": (span["start"] - epoch) * 1e6,
                           "dur": (span["end"] - span["start"]) * 1e6})
    for tracer in tracers:
        shift = (tracer.epoch - epoch) * 1e6
        for span in tracer.records:
            events.append({"name": span.name,
                           "cat": f"repro.{span.category}", "ph": "X",
                           "pid": span.pid, "tid": 0,
                           "ts": span.ts_us + shift, "dur": span.dur_us})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def import_seconds(modules: Tuple[str, ...]) -> float:
    """Time to import ``modules`` in a fresh interpreter (in-child clock)."""
    import subprocess

    from perfbench.common import ROOT, program_env

    code = ("import sys, time\nt = time.perf_counter()\n"
            "for m in sys.argv[1:]:\n    __import__(m)\n"
            "print(time.perf_counter() - t)\n")
    out = subprocess.run([sys.executable, "-c", code, *modules],
                         capture_output=True, env=program_env(),
                         cwd=str(ROOT), timeout=120, check=True)
    return float(out.stdout.decode().strip())


__all__ = ["PER_LAYER", "Recorder", "TracedTask", "activate", "chrome_trace",
           "counters", "delta", "import_seconds", "layer_self_times",
           "per_layer_metrics", "read_remote", "reconcile", "self_times"]
