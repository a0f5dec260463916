"""Shared helpers of the benchmark: paths, clocks, statistics, digests.

Everything the benchmark writes goes under ``.perfbench/`` at the root of
the checkout (ignored by git) and is removed again by the run that made
it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark imports them from here.
SRC = ROOT / "src"
#: Scratch space for caches, job stores, checkpoints and trace files.
WORK = ROOT / ".perfbench"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken server)."""


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}: the benchmark "
                         "must run from a full checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    # A cache directory inherited from the caller would warm the workloads.
    env.pop("REPRO_CACHE_DIR", None)
    return env


def scratch_dir(tag: str) -> str:
    """A new empty directory under :data:`WORK`."""
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()            # only succeeds once every run has cleaned up
    except OSError:
        pass


def now() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by nearest rank (a value that was observed);
    refused unless :data:`TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < TAIL_SAMPLES:
        raise BenchError(f"a {q:.0%} percentile of {len(ordered)} samples "
                         f"has fewer than {TAIL_SAMPLES} beyond it")
    return float(ordered[rank - 1])


def digest(obj: Any) -> str:
    """SHA-256 of a canonical JSON form (floats by repr, so bit-exact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child
    (set-up interpreters, pool workers, the service) [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

#: Child program for a library workload's set-up: import what the workload
#: calls, open its Session, report ready.  argv: cache dir ('' = none),
#: Session workers, then module names.
_SETUP_CHILD = """
import sys
for name in sys.argv[3:]:
    __import__(name)
from repro.api import Session
session = Session(cache=sys.argv[1] or None, workers=int(sys.argv[2]))
sys.stdout.write("ready\\n")
sys.stdout.flush()
session.close()
"""


def library_setup_seconds(modules: Sequence[str], cached: bool,
                          workers: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    ``modules`` and opened its Session."""
    cache_dir = scratch_dir("setup-cache") if cached else ""
    try:
        start = now()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, cache_dir, str(workers),
             *modules],
            stdout=subprocess.PIPE, env=program_env(), cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            elapsed = now() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line != b"ready\n" or code != 0:
            raise BenchError(f"set-up interpreter failed (exit {code})")
        return elapsed
    finally:
        if cache_dir:
            remove_dir(cache_dir)


def wait_for_file(path: str, proc: subprocess.Popen,
                  timeout: float = 60.0) -> Dict[str, Any]:
    """Poll until ``path`` holds a JSON document; fail if ``proc`` dies."""
    deadline = now() + timeout
    while now() < deadline:
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    return json.load(handle)
            except ValueError:
                pass            # caught mid-write; poll again
        if proc.poll() is not None:
            raise BenchError(f"server exited early (code {proc.returncode})")
        time.sleep(0.002)
    raise BenchError(f"no ready file at {path} after {timeout:.0f} s")


def stop_process(proc: Optional[subprocess.Popen],
                 timeout: float = 30.0) -> None:
    """SIGTERM, wait, and SIGKILL if it does not end in time."""
    if proc is None or proc.poll() is not None:
        if proc is not None:
            proc.wait()
        return
    proc.terminate()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def invoke(workload: str, seed: int, seconds: int, trace: int
           ) -> Dict[str, Any]:
    """Run ``run.py`` once in a child interpreter: its result line, plus
    the result digest it printed as ``digest``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed} failed (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# digest: "):
            result["digest"] = json.loads(line[len("# digest: "):])
    return result


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Any]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
