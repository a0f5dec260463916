"""Output checks, run after the timed section of every run.

Each check compares the program's output with a computation made apart
from it (the naive reference engine, a serial re-run, a brute-force pass
over the placement, a direct Session run) or with a property the method
must have.  None compares with a stored copy of earlier output.  Every
function returns the list of violations; an empty list means correct.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: The paper's Table II read-path transistor counts (two standard
#: latches, proposed 2-bit latch).
PAPER_TRANSISTORS = (22, 16)
#: The paper's Table III flip-flop counts.
PAPER_FLIP_FLOPS = {"s344": 15, "s838": 32, "s1423": 74, "s5378": 176,
                    "s13207": 627, "s38584": 1424, "b14": 215, "b15": 416,
                    "b17": 1317}
#: Relative band of the Table II goldens (naive vs fast engine).
GOLDEN_BAND = 1e-3


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# ---------------------------------------------------------------------------
# cell-char
# ---------------------------------------------------------------------------


def cell_char(data: Dict[str, Any], dt: float, cache_dir: str) -> List[str]:
    """``data``: corner → (standard LatchMetrics, proposed LatchMetrics)."""
    from repro.api import Session
    from repro.cells.characterize import (
        characterize_proposed,
        characterize_standard,
    )
    from repro.spice.corners import CORNERS

    problems: List[str] = []
    for corner, (std, prop) in data.items():
        if not (std.read_values_ok and prop.read_values_ok):
            problems.append(f"{corner}: a restore read back the wrong bit")
        counts = (2 * std.transistor_count, prop.transistor_count)
        if counts != PAPER_TRANSISTORS:
            problems.append(f"{corner}: read-path transistors {counts}, "
                            f"paper {PAPER_TRANSISTORS}")
        if not prop.read_energy < 2.0 * std.read_energy:
            problems.append(f"{corner}: proposed read energy "
                            f"{prop.read_energy:.4g} J is not below two "
                            f"standard latches' {2 * std.read_energy:.4g} J")
        ratio = prop.read_delay / std.read_delay
        if not 1.0 <= ratio <= 3.0:
            problems.append(f"{corner}: read delay ratio {ratio:.3f} "
                            "outside [1, 3]")

    order = ("fast", "typical", "slow")
    for design, which in (("standard", 0), ("proposed", 1)):
        delays = [data[c][which].read_delay for c in order]
        leaks = [data[c][which].leakage for c in order]
        if not delays[0] < delays[1] < delays[2]:
            problems.append(f"{design}: read delay does not rise from fast "
                            f"to slow: {delays}")
        if not leaks[0] > leaks[1] > leaks[2]:
            problems.append(f"{design}: leakage does not fall from fast to "
                            f"slow: {leaks}")

    # One corner on the naive reference engine: one stored pattern per
    # design, restore only.  The fast-engine side is served from the
    # round's own cache, so it is the workload's own simulation.
    corner = CORNERS["typical"]
    runs = {}
    for engine, cache in (("fast", cache_dir), ("naive", None)):
        with Session(cache=cache, engine=engine):
            runs[engine] = (
                characterize_standard(corner, dt=dt, bits=(1,),
                                      include_write=False),
                characterize_proposed(corner, dt=dt, bit_patterns=((1, 0),),
                                      include_write=False))
    std_full, prop_full = data["typical"]
    fast_std, fast_prop = runs["fast"]
    if (fast_std.per_bit_delays[0] != std_full.per_bit_delays[1]
            or fast_prop.per_bit_delays != prop_full.per_bit_delays[:2]):
        problems.append("typical: re-read delays differ from the workload's")
    for label, fast, naive in (("standard", fast_std, runs["naive"][0]),
                               ("proposed", fast_prop, runs["naive"][1])):
        for metric in ("read_energy", "read_delay", "leakage"):
            a, b = getattr(fast, metric), getattr(naive, metric)
            if not _close(a, b, GOLDEN_BAND):
                problems.append(f"typical {label} {metric}: fast {a:.6g} vs "
                                f"naive {b:.6g} outside the 0.1 % band")
    return problems


# ---------------------------------------------------------------------------
# mc-restore
# ---------------------------------------------------------------------------


def mc_restore(outcome: Any, design: str, specs: Sequence[Any], seed: int,
               serial_samples: int, naive_samples: int) -> List[str]:
    from repro.api import Session

    problems: List[str] = []
    records = outcome.report.records
    if len(records) != outcome.samples:
        problems.append(f"{len(records)} records for {outcome.samples} "
                        "samples")
    for record in records:
        if record.status != "completed" or record.attempts != 1:
            problems.append(f"sample {record.index}: {record.status} after "
                            f"{record.attempts} attempt(s)")
    results = [r.result for r in records if r.status == "completed"]
    if results:
        rate = sum(1 for r in results if not r["ok"]) / len(results)
        margin = sum(r["margin"] for r in results) / len(results)
        if rate != outcome.failure_rate:
            problems.append(f"failure_rate {outcome.failure_rate} != "
                            f"{rate} recomputed from the records")
        if not _close(margin, outcome.mean_margin, 1e-12):
            problems.append(f"mean_margin {outcome.mean_margin} != "
                            f"{margin} recomputed from the records")

    # Results must not depend on the worker count: the first samples again
    # on one worker are bit-identical.
    with Session(workers=1) as session:
        serial = session.campaign(design, specs, samples=serial_samples,
                                  seed=seed)
    for pooled, alone in zip(records, serial.report.records):
        if pooled.result != alone.result:
            problems.append(f"sample {pooled.index}: pooled {pooled.result} "
                            f"!= one-worker {alone.result}")

    with Session(workers=1, engine="naive") as session:
        naive = session.campaign(design, specs, samples=naive_samples,
                                 seed=seed)
    for fast, ref in zip(records, naive.report.records):
        if fast.result is None or ref.result is None:
            problems.append(f"sample {fast.index}: missing result")
            continue
        if fast.result["ok"] != ref.result["ok"]:
            problems.append(f"sample {fast.index}: ok {fast.result['ok']} "
                            f"vs naive {ref.result['ok']}")
        if abs(fast.result["margin"] - ref.result["margin"]) > 1e-6:
            problems.append(f"sample {fast.index}: margin "
                            f"{fast.result['margin']} vs naive "
                            f"{ref.result['margin']} (VDD fractions)")
    return problems


# ---------------------------------------------------------------------------
# system-flow
# ---------------------------------------------------------------------------


def _rects(placement: Any, names: Sequence[str]) -> np.ndarray:
    """(x_min, y_min, x_max, y_max) per instance, from the raw positions."""
    out = np.empty((len(names), 4))
    for i, name in enumerate(names):
        x, y = placement.positions[name]
        cell = placement.netlist.instance(name).cell
        out[i] = (x, y, x + cell.width, y + cell.height)
    return out


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edge-to-edge distance between rectangles (0 when they touch)."""
    dx = np.maximum(0.0, np.maximum(a[..., 0] - b[..., 2],
                                    b[..., 0] - a[..., 2]))
    dy = np.maximum(0.0, np.maximum(a[..., 1] - b[..., 3],
                                    b[..., 1] - a[..., 3]))
    return np.hypot(dx, dy)


def _overlaps(rects: np.ndarray, tol: float) -> int:
    """Overlaps among rectangles (0 when none), by a sweep over y levels: two
    cells on one level must not overlap in x, and each level must end
    before the next one starts.  Levels that are too close are compared
    cell by cell."""
    order = np.lexsort((rects[:, 0], rects[:, 1]))
    r = rects[order]
    levels, starts = np.unique(r[:, 1], return_index=True)
    bounds = list(starts) + [len(r)]
    bad = 0
    groups = [r[bounds[k]:bounds[k + 1]] for k in range(len(levels))]
    for group in groups:
        bad += int(np.sum(group[:-1, 2] > group[1:, 0] + tol))
    for k in range(len(groups) - 1):
        top = groups[k][:, 3].max()
        if top > levels[k + 1] + tol:           # levels interleave
            for j in range(k + 1, len(groups)):
                if levels[j] >= top - tol:
                    break
                a, b = groups[k][:, None, :], groups[j][None, :, :]
                inter_x = np.minimum(a[..., 2], b[..., 2]) - np.maximum(
                    a[..., 0], b[..., 0])
                inter_y = np.minimum(a[..., 3], b[..., 3]) - np.maximum(
                    a[..., 1], b[..., 1])
                bad += int(np.sum((inter_x > tol) & (inter_y > tol)))
    return bad


def system_flow(rows: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """``rows``: benchmark → the SystemResult Session.table3 returned.

    Returns the violations and, apart from them, the benchmarks whose
    placement is illegal (a cell overlaps another or leaves the core):
    those rows rest on no valid placement, so the benchmark counts them as
    failed operations rather than checking their numbers.
    """
    from repro.core.flow import FlowConfig, run_system_flow
    from repro.nv.base import get_backend

    costs = get_backend("mtj").cell_costs()
    problems: List[str] = []
    illegal: List[str] = []
    for name, row in rows.items():
        if row.total_flip_flops != PAPER_FLIP_FLOPS[name]:
            problems.append(f"{name}: {row.total_flip_flops} flip-flops, "
                            f"paper {PAPER_FLIP_FLOPS[name]}")
        outcome = run_system_flow(name, FlowConfig(costs=costs))
        if outcome.result.to_json() != row.to_json():
            problems.append(f"{name}: re-run flow differs from the Table III "
                            "row")
        placement, merge = outcome.placement, outcome.merge
        cells = list(placement.netlist.instances)
        rects = _rects(placement, cells)
        die = placement.floorplan.die
        tol = 1e-9 * max(die.x_max - die.x_min, die.y_max - die.y_min)
        outside = int(np.sum((rects[:, 0] < die.x_min - tol)
                             | (rects[:, 1] < die.y_min - tol)
                             | (rects[:, 2] > die.x_max + tol)
                             | (rects[:, 3] > die.y_max + tol)))
        overlapping = _overlaps(rects, tol)
        if outside or overlapping:
            print(f"# ILLEGAL PLACEMENT: {name}: {overlapping} cell overlap(s), "
                  f"{outside} cell(s) outside the core",
                  flush=True)
            illegal.append(name)
            continue

        threshold = merge.threshold * (1 + 1e-9)
        ffs = sorted(i.name for i in placement.netlist.sequential_instances())
        if len(ffs) != PAPER_FLIP_FLOPS[name]:
            problems.append(f"{name}: placement holds {len(ffs)} flip-flops")
        index = {n: i for i, n in enumerate(ffs)}
        ff_rects = _rects(placement, ffs)

        paired = [n for pair in merge.pairs for n in (pair.ff_a, pair.ff_b)]
        paired_set = set(paired)
        if len(paired_set) != len(paired):
            problems.append(f"{name}: a flip-flop sits in two pairs")
        if any(n not in index for n in paired):
            problems.append(f"{name}: a pair names a non-flip-flop")
            continue
        if len(merge.pairs) != row.merged_pairs:
            problems.append(f"{name}: {len(merge.pairs)} pairs vs "
                            f"{row.merged_pairs} reported")
        if merge.pairs:
            a = ff_rects[[index[p.ff_a] for p in merge.pairs]]
            b = ff_rects[[index[p.ff_b] for p in merge.pairs]]
            far = int(np.sum(_gap(a, b) > threshold))
            if far:
                problems.append(f"{name}: {far} pair(s) beyond the merge "
                                "threshold")
        single = [index[n] for n in ffs if n not in paired_set]
        if len(single) > 1:
            s = ff_rects[single]
            gaps = _gap(s[:, None, :], s[None, :, :])
            np.fill_diagonal(gaps, np.inf)
            if np.any(gaps <= merge.threshold):
                problems.append(f"{name}: two unpaired flip-flops lie within "
                                "the threshold (matching not maximal)")

        pairs, n = row.merged_pairs, row.total_flip_flops
        expect = {
            "area_baseline": n * costs.area_1bit,
            "energy_baseline": n * costs.energy_1bit,
            "area_proposed": pairs * costs.area_2bit
            + (n - 2 * pairs) * costs.area_1bit,
            "energy_proposed": pairs * costs.energy_2bit
            + (n - 2 * pairs) * costs.energy_1bit,
        }
        for field_name, value in expect.items():
            if not _close(getattr(row, field_name), value, 1e-12):
                problems.append(f"{name}: {field_name} "
                                f"{getattr(row, field_name)} != {value}")
    return problems, illegal


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def result_digest(payload: Dict[str, Any]) -> str:
    """Digest of a service result without its wall-clock fields: a
    campaign report carries per-task ``elapsed`` seconds, which no two
    runs share."""
    from repro.serialize import stable_digest

    if payload.get("flow") == "campaign":
        report = dict(payload["report"])
        report.pop("elapsed_total", None)
        report["records"] = [{k: v for k, v in r.items() if k != "elapsed"}
                             for r in report["records"]]
        payload = dict(payload, report=report)
    return stable_digest(payload)


def _service_payload(flow: str, params: Dict[str, Any]) -> Any:
    """The flow's result payload from a direct, uncached Session run."""
    from repro.api import Session
    from repro.service import FLOWS

    with Session(workers=1) as session:
        return FLOWS[flow].runner(session, dict(params))


def service_mix(requests: Dict[str, Dict[str, Any]], coalesced: int,
                followers: int, refused: int) -> List[str]:
    """``requests``: submission key → flow, params and the digests of
    every result the service returned for it (:func:`result_digest`)."""
    problems: List[str] = []
    if refused:
        problems.append(f"{refused} submission(s) refused")
    if coalesced != followers:
        problems.append(f"service.coalesced moved by {coalesced}, the "
                        f"bursts sent {followers} follower(s)")
    for key, request in requests.items():
        expected = result_digest(_service_payload(request["flow"],
                                                  request["params"]))
        if request["digests"] != {expected}:
            problems.append(f"{request['flow']} {request['params']}: service "
                            f"digests {sorted(request['digests'])} != direct "
                            f"run {expected}")
    return problems
