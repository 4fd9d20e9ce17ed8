"""Machine-readable benchmark snapshots and the CI regression gate.

A *snapshot* (``BENCH_*.json``) captures, for a fixed list of workloads,
the numbers every perf PR must not silently regress: wall time, peak
diagram size, and compute-cache hit rates, as measured through the
:mod:`repro.obs` recorder.  CI runs :func:`run_snapshot` on a small
workload set, uploads the JSON as an artifact, and
:func:`compare_snapshots` gates the build against the committed baseline
(``benchmarks/baselines/BENCH_smoke.json``).

Wall-clock seconds do not transfer between machines, so the gate never
compares them directly.  Each workload repeat also times a fixed
pure-Python calibration kernel (dict-heavy complex arithmetic, the same
operation mix that dominates DD manipulation) *immediately before* the
run, and the gate compares the best per-repeat *calibration-normalized*
ratio ``workload_seconds / calibration_seconds`` — dimensionless,
stable across host speeds, and robust against drifting background load
because numerator and denominator of each repeat are measured
back-to-back.  Peak node counts are deterministic (seeded circuits) and
compared exactly against the tolerance band.
"""

from __future__ import annotations

import json
import os
import platform
import time
from collections.abc import Sequence

from ..core.simulator import simulate
from ..dd.package import Package
from ..obs import Recorder, metrics_report, recording
from ..service.jobs import build_builtin_circuit, build_strategy

SNAPSHOT_FORMAT = "repro-bench-snapshot"
SNAPSHOT_VERSION = 1

#: Default smoke workloads: small, seeded, and exercising both an exact
#: run and an approximating one (cache + approximation paths covered).
DEFAULT_SMOKE_WORKLOADS: Sequence[dict] = (
    {"workload": "qsup_3x3_12_0", "strategy": "exact"},
    {
        "workload": "qsup_3x3_12_0",
        "strategy": "memory",
        "strategy_args": {"threshold": 64, "round_fidelity": 0.975},
    },
    {"workload": "shor_21_2", "strategy": "exact"},
)

#: Default relative tolerance band of the regression gate.
DEFAULT_TOLERANCE = 0.25

#: Committed smoke baseline of each backend, relative to the repo root.
SMOKE_BASELINES = {
    "reference": "benchmarks/baselines/BENCH_smoke.json",
    "arena": "benchmarks/baselines/BENCH_smoke_arena.json",
}


def calibration_seconds(repeats: int = 3) -> float:
    """Time the fixed calibration kernel; return the best of ``repeats``.

    The kernel mirrors the interpreter operations that dominate the DD
    hot path — dict probes, tuple construction, complex multiply-adds —
    so the ratio of a DD workload's wall time to this number is largely
    machine-independent.  The minimum over repeats rejects scheduler
    noise.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        table: dict[tuple, complex] = {}
        acc = complex(1.0, 0.0)
        for i in range(40000):
            key = (i & 1023, (i * 7) & 1023)
            hit = table.get(key)
            if hit is None:
                table[key] = acc
            else:
                acc = hit * complex(0.9999, 0.0001) + acc
            if len(table) > 2048:
                table.clear()
        best = min(best, time.perf_counter() - started)
    return best


def _run_one(
    entry: dict, repeats: int = 3, backend: str | None = None
) -> dict:
    """Run one workload entry under full instrumentation.

    The workload is executed ``repeats`` times (fresh package each time)
    and the *minimum* wall time is reported — best-of-N rejects scheduler
    and allocator noise the same way the calibration kernel does.  Node
    counts, rounds, and fidelity are deterministic across repeats; cache
    statistics come from the last repeat.

    Each repeat additionally times one pass of the calibration kernel
    immediately *before and after* the workload run and reports the
    minimum per-repeat ratio ``workload_seconds / min(cal_before,
    cal_after)`` as the row's ``normalized_time``.  The two-sided
    structure rejects both noise modes: a load burst that hits only one
    calibration pass is discarded by the inner ``min`` (the clean
    adjacent pass is the honest denominator, so a calibration stall can
    never deflate the ratio), while a burst that hits the workload run
    itself inflates that repeat's ratio and the outer best-of-N ``min``
    discards the repeat.  A snapshot-global calibration has neither
    defense (load at calibration time and at workload time differ,
    which showed up as ±30% swings in normalized times on busy hosts).
    """
    name = entry["workload"]
    strategy_kind = entry.get("strategy", "exact")
    strategy_args = dict(entry.get("strategy_args", {}))
    circuit = build_builtin_circuit(name)
    best_seconds = float("inf")
    best_ratio = float("inf")
    outcome = None
    report = None
    for _ in range(max(1, repeats)):
        cal_before = calibration_seconds(repeats=1)
        strategy = build_strategy(strategy_kind, dict(strategy_args))
        package = Package(backend=backend)
        recorder = Recorder(enabled=True)
        package.attach_recorder(recorder)
        with recording(recorder):
            outcome = simulate(
                circuit,
                strategy,
                package=package,
                record_trajectory=True,
                recorder=recorder,
            )
        cal_after = calibration_seconds(repeats=1)
        seconds = outcome.stats.runtime_seconds
        best_seconds = min(best_seconds, seconds)
        best_ratio = min(best_ratio, seconds / min(cal_before, cal_after))
        report = metrics_report(outcome.stats, recorder, package)
    caches = report["cache"]["caches"]
    hit_rates = {cache: c["hit_rate"] for cache, c in caches.items()}
    flushes = {cache: c["flushes"] for cache, c in caches.items()}
    return {
        "workload": name,
        "strategy": outcome.stats.strategy,
        "num_qubits": outcome.stats.num_qubits,
        "num_operations": outcome.stats.num_operations,
        "wall_time_seconds": best_seconds,
        "normalized_time": best_ratio,
        "backend": outcome.stats.dd_backend,
        "peak_nodes": outcome.stats.max_nodes,
        "final_nodes": outcome.stats.final_nodes,
        "num_rounds": outcome.stats.num_rounds,
        "fidelity_estimate": outcome.stats.fidelity_estimate,
        "cache_hit_rates": hit_rates,
        "cache_flushes": flushes,
    }


def run_snapshot(
    entries: Sequence[dict] | None = None,
    calibration_repeats: int = 3,
    workload_repeats: int = 3,
    backend: str | None = None,
) -> dict:
    """Produce a full snapshot document for the given workload entries.

    Args:
        entries: Sequence of ``{"workload": <builtin name>, "strategy":
            <kind>, "strategy_args": {...}}`` dicts; defaults to
            :data:`DEFAULT_SMOKE_WORKLOADS`.
        calibration_repeats: Repeats of the calibration kernel.
        workload_repeats: Best-of-N repeats per workload entry.
        backend: DD backend every workload package is built with; None
            defers to the process default (``--backend`` override or
            ``REPRO_DD_BACKEND``).  The resolved name is stamped on the
            document and on every workload row so per-backend baselines
            cannot be compared against the wrong engine by accident.
    """
    if entries is None:
        entries = DEFAULT_SMOKE_WORKLOADS
    calibration = calibration_seconds(calibration_repeats)
    workloads = []
    for entry in entries:
        # ``normalized_time`` comes from _run_one's per-repeat paired
        # calibration (see its docstring); the snapshot-level
        # calibration figure below is informational.
        row = _run_one(entry, repeats=workload_repeats, backend=backend)
        workloads.append(row)
    resolved = workloads[0]["backend"] if workloads else (backend or "")
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "backend": resolved,
        "calibration_seconds": calibration,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }


def _key(row: dict) -> str:
    return f"{row['workload']}/{row['strategy']}"


def compare_snapshots(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Gate ``current`` against ``baseline``; return violation messages.

    A workload row regresses when its peak node count or its
    calibration-normalized wall time exceeds the baseline by more than
    ``tolerance`` (relative).  Rows present in the baseline but missing
    from the current snapshot are violations (silent coverage loss);
    extra current rows are allowed (new benchmarks).

    Returns:
        Human-readable violation strings — empty means the gate passes.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    violations: list[str] = []
    base_backend = baseline.get("backend")
    current_backend = current.get("backend")
    if base_backend and current_backend and base_backend != current_backend:
        own_baseline = SMOKE_BASELINES.get(
            current_backend, f"a baseline recorded on {current_backend!r}"
        )
        violations.append(
            f"backend mismatch: current snapshot ran on "
            f"{current_backend!r} but baseline is for {base_backend!r}; "
            f"rerun with --backend {base_backend}, or gate against "
            f"{own_baseline}"
        )
    current_rows = {_key(row): row for row in current.get("workloads", [])}
    for base_row in baseline.get("workloads", []):
        key = _key(base_row)
        row = current_rows.get(key)
        if row is None:
            violations.append(f"{key}: missing from current snapshot")
            continue
        base_nodes = base_row["peak_nodes"]
        nodes = row["peak_nodes"]
        if nodes > base_nodes * (1.0 + tolerance):
            violations.append(
                f"{key}: peak_nodes {nodes} exceeds baseline "
                f"{base_nodes} by more than {tolerance:.0%}"
            )
        base_time = base_row.get("normalized_time")
        time_now = row.get("normalized_time")
        if base_time and time_now and time_now > base_time * (1.0 + tolerance):
            violations.append(
                f"{key}: normalized time {time_now:.2f} exceeds baseline "
                f"{base_time:.2f} by more than {tolerance:.0%}"
            )
    return violations


#: Format stamp of the delta-report document (``diff_snapshots``).
DELTA_FORMAT = "repro-bench-delta"


def diff_snapshots(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Full computed-vs-baseline delta report (gate superset).

    :func:`compare_snapshots` answers *whether* the gate passes;
    this returns *why*: per-workload baseline/current values, absolute
    and relative deltas, and per-metric verdicts for every gated metric
    (calibration-normalized time and peak node count).  CI uploads this
    document as an artifact so a red ``bench-smoke`` job is diagnosable
    without re-running anything.

    The ``violations`` list is exactly what :func:`compare_snapshots`
    returns for the same inputs, so gating on ``passed`` is equivalent
    to gating on the comparison.
    """
    violations = compare_snapshots(current, baseline, tolerance=tolerance)
    current_rows = {_key(row): row for row in current.get("workloads", [])}
    base_rows = {_key(row): row for row in baseline.get("workloads", [])}
    keys = list(base_rows)
    keys.extend(key for key in current_rows if key not in base_rows)
    rows = []
    for key in keys:
        base_row = base_rows.get(key)
        row = current_rows.get(key)
        entry: dict = {
            "key": key,
            "in_baseline": base_row is not None,
            "in_current": row is not None,
        }
        if base_row is not None and row is not None:
            for metric in ("normalized_time", "peak_nodes"):
                base_value = base_row.get(metric)
                value = row.get(metric)
                detail: dict = {"baseline": base_value, "current": value}
                if base_value and value is not None:
                    detail["delta"] = value - base_value
                    detail["ratio"] = value / base_value
                    detail["within_tolerance"] = (
                        value <= base_value * (1.0 + tolerance)
                    )
                entry[metric] = detail
        rows.append(entry)
    return {
        "format": DELTA_FORMAT,
        "version": 1,
        "tolerance": tolerance,
        "backend": {
            "current": current.get("backend"),
            "baseline": baseline.get("backend"),
        },
        "calibration_seconds": {
            "current": current.get("calibration_seconds"),
            "baseline": baseline.get("calibration_seconds"),
        },
        "rows": rows,
        "violations": violations,
        "passed": not violations,
    }


def write_snapshot(snapshot: dict, path: str) -> None:
    """Write a snapshot document as pretty-printed JSON.

    Parent directories are created as needed.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_snapshot(path: str) -> dict:
    """Load a snapshot document, checking its format stamp.

    Raises:
        ValueError: When the file is not a snapshot document.
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"{path} is not a {SNAPSHOT_FORMAT} document "
            f"(format={document.get('format')!r})"
        )
    return document
