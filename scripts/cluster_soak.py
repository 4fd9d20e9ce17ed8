#!/usr/bin/env python
"""Soak test for ``repro-sim serve --cluster`` — CI's chaos acceptance
for the sharded tier (docs/SERVE.md, "Sharded cluster").

Runs a real 3-shard cluster (shard daemons as subprocesses, router
in-process) through mixed-tenant traffic while a seeded fault plan
injects router↔shard network faults (``conn_refused`` /
``partial_write`` / ``slow`` at site ``cluster.rpc``) and the soak
SIGKILLs one shard mid-load, then asserts the ISSUE-9 cluster
invariants:

* **Zero lost jobs** — every admitted job reaches a final state; the
  killed shard's jobs are re-admitted to survivors and resume from
  their Lemma-1-consistent checkpoints in the shared store.
* **Exactly-once completion** — each cluster job finalizes exactly
  once; the ownership log shows a single ``assigned`` event per job
  and a coherent readmission chain.
* **Fidelity parity** — checkpoint-resumed jobs report the same
  achieved fidelity as an uninterrupted reference run of the same
  spec against a pristine store (Lemma 1 composes across processes).
* **Explicit back-pressure** — every rejection is a typed, retryable
  error (``shed`` / ``quota`` / ``rate_limited``), never silence.
* **Failover visibility** — the killed shard is declared ``down`` in
  the membership snapshot and at least one job records a
  ``readmitted`` ownership event.
* **Bounded admission latency** — p99 time-to-admission-decision
  stays under ``--p99-admission-seconds`` despite injected faults.
* **Clean drain** — a cluster-wide drain ends every surviving shard
  with exit code 5 (``EXIT_DRAINED``, docs/SERVE.md) and a final
  metrics snapshot on disk.

Exit code 0 when every assertion holds; 1 otherwise (router and shard
log tails are printed for the CI failure artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

from repro.faults import FaultPlan, FaultRule, arm, disarm
from repro.serve import ServeClient, ServeCluster, ServeError
from repro.service.engine import execute_job
from repro.service.jobs import JobSpec
from repro.service.store import ArtifactStore

CIRCUITS = (
    "builtin:shor_15_2",
    "builtin:qsup_2x2_4_0",
    "builtin:qsup_3x3_8_0",
    "builtin:qsup_3x3_12_0",
)

TENANTS = ("acme", "globex", "initech")

#: Final states that count as "not lost" for an admitted job.
ACCEPTABLE_FINAL = {"completed", "deadline"}

#: Rejections that are legitimate, typed back-pressure (retryable).
RETRYABLE = {"shed", "quota", "rate_limited"}

EXIT_DRAINED = 5


def _spec(index: int) -> JobSpec:
    """A unique-per-index spec (distinct content hash → no cache hits)."""
    return JobSpec(
        circuit=CIRCUITS[index % len(CIRCUITS)],
        strategy="fidelity",
        strategy_args=(
            ("final_fidelity", round(0.9999 - index * 1e-5, 7)),
            ("round_fidelity", 0.999),
        ),
        checkpoint_interval=5,
    )


def _network_plan(workdir: str) -> FaultPlan:
    """Seeded router↔shard network chaos at site ``cluster.rpc``.

    Deterministic by hit count (probability 1.0): a couple of refused
    connections and torn frames early in the run plus a few latency
    spikes — enough to exercise the failover/retry machinery without
    tripping the fail_threshold on any single shard by itself.
    """
    return FaultPlan(
        rules=(
            FaultRule(
                site="cluster.rpc",
                kind="conn_refused",
                after_hits=6,
                max_hits=2,
            ),
            FaultRule(
                site="cluster.rpc",
                kind="partial_write",
                after_hits=18,
                max_hits=2,
            ),
            FaultRule(
                site="cluster.rpc",
                kind="slow",
                after_hits=3,
                max_hits=6,
                args={"delay_seconds": 0.02},
            ),
        ),
        seed=9,
        state_dir=os.path.join(workdir, "fault-counters"),
    )


def _tail(path: str, lines: int = 30) -> None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle.readlines()[-lines:]:
                print(f"  {line.rstrip()}")
    except OSError as error:
        print(f"  (unreadable: {error})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--requests", type=int, default=36)
    parser.add_argument("--kill-after", type=int, default=24,
                        help="SIGKILL a shard after this many submits")
    parser.add_argument("--kill-shard", default="s1")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--queue-capacity", type=int, default=16)
    parser.add_argument("--p99-admission-seconds", type=float, default=2.0)
    parser.add_argument(
        "--workdir",
        default="",
        help="artifact directory (default: fresh tempdir, removed on "
        "success; an explicit path is always kept for CI upload)",
    )
    args = parser.parse_args()

    keep_workdir = bool(args.workdir)
    workdir = args.workdir or tempfile.mkdtemp(prefix="cluster-soak-")
    os.makedirs(workdir, exist_ok=True)
    router_log_path = os.path.join(workdir, "router.log")
    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    store = ArtifactStore(os.path.join(workdir, "store"))
    arm(_network_plan(workdir))
    router_log = open(router_log_path, "w", encoding="utf-8")
    cluster = ServeCluster(
        store,
        shards=args.shards,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        quotas={"acme": 10},
        rate_limits={"globex": (50.0, 25.0)},
        log=router_log,
    )
    print(
        f"soak: {args.requests} mixed-tenant requests over "
        f"{args.shards} shard(s), workers={args.workers}/shard, "
        f"SIGKILL {args.kill_shard} after {args.kill_after} submits"
    )
    cluster.start()
    supervisor = threading.Thread(target=cluster.serve_forever, daemon=True)
    supervisor.start()
    # The socket timeout must outlast the 180 s wait bound below, or
    # a slow but successful wait reads as a lost job.
    client = ServeClient(
        socket_path=cluster.router.socket_path, timeout=210.0
    )

    try:
        accepted: dict[str, dict] = {}
        admission_latencies: list[float] = []
        rejections: dict[str, int] = {}
        backlog: list[tuple[int, float]] = []
        killed_pid = None

        def submit_one(index: int) -> None:
            spec = _spec(index)
            submit_started = time.perf_counter()
            try:
                response = client.submit(
                    spec,
                    priority=index % 3,
                    tenant=TENANTS[index % len(TENANTS)],
                    # Every 9th request carries a tight soft deadline:
                    # "deadline" is then an acceptable final state.
                    soft_timeout=0.05 if index % 9 == 8 else None,
                )
            except ServeError as error:
                admission_latencies.append(
                    time.perf_counter() - submit_started
                )
                if error.error not in RETRYABLE:
                    failures.append(
                        f"unexpected rejection: {error.error}"
                    )
                    return
                rejections[error.error] = rejections.get(error.error, 0) + 1
                backlog.append((index, error.retry_after or 0.1))
            else:
                admission_latencies.append(
                    time.perf_counter() - submit_started
                )
                response["spec"] = spec
                accepted[response["job_id"]] = response

        for index in range(args.requests):
            if index == args.kill_after:
                killed_pid = cluster.shard_pid(args.kill_shard)
                print(
                    f"  -- SIGKILL shard {args.kill_shard} "
                    f"(pid {killed_pid})"
                )
                os.kill(killed_pid, signal.SIGKILL)
            submit_one(index)

        check(killed_pid is not None, "a shard was killed mid-load")

        # Retry rejected submissions until admitted (bounded patience):
        # quota / rate-limit / shed are back-pressure, not job loss.
        retry_deadline = time.monotonic() + 120.0
        while backlog and time.monotonic() < retry_deadline:
            index, retry_after = backlog.pop(0)
            time.sleep(min(retry_after, 1.0))
            submit_one(index)
        check(not backlog, "every rejected submission eventually admitted")
        print(
            f"  -- {len(accepted)} admitted; typed rejections: "
            f"{rejections or '{}'}"
        )

        lost: list[str] = []
        statuses: dict[str, int] = {}
        finished: dict[str, dict] = {}
        for job_id in sorted(accepted):
            try:
                job = client.wait(job_id, timeout=180.0)["job"]
            except (ServeError, OSError) as error:
                lost.append(f"{job_id}: {error}")
                continue
            finished[job_id] = job
            statuses[job["status"]] = statuses.get(job["status"], 0) + 1
            if job["status"] not in ACCEPTABLE_FINAL:
                lost.append(
                    f"{job_id}: {job['status']} ({job.get('error')})"
                )
        check(not lost, f"zero lost admitted jobs {statuses}")
        for line in lost[:10]:
            print(f"       lost: {line}")

        # Exactly-once completion: every admitted cluster id produced
        # exactly one final document, and the router agrees.
        metrics = client.metrics()
        final_total = sum(metrics["jobs_by_status"].values())
        check(
            len(finished) == len(accepted)
            and final_total == len(accepted),
            f"each job finalized exactly once "
            f"(router sees {metrics['jobs_by_status']})",
        )
        check(
            metrics["shards"][args.kill_shard]["state"] == "down",
            f"killed shard declared down "
            f"({metrics['shards'][args.kill_shard]['state']})",
        )
        tenant_stats = metrics.get("tenants", {})
        check(
            all(tenant in tenant_stats for tenant in TENANTS),
            f"per-tenant metrics cover all tenants "
            f"({sorted(tenant_stats)})",
        )

        # Ownership log: one 'assigned' per job; the killed shard's
        # jobs show a 'readmitted' hop to a survivor.
        events = store.read_ownership_log()
        assigned: dict[str, int] = {}
        readmitted_jobs = set()
        for event in events:
            job_key = event.get("cluster_job", "")
            if event.get("event") == "assigned":
                assigned[job_key] = assigned.get(job_key, 0) + 1
            if (
                event.get("event") == "readmitted"
                and event.get("shard") != args.kill_shard
            ):
                readmitted_jobs.add(job_key)
        check(
            all(count == 1 for count in assigned.values()),
            f"ownership log: one 'assigned' per job "
            f"({len(assigned)} jobs)",
        )
        check(
            len(readmitted_jobs) >= 1,
            f"killed shard's jobs re-admitted to survivors "
            f"({len(readmitted_jobs)} job(s))",
        )

        # Fidelity parity: checkpoint-resumed / re-admitted completions
        # must match an uninterrupted run of the same spec against a
        # pristine store (Lemma 1 composes across processes).
        ref_store = ArtifactStore(os.path.join(workdir, "refstore"))
        parity_checked = 0
        parity_bad: list[str] = []
        for job_id, job in sorted(finished.items()):
            result = job.get("result") or {}
            moved = job.get("readmissions", 0) > 0
            resumed = result.get("resumed_at") is not None
            if job["status"] != "completed" or not (moved or resumed):
                continue
            spec = accepted[job_id]["spec"]
            cap = job.get("f_final_cap")
            if job.get("degraded") and cap is not None:
                # Re-admission to a hot survivor can land at a degraded
                # ladder tier (docs/SERVE.md): the shard rewrote the
                # spec's final_fidelity down to the tier cap, and the
                # job answers to that capped budget — so must the
                # reference.
                capped = dict(spec.strategy_args)
                capped["final_fidelity"] = min(
                    float(capped.get("final_fidelity", 1.0)), float(cap)
                )
                spec = spec.with_overrides(
                    strategy_args=tuple(sorted(capped.items()))
                )
            reference = execute_job(spec, ref_store)
            achieved = (result.get("stats") or {}).get("fidelity_estimate")
            budget = float(
                dict(spec.strategy_args).get("final_fidelity", 0.0)
            )
            # Bit-exactness across the resume split is NOT the
            # contract: a fresh process's tolerance-bucketed complex
            # table can shift a boundary-sitting greedy selection by
            # one node (repro/service/checkpoint.py), moving the
            # realized fidelity at float level while still obeying
            # f >= f_round.  Parity therefore means float-level
            # agreement plus the Lemma-1 budget holding.
            if (
                achieved is None
                or abs(reference.fidelity_estimate - achieved) > 1e-9
                or achieved < budget - 1e-9
            ):
                parity_bad.append(
                    f"{job_id}: resumed={achieved} "
                    f"reference={reference.fidelity_estimate} "
                    f"budget={budget}"
                )
            parity_checked += 1
        check(
            not parity_bad,
            f"checkpoint-resumed fidelity matches uninterrupted "
            f"reference ({parity_checked} job(s) checked)",
        )
        for line in parity_bad[:10]:
            print(f"       parity: {line}")

        admission_latencies.sort()
        p99 = admission_latencies[
            int(0.99 * (len(admission_latencies) - 1))
        ]
        check(
            p99 <= args.p99_admission_seconds,
            f"p99 admission latency {p99 * 1000:.1f}ms <= "
            f"{args.p99_admission_seconds * 1000:.0f}ms",
        )

        with open(
            os.path.join(workdir, "metrics.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)

        # Cluster-wide drain: the router drains every surviving shard;
        # each exits EXIT_DRAINED.  The killed shard died by SIGKILL.
        cluster.request_drain()
        supervisor.join(timeout=120.0)
        check(not supervisor.is_alive(), "cluster drain completed")
        survivors = [
            shard_id
            for shard_id in cluster.shard_ids
            if shard_id != args.kill_shard
        ]
        check(
            all(
                cluster.shard_returncodes.get(shard_id) == EXIT_DRAINED
                for shard_id in survivors
            ),
            f"surviving shards exited {EXIT_DRAINED} "
            f"(EXIT_DRAINED): {cluster.shard_returncodes}",
        )
        check(
            cluster.shard_returncodes.get(args.kill_shard)
            == -signal.SIGKILL,
            f"killed shard reaped as SIGKILL "
            f"({cluster.shard_returncodes.get(args.kill_shard)})",
        )
    finally:
        disarm()
        if supervisor.is_alive():
            cluster.shutdown()
            supervisor.join(timeout=30.0)
        router_log.close()
        if failures:
            print("---- router log tail ----")
            _tail(router_log_path)
            log_dir = os.path.join(store.root, "serve", "logs")
            if os.path.isdir(log_dir):
                for name in sorted(os.listdir(log_dir)):
                    print(f"---- {name} tail ----")
                    _tail(os.path.join(log_dir, name))
        elif not keep_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"soak: FAILED ({len(failures)} assertion(s))")
        return 1
    print("soak: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
