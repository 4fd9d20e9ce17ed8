"""The simulation daemon: request path, control loop, drain.

``SimDaemon`` is a :class:`~repro.serve.base.LineService` (which owns
the listener, lifecycle, drain flag, parked-job I/O and the shared
admission checks) wired around the existing service layer
(:func:`repro.service.engine.execute_job` inside supervised workers,
:class:`repro.service.store.ArtifactStore` for artifacts and
checkpoints):

* **Admission** (socket handler threads, under the state lock):
  draining → reject; queue full → explicit SHED with a ``retry_after``
  estimate; breaker open for the spec → fast rejection; otherwise the
  fidelity ladder picks the tier for the current queue utilization,
  possibly rewriting the spec to a lower ``f_final``, and the job
  enters the bounded priority queue.  The queue bound applies to new
  admissions only: a job that was already accepted and lost its
  worker always re-enters it.
* **The tick** (one control-loop thread): pump worker results, replace
  dead/wedged workers and requeue-or-fail their lost jobs, hard-kill
  jobs past their hard deadline, dispatch queued jobs to idle workers,
  and advance a drain to completion.
* **Deadlines** are per-attempt: at dispatch the soft deadline is
  handed to the worker as a :class:`~repro.core.simulator.CancellationToken`
  (the gate loop checkpoints and answers ``status="deadline"`` with the
  partial fidelity spent), while the hard deadline is enforced here by
  SIGKILL + requeue-or-fail — the backstop for workers too wedged to
  answer the soft signal.
* **Drain** (SIGTERM/SIGINT or the ``drain`` op): stop admitting,
  cancel in-flight jobs cooperatively (they checkpoint), park the
  still-queued jobs in ``<store>/serve/drained-queue.json`` (reloaded
  and re-admitted on the next start), and exit once nothing is
  running.  No accepted job is ever silently lost.

Store degradation is part of admission: when the store is replicated
(:class:`repro.service.replication.ReplicatedStore`) and has dropped
to read-only after a lost write quorum, submissions shed with
``store_degraded`` rather than accepting work whose artifacts could
not be durably persisted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..faults.errors import PERMANENT
from ..obs import get_recorder
from ..service.engine import JobResult
from ..service.store import ArtifactStore
from .base import LineService, Submission
from .breaker import CircuitBreaker
from .degrade import FidelityLadder
from .protocol import error_response, ok_response
from .queue import AdmissionQueue, QueueItem
from .supervisor import WorkerSupervisor

#: File (under ``<store>/serve/``) holding jobs that were still queued
#: when a drain completed; the next daemon start re-admits them.
DRAINED_QUEUE_FILE = "drained-queue.json"

#: Job states a record can rest in (no further transitions).  A
#: ``stolen`` job left this daemon's queue for a peer shard (the
#: cluster router re-admits it elsewhere; see repro.serve.router).
FINAL_STATES = frozenset(
    {"completed", "timeout", "deadline", "drained", "error", "stolen"}
)


@dataclass(kw_only=True)
class JobRecord(Submission):
    """Daemon-side lifecycle of one accepted job."""

    job_id: str
    tier: int = 0
    f_final_cap: float | None = None
    degraded: bool = False
    status: str = "queued"
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    hard_deadline: float | None = None
    result: JobResult | None = None
    error: str = ""
    events: list[str] = field(default_factory=list)
    #: Ownership-lease fence token (``{"owner", "epoch"}``) stamped by
    #: the cluster router; handed to the worker so the store rejects
    #: checkpoint writes from a shard whose lease was reassigned.
    fence: dict | None = None

    @property
    def final(self) -> bool:
        return self.status in FINAL_STATES

    def to_dict(self) -> dict:
        document: dict = {
            "job_id": self.job_id,
            "job_hash": self.spec.content_hash(),
            "name": self.spec.display_name,
            "status": self.status,
            "tenant": self.tenant,
            "priority": self.priority,
            "tier": self.tier,
            "f_final_cap": self.f_final_cap,
            "degraded": self.degraded,
            "attempts": self.attempts,
            "error": self.error,
            "events": list(self.events),
        }
        if self.result is not None:
            counts = self.result.counts
            document["result"] = {
                "status": self.result.status,
                "cached": self.result.cached,
                "resumed_at": self.result.resumed_at,
                "stats": self.result.stats,
                "counts": (
                    {str(k): v for k, v in counts.items()}
                    if counts is not None
                    else None
                ),
                "error": self.result.error,
                "error_kind": self.result.error_kind,
            }
        return document


class SimDaemon(LineService):
    """Persistent simulation service over one artifact store.

    Args:
        store: Artifact store (or its root path) shared with workers.
        workers: Supervised worker-pool size.
        queue_capacity: Bound on queued-but-not-running jobs; beyond it
            submissions shed.
        ladder: Load-shedding fidelity ladder (None = default tiers).
        breaker: Per-spec circuit breaker (None = defaults).
        heartbeat_timeout: Wedged-worker threshold (seconds).
        max_attempts: Total executions allowed per job across worker
            deaths, hard kills, and transient failures.
        use_cache: Serve cached artifacts without simulating.
        shard_id: Cluster shard name; namespaces the drained-queue
            file so shards sharing one store never clobber each other,
            and is stamped into ping/metrics/jobs responses.  Empty
            for a standalone daemon (the pre-cluster file name).
        socket_path / host / port / tick_interval / log: See
            :class:`~repro.serve.base.LineService`.
    """

    kind = "serve"

    def __init__(
        self,
        store: "ArtifactStore | str",
        workers: int = 2,
        queue_capacity: int = 16,
        ladder: FidelityLadder | None = None,
        breaker: CircuitBreaker | None = None,
        heartbeat_timeout: float = 10.0,
        max_attempts: int = 3,
        use_cache: bool = True,
        shard_id: str = "",
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = 0.05,
        log=None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        super().__init__(store, socket_path, host, port, tick_interval, log)
        self.queue = AdmissionQueue(capacity=queue_capacity)
        self.ladder = ladder if ladder is not None else FidelityLadder()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.supervisor = WorkerSupervisor(
            self.store.root,
            workers=workers,
            use_cache=use_cache,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.max_attempts = max_attempts
        self.shard_id = shard_id
        self._done = threading.Condition(self._lock)
        self._drain_swept = False
        self._service_ewma = 1.0
        self._handlers.update(
            ping=self._handle_ping,
            status=self._handle_status,
            wait=self._handle_wait,
            metrics=self._handle_metrics,
            jobs=self._handle_jobs,
            steal=self._handle_steal,
        )

    # ------------------------------------------------------------------
    # Skeleton hooks
    # ------------------------------------------------------------------

    def _on_start(self) -> None:
        self.supervisor.start()

    def _on_stop(self) -> None:
        self.supervisor.stop()

    @property
    def _parked_name(self) -> str:
        if self.shard_id:
            return f"drained-queue-{self.shard_id}"
        return DRAINED_QUEUE_FILE.removesuffix(".json")

    def _readmit_parked(self, submission: Submission) -> None:
        record = self._new_record(submission)
        self.queue.push(QueueItem(record.job_id, record.priority))

    # ------------------------------------------------------------------
    # Requests (handler threads)
    # ------------------------------------------------------------------

    def _new_record(self, submission: Submission) -> JobRecord:
        record = JobRecord(
            job_id=self._next_id("j"),
            submitted_at=self.clock(),
            **vars(submission),
        )
        self._jobs[record.job_id] = record
        return record

    def _retry_after(self) -> float:
        """Suggested backoff for shed callers: roughly the time for the
        queue to make one slot's worth of progress."""
        with self._lock:
            depth = self.queue.depth + len(self.supervisor.busy_jobs)
            per_slot = self._service_ewma / max(1, self.supervisor.workers)
            return round(max(0.5, per_slot * max(1, depth)), 3)

    def _handle_ping(self, message: dict) -> dict:
        with self._lock:
            return ok_response(
                pong=True,
                shard=self.shard_id,
                draining=self.draining,
                queue_depth=self.queue.depth,
            )

    def _admit(self, submission: Submission, message: dict) -> dict:
        obs = get_recorder()
        with self._lock:
            refused = self._refuse_draining()
            if refused is not None:
                return refused
            # Admission control first (non-destructive): a full queue
            # sheds before the breaker consumes a probe.
            if self.queue.full:
                if obs.enabled:
                    obs.count("serve.shed")
                    obs.event(
                        "serve_shed",
                        name=submission.spec.display_name,
                        queue_depth=self.queue.depth,
                    )
                return error_response("shed", retry_after=self._retry_after())
            job_hash = submission.spec.content_hash()
            if not self.breaker.allow(job_hash):
                self._count("breaker_rejected")
                return error_response(
                    "breaker_open",
                    retry_after=round(self.breaker.retry_after(job_hash), 3),
                )
            tiered = self.ladder.apply(submission.spec, self.queue.utilization)
            record = self._new_record(submission)
            record.spec = tiered.spec
            record.tier = tiered.tier
            record.f_final_cap = tiered.f_final_cap
            record.degraded = tiered.degraded
            fence = message.get("fence")
            record.fence = fence if isinstance(fence, dict) else None
            # Cannot fail: fullness was checked under this lock.
            self.queue.offer(QueueItem(record.job_id, record.priority))
            if obs.enabled:
                obs.count("serve.submitted")
                obs.count(f"serve.tier.{record.tier}")
                if record.degraded:
                    obs.count("serve.degraded")
            return ok_response(
                job_id=record.job_id,
                job_hash=record.spec.content_hash(),
                tier=record.tier,
                f_final_cap=record.f_final_cap,
                degraded=record.degraded,
                queue_depth=self.queue.depth,
            )

    def _handle_status(self, message: dict) -> dict:
        job_id = message.get("job_id")
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return error_response(f"unknown job {job_id!r}")
            return ok_response(job=record.to_dict())

    def _handle_wait(self, message: dict) -> dict:
        job_id = message.get("job_id")
        timeout = float(message.get("timeout", 60.0))
        deadline = self.clock() + timeout
        with self._done:
            record = self._jobs.get(job_id)
            if record is None:
                return error_response(f"unknown job {job_id!r}")
            while not record.final:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return error_response(
                        "wait_timeout", job=record.to_dict()
                    )
                self._done.wait(remaining)
            return ok_response(job=record.to_dict())

    def _handle_metrics(self, message: dict) -> dict:
        obs = get_recorder()
        store_status = self._store_status()
        with self._lock:
            statuses: dict[str, int] = {}
            tiers: dict[str, int] = {}
            tenants: dict[str, dict] = {}
            for record in self._jobs.values():
                statuses[record.status] = statuses.get(record.status, 0) + 1
                tiers[str(record.tier)] = tiers.get(str(record.tier), 0) + 1
                tenant = tenants.setdefault(
                    record.tenant,
                    {"queued": 0, "running": 0, "final": 0, "total": 0},
                )
                tenant["total"] += 1
                if record.status == "queued":
                    tenant["queued"] += 1
                elif record.status in ("dispatched", "running"):
                    tenant["running"] += 1
                elif record.final:
                    tenant["final"] += 1
            breaker = self.breaker.snapshot()
            ladder_tier, ladder_cap = self.ladder.tier_for(
                self.queue.utilization
            )
            return ok_response(
                store=store_status,
                shard=self.shard_id,
                queue_depth=self.queue.depth,
                queue_capacity=self.queue.capacity,
                utilization=round(self.queue.utilization, 4),
                running=len(self.supervisor.busy_jobs),
                idle_workers=self.supervisor.idle_count,
                worker_restarts=self.supervisor.restarts,
                draining=self.draining,
                jobs_by_status=statuses,
                jobs_by_tier=tiers,
                tenants=tenants,
                ladder_tier=ladder_tier,
                ladder_cap=ladder_cap,
                breaker=breaker,
                breaker_open=sum(
                    1
                    for entry in breaker.values()
                    if entry["state"] != "closed"
                ),
                recorder=obs.snapshot() if obs.enabled else {},
            )

    def _handle_jobs(self, message: dict) -> dict:
        """Compact status of every record — the router's sync primitive.

        One bulk response per tick instead of per-job ``status`` calls;
        the router uses it both as a liveness probe and to learn which
        of its routed jobs reached a final state.
        """
        with self._lock:
            jobs = [
                {
                    "job_id": record.job_id,
                    "job_hash": record.spec.content_hash(),
                    "status": record.status,
                    "tenant": record.tenant,
                }
                for record in self._jobs.values()
            ]
            return ok_response(shard=self.shard_id, jobs=jobs)

    def _handle_steal(self, message: dict) -> dict:
        """Give up to ``max_jobs`` queued jobs to the cluster router.

        The router re-admits them on a cooler (or surviving) shard;
        here each stolen record finalizes as ``stolen`` so this shard
        never also runs it — a stolen job has exactly one owner.
        Returns the full submission document (spec, tenant, priority,
        deadlines) so nothing is lost in the move.
        """
        max_jobs = int(message.get("max_jobs", 0))
        with self._lock:
            stolen: list[dict] = []
            for item in self.queue.steal(max_jobs):
                record = self._jobs.get(item.job_id)
                if record is None or record.status != "queued":
                    continue
                self._finalize(record, "stolen")
                stolen.append(
                    {
                        "job_id": record.job_id,
                        "job_hash": record.spec.content_hash(),
                        **record.entry(),
                    }
                )
            if stolen:
                obs = get_recorder()
                if obs.enabled:
                    obs.count("serve.stolen", len(stolen))
            return ok_response(
                shard=self.shard_id,
                stolen=stolen,
                queue_depth=self.queue.depth,
            )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """One supervision pass; all state mutation happens here or in
        the handler threads, both under the state lock.  Blocking work
        (parking the drained queue) is collected under the lock and
        performed after release (DD009 discipline)."""
        with self._lock:
            self._pump_results()
            self._check_workers()
            self._enforce_hard_deadlines()
            self._dispatch()
            to_park = self._advance_drain()
        self._park([record.entry() for record in to_park])

    def _pump_results(self) -> None:
        for event in self.supervisor.poll():
            record = self._jobs.get(event.job_id or "")
            if event.kind == "started":
                if record is not None and record.status == "dispatched":
                    record.status = "running"
                continue
            if record is None or record.final:
                continue  # stale message from a killed worker
            if event.kind == "done" and event.result is not None:
                self._apply_result(record, event.result)
            else:
                self._requeue_or_fail(
                    record, f"worker raised: {event.error}"
                )

    def _check_workers(self) -> None:
        obs = get_recorder()
        for event in self.supervisor.check():
            if obs.enabled:
                obs.count(f"serve.worker_{event.kind}")
            self._log(
                f"worker {event.worker_id} {event.kind} "
                f"(job={event.job_id or '-'}); respawned"
            )
            record = self._jobs.get(event.job_id or "")
            if record is not None and not record.final:
                self._requeue_or_fail(record, f"worker {event.kind}")

    def _enforce_hard_deadlines(self) -> None:
        now = self.clock()
        obs = get_recorder()
        for record in list(self._jobs.values()):
            if record.status not in ("running", "dispatched"):
                continue
            if record.hard_deadline is None or now < record.hard_deadline:
                continue
            killed = self.supervisor.kill_job(record.job_id)
            if obs.enabled:
                obs.count("serve.hard_kills")
            self._log(
                f"{record.job_id} hard deadline exceeded "
                f"(killed worker: {killed})"
            )
            self._requeue_or_fail(record, "hard deadline exceeded")

    def _dispatch(self) -> None:
        if self.draining:
            return
        while self.supervisor.idle_count > 0:
            item = self.queue.poll()
            if item is None:
                return
            record = self._jobs.get(item.job_id)
            if record is None or record.status != "queued":
                continue
            soft_deadline = (
                self.clock() + record.soft_timeout
                if record.soft_timeout is not None
                else None
            )
            if not self.supervisor.submit(
                record.job_id,
                record.spec,
                soft_deadline,
                fence=record.fence,
            ):
                # Raced with a worker death; try again next tick.
                self.queue.push(item)
                return
            record.attempts += 1
            record.status = "dispatched"
            record.started_at = self.clock()
            record.hard_deadline = (
                self.clock() + record.hard_timeout
                if record.hard_timeout is not None
                else None
            )
            record.events.append(f"attempt {record.attempts} dispatched")

    def _advance_drain(self) -> list[JobRecord]:
        """Advance the drain state machine under the state lock.

        Returns the records that still need parking; the caller
        writes them to disk *after* releasing the lock so file I/O
        never runs inside the lock region (DD009).
        """
        queued: list[JobRecord] = []
        if not self.draining:
            return queued
        if not self._drain_swept:
            self._drain_swept = True
            cancelled = self.supervisor.cancel_all()
            for item in self.queue.drain():
                record = self._jobs.get(item.job_id)
                if record is not None and record.status == "queued":
                    queued.append(record)
                    self._finalize(record, "drained")
            self._log(
                f"draining: cancelled {cancelled} in-flight job(s), "
                f"parked {len(queued)} queued job(s)"
            )
        if not self.supervisor.busy_jobs:
            self._stopped.set()
        return queued

    # ------------------------------------------------------------------
    # Result application
    # ------------------------------------------------------------------

    def _finalize(self, record: JobRecord, status: str) -> None:
        record.status = status
        record.finished_at = self.clock()
        record.events.append(f"finalized: {status}")
        self._done.notify_all()

    def _apply_result(self, record: JobRecord, result: JobResult) -> None:
        obs = get_recorder()
        record.result = result
        job_hash = record.spec.content_hash()
        if record.started_at is not None:
            elapsed = self.clock() - record.started_at
            self._service_ewma = (
                0.8 * self._service_ewma + 0.2 * max(0.01, elapsed)
            )
        if result.status == "completed":
            self.breaker.record_success(job_hash)
            if obs.enabled:
                obs.count("serve.completed")
                if record.degraded:
                    obs.count("serve.completed_degraded")
            self._finalize(record, "completed")
            return
        if result.status in ("timeout", "deadline", "drained"):
            # Cooperative interruptions: the worker checkpointed, the
            # Lemma-1 budget spent so far is in result.stats, and a
            # future submission of the same spec resumes from there.
            if obs.enabled:
                obs.count(f"serve.{result.status}")
            self._finalize(record, result.status)
            return
        record.error = result.error
        if result.error_kind == PERMANENT:
            self.breaker.record_failure(job_hash)
            if obs.enabled:
                obs.count("serve.failed_permanent")
            self._finalize(record, "error")
            return
        self._requeue_or_fail(record, result.error or "transient failure")

    def _requeue_or_fail(self, record: JobRecord, reason: str) -> None:
        """Give a disrupted job another attempt, or finalize it.

        Requeued jobs resume from any checkpoint their interrupted
        attempt persisted (the engine's normal resume path), and
        re-enter the queue even when it is full: the job was already
        accepted, and capacity bounds new admissions only.  During a
        drain, disrupted jobs finalize as ``drained`` — their
        checkpoint survives for the next daemon start.
        """
        obs = get_recorder()
        record.events.append(f"disrupted: {reason}")
        if self.draining:
            self._finalize(record, "drained")
            return
        if record.attempts >= self.max_attempts:
            record.error = (
                f"failed after {record.attempts} attempts: {reason}"
            )
            if obs.enabled:
                obs.count("serve.failed_attempts")
            self._finalize(record, "error")
            return
        record.status = "queued"
        record.started_at = None
        record.hard_deadline = None
        self.queue.push(QueueItem(record.job_id, record.priority))
        if obs.enabled:
            obs.count("serve.requeued")
        self._log(f"{record.job_id} requeued after: {reason}")
