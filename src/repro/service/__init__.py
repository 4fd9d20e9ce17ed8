"""Durable simulation job engine (service layer).

The paper treats an approximate simulation as a budgeted computation —
fidelity is spent to buy runtime and memory (§IV, Lemma 1).  This package
treats the *result* of that computation as a durable, reusable artifact:

* :mod:`repro.service.jobs` — :class:`JobSpec`, a frozen, content-hashed
  description of one simulation job (circuit, strategy, shots, seed,
  time budget).
* :mod:`repro.service.store` — :class:`ArtifactStore`, an on-disk
  content-addressed store for results, serialized final-state diagrams,
  and JSONL run journals.
* :mod:`repro.service.checkpoint` — mid-run snapshots (serialized state
  DD + operation index + completed approximation rounds) enabling
  resume-after-kill, sound because Lemma 1 composes per-round fidelities
  multiplicatively across the interruption.
* :mod:`repro.service.engine` — :class:`JobEngine`, a cache-first
  multiprocessing executor with per-job cooperative timeouts, bounded
  retry with backoff, and checkpoint/resume.
* :mod:`repro.service.replication` — :class:`ReplicatedStore`, the
  same store API over N replica roots with write-quorum puts,
  read-any-verify-repair gets, and an anti-entropy scrubber;
  :func:`open_store` picks the right class from a bare root path.
* :mod:`repro.service.lease` — store-backed ownership leases
  (epoch-numbered; an owner change bumps the epoch) whose fence tokens
  the store layer checks on checkpoint writes.

Failure handling (see ``docs/SERVICE.md`` § Failure model & recovery):
artifacts and checkpoints embed checksums verified on load; corrupt
ones are quarantined (moved aside, never deleted) and the job recomputes
or restarts fresh; failures classify as transient (retried with
backoff) or permanent (reported immediately) via
:mod:`repro.faults.errors`.  The :mod:`repro.faults` package injects
these failures deterministically for chaos testing.
"""

from .checkpoint import Checkpoint, CheckpointWriter
from .engine import JobEngine, JobResult, execute_job
from .jobs import (
    JobSpec,
    JobSpecError,
    build_builtin_circuit,
    build_strategy,
    load_job_specs,
)
from .lease import Lease, LeaseManager
from .replication import ReplicatedStore, open_store
from .store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "Checkpoint",
    "CheckpointWriter",
    "JobEngine",
    "JobResult",
    "JobSpec",
    "JobSpecError",
    "Lease",
    "LeaseManager",
    "ReplicatedStore",
    "build_builtin_circuit",
    "build_strategy",
    "execute_job",
    "load_job_specs",
    "open_store",
]
