"""The serving layer: a supervised simulation daemon (``repro-sim serve``).

Turns the batch-oriented service layer into a long-running request
path, applying the paper's fidelity-as-budget stance (Lemma 1) as a
*serving policy* — under load the daemon degrades accuracy before it
degrades availability:

* :mod:`repro.serve.base` — :class:`LineService`: the skeleton both
  services share (listener, lifecycle, drain flag, parked jobs, op
  table, shared admission checks) and :class:`Submission`, the one
  parsed submission document.
* :mod:`repro.serve.daemon` — :class:`SimDaemon`: admission, the
  control loop, deadlines, drain.
* :mod:`repro.serve.supervisor` — :class:`WorkerSupervisor`: forked
  workers with heartbeats; dead or wedged workers are replaced and
  their jobs requeued (checkpoint-resumed when possible).
* :mod:`repro.serve.queue` — :class:`AdmissionQueue`: bounded priority
  queue; a full queue sheds with an explicit rejection.
* :mod:`repro.serve.breaker` — :class:`CircuitBreaker`: per-spec fast
  rejection of persistently failing work, with half-open recovery.
* :mod:`repro.serve.degrade` — :class:`FidelityLadder`: queue-pressure
  tiers that admit new jobs at downgraded ``f_final`` targets.
* :mod:`repro.serve.client` / :mod:`repro.serve.protocol` — the
  JSON-lines client and wire format.

The sharded tier (``repro-sim serve --cluster N``) stacks three more
modules on the same protocol:

* :mod:`repro.serve.membership` — :class:`Membership`: shard health
  state machine + rendezvous placement.
* :mod:`repro.serve.router` — :class:`ClusterRouter`: the front door;
  heartbeat supervision, failover re-admission, work stealing, tenant
  quotas and rate limits.  A cluster job's ``(shard_id,
  shard_job_id)`` pair is its only ownership record; placements fence
  the store with epoch-numbered leases.
* :mod:`repro.serve.cluster` — :class:`ServeCluster`: shard daemons as
  subprocesses over one shared store, router in-process.

See ``docs/SERVE.md`` for the serving model, deadline semantics, and
the cluster topology.
"""

from .base import LineService, Submission
from .breaker import CircuitBreaker
from .client import ServeClient, ServeError
from .cluster import ServeCluster
from .daemon import JobRecord, SimDaemon
from .degrade import DEGRADABLE_KINDS, FidelityLadder, TieredSpec
from .membership import Membership, ShardInfo
from .protocol import ProtocolError
from .queue import AdmissionQueue, QueueItem
from .router import ClusterJob, ClusterRouter
from .supervisor import WorkerEvent, WorkerSupervisor

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "ClusterJob",
    "ClusterRouter",
    "DEGRADABLE_KINDS",
    "FidelityLadder",
    "JobRecord",
    "LineService",
    "Membership",
    "ProtocolError",
    "QueueItem",
    "ServeClient",
    "ServeCluster",
    "ServeError",
    "ShardInfo",
    "SimDaemon",
    "Submission",
    "TieredSpec",
    "WorkerEvent",
    "WorkerSupervisor",
]
