"""Store-backed ownership leases with epoch fencing.

The sharded serve tier needs *exactly one* shard executing a job at a
time, and — harder — needs a shard that was wrongly declared dead (a
GC pause, a partitioned host) to be unable to corrupt state when it
comes back.  The ownership log (append-only history) answers "who ran
this"; leases answer "who may write *now*":

* Every placement acquires a **lease** for the job: a small document
  ``{job_hash, owner, epoch}`` persisted through the store (and
  therefore quorum-replicated when the store is a
  :class:`~repro.service.replication.ReplicatedStore`).
* The **epoch** increments on every change of ownership; placing the
  job on its current owner again keeps it.  The router hands the
  ``(owner, epoch)`` pair to the executing worker as a **fence
  token**; the store layer rejects checkpoint writes whose token is
  older than the current lease
  (:class:`~repro.faults.errors.StaleLeaseError`).  A recovered
  ex-owner can therefore never clobber the new owner's checkpoint,
  even if the router's view of the world is wrong.

Lease documents are never deleted by the serve tier: a deleted lease
would read as "no lease" and let a stale fenced writer through.
``jobs gc`` may remove lease files of jobs whose result exists — at
that point the checkpoint is gone too, so there is nothing left to
fence.  Lease documents written by earlier versions also carry an
expiry time; it is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .store import ArtifactStore


@dataclass(frozen=True)
class Lease:
    """One job's current ownership claim.

    Attributes:
        job_hash: The job the lease covers.
        owner: Identity of the holder (a shard id).
        epoch: Monotonic ownership generation; bumped on takeover.
    """

    job_hash: str
    owner: str
    epoch: int

    @property
    def fence(self) -> dict:
        """The fence token checkpoint writes must carry."""
        return {"owner": self.owner, "epoch": self.epoch}

    def to_dict(self) -> dict:
        """JSON-compatible lease document."""
        return {
            "job_hash": self.job_hash,
            "owner": self.owner,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, job_hash: str, data: dict) -> "Lease":
        """Rebuild a lease from its stored document (tolerant)."""
        return cls(
            job_hash=job_hash,
            owner=str(data.get("owner", "")),
            epoch=int(data.get("epoch", 0)),
        )


class LeaseManager:
    """Read and move ownership leases in one (possibly replicated) store."""

    def __init__(self, store: ArtifactStore):
        self.store = store

    def current(self, job_hash: str) -> Lease | None:
        """The lease currently recorded for a job, or None."""
        document = self.store.read_lease(job_hash)
        if document is None:
            return None
        return Lease.from_dict(job_hash, document)

    def acquire(self, job_hash: str, owner: str) -> Lease:
        """Record ``owner`` as the job's owner; returns the lease.

        A different previous owner bumps the epoch, so every fence
        token the old owner still holds goes stale the moment the
        claim lands.  The same owner keeps its epoch (and nothing is
        rewritten).
        """
        previous = self.current(job_hash)
        if previous is None:
            epoch = 1
        elif previous.owner == owner:
            return previous
        else:
            epoch = previous.epoch + 1
        lease = Lease(job_hash=job_hash, owner=owner, epoch=epoch)
        self.store.write_lease(job_hash, lease.to_dict())
        return lease
