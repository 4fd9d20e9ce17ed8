"""Tests for store-backed ownership leases and epoch fencing."""

from __future__ import annotations

import pytest

from repro.faults.errors import StaleLeaseError
from repro.service.lease import LeaseManager
from repro.service.store import ArtifactStore

HASH_A = "a" * 64


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture
def leases(store) -> LeaseManager:
    return LeaseManager(store)


class TestAcquire:
    def test_fresh_acquire_starts_at_epoch_one(self, leases):
        lease = leases.acquire(HASH_A, "s0")
        assert lease.owner == "s0"
        assert lease.epoch == 1
        assert leases.current(HASH_A) == lease

    def test_reacquire_by_owner_is_a_renewal(self, leases):
        first = leases.acquire(HASH_A, "s0")
        second = leases.acquire(HASH_A, "s0")
        assert second == first
        assert leases.current(HASH_A).epoch == first.epoch

    def test_takeover_of_expired_lease_bumps_epoch(self, store, leases):
        # A document written before leases lost their TTL still carries
        # an (elapsed) expiry; it is ignored, and a new owner bumps the
        # epoch as usual.
        store.write_lease(
            HASH_A,
            {"job_hash": HASH_A, "owner": "s0", "epoch": 3, "expires_at": 0.0},
        )
        taken = leases.acquire(HASH_A, "s1")
        assert taken.owner == "s1"
        assert taken.epoch == 4
        assert store.read_lease(HASH_A) == taken.to_dict()

    def test_forced_takeover_of_live_lease_bumps_epoch(self, leases):
        lease = leases.acquire(HASH_A, "s0")
        taken = leases.acquire(HASH_A, "s1")
        assert taken.epoch == lease.epoch + 1
        # Moving back is another owner change.
        assert leases.acquire(HASH_A, "s0").epoch == lease.epoch + 2

    def test_explicit_owner_overrides_manager_identity(self, leases):
        lease = leases.acquire(HASH_A, "s7")
        assert lease.owner == "s7"


class TestFencing:
    def test_stale_epoch_checkpoint_write_is_rejected(self, store, leases):
        old = leases.acquire(HASH_A, "s0")
        leases.acquire(HASH_A, "s1")
        with pytest.raises(StaleLeaseError):
            store.save_checkpoint(
                HASH_A, {"next_op_index": 1}, fence=old.fence
            )
        assert store.load_checkpoint(HASH_A) is None

    def test_same_epoch_different_owner_is_rejected(self, store, leases):
        leases.acquire(HASH_A, "s0")
        with pytest.raises(StaleLeaseError):
            store.save_checkpoint(
                HASH_A,
                {"next_op_index": 1},
                fence={"owner": "impostor", "epoch": 1},
            )

    def test_current_fence_is_accepted(self, store, leases):
        lease = leases.acquire(HASH_A, "s0")
        store.save_checkpoint(
            HASH_A, {"next_op_index": 2}, fence=lease.fence
        )
        assert store.load_checkpoint(HASH_A) == {"next_op_index": 2}

    def test_unfenced_write_passes(self, store, leases):
        # Plain (non-serve) engines write without a token; fencing only
        # constrains writers that claim an epoch.
        leases.acquire(HASH_A, "s0")
        store.save_checkpoint(HASH_A, {"next_op_index": 3})
        assert store.load_checkpoint(HASH_A) == {"next_op_index": 3}

    def test_unleased_job_accepts_any_fence(self, store):
        store.save_checkpoint(
            HASH_A, {"next_op_index": 1}, fence={"owner": "s0", "epoch": 5}
        )
        assert store.load_checkpoint(HASH_A) == {"next_op_index": 1}

    def test_clear_checkpoint_is_fenced_too(self, store, leases):
        lease = leases.acquire(HASH_A, "s0")
        store.save_checkpoint(
            HASH_A, {"next_op_index": 2}, fence=lease.fence
        )
        leases.acquire(HASH_A, "s1")
        with pytest.raises(StaleLeaseError):
            store.clear_checkpoint(HASH_A, fence=lease.fence)
        assert store.load_checkpoint(HASH_A) == {"next_op_index": 2}

    def test_legacy_expires_at_lease_still_fences(self, store):
        # A lease document from before leases lost their TTL: the
        # ``expires_at`` key (long past) changes nothing about fencing.
        store.write_lease(
            HASH_A,
            {"job_hash": HASH_A, "owner": "s1", "epoch": 2, "expires_at": 0.0},
        )
        with pytest.raises(StaleLeaseError):
            store.save_checkpoint(
                HASH_A,
                {"next_op_index": 1},
                fence={"owner": "s0", "epoch": 1},
            )
        store.save_checkpoint(
            HASH_A, {"next_op_index": 2}, fence={"owner": "s1", "epoch": 2}
        )
        assert store.load_checkpoint(HASH_A) == {"next_op_index": 2}
