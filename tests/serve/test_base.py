"""Tests for the service skeleton shared by the daemon and the router.

Each behaviour :class:`~repro.serve.base.LineService` owns is checked
on both services: the drain → restart round trip through the parked-job
file, the op table, and submission parsing.  The router runs over the
in-memory fake shards of ``conftest.py``.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.serve import ClusterRouter, Membership, SimDaemon, Submission
from repro.service.jobs import JobSpec

SPEC = JobSpec(circuit="builtin:shor_15_2")

#: The parked-job file each service writes when it goes down.
PARKED = {
    "daemon": "drained-queue.json",
    "router": "drained-queue-router.json",
}


@pytest.fixture(params=sorted(PARKED))
def kind(request) -> str:
    return request.param


@pytest.fixture
def make(kind, store, fake_cluster):
    """Build a fresh service of ``kind`` over the test store; returns
    ``(service, fake shards or None)``."""

    def build():
        if kind == "daemon":
            return SimDaemon(store, log=io.StringIO()), None
        return fake_cluster(["s0"], fail_threshold=1)

    return build


def test_drain_parks_jobs_and_the_next_start_restores_them(
    kind, make, store
):
    service, shards = make()
    submitted = Submission(
        spec=SPEC,
        tenant="acme",
        priority=2,
        soft_timeout=5.0,
        hard_timeout=9.0,
    )
    accepted = service.handle_request({"op": "submit", **submitted.entry()})
    assert accepted["ok"]
    if shards is not None:
        # The router parks only jobs without a live owner.
        shards["s0"].down = True
        service._tick()
    service.request_drain()
    service._tick()
    assert service._stopped.is_set()
    service.shutdown()
    path = os.path.join(store.root, "serve", PARKED[kind])
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == [submitted.entry()]

    successor, _ = make()
    successor._restore_parked()
    assert not os.path.exists(path)
    (job,) = successor._jobs.values()
    assert job.entry() == submitted.entry()


@pytest.mark.parametrize("op", ["explode", None, ["submit"]])
def test_unknown_op_is_an_error(make, op):
    service, _ = make()
    assert service.handle_request({"op": op}) == {
        "ok": False,
        "error": f"unknown op {op!r}",
    }


@pytest.mark.parametrize(
    "extra, error",
    [
        ({}, "submit requires a spec object"),
        ({"spec": "builtin:shor_15_2"}, "submit requires a spec object"),
        ({"spec": {"circuit": "builtin:x", "bogus": 1}}, "bad spec: "),
        ({"spec": SPEC.to_dict(), "priority": "high"}, "bad submission: "),
        ({"spec": SPEC.to_dict(), "soft_timeout": "soon"}, "bad submission: "),
    ],
)
def test_malformed_submit_is_rejected_without_a_record(make, extra, error):
    service, shards = make()
    response = service.handle_request({"op": "submit", **extra})
    assert not response["ok"]
    assert response["error"].startswith(error)
    assert service._jobs == {}
    if shards is not None:
        assert shards["s0"].submissions == []


#: A parked entry exactly as services wrote them before the skeleton.
LEGACY_ENTRY = {
    "hard_timeout": 30.0,
    "priority": 3,
    "soft_timeout": None,
    "spec": SPEC.to_dict(),
    "tenant": "acme",
}


@pytest.mark.parametrize(
    "filename, build",
    [
        (
            "drained-queue.json",
            lambda store: SimDaemon(store, log=io.StringIO()),
        ),
        (
            "drained-queue-s1.json",
            lambda store: SimDaemon(store, shard_id="s1", log=io.StringIO()),
        ),
        (
            "drained-queue-router.json",
            lambda store: ClusterRouter(
                store,
                Membership([("s0", "/nonexistent/s0.sock")]),
                log=io.StringIO(),
            ),
        ),
    ],
)
def test_parked_files_in_the_existing_format_restore(store, filename, build):
    path = os.path.join(store.root, "serve", filename)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([LEGACY_ENTRY], handle, indent=2, sort_keys=True)
    service = build(store)
    service._restore_parked()
    assert not os.path.exists(path)
    (job,) = service._jobs.values()
    assert job.entry() == LEGACY_ENTRY
