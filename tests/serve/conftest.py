"""Serving-layer fixtures: stores, short sockets, live daemons, and a
cluster router over in-memory fake shards."""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import threading
import time

import pytest

from repro.faults import injector as injector_module
from repro.serve import Membership, ServeClient, ServeError, SimDaemon
from repro.serve import router as router_module
from repro.serve.router import ClusterRouter
from repro.service.store import ArtifactStore


@pytest.fixture(autouse=True)
def _clean_injector():
    """Disarm the process-wide fault injector around every test."""
    injector_module.disarm()
    yield
    injector_module.disarm()


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "store"))


@contextlib.contextmanager
def run_daemon(store: ArtifactStore, **kwargs):
    """Run a real daemon (workers + socket + control loop) for a test.

    The Unix socket lives in its own short ``mkdtemp`` directory:
    pytest's ``tmp_path`` can exceed the ~100-byte ``AF_UNIX`` path
    limit.
    """
    socket_dir = tempfile.mkdtemp(prefix="serve-test-")
    daemon = SimDaemon(
        store,
        socket_path=os.path.join(socket_dir, "serve.sock"),
        tick_interval=0.02,
        log=io.StringIO(),
        **kwargs,
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(socket_path=daemon.socket_path, timeout=30.0)
    deadline = time.monotonic() + 10.0
    while True:
        try:
            client.ping()
            break
        except OSError:
            if time.monotonic() >= deadline:
                daemon.stop()
                raise RuntimeError("daemon did not come up")
            time.sleep(0.02)
    try:
        yield daemon, client
    finally:
        daemon.stop()
        thread.join(15.0)
        shutil.rmtree(socket_dir, ignore_errors=True)
        assert not thread.is_alive(), "daemon control loop failed to stop"


class FakeShard:
    """In-memory stand-in for one shard daemon's protocol surface."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.seq = 0
        self.jobs: dict[str, dict] = {}
        self.down = False
        self.reject: str | None = None
        self.draining = False
        self.submissions: list[dict] = []

    def handle(self, message: dict) -> dict:
        if self.down:
            raise ConnectionRefusedError(f"{self.shard_id} is down")
        op = message["op"]
        if op == "submit":
            self.submissions.append(message)
            if self.reject is not None:
                response: dict = {"ok": False, "error": self.reject}
                if self.reject == "breaker_open":
                    response["retry_after"] = 9.0
                return response
            self.seq += 1
            job_id = f"j-{self.seq:06d}"
            self.jobs[job_id] = {
                "job_id": job_id,
                "status": "queued",
                "spec": message["spec"],
                "tenant": message.get("tenant", "default"),
                "priority": message.get("priority", 0),
            }
            return {
                "ok": True,
                "job_id": job_id,
                "tier": 0,
                "f_final_cap": None,
                "degraded": False,
                "queue_depth": len(self.jobs),
            }
        if op == "jobs":
            return {
                "ok": True,
                "shard": self.shard_id,
                "jobs": [
                    {"job_id": job["job_id"], "status": job["status"]}
                    for job in self.jobs.values()
                ],
            }
        if op == "steal":
            stolen = []
            for job in self.jobs.values():
                if len(stolen) >= int(message["max_jobs"]):
                    break
                if job["status"] != "queued":
                    continue
                job["status"] = "stolen"
                stolen.append(
                    {
                        "job_id": job["job_id"],
                        "job_hash": "",
                        "spec": job["spec"],
                        "tenant": job["tenant"],
                        "priority": job["priority"],
                        "soft_timeout": None,
                        "hard_timeout": None,
                    }
                )
            return {"ok": True, "stolen": stolen, "queue_depth": 0}
        if op == "drain":
            self.draining = True
            return {"ok": True, "draining": True}
        if op == "metrics":
            return {
                "ok": True,
                "queue_depth": len(self.jobs),
                "queue_capacity": 8,
                "running": 0,
                "breaker_open": 0,
                "ladder_tier": 0,
                "utilization": 0.25,
                "tenants": {},
            }
        if op in ("status", "wait"):
            job = self.jobs.get(str(message.get("job_id")))
            if job is None:
                return {"ok": False, "error": "unknown job"}
            return {"ok": True, "job": dict(job)}
        raise AssertionError(f"fake shard got unexpected op {op!r}")


class FakeTransport:
    """Drop-in for ServeClient: routes requests to FakeShard objects."""

    registry: dict[str, FakeShard] = {}

    def __init__(self, socket_path=None, host="", port=0, timeout=None):
        self.socket_path = socket_path

    def request(self, message: dict, idempotent: bool = False) -> dict:
        response = FakeTransport.registry[self.socket_path].handle(message)
        if not response.get("ok"):
            raise ServeError(response)
        return response


@pytest.fixture
def fake_cluster(tmp_path, monkeypatch):
    """Build a router over in-memory fake shards."""

    def build(shard_ids, fail_threshold=2, **router_kwargs):
        monkeypatch.setattr(router_module, "ServeClient", FakeTransport)
        shards = {sid: FakeShard(sid) for sid in shard_ids}
        FakeTransport.registry = {
            f"/fake/{sid}.sock": shard for sid, shard in shards.items()
        }
        membership = Membership(
            [(sid, f"/fake/{sid}.sock") for sid in shard_ids],
            fail_threshold=fail_threshold,
        )
        router = ClusterRouter(
            ArtifactStore(str(tmp_path / "store")),
            membership,
            log=io.StringIO(),
            **router_kwargs,
        )
        return router, shards

    yield build
    FakeTransport.registry = {}
