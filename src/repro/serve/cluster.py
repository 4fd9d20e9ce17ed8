"""Cluster process management: N shard daemons + one in-process router.

:class:`ServeCluster` is what ``repro-sim serve --cluster N`` runs: it
spawns ``N`` shard daemons as real subprocesses (each a full
``repro-sim serve`` with its own worker pool, breaker, and ladder, all
sharing one artifact store), builds a
:class:`~repro.serve.membership.Membership` over their sockets, and
runs a :class:`~repro.serve.router.ClusterRouter` in-process as the
single front door.

Shutdown composes with the single-daemon semantics in docs/SERVE.md:
a SIGTERM (or ``drain`` request) drains the router, which drains every
shard — in-flight jobs finish or checkpoint, queued jobs park in each
shard's own drained-queue file — and the cluster exits 5
(``EXIT_DRAINED``) once every shard process has exited.  Shards are
SIGKILLed only if they overstay ``shard_grace`` after their drain.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

from ..service.replication import open_store
from ..service.store import ArtifactStore
from .client import ServeClient
from .membership import Membership
from .router import ClusterRouter


class ServeCluster:
    """Spawn and supervise a sharded serve tier.

    Args:
        store: Artifact store (or root path) shared by every shard.
        shards: Number of shard daemons to spawn.
        workers: Worker-pool size *per shard*.
        queue_capacity: Admission-queue bound per shard.
        socket_dir: Directory for the shard and router Unix sockets
            (default: a fresh short ``mkdtemp`` — ``AF_UNIX`` paths are
            length-limited).
        shard_args: Extra CLI arguments appended to every shard's
            ``repro-sim serve`` command line (e.g. ``--fault-plan``).
        quotas / rate_limits / fail_threshold / steal_threshold /
            steal_batch / scrub_interval / tick_interval:
            Router knobs (see
            :class:`~repro.serve.router.ClusterRouter`).
        startup_timeout: Seconds to wait for every shard to answer its
            first ping.
        shard_grace: Seconds a shard may take to exit after the
            cluster-wide drain before it is killed.
        log: Writable text stream for cluster/router log lines.
    """

    def __init__(
        self,
        store: "ArtifactStore | str",
        shards: int = 3,
        workers: int = 1,
        queue_capacity: int = 8,
        socket_dir: str | None = None,
        shard_args: list[str] | None = None,
        quotas: dict[str, int] | None = None,
        rate_limits: dict[str, tuple[float, float]] | None = None,
        fail_threshold: int = 3,
        steal_threshold: int = 4,
        steal_batch: int = 2,
        scrub_interval: float | None = None,
        tick_interval: float = 0.1,
        startup_timeout: float = 30.0,
        shard_grace: float = 60.0,
        log=None,
    ) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.store = (
            store if isinstance(store, ArtifactStore) else open_store(store)
        )
        self.shards = shards
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.socket_dir = socket_dir or tempfile.mkdtemp(prefix="repro-cl-")
        self.shard_args = list(shard_args or [])
        self.startup_timeout = startup_timeout
        self.shard_grace = shard_grace
        self._log_stream = log if log is not None else sys.stderr
        self._procs: dict[str, subprocess.Popen] = {}
        self._log_handles: list = []
        self._started = False
        self.shard_returncodes: dict[str, int | None] = {}
        self.router = ClusterRouter(
            self.store,
            Membership(
                [
                    (shard_id, self._shard_socket(shard_id))
                    for shard_id in self.shard_ids
                ],
                fail_threshold=fail_threshold,
            ),
            quotas=quotas,
            rate_limits=rate_limits,
            steal_threshold=steal_threshold,
            steal_batch=steal_batch,
            scrub_interval=scrub_interval,
            socket_path=os.path.join(self.socket_dir, "router.sock"),
            tick_interval=tick_interval,
            log=self._log_stream,
        )

    @property
    def shard_ids(self) -> list[str]:
        return [f"s{index}" for index in range(self.shards)]

    def _shard_socket(self, shard_id: str) -> str:
        return os.path.join(self.socket_dir, f"{shard_id}.sock")

    def _log(self, message: str) -> None:
        try:
            self._log_stream.write(f"[cluster] {message}\n")
            self._log_stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _shard_command(self, shard_id: str) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--store",
            self.store.root,
            "--socket",
            self._shard_socket(shard_id),
            "--shard-id",
            shard_id,
            "--workers",
            str(self.workers),
            "--queue-capacity",
            str(self.queue_capacity),
            *self.shard_args,
        ]

    def start(self) -> None:
        """Spawn the shards, wait for liveness, start the router."""
        if self._started:
            return
        self._started = True
        log_dir = os.path.join(self.store.root, "serve", "logs")
        os.makedirs(log_dir, exist_ok=True)
        for shard_id in self.shard_ids:
            handle = open(
                os.path.join(log_dir, f"{shard_id}.log"),
                "w",
                encoding="utf-8",
            )
            self._log_handles.append(handle)
            self._procs[shard_id] = subprocess.Popen(
                self._shard_command(shard_id),
                stdout=handle,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + self.startup_timeout
        for shard_id in self.shard_ids:
            client = ServeClient(
                socket_path=self._shard_socket(shard_id), timeout=10.0
            )
            while True:
                try:
                    client.ping()
                    break
                except OSError:
                    process = self._procs[shard_id]
                    if process.poll() is not None:
                        self.shutdown()
                        raise RuntimeError(
                            f"shard {shard_id} exited during startup "
                            f"(rc={process.returncode}; see "
                            f"{log_dir}/{shard_id}.log)"
                        ) from None
                    if time.monotonic() >= deadline:
                        self.shutdown()
                        raise RuntimeError(
                            f"shard {shard_id} did not come up within "
                            f"{self.startup_timeout}s"
                        ) from None
                    time.sleep(0.05)
        self.router.start()
        self._log(
            f"{self.shards} shard(s) up; router at {self.router.address}"
        )

    def serve_forever(self) -> None:
        """Run until a drain completes, then reap the shard processes."""
        self.start()
        try:
            self.router.serve_forever()
        finally:
            self._reap()

    def request_drain(self) -> None:
        """Begin a graceful cluster-wide drain (signal-handler safe)."""
        self.router.request_drain()

    @property
    def draining(self) -> bool:
        return self.router.draining

    def stop(self) -> None:
        """Stop the router loop immediately (tests)."""
        self.router.stop()

    def shard_pid(self, shard_id: str) -> int | None:
        """The OS pid of a shard process (soak tests kill via this)."""
        process = self._procs.get(shard_id)
        return process.pid if process is not None else None

    def _reap(self) -> None:
        """Wait for every shard to exit; kill stragglers after grace."""
        deadline = time.monotonic() + self.shard_grace
        for shard_id, process in self._procs.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self._log(
                    f"shard {shard_id} overstayed drain grace; killing"
                )
                process.kill()
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            self.shard_returncodes[shard_id] = process.returncode
        for handle in self._log_handles:
            try:
                handle.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._log(f"shards exited: {self.shard_returncodes}")

    def shutdown(self) -> None:
        """Hard teardown (startup failure or abort): kill everything."""
        self.router.stop()
        for process in self._procs.values():
            if process.poll() is None:
                process.kill()
        self._reap()
