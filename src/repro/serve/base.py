"""The service skeleton shared by the serve daemon and the cluster router.

:class:`SimDaemon` (one shard) and :class:`ClusterRouter` (the front
door over N shards) have the same outer shape, and it lives here once:

* the JSON-lines listener (:func:`build_line_server`) and a
  ``{op: handler}`` table behind it;
* the lifecycle — :meth:`LineService.start`, :meth:`~LineService.serve_forever`
  (a tick loop), :meth:`~LineService.stop`, the drain flag and
  :meth:`~LineService.shutdown` — with one start and one stop hook for
  the subclass's own machinery (worker pool, orphan parking);
* parked-job persistence: jobs that have nowhere to run when a service
  goes down are written to ``<store>/serve/<name>.json`` by
  :meth:`~LineService._park` and re-admitted by
  :meth:`~LineService._restore_parked` on the next start;
* the admission checks both make before any policy of their own: a
  well-formed :class:`Submission`, a writable store (a replicated store
  that lost its write quorum sheds with ``store_degraded``) and no
  drain in progress.

A submission document — the ``submit`` message, a parked entry and a
``steal`` payload alike — has the fields ``spec``, ``tenant``,
``priority``, ``soft_timeout`` and ``hard_timeout``, and is parsed in
one place, :meth:`Submission.parse`.
"""

from __future__ import annotations

import os
import socketserver
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from ..faults.errors import QuorumLost
from ..obs import get_recorder
from ..service.jobs import JobSpec
from ..service.replication import open_store
from ..service.store import ArtifactStore
from .protocol import (
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)

#: Tenant recorded for submissions that carry no ``tenant`` field.
DEFAULT_TENANT = "default"


class SubmissionError(ValueError):
    """A submission document that cannot be admitted; the message is
    the wire rejection text."""


def _seconds(value) -> float | None:
    return float(value) if value is not None else None


@dataclass
class Submission:
    """What a client asked for: the fields a job keeps across moves."""

    spec: JobSpec
    tenant: str = DEFAULT_TENANT
    priority: int = 0
    soft_timeout: float | None = None
    hard_timeout: float | None = None

    @classmethod
    def parse(cls, document: dict) -> "Submission":
        """Parse a submit message, parked entry or steal payload.

        Raises:
            SubmissionError: ``submit requires a spec object``,
                ``bad spec: ...`` or ``bad submission: ...``.
        """
        spec_doc = document.get("spec")
        if not isinstance(spec_doc, dict):
            raise SubmissionError("submit requires a spec object")
        try:
            spec = JobSpec.from_dict(spec_doc)
        except (TypeError, ValueError) as error:
            raise SubmissionError(f"bad spec: {error}") from None
        try:
            return cls(
                spec=spec,
                tenant=str(document.get("tenant") or DEFAULT_TENANT),
                priority=int(document.get("priority", 0)),
                soft_timeout=_seconds(document.get("soft_timeout")),
                hard_timeout=_seconds(document.get("hard_timeout")),
            )
        except (TypeError, ValueError) as error:
            raise SubmissionError(f"bad submission: {error}") from None

    def entry(self) -> dict:
        """The submission document (parked entry / steal payload)."""
        return {
            "spec": self.spec.to_dict(),
            "tenant": self.tenant,
            "priority": self.priority,
            "soft_timeout": self.soft_timeout,
            "hard_timeout": self.hard_timeout,
        }


class _StreamHandler(socketserver.StreamRequestHandler):
    """One connection: JSON-lines request/response until EOF."""

    def handle(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                message = read_message(self.rfile)
            except ProtocolError as error:
                write_message(self.wfile, error_response(str(error)))
                return
            if message is None:
                return
            try:
                response = service.handle_request(message)
            except Exception as error:  # noqa: BLE001 - reported on wire
                response = error_response(
                    f"internal: {type(error).__name__}: {error}"
                )
            try:
                write_message(self.wfile, response)
            except (BrokenPipeError, ConnectionResetError):
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _UnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True


def build_line_server(
    service, socket_path: str | None, host: str, port: int
) -> tuple:
    """Create the threading JSON-lines listener for ``service``.

    ``service`` is any object with a ``handle_request(dict) -> dict``
    method.  Returns ``(server, address)`` where address is the socket
    path or the bound ``(host, port)``.
    """
    if socket_path is not None:
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        server = _UnixServer(socket_path, _StreamHandler)
        address: tuple[str, int] | str = socket_path
    else:
        server = _TCPServer((host, port), _StreamHandler)
        address = server.server_address[:2]
    server.service = service  # type: ignore[attr-defined]
    return server, address


class LineService:
    """Lifecycle, drain, parked jobs and admission shared by services.

    Subclasses set :attr:`kind`, register their ops in
    ``self._handlers`` and implement :meth:`_tick`, :meth:`_admit`,
    :meth:`_readmit_parked` and :attr:`_parked_name`.

    Args:
        store: Artifact store (or its root path).
        socket_path: Unix socket to listen on (preferred).
        host / port: TCP fallback when ``socket_path`` is None
            (``port=0`` picks a free port; see :attr:`address`).
        tick_interval: Control-loop period in seconds.
        log: Writable text stream for log lines (stderr default).
    """

    #: Log-line prefix and metric namespace.
    kind = "service"

    def __init__(
        self,
        store: "ArtifactStore | str",
        socket_path: str | None,
        host: str,
        port: int,
        tick_interval: float,
        log,
    ) -> None:
        self.store = (
            store if isinstance(store, ArtifactStore) else open_store(store)
        )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.tick_interval = tick_interval
        self._log_stream = log if log is not None else sys.stderr
        self._lock = threading.RLock()
        self._jobs: dict = {}
        self._seq = 0
        self._drain = threading.Event()
        self._stopped = threading.Event()
        self._server = None
        self._started = False
        self._handlers: dict[str, Callable[[dict], dict]] = {
            "submit": self._handle_submit,
            "drain": self._handle_drain,
        }
        self.address: tuple[str, int] | str | None = None
        self.clock = time.monotonic

    def _log(self, message: str) -> None:
        try:
            self._log_stream.write(
                f"[{self.kind} +{self.clock():.3f}] {message}\n"
            )
            self._log_stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    def _count(self, name: str) -> None:
        obs = get_recorder()
        if obs.enabled:
            obs.count(f"{self.kind}.{name}")

    def _next_id(self, prefix: str) -> str:
        """A fresh job id (call under the state lock)."""
        self._seq += 1
        return f"{prefix}-{self._seq:06d}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the listener and restore parked jobs (idempotent)."""
        if self._started:
            return
        self._started = True
        self._on_start()
        self._restore_parked()
        self._server, self.address = build_line_server(
            self, self.socket_path, self.host, self.port
        )
        threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        ).start()
        self._log(f"listening on {self.address}")

    def serve_forever(self) -> None:
        """Run the tick loop until drained (or :meth:`stop`)."""
        self.start()
        try:
            while not self._stopped.is_set():
                self._tick()
                time.sleep(self.tick_interval)
        finally:
            self.shutdown()

    def stop(self) -> None:
        """Stop immediately (tests); prefer :meth:`request_drain`."""
        self._stopped.set()

    def request_drain(self) -> None:
        """Begin a graceful drain (signal-handler safe)."""
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def shutdown(self) -> None:
        """Tear down the listener, then the subclass's machinery."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover - already gone
                pass
        self._on_stop()
        self._log("shut down")

    def _on_start(self) -> None:
        """Hook: bring up subclass machinery before the listener."""

    def _on_stop(self) -> None:
        """Hook: tear down subclass machinery after the listener."""

    def _tick(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Parked jobs (zero-lost-jobs backstop across restarts)
    # ------------------------------------------------------------------

    @property
    def _parked_name(self) -> str:
        """Store name of this service's parked-job file."""
        raise NotImplementedError

    def _readmit_parked(self, submission: Submission) -> None:
        """Take one parked job back (under the state lock).  Parked
        jobs were accepted once, so no capacity bound turns them away."""
        raise NotImplementedError

    def _park(self, entries: list[dict]) -> None:
        """Persist submission entries for the next start (no lock)."""
        if not entries:
            return
        try:
            self.store.park_jobs(self._parked_name, entries)
        except (OSError, QuorumLost) as error:
            self._log(f"failed to park {len(entries)} job(s): {error}")
            return
        self._log(
            f"parked {len(entries)} job(s) to "
            f"{self.store.parked_jobs_path(self._parked_name)} for the "
            "next start"
        )

    def _restore_parked(self) -> None:
        try:
            entries = self.store.take_parked_jobs(self._parked_name)
        except OSError as error:
            self._log(f"ignoring unreadable parked-job file: {error}")
            return
        restored = 0
        with self._lock:
            for entry in entries:
                try:
                    submission = Submission.parse(entry)
                except SubmissionError as error:
                    self._log(f"dropping malformed parked job: {error}")
                    continue
                self._readmit_parked(submission)
                restored += 1
        if restored:
            self._log(f"restored {restored} parked job(s)")

    # ------------------------------------------------------------------
    # Requests (handler threads)
    # ------------------------------------------------------------------

    def handle_request(self, message: dict) -> dict:
        """Dispatch one protocol request (thread-safe)."""
        op = message.get("op")
        handler = self._handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            return error_response(f"unknown op {op!r}")
        return handler(message)

    def _handle_drain(self, message: dict) -> dict:
        self.request_drain()
        return ok_response(draining=True)

    def _store_status(self) -> dict:
        """Store health for ``metrics`` (file reads: call unlocked)."""
        if hasattr(self.store, "status"):
            return self.store.status()
        return {"replicated": False}

    def _retry_after(self) -> float:
        """Backoff suggested with a ``store_degraded`` rejection."""
        return 1.0

    def _handle_submit(self, message: dict) -> dict:
        obs = get_recorder()
        admission_started = time.perf_counter()
        try:
            try:
                submission = Submission.parse(message)
            except SubmissionError as error:
                self._count("rejected_bad_spec")
                return error_response(str(error))
            if getattr(self.store, "read_only", False):
                # A replicated store that lost its write quorum is
                # read-only: an accepted job would run and then fail
                # to persist its artifact.  Shed instead; a scrub (or
                # a recovered replica) lifts the mode.
                self._count("rejected_store_degraded")
                return error_response(
                    "store_degraded", retry_after=self._retry_after()
                )
            return self._admit(submission, message)
        finally:
            if obs.enabled:
                obs.observe(
                    f"{self.kind}.admission",
                    time.perf_counter() - admission_started,
                )

    def _refuse_draining(self) -> dict | None:
        """The ``draining`` rejection, or None (call under the lock, so
        no job is admitted after the drain swept the queue)."""
        if not self.draining:
            return None
        self._count("rejected_draining")
        return error_response("draining")

    def _admit(self, submission: Submission, message: dict) -> dict:
        """Subclass admission policy after the shared checks."""
        raise NotImplementedError
