"""In-memory spans around the program's layer boundaries.

A :class:`Tracer` replaces public functions and methods of the program
with timing wrappers, at the module attribute each caller actually
looks up (``repro.core.simulator.operation_to_medge``, not
``repro.circuits.lowering.operation_to_medge``), and restores them on
:meth:`Tracer.uninstall`.  Spans stay in memory; a process writes them
to one JSON file when it ends.  Forked serve workers inherit the
wrappers and write their own file, named by pid.

Only :meth:`Tracer.install_program` imports the program, so the span
arithmetic is testable on its own.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: Index of the root span of the call tree this span belongs to.
    trace: int = -1
    #: Free-form tag (a serve request's label); empty when unused.
    tag: str = ""
    #: A count measured at the boundary (bytes written), or 0.
    value: int = 0


class Tracer:
    """Collects spans from the current process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.packages: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def traced(
        self,
        name: str,
        function: Callable,
        tag: Callable[..., str] | None = None,
        value: Callable[..., int] | None = None,
    ) -> Callable:
        """Wrap ``function`` so each call records a span called ``name``.

        ``tag(*args, **kwargs)`` labels the span; ``value(result, *args,
        **kwargs)`` attaches a count measured after the call.
        """
        spans = self.spans
        local = self._local
        lock = self._lock

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, 0.0)
            if stack:
                span.parent = stack[-1]
                span.trace = spans[stack[-1]].trace
            if tag is not None:
                span.tag = tag(*args, **kwargs)
            with lock:
                index = len(spans)
                spans.append(span)
            if span.trace < 0:
                span.trace = index
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if value is not None:
                span.value = value(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def wrap(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with a traced version (undone by
        :meth:`uninstall`)."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, original, **hooks))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The program's layer boundaries
    # ------------------------------------------------------------------

    def install_program(self) -> None:
        """Wrap the program's public layer entry points."""
        from repro.core import approximation, simulator, strategies
        from repro.dd.package import Package
        from repro.dd.vector import StateDD
        from repro.serve import supervisor
        from repro.serve.client import ServeClient
        from repro.service import engine
        from repro.service.store import ArtifactStore

        self.wrap(simulator, "operation_to_medge", "circuits.operation_to_medge")
        self.wrap(simulator.DDSimulator, "run", "core.run")
        self.wrap(strategies, "approximate_state", "core.approximate_state")
        self.wrap(simulator, "approximate_state", "core.approximate_state")
        for name in (
            "node_contributions", "select_nodes_for_removal", "rebuild_without"
        ):
            self.wrap(approximation, name, f"core.{name}")
        self.wrap(StateDD, "node_count", "dd.node_count")
        self._wrap_package(Package)
        self.wrap(
            ArtifactStore, "put_result", "service.put_result",
            value=_bytes_written,
        )
        self.wrap(ArtifactStore, "load_result", "service.load_result")
        self.wrap(ArtifactStore, "load_state", "service.load_state")
        self.wrap(engine, "state_to_dict", "service.state_to_dict")
        self.wrap(engine, "execute_job", "service.execute_job", tag=_label)
        self.wrap(supervisor, "execute_job", "service.execute_job", tag=_label)
        self.wrap(ServeClient, "submit", "serve.submit")
        self.wrap(ServeClient, "wait", "serve.wait")

    def _wrap_package(self, package_class: type) -> None:
        """Time top-level ``multiply_mv`` calls of every new Package.

        ``Package`` binds ``multiply_mv`` as an instance attribute to
        the backend's method, and the backend recurses on its own
        method, so rebinding the instance attribute sees exactly the
        simulator's per-gate calls.  Cache hit/miss counting is turned
        on so hit rates can be read after the job.
        """
        original_init = package_class.__init__
        tracer = self

        def __init__(package, *args, **kwargs):
            original_init(package, *args, **kwargs)
            package.multiply_mv = tracer.traced(
                "dd.multiply_mv", package.multiply_mv
            )
            package.enable_metrics(True)
            tracer.packages.append(package)

        self._patches.append((package_class, "__init__", original_init))
        package_class.__init__ = __init__

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def clear(self) -> None:
        self.spans.clear()
        self.packages.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)

    def write_on_exit_of_forked_children(self, directory: str) -> None:
        """Make every forked ``multiprocessing`` child write its spans to
        ``<directory>/<pid>.json`` when it exits normally."""
        from multiprocessing import util

        def after_fork(tracer: Tracer) -> None:
            tracer.clear()
            util.Finalize(
                None,
                lambda: tracer.write(
                    os.path.join(directory, f"{os.getpid()}.json")
                ),
                exitpriority=10,
            )

        util.register_after_fork(self, after_fork)


def _label(spec, *args, **kwargs) -> str:
    return getattr(spec, "label", "") or ""


def _bytes_written(result, store, job_hash, *args, **kwargs) -> int:
    """Bytes the store holds for ``job_hash`` after the put."""
    directory = store.result_dir(job_hash)
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def read_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**row) for row in json.load(handle)]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


def totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and ``value``."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(
            span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0}
        )
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
        row["value"] += span.value
    return out
