"""The job process: runs the direct job stream in a fresh interpreter.

Started by ``run.py`` with the program's ``src`` directory on
``PYTHONPATH``.  It prints ``{"event": "ready"}`` once the program is
imported, then answers one JSON command per stdin line with one JSON
line on stdout:

* ``{"op": "prefill", "store": DIR, "specs": [...]}`` runs each spec
  through ``execute_job`` into the serve store and returns the stats.
* ``{"op": "stream", ...}`` runs the direct stream: reference, job,
  reference, job, ... until ``seconds`` have passed, each job through
  ``execute_job`` with ``gc.collect()`` before it.  With ``trace`` set,
  every second round of ``block`` jobs runs with the layer wrappers
  installed.

EOF on stdin ends the process.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from refkernel import run_reference  # noqa: E402
from tracing import Tracer, totals  # noqa: E402

from repro.service import engine  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402
from repro.service.store import ArtifactStore  # noqa: E402


def _summary(result) -> dict:
    stats = result.stats or {}
    return {
        "name": result.spec.circuit.removeprefix("builtin:"),
        "status": result.status,
        "cached": result.cached,
        "error": result.error,
        "stats": stats,
    }


def prefill(command: dict) -> dict:
    store = ArtifactStore(command["store"])
    rows = []
    for document in command["specs"]:
        result = engine.execute_job(JobSpec.from_dict(document), store)
        rows.append(_summary(result))
    return {"results": rows}


def stream(command: dict) -> dict:
    """Interleave the frozen reference kernel one-to-one with jobs."""
    seconds = float(command["seconds"])
    trace = bool(command["trace"])
    block = int(command["block"])
    workdir = command["workdir"]
    shared = (
        ArtifactStore(command["store"]) if command["cached"] else None
    )
    tracer = Tracer()
    jobs: list[dict] = []
    refs = [run_reference()]
    deadline = time.perf_counter() + seconds
    for index, document in enumerate(command["specs"]):
        if time.perf_counter() >= deadline:
            break
        spec = JobSpec.from_dict(document)
        scratch = os.path.join(workdir, f"job-{index}")
        store = shared or ArtifactStore(scratch)
        traced = trace and (index // block) % 2 == 1
        if traced:
            tracer.install_program()
        gc.collect()
        start = time.perf_counter()
        result = engine.execute_job(spec, store, use_cache=shared is not None)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        refs.append(run_reference())
        row = _summary(result)
        row["wall"] = wall
        row["traced"] = traced
        if traced and tracer.packages:
            package = tracer.packages[-1]
            row["caches"] = {
                name: [cache["hits"], cache["misses"]]
                for name, cache in package.cache_stats()["caches"].items()
            }
            row["unique"] = package.unique_table_sizes()
            tracer.packages.clear()
        jobs.append(row)
        if shared is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return {"jobs": jobs, "refs": refs, "spans": totals(tracer.spans)}


def main() -> int:
    print(json.dumps({"event": "ready"}), flush=True)
    handlers = {"prefill": prefill, "stream": stream}
    for line in sys.stdin:
        command = json.loads(line)
        reply = handlers[command["op"]](command)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
