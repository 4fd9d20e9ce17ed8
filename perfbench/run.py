"""The benchmark: one workload run, printed as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-shor --seed 1 --seconds 30 --trace 0

A run starts two program processes, each a fresh interpreter:

* the **job process** (``jobproc.py``) runs the workload's direct job
  stream through ``repro.service.engine.execute_job``, interleaving the
  frozen reference kernel one-to-one with jobs;
* a ``repro-sim serve --workers 1`` **daemon** (``serve_main.py``),
  which this process loads in an open loop through ``ServeClient``
  with seeded, jittered-periodic arrivals of cache-hit jobs.

Set-up (both processes cold-started until ready) is repeated
:data:`SETUP_REPEATS` times; the last pair is kept for the run.  With
``--trace 1`` the run reports per-layer metrics instead: every second
round of the direct job mix runs with the layer wrappers installed, the daemon and its
forked worker are traced throughout, and the tracing overhead is the
traced jobs' ``job_ref.mean`` over the untraced ones'.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means
the program's sources are missing; 1 means the run itself broke.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from stats import block_ratios, percentile, ratio_of_sums  # noqa: E402
from tracing import Tracer, read_spans, totals  # noqa: E402

SETUP_REPEATS = 5
#: Hard limit on one run before clean-up starts; clean-up takes at most
#: another 20 s, and a run must end within 180 s.
RUN_LIMIT_S = 150
#: Where runs keep their stores, sockets and logs (removed at exit).
RUNS_DIR = ".perfbench_runs"


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def _name(spec: dict) -> str:
    return spec["circuit"].removeprefix("builtin:")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


class JobProcess:
    """The direct-stream process, driven by JSON lines."""

    def __init__(self, log) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "jobproc.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            env=_env(),
            text=True,
        )
        self.reply()  # {"event": "ready"}

    def reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"job process exited with {self.process.wait()}"
            )
        return json.loads(line)

    def send(self, command: dict) -> None:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()

    def call(self, command: dict) -> dict:
        self.send(command)
        return self.reply()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Daemon:
    """A ``repro-sim serve --workers 1`` process and its client."""

    def __init__(self, store: str, socket_path: str, spans: str | None, log):
        from repro.serve.client import ServeClient

        command = [sys.executable, os.path.join(HERE, "serve_main.py")]
        if spans is not None:
            command += ["--spans", spans]
        command += [
            "--", "--store", store, "--workers", "1", "--socket", socket_path,
        ]
        self.process = subprocess.Popen(
            command, stdout=log, stderr=log, env=_env()
        )
        self.socket_path = socket_path
        self.client = ServeClient(socket_path, timeout=30.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.client.ping()
                return
            except OSError:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"serve daemon exited with {self.process.returncode}"
                    ) from None
                if time.monotonic() > deadline:
                    self.process.kill()
                    self.process.wait()
                    raise RuntimeError("serve daemon never answered") from None
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid, *_children(self.process.pid)]
        return sum(_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.process.poll() is not None:
            return
        from repro.serve.client import ServeClient

        workers = _children(self.process.pid)
        try:
            ServeClient(self.socket_path, timeout=5.0).drain()
            self.process.wait(10)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        # A drained daemon joins its worker; one that had to be killed
        # leaves it orphaned, so end it here and wait (bounded) for it.
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + 5.0
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.05)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.plan = workloads.build_plan(args.workload, args.seed, args.seconds)
        self.dir = os.path.join(RUNS_DIR, str(os.getpid()))
        self.store = os.path.abspath(os.path.join(self.dir, "store"))
        self.spans_dir = (
            os.path.join(self.dir, "spans") if args.trace else None
        )
        os.makedirs(os.path.join(self.dir, "jobs"))
        if self.spans_dir:
            os.makedirs(self.spans_dir)
        self.log = open(os.path.join(self.dir, "log.txt"), "w")
        self.job: JobProcess | None = None
        self.daemon: Daemon | None = None
        self.failed: list[str] = []

    def close(self) -> None:
        for process in (self.job, self.daemon):
            if process is not None:
                process.stop()
        self.log.close()

    # -- set-up ---------------------------------------------------------

    def setup(self, repeats: int) -> float:
        """Cold-start both processes ``repeats`` times; keep the last."""
        times = []
        for trial in range(repeats):
            sock = os.path.join(self.dir, f"s{trial}.sock")
            start = time.perf_counter()
            self.job = JobProcess(self.log)
            self.daemon = Daemon(self.store, sock, self.spans_dir, self.log)
            times.append(time.perf_counter() - start)
            if trial < repeats - 1:
                self.job.stop()
                self.daemon.stop()
        if self.spans_dir:
            for name in os.listdir(self.spans_dir):
                os.remove(os.path.join(self.spans_dir, name))
        return statistics.median(times)

    def prefill(self) -> dict[str, dict]:
        """Store the serve stream's jobs; returns their direct stats by
        circuit."""
        reply = self.job.call(
            {"op": "prefill", "store": self.store, "specs": self.plan.serve}
        )
        expected = {}
        for row in reply["results"]:
            if row["status"] != "completed":
                raise RuntimeError(f"prefill failed: {row}")
            expected[row["name"]] = row["stats"]
        # Warm the daemon's worker on each job once, outside the clock.
        for index, spec in enumerate(self.plan.serve):
            job_id = self.daemon.client.submit(dict(spec, label=f"w{index}"))
            reply = self.daemon.client.wait(job_id["job_id"], timeout=20.0)
            self.check_served(
                reply, expected[_name(spec)], f"warm-up {index}"
            )
        return expected

    # -- checks ---------------------------------------------------------

    def check_served(self, reply: dict, expected: dict, what: str) -> None:
        """A served job must be a completed cache hit whose stats equal
        the direct result of the same spec, bit for bit."""
        job = reply.get("job", {})
        result = job.get("result") or {}
        if job.get("status") != "completed" or not result.get("cached"):
            self.failed.append(f"{what}: status {job.get('status')}, result {result}")
        elif result.get("stats") != expected:
            self.failed.append(f"{what}: stats differ from the direct result")

    def check_direct(self, row: dict, expected: dict) -> None:
        name, stats = row["name"], row["stats"]
        if row["status"] != "completed":
            self.failed.append(f"{name}: {row['status']} {row['error']}")
            return
        if self.plan.direct_cached:
            if not row["cached"] or stats != expected[name]:
                self.failed.append(f"{name}: cached result differs from direct")
        elif name in workloads.SHOR_PEAK_NODES:
            if (
                stats["num_rounds"] != workloads.SHOR_ROUNDS
                or stats["fidelity_estimate"] < workloads.SHOR_FINAL_FIDELITY
                or stats["max_nodes"] != workloads.SHOR_PEAK_NODES[name]
            ):
                self.failed.append(
                    f"{name}: rounds {stats['num_rounds']}, f "
                    f"{stats['fidelity_estimate']}, peak {stats['max_nodes']}"
                )
        else:
            floor = workloads.QSUP_ROUND_FIDELITY ** stats["num_rounds"]
            if stats["fidelity_estimate"] < floor * (1 - 1e-12):
                self.failed.append(
                    f"{name}: f {stats['fidelity_estimate']} below "
                    f"f_round^rounds = {floor}"
                )

    # -- measurement ----------------------------------------------------

    def serve_open_loop(self, expected: dict) -> dict:
        """Submit the arrival schedule on time; wait for each in order.

        One thread submits at each due time; this thread waits for the
        jobs in submission order (one worker serves them in that
        order).  Latency runs from the due time to ``wait`` returning,
        so a late submission counts against the job.
        """
        from repro.serve.client import ServeError

        client = self.daemon.client
        arrivals = self.plan.arrivals
        submitted: queue.Queue = queue.Queue()
        late: list[float] = []
        start = time.perf_counter() + 0.05

        def submitter() -> None:
            for index, (offset, kind) in enumerate(arrivals):
                due = start + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                late.append(time.perf_counter() - due)
                spec = dict(self.plan.serve[kind], label=f"r{index}")
                try:
                    job_id = client.submit(spec)["job_id"]
                except ServeError as error:
                    job_id = None
                    self.failed.append(f"request {index} refused: {error}")
                submitted.put(job_id)

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        latencies = []
        refused = 0
        for index, (offset, kind) in enumerate(arrivals):
            job_id = submitted.get(timeout=20.0)
            if job_id is None:
                refused += 1
                latencies.append(math.inf)
                continue
            try:
                reply = client.wait(job_id, timeout=20.0)
            except ServeError as error:
                self.failed.append(f"request {index}: {error}")
                latencies.append(math.inf)
                continue
            latencies.append(time.perf_counter() - (start + offset))
            self.check_served(
                reply,
                expected[_name(self.plan.serve[kind])],
                f"request {index}",
            )
        thread.join(10.0)
        return {"latencies": latencies, "late": late, "refused": refused}

    def measure(self, expected: dict) -> tuple[dict, dict, float]:
        tracer = None
        if self.args.trace:
            tracer = Tracer()
            tracer.install_program()
        before = _cpu_times()
        self.job.send(
            {
                "op": "stream",
                "specs": self.plan.direct,
                "block": self.plan.block,
                "cached": self.plan.direct_cached,
                "store": self.store,
                "workdir": os.path.abspath(os.path.join(self.dir, "jobs")),
                "seconds": self.args.seconds,
                "trace": bool(self.args.trace),
            }
        )
        serve = self.serve_open_loop(expected)
        direct = self.job.reply()
        after = _cpu_times()
        if tracer is not None:
            tracer.uninstall()
            serve["spans"] = tracer.spans
        delta = [b - a for a, b in zip(before, after)]
        steal = 100.0 * delta[7] / max(1, sum(delta[:8]))
        return direct, serve, steal


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(
    plan: workloads.Plan, direct: dict, serve: dict, setup_s: float, rss: float
) -> dict:
    jobs = direct["jobs"]
    walls = [row["wall"] for row in jobs]
    refs = direct["refs"]
    return {
        "job_ref.p50": _m(
            statistics.median(block_ratios(walls, refs, plan.block)), "ref"
        ),
        "job_ref.mean": _m(ratio_of_sums(walls, refs), "ref"),
        "latency_s.p50": _m(percentile(serve["latencies"], 0.5), "s"),
        "latency_s.p90": _m(percentile(serve["latencies"], 0.9), "s"),
        "peak_nodes": _m(max(row["stats"]["max_nodes"] for row in jobs), "nodes"),
        "fidelity_min": _m(
            min(row["stats"]["fidelity_estimate"] for row in jobs), "fidelity"
        ),
        "peak_rss_mb": _m(rss, "MB"),
        "setup_s": _m(setup_s, "s"),
    }


def _bracketed_ratio(direct: dict, traced: bool) -> float:
    """Sum of walls over sum of bracketing reference means, for the
    traced or the untraced jobs of a run."""
    refs = direct["refs"]
    wall = bracket = 0.0
    for k, row in enumerate(direct["jobs"]):
        if row["traced"] == traced:
            wall += row["wall"]
            bracket += (refs[k] + refs[k + 1]) / 2.0
    return wall / bracket


def per_layer(direct: dict, serve: dict, worker_spans: list, steal: float) -> dict:
    traced = [row for row in direct["jobs"] if row["traced"]]
    untraced = [row for row in direct["jobs"] if not row["traced"]]
    n = len(traced)
    spans = direct["spans"]

    def per_job(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0) / n

    metrics: dict = {}
    layers = [
        ("circuits.operation_to_medge", True),
        ("dd.multiply_mv", True),
        ("dd.node_count", True),
        ("core.run", False),
        ("core.approximate_state", False),
        ("core.node_contributions", False),
        ("core.select_nodes_for_removal", False),
        ("core.rebuild_without", False),
        ("service.execute_job", False),
        ("service.put_result", False),
        ("service.state_to_dict", False),
        ("service.load_result", False),
        ("service.load_state", False),
    ]
    for name, with_calls in layers:
        if with_calls:
            metrics[f"{name}.calls"] = _m(per_job(name, "calls"), "count")
        metrics[f"{name}.self_s"] = _m(per_job(name, "self_s"), "s")
    metrics["service.bytes_written"] = _m(
        per_job("service.put_result", "value"), "B"
    )
    metrics["service.execute_job.s"] = _m(
        statistics.mean(row["wall"] for row in untraced), "s"
    )
    for cache in ("mv", "vadd"):
        hits = sum(row["caches"][cache][0] for row in traced)
        lookups = hits + sum(row["caches"][cache][1] for row in traced)
        metrics[f"dd.{cache}_hit_rate"] = _m(
            hits / lookups if lookups else 0.0, "ratio"
        )
    for table in ("vector", "matrix"):
        metrics[f"dd.unique_{table}_nodes"] = _m(
            statistics.mean(row["unique"][table] for row in traced), "count"
        )
    # Rounds performed by the traced jobs; a cache hit performs none.
    rounds = [
        round_
        for row in traced
        if not row["cached"]
        for round_ in row["stats"]["rounds"]
    ]
    removed = sum(round_["removed_nodes"] for round_ in rounds)
    metrics["core.rounds"] = _m(len(rounds) / n, "count")
    metrics["core.nodes_removed"] = _m(removed / n, "count")
    metrics["core.nodes_removed_per_round"] = _m(
        removed / len(rounds) if rounds else 0.0, "count"
    )

    # Serve tier: the generator's client spans and the worker's spans.
    client = totals(serve["spans"])
    requests = len(serve["latencies"])
    for name in ("serve.submit", "serve.wait"):
        metrics[f"{name}.s"] = _m(
            client.get(name, {}).get("s", 0.0) / requests, "s"
        )
    worker = {
        span.tag: span.end - span.start
        for span in worker_spans
        if span.name == "service.execute_job" and span.tag.startswith("r")
    }
    overheads = [
        latency - worker[f"r{index}"]
        for index, latency in enumerate(serve["latencies"])
        if f"r{index}" in worker and math.isfinite(latency)
    ]
    metrics["serve.overhead_s"] = _m(statistics.median(overheads), "s")
    metrics["serve.worker_execute_job.s"] = _m(
        statistics.median(worker.values()), "s"
    )
    metrics["serve.refused"] = _m(serve["refused"], "count")
    metrics["serve.generator_late_s.max"] = _m(max(serve["late"]), "s")

    metrics["run.ref_s.p50"] = _m(statistics.median(direct["refs"]), "s")
    metrics["run.steal_pct"] = _m(steal, "%")
    metrics["trace.overhead"] = _m(
        _bracketed_ratio(direct, True) / _bracketed_ratio(direct, False),
        "ratio",
    )
    return metrics


def run(args: argparse.Namespace) -> dict:
    bench = Run(args)
    worker_spans = []
    try:
        try:
            setup_s = bench.setup(1 if args.smoke else SETUP_REPEATS)
            expected = bench.prefill()
            direct, serve, steal = bench.measure(expected)
            rss = (
                _peak_rss_mb(bench.job.process.pid)
                + bench.daemon.peak_rss_mb()
            )
            for row in direct["jobs"]:
                bench.check_direct(row, expected)
        finally:
            bench.close()
        if bench.spans_dir:
            for name in sorted(os.listdir(bench.spans_dir)):
                worker_spans += read_spans(os.path.join(bench.spans_dir, name))
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass  # another run still uses it

    jobs = direct["jobs"]
    print(
        f"# {args.workload} seed={args.seed}: {len(jobs)} direct jobs, "
        f"{len(serve['latencies'])} serve requests, {serve['refused']} "
        f"refused, generator late max {max(serve['late']):.4f} s, "
        f"raw job mean {statistics.mean(row['wall'] for row in jobs):.4f} s, "
        f"reference p50 {statistics.median(direct['refs']):.4f} s, "
        f"steal {steal:.1f}%",
    )
    if args.trace:
        metrics = per_layer(direct, serve, worker_spans, steal)
    else:
        metrics = end_to_end(bench.plan, direct, serve, setup_s, rss)
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    for message in bench.failed[:20]:
        print(f"# FAILED: {message}")
    return {
        "correct": not bench.failed,
        "attempted": len(jobs) + len(bench.plan.serve) + len(serve["latencies"]),
        "failed": len(bench.failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="set up once instead of five times (for the tests)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args)
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
