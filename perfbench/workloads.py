"""Seeded workload plans: the job specs and arrival schedule of one run.

Everything random in a run is drawn here from ``--seed``; the program
only ever receives the generated job specs.  Specs are plain
``JobSpec.to_dict()`` documents, so this module imports nothing from
the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Open-loop arrival rate of the serve stream, in requests per second:
#: half the saturation of a one-worker daemon on cache hits (one
#: dispatch per 50 ms control-loop tick, 20 requests/s).
SERVE_RATE = 10.0

#: Direct-stream specs generated per run; far more than a run can use.
DIRECT_JOBS = 400

#: Expected peak DD size of the paper's Table I fidelity-driven rows
#: (f_final=0.5, f_round=0.9, placement block:inverse_qft).
SHOR_PEAK_NODES = {"shor_33_5": 4883, "shor_55_2": 6845}
SHOR_ROUNDS = 6
SHOR_FINAL_FIDELITY = 0.5

QSUP_ROUND_FIDELITY = 0.975

#: Distinct seeded qsup_3x3_12 circuits in the serve stream.  Their
#: cache-hit costs differ by about 10%; four of them average that out.
SERVE_CIRCUITS = 4


def shor_spec(name: str) -> dict:
    return {
        "circuit": f"builtin:{name}",
        "strategy": "fidelity",
        "strategy_args": {
            "final_fidelity": SHOR_FINAL_FIDELITY,
            "round_fidelity": 0.9,
            "placement": "block:inverse_qft",
        },
    }


def qsup_spec(circuit_seed: int) -> dict:
    return {
        "circuit": f"builtin:qsup_3x4_10_{circuit_seed}",
        "strategy": "memory",
        "strategy_args": {
            "threshold": 256,
            "round_fidelity": QSUP_ROUND_FIDELITY,
        },
    }


def serve_specs(rng: random.Random) -> list[dict]:
    """Small jobs the serve stream repeats as cache hits, with shots."""
    specs = [
        {
            "circuit": f"builtin:qsup_3x3_12_{circuit_seed}",
            "strategy": "memory",
            "strategy_args": {"threshold": 128, "round_fidelity": 0.975},
        }
        for circuit_seed in rng.sample(range(1000), SERVE_CIRCUITS)
    ]
    specs.append(
        {
            "circuit": "builtin:shor_21_2",
            "strategy": "memory",
            "strategy_args": {"threshold": 256, "round_fidelity": 0.975},
        }
    )
    for spec in specs:
        spec["shots"] = 64
        spec["seed"] = rng.randrange(1 << 16)
    return specs


@dataclass
class Plan:
    """Inputs of one run.

    ``direct`` is consumed in order by the job process until the run's
    time is up, in rounds of ``block`` jobs that each hold every job of
    the mix once; ``direct_cached`` says whether those jobs are served
    from the pre-filled store (True) or simulated into a fresh store
    each (False).  ``arrivals`` are (due offset in seconds, index into
    ``serve``) pairs of the open-loop serve stream.
    """

    workload: str
    direct: list[dict]
    block: int
    direct_cached: bool
    serve: list[dict]
    arrivals: list[tuple[float, int]]


def _balanced(rng: random.Random, items: list[dict], count: int) -> list[dict]:
    """``count`` items cycling through ``items`` in shuffled rounds."""
    out: list[dict] = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def arrival_schedule(
    rng: random.Random, seconds: float, rate: float, kinds: int
) -> list[tuple[float, int]]:
    """Jittered-periodic arrivals: ``rate * seconds`` slots of
    ``1 / rate`` seconds, each request due at a uniform moment in its
    own slot.

    Gaps range from 0 to ``2 / rate``, so requests still collide, but a
    seed cannot bunch a tenth of them into bursts the way a Poisson
    schedule does; that made the p90 latency depend on the seed.
    """
    count = max(1, round(rate * seconds))
    slot = seconds / count
    return [
        ((index + rng.random()) * slot, rng.randrange(kinds))
        for index in range(count)
    ]


WORKLOADS = ("paper-shor", "qsup-memory", "serve-cached")


def build_plan(workload: str, seed: int, seconds: float) -> Plan:
    """The seeded inputs of one run of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    rng = random.Random(f"{workload}:{seed}")
    serve = serve_specs(rng)
    if workload == "paper-shor":
        direct = _balanced(
            rng, [shor_spec(name) for name in SHOR_PEAK_NODES], DIRECT_JOBS
        )
        block, cached = len(SHOR_PEAK_NODES), False
    elif workload == "qsup-memory":
        circuit_seeds = rng.sample(range(10_000), DIRECT_JOBS)
        direct = [qsup_spec(s) for s in circuit_seeds]
        block, cached = 1, False
    else:
        direct = _balanced(rng, serve, DIRECT_JOBS)
        block, cached = len(serve), True
    arrivals = arrival_schedule(rng, seconds, SERVE_RATE, len(serve))
    return Plan(workload, direct, block, cached, serve, arrivals)
