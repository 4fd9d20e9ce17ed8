"""Benchmark execution: exact-vs-approximate comparisons per workload.

``compare_strategies`` runs a workload once without approximation (the
"Non-Approximating" columns of Table I) and once per supplied strategy
(the "Proposed Approach" columns), with cooperative timeouts standing in
for the paper's 3-hour experiment cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.simulator import (
    DDSimulator,
    SimulationOutcome,
    SimulationTimeout,
)
from ..core.strategies import ApproximationStrategy, NoApproximation
from ..dd.package import Package
from ..postprocessing.sampling import shift_counts
from ..postprocessing.shor_classical import ShorResult, postprocess_counts
from .workloads import Workload


@dataclass
class RunRecord:
    """One simulated configuration of a workload.

    Attributes:
        workload: Benchmark name.
        strategy: Strategy description.
        qubits: Circuit width.
        max_dd_size: Maximum diagram size during the run.
        rounds: Number of approximation rounds performed.
        round_fidelity: Configured per-round fidelity (None for exact).
        runtime_seconds: Wall-clock runtime (None when timed out).
        final_fidelity: End-to-end fidelity estimate (1.0 for exact).
        timed_out: True if the cooperative timeout fired.
        outcome: The full simulation outcome (None when timed out).
    """

    workload: str
    strategy: str
    qubits: int
    max_dd_size: int
    rounds: int
    round_fidelity: float | None
    runtime_seconds: float | None
    final_fidelity: float
    timed_out: bool = False
    outcome: SimulationOutcome | None = None


@dataclass
class ComparisonResult:
    """Exact-vs-approximate records for one workload (one Table I block)."""

    workload: Workload
    exact: RunRecord
    approximate: list[RunRecord] = field(default_factory=list)

    def speedup(self, index: int = 0) -> float | None:
        """Exact runtime divided by the ``index``-th approximate runtime."""
        approx = self.approximate[index]
        if (
            self.exact.runtime_seconds is None
            or approx.runtime_seconds is None
            or approx.runtime_seconds == 0.0
        ):
            return None
        return self.exact.runtime_seconds / approx.runtime_seconds


def run_workload(
    workload: Workload,
    strategy: ApproximationStrategy | None = None,
    package: Package | None = None,
    max_seconds: float | None = None,
    round_fidelity: float | None = None,
) -> RunRecord:
    """Run one workload under one strategy, tolerating timeouts."""
    circuit = workload.build()
    simulator = DDSimulator(package)
    # Flush memoized arithmetic so a run cannot coast on the compute-cache
    # entries of a previous run over the same circuit (the unique tables
    # keep only nodes something outside the caches still references).
    simulator.package.clear_caches()
    policy = strategy if strategy is not None else NoApproximation()
    try:
        outcome = simulator.run(circuit, policy, max_seconds=max_seconds)
    except SimulationTimeout as timeout:
        return RunRecord(
            workload=workload.name,
            strategy=policy.describe(),
            qubits=circuit.num_qubits,
            max_dd_size=timeout.stats.max_nodes,
            rounds=timeout.stats.num_rounds,
            round_fidelity=round_fidelity,
            runtime_seconds=None,
            final_fidelity=timeout.stats.fidelity_estimate,
            timed_out=True,
        )
    stats = outcome.stats
    return RunRecord(
        workload=workload.name,
        strategy=policy.describe(),
        qubits=circuit.num_qubits,
        max_dd_size=stats.max_nodes,
        rounds=stats.num_rounds,
        round_fidelity=round_fidelity,
        runtime_seconds=stats.runtime_seconds,
        final_fidelity=stats.fidelity_estimate,
        outcome=outcome,
    )


def compare_strategies(
    workload: Workload,
    strategies: Sequence[tuple[ApproximationStrategy, float]],
    package: Package | None = None,
    max_seconds: float | None = None,
) -> ComparisonResult:
    """Run exact plus each ``(strategy, f_round)`` configuration.

    Args:
        workload: The benchmark instance.
        strategies: Pairs of strategy object and its nominal ``f_round``
            (recorded in the report row).
        package: Shared DD package (fresh default if omitted).
        max_seconds: Per-run cooperative timeout.
    """
    exact = run_workload(
        workload, None, package=package, max_seconds=max_seconds
    )
    result = ComparisonResult(workload=workload, exact=exact)
    for strategy, round_fidelity in strategies:
        result.approximate.append(
            run_workload(
                workload,
                strategy,
                package=package,
                max_seconds=max_seconds,
                round_fidelity=round_fidelity,
            )
        )
    return result


def factor_check(
    record: RunRecord, workload: Workload, shots: int = 1000, seed: int = 0
) -> ShorResult | None:
    """Validate that a Shor run's final state still factors (§VI).

    Returns None for non-Shor workloads or timed-out runs.
    """
    if workload.family != "shor" or record.outcome is None:
        return None
    modulus = workload.shor_modulus
    base = workload.shor_base
    if modulus is None or base is None:
        return None
    work_bits = max(2, (modulus - 1).bit_length())
    counting_bits = record.qubits - work_bits
    counts = shift_counts(
        record.outcome.state.sample(shots, np.random.default_rng(seed)),
        work_bits,
    )
    return postprocess_counts(counts, counting_bits, modulus, base)
