"""Arena compaction: dead vector nodes are freed at cache flushes.

A compute-cache flush marks a compaction as pending; the simulator runs
it between two gates.  These tests force flushes with a small
``cache_limit`` and hold the arena to the reference, whose weak unique
table frees the same nodes by reference counting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import Operation
from repro.circuits.lowering import operation_to_medge
from repro.core import MemoryDrivenStrategy, simulate
from repro.dd import ctable
from repro.dd.package import Package
from repro.dd.vector import StateDD
from repro.service.jobs import build_builtin_circuit

BACKENDS = ("reference", "arena")


def _flushing_run(backend: str) -> dict:
    """Simulate a seeded qsup circuit whose caches flush many times.

    Every ``compact`` call (a no-op on the reference) records the live
    vector-table size and the storage audit at that safe point.
    """
    package = Package(backend=backend, cache_limit=500)
    package.enable_metrics(True)
    impl = package.backend
    safe_points: list[tuple[int, list[str]]] = []
    compact = impl.compact

    def recording_compact() -> None:
        compact()
        safe_points.append(
            (len(impl._vtable), impl.integrity_problems(check_caches=True))
        )

    impl.compact = recording_compact  # type: ignore[method-assign]
    outcome = simulate(
        build_builtin_circuit("qsup_3x3_12_0"),
        MemoryDrivenStrategy(threshold=64, round_fidelity=0.975),
        package=package,
        ddsan=True,  # re-audits storage after every gate and round
    )
    return {
        "outcome": outcome,
        "package": package,
        "safe_points": safe_points,
    }


@pytest.fixture(scope="module")
def runs() -> dict:
    return {backend: _flushing_run(backend) for backend in BACKENDS}


def _rounds(outcome) -> list[tuple]:
    return [
        (
            r.achieved_fidelity,
            r.removed_contribution,
            r.nodes_before,
            r.nodes_after,
            r.removed_nodes,
        )
        for r in outcome.stats.rounds
    ]


class TestFlushingRun:
    def test_arena_compacts(self, runs):
        arena = runs["arena"]["package"]
        assert arena.stats["cache_flushes"] > 0
        assert arena.backend.compactions == len(runs["arena"]["safe_points"])
        assert arena.backend.compactions > 0

    def test_results_match_the_reference(self, runs):
        reference = runs["reference"]["outcome"]
        arena = runs["arena"]["outcome"]
        assert arena.stats.num_rounds > 0
        assert _rounds(arena) == _rounds(reference)
        assert arena.stats.fidelity_estimate == reference.stats.fidelity_estimate
        assert arena.stats.max_nodes == reference.stats.max_nodes
        assert arena.stats.final_nodes == reference.stats.final_nodes
        # Amplitudes agree to the tolerance, not bit for bit: after a
        # flush the reference may free a node mid-gate and re-intern it
        # from freshly computed weights that share its tolerance bucket,
        # while the arena (which frees only between gates) still holds
        # the original.  An arena that never frees a node shows the
        # same tolerance-level gap on this run.
        np.testing.assert_allclose(
            arena.state.to_amplitudes(),
            reference.state.to_amplitudes(),
            atol=ctable.tolerance(),
            rtol=0.0,
        )

    def test_table_matches_the_reference_live_table(self, runs):
        reference = runs["reference"]["safe_points"]
        arena = runs["arena"]["safe_points"]
        # Both engines flush at the same cache operations, and after each
        # compaction the arena keeps exactly what the reference's weak
        # table keeps (so in particular no more).
        assert len(arena) == len(reference)
        assert [size for size, _ in arena] == [size for size, _ in reference]

    def test_storage_audit_is_clean_at_every_compaction(self, runs):
        for _size, problems in runs["arena"]["safe_points"]:
            assert problems == []

    def test_arena_never_recreates_more_nodes(self, runs):
        # Every node the arena re-interns was freed by a compaction,
        # when the reference had already freed it too.
        arena = runs["arena"]["package"].stats["vnodes_created"]
        reference = runs["reference"]["package"].stats["vnodes_created"]
        assert arena <= reference


class TestCompact:
    def test_dropped_state_is_freed(self):
        package = Package(backend="arena")
        state = StateDD.plus_state(5, package)
        assert package.unique_table_sizes()["vector"] == 5
        del state
        package.clear_caches()  # compacts at once
        assert package.unique_table_sizes()["vector"] == 0
        assert package.backend.compactions == 1

    def test_cache_keys_keep_their_operands(self):
        # The reference's object-keyed caches keep an operand alive after
        # every caller dropped it; the arena pins it for its integer key.
        sizes = {}
        for backend in BACKENDS:
            package = Package(backend=backend)
            gate = operation_to_medge(Operation("h", (2,)), 3, package)
            operand = StateDD.basis_state(3, 6, package)
            package.multiply_mv(gate, operand.edge, 2)
            del operand
            package.backend.compact()
            sizes[backend] = package.unique_table_sizes()["vector"]
        assert sizes["arena"] == sizes["reference"]

    def test_survivors_get_dense_slots_and_cache_keys_still_hit(self):
        package = Package(backend="arena")
        package.enable_metrics(True)
        impl = package.backend
        gate = operation_to_medge(Operation("h", (2,)), 3, package)
        junk = StateDD.basis_state(3, 7, package)  # interned first
        kept = StateDD.basis_state(3, 5, package)
        first = package.multiply_mv(gate, kept.edge, 2)
        old_index = kept.edge[1].index
        before = package.unique_table_sizes()["vector"]
        del junk
        impl.compact()
        assert package.unique_table_sizes()["vector"] < before
        assert kept.edge[1].index < old_index
        nodes = impl._v_nodes
        assert [node.index for node in nodes] == list(range(len(nodes)))
        assert package.integrity_problems(check_caches=True) == []
        hits_before = package.cache_stats()["caches"]["mv"]["hits"]
        again = package.multiply_mv(gate, kept.edge, 2)
        # The key names the operand by serial, which compaction keeps.
        assert package.cache_stats()["caches"]["mv"]["hits"] == hits_before + 1
        assert again == first
        assert package.node_count(again) == 3
