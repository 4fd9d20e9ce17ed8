"""Differential tests: reference vs arena backend, same inputs.

Both backends are driven through *identical* gate and approximation
sequences and must agree on everything observable:

* final amplitudes within ``ctable.tolerance()``;
* the achieved fidelity of every approximation round — **bit for bit**,
  because both backends execute the same float operations in the same
  order (the interface contract pinned in docs/BACKENDS.md);
* the Lemma-1 fidelity product (``stats.fidelity_estimate``);
* diagram node counts after every round;
* vector-node creation counts and the ``vadd`` / ``mv`` compute-cache
  hit/miss tallies (same operations in the same order means the same
  cache lookups).

These invariants are what lets the arena backend claim "as accurate as
the reference, just faster": any divergence here is a correctness bug,
not a performance tradeoff.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.lowering import operation_to_medge
from repro.circuits.randomcirc import random_circuit
from repro.core import MemoryDrivenStrategy, NoApproximation, simulate
from repro.core.approximation import approximate_state
from repro.dd import ctable
from repro.dd.package import Package
from repro.dd.vector import StateDD
from repro.service.jobs import build_builtin_circuit

BACKENDS = ("reference", "arena")

# Compute caches whose hit/miss tallies must agree across engines.  The
# matrix caches ("madd", "mm") are left out on purpose: the arena's
# gate_cache memoizes lowered gates, so a repeated gate skips the
# lowering (and its madd/mm lookups) that reference performs again —
# the tallies differ by design while every computed value agrees.
TALLIED_CACHES = ("vadd", "mv")


def _make_package(spec: str) -> Package:
    package = Package(backend=spec)
    package.enable_metrics(True)
    return package


def _tallies(package: Package) -> dict:
    """Vector-node creations plus the per-cache hit/miss counts."""
    caches = package.cache_stats()["caches"]
    tallies = {"vnodes_created": package.stats["vnodes_created"]}
    for name in TALLIED_CACHES:
        tallies[name] = (caches[name]["hits"], caches[name]["misses"])
    return tallies


def _apply_circuit(circuit, package: Package) -> StateDD:
    """Lower and apply every operation of ``circuit`` to |0...0>."""
    state = StateDD.basis_state(circuit.num_qubits, 0, package)
    top = circuit.num_qubits - 1
    for operation in circuit:
        medge = operation_to_medge(operation, circuit.num_qubits, package)
        state = StateDD(
            package.multiply_mv(medge, state.edge, top),
            circuit.num_qubits,
            package,
        )
    return state


class TestGateParity:
    """Same circuit, both backends: identical states."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_amplitudes_match(self, num_qubits, num_operations, seed):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        amplitudes = {}
        counts = {}
        tallies = {}
        for backend in BACKENDS:
            package = _make_package(backend)
            state = _apply_circuit(circuit, package)
            amplitudes[backend] = state.to_amplitudes()
            counts[backend] = state.node_count()
            tallies[backend] = _tallies(package)
        for backend in BACKENDS[1:]:
            np.testing.assert_allclose(
                amplitudes[backend],
                amplitudes["reference"],
                atol=ctable.tolerance(),
                rtol=0.0,
            )
            assert counts[backend] == counts["reference"]
            assert tallies[backend] == tallies["reference"]

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_norm_contributions_match(
        self, num_qubits, num_operations, seed
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        contributions = {}
        for backend in BACKENDS:
            package = _make_package(backend)
            state = _apply_circuit(circuit, package)
            contributions[backend] = package.norm_contributions(state.edge)
        reference = contributions["reference"]
        for backend in BACKENDS[1:]:
            other = contributions[backend]
            # Same sweep over isomorphic diagrams: same number of nodes
            # and the same multiset of contribution values, bit for bit.
            assert len(other) == len(reference)
            assert sorted(other.values()) == sorted(reference.values())


class TestApproximationParity:
    """Interleaved approximation rounds: identical Lemma-1 accounting."""

    @settings(max_examples=20, deadline=None)
    @given(
        num_qubits=st.integers(min_value=2, max_value=4),
        num_operations=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        round_fidelity=st.floats(min_value=0.6, max_value=0.999),
        stride=st.integers(min_value=2, max_value=6),
    )
    def test_round_accounting_matches(
        self, num_qubits, num_operations, seed, round_fidelity, stride
    ):
        circuit = random_circuit(num_qubits, num_operations, seed=seed)
        rounds: dict[str, list[tuple]] = {}
        for backend in BACKENDS:
            package = _make_package(backend)
            state = StateDD.basis_state(circuit.num_qubits, 0, package)
            top = circuit.num_qubits - 1
            records = []
            for index, operation in enumerate(circuit):
                medge = operation_to_medge(
                    operation, circuit.num_qubits, package
                )
                state = StateDD(
                    package.multiply_mv(medge, state.edge, top),
                    circuit.num_qubits,
                    package,
                )
                if (index + 1) % stride == 0:
                    result = approximate_state(state, round_fidelity)
                    state = result.state
                    records.append(
                        (
                            result.achieved_fidelity,
                            result.removed_contribution,
                            result.nodes_before,
                            result.nodes_after,
                            result.removed_nodes,
                        )
                    )
            rounds[backend] = records
        # Bit-for-bit: same removal selections, same measured fidelity.
        for backend in BACKENDS[1:]:
            assert rounds[backend] == rounds["reference"]


@pytest.mark.parametrize(
    "workload, strategy_factory",
    [
        ("qsup_2x2_8_0", NoApproximation),
        (
            "qsup_3x3_12_0",
            lambda: MemoryDrivenStrategy(
                threshold=64, round_fidelity=0.975
            ),
        ),
        ("shor_15_2", NoApproximation),
    ],
)
def test_builtin_workload_parity(workload, strategy_factory):
    """Full simulator runs on Table-1-style workloads agree exactly."""
    outcomes = {}
    tallies = {}
    for backend in BACKENDS:
        package = _make_package(backend)
        outcomes[backend] = simulate(
            build_builtin_circuit(workload),
            strategy_factory(),
            package=package,
        )
        tallies[backend] = _tallies(package)
    reference = outcomes["reference"]
    for backend in BACKENDS[1:]:
        other = outcomes[backend]
        assert (
            other.stats.fidelity_estimate == reference.stats.fidelity_estimate
        )
        assert [r.achieved_fidelity for r in other.stats.rounds] == [
            r.achieved_fidelity for r in reference.stats.rounds
        ]
        assert other.stats.max_nodes == reference.stats.max_nodes
        assert other.stats.final_nodes == reference.stats.final_nodes
        np.testing.assert_allclose(
            other.state.to_amplitudes(),
            reference.state.to_amplitudes(),
            atol=ctable.tolerance(),
            rtol=0.0,
        )
        assert tallies[backend] == tallies["reference"]
        assert other.stats.dd_backend == "arena"
    assert reference.stats.dd_backend == "reference"
