"""Hierarchical initial layout (Algorithm 2).

The layout is computed *before* synthesis, directly from the Pauli IR:
qubits that co-occur in many Pauli strings need many CNOTs, so they are
placed on low-level (inner) physical qubits where paths are short.  Slot
choice among equal levels attaches a logical qubit below the parent it
shares the most strings with.

The same placement rule applies to arbitrary gate-level circuits
(:func:`hierarchical_circuit_layout`): the co-occurrence matrix is then
counted over two-qubit gates instead of Pauli strings, and everything
downstream of the matrix is shared.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.core.ir import PauliProgram
from repro.hardware.coupling import CouplingGraph


def _cooccurrence_layout(
    cooccurrence: np.ndarray, num_logical: int, graph: CouplingGraph
) -> dict[int, int]:
    """Greedy center-out placement from an interaction-count matrix."""
    if num_logical > graph.num_qubits:
        raise ValueError(
            f"program needs {num_logical} qubits, device has {graph.num_qubits}"
        )
    graph.require_connected()
    occurrence = cooccurrence.sum(axis=1)
    # Sort logical qubits by decreasing connectivity requirement; ties in
    # qubit order for determinism (stable sort on negated counts).
    logical_order = [int(q) for q in np.argsort(-occurrence, kind="stable")]

    levels = graph.levels()
    mapping: dict[int, int] = {}
    physical_of: dict[int, int] = {}
    available: set[int] = {graph.center}

    for logical in logical_order:
        candidates = sorted(available, key=lambda slot: levels[slot])
        lowest_level = levels[candidates[0]]
        tied = [slot for slot in candidates if levels[slot] == lowest_level]
        best = tied[0]
        if len(tied) > 1:
            def parent_affinity(slot: int) -> int:
                parent = graph.parent(slot)
                if parent is None or parent not in physical_of:
                    return 0
                return int(cooccurrence[logical, physical_of[parent]])

            best = max(tied, key=lambda slot: (parent_affinity(slot), -slot))
        mapping[logical] = best
        physical_of[best] = logical
        available.discard(best)
        for child in graph.neighbors(best):
            if child not in physical_of:
                available.add(child)
    return mapping


def hierarchical_initial_layout(
    program: PauliProgram, graph: CouplingGraph
) -> dict[int, int]:
    """Logical -> physical initial mapping per Algorithm 2."""
    return _cooccurrence_layout(
        program.qubit_cooccurrence(), program.num_qubits, graph
    )


def circuit_cooccurrence(circuit: Circuit) -> np.ndarray:
    """Pairwise two-qubit-gate counts (the circuit's interaction graph)."""
    counts = np.zeros((circuit.num_qubits, circuit.num_qubits), dtype=np.int64)
    for gate in circuit.gates:
        if gate.is_two_qubit():
            a, b = gate.qubits
            counts[a, b] += 1
            counts[b, a] += 1
    return counts


def hierarchical_circuit_layout(
    circuit: Circuit, graph: CouplingGraph
) -> dict[int, int]:
    """Algorithm 2 driven by a gate stream instead of Pauli strings."""
    return _cooccurrence_layout(
        circuit_cooccurrence(circuit), circuit.num_qubits, graph
    )


def trivial_layout(program: PauliProgram, graph: CouplingGraph) -> dict[int, int]:
    """Identity-ish layout: logical i -> physical i (ablation baseline)."""
    if program.num_qubits > graph.num_qubits:
        raise ValueError("device too small")
    return {q: q for q in range(program.num_qubits)}
