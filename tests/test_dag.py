"""Tests for the shared circuit DAG IR and its consumers.

Covers construction (wire edges, commutation-aware edges, front layer;
the structural invariants of ``dag_oracle`` on generated circuits),
scheduling metrics (depth, latency-weighted critical path; the one-pass
schedule against the DAG critical-path oracle in ``sabre_oracle``), and
the integration points: SABRE's commutation-aware frontier and the DAG
emitted by Merge-to-Root.
"""

import numpy as np
import pytest
import sabre_oracle
from dag_oracle import dag_invariant_errors
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, CircuitDAG
from repro.circuit.dag import gate_axes
from repro.circuit.gates import (
    Barrier,
    CNOT,
    CZ,
    H,
    Measure,
    RX,
    RY,
    RZ,
    S,
    SWAP,
    X,
    Y,
)
from repro.hardware.latency import DEFAULT_LATENCY, GateLatencyModel


class TestConstruction:
    def test_wire_edges(self):
        dag = CircuitDAG.from_circuit(Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2)]))
        assert dag.nodes[0].num_predecessors == 0
        assert dag.nodes[1].num_predecessors == 1
        assert dag.nodes[2].num_predecessors == 1
        assert [s.index for s in dag.nodes[0].successors] == [1]

    def test_front_layer_plain(self):
        dag = CircuitDAG.from_circuit(Circuit(2, [RZ(0.2, 0), CNOT(0, 1)]))
        assert [n.index for n in dag.front_layer()] == [0]

    def test_front_layer_commute(self):
        # RZ on the control commutes with the CNOT: both are frontier.
        dag = CircuitDAG.from_circuit(
            Circuit(2, [RZ(0.2, 0), CNOT(0, 1)]), commute=True
        )
        assert [n.index for n in dag.front_layer()] == [0, 1]

    def test_commute_shared_control_no_edge(self):
        dag = CircuitDAG.from_circuit(
            Circuit(3, [CNOT(0, 1), CNOT(0, 2)]), commute=True
        )
        assert dag.nodes[1].num_predecessors == 0

    def test_commute_target_conflict_keeps_edge(self):
        dag = CircuitDAG.from_circuit(
            Circuit(3, [CNOT(0, 1), CNOT(2, 1)]), commute=True
        )
        # Shared target: X-like on both -> still commutes, no edge.
        assert dag.nodes[1].num_predecessors == 0
        dag = CircuitDAG.from_circuit(
            Circuit(2, [CNOT(0, 1), CNOT(1, 0)]), commute=True
        )
        # Reversed CNOT conflicts on both wires.
        assert dag.nodes[1].num_predecessors == 1

    def test_barrier_blocks_commuting_gates(self):
        dag = CircuitDAG.from_circuit(
            Circuit(1, [RZ(0.1, 0), Barrier(0), RZ(0.2, 0)]), commute=True
        )
        assert dag.nodes[1].num_predecessors == 1
        assert dag.nodes[2].num_predecessors == 1

    def test_append_validates_qubits(self):
        with pytest.raises(ValueError):
            CircuitDAG(2).append(H(5))

    def test_gate_axes_vocabulary(self):
        assert gate_axes(CNOT(0, 1)) == ("Z", "X")
        assert gate_axes(CZ(0, 1)) == ("Z", "Z")
        assert gate_axes(RZ(0.1, 0)) == ("Z",)
        assert gate_axes(S(0)) == ("Z",)
        assert gate_axes(X(0)) == ("X",)
        assert gate_axes(H(0)) == (None,)
        assert gate_axes(SWAP(0, 1)) == (None, None)

    def test_to_circuit_preserves_order(self):
        gates = [H(0), CNOT(0, 1), RZ(0.5, 1), CNOT(0, 1), H(0)]
        for commute in (False, True):
            dag = CircuitDAG.from_circuit(Circuit(2, gates), commute=commute)
            assert dag.to_circuit().gates == gates

    def test_topological_indices_monotone(self):
        rng = np.random.default_rng(7)
        vocab = [H(0), X(1), CNOT(0, 1), CNOT(1, 2), RZ(0.3, 2), SWAP(0, 2)]
        gates = [vocab[i] for i in rng.integers(0, len(vocab), size=40)]
        dag = CircuitDAG.from_circuit(Circuit(3, gates), commute=True)
        for node in dag.nodes:
            for predecessor in node.predecessors:
                assert predecessor.index < node.index


class TestScheduling:
    def test_depth_pinned_five_gate_circuit(self):
        """Hand-computed ASAP levels (guards wire-frontier off-by-ones):

            H(0)       -> level 1 on wire 0
            H(1)       -> level 1 on wire 1
            CNOT(0,1)  -> level 2 (both wires at 1)
            CNOT(1,2)  -> level 3 (wire 1 at 2, wire 2 fresh)
            H(0)       -> level 3 (wire 0 still at 2)
        """
        circuit = Circuit(3, [H(0), H(1), CNOT(0, 1), CNOT(1, 2), H(0)])
        assert circuit.depth() == 3
        assert sabre_oracle.depth(CircuitDAG.from_circuit(circuit)) == 3

    def test_depth_barrier_synchronizes_but_costs_nothing(self):
        circuit = Circuit(2, [H(0), Barrier(0, 1), H(1)])
        # H(1) must wait for the barrier, which waits for H(0).
        assert circuit.depth() == 2
        assert Circuit(2, [H(0), H(1)]).depth() == 1

    def test_measure_costs_nothing(self):
        assert Circuit(1, [H(0), Measure(0)]).depth() == 1

    def test_empty_circuit(self):
        assert Circuit(3).depth() == 0

    def test_duration_critical_path(self):
        model = GateLatencyModel(single_qubit_ns=10.0, cx_ns=100.0)
        circuit = Circuit(3, [H(0), CNOT(0, 1), H(2)])
        dag = CircuitDAG.from_circuit(circuit)
        # Critical path: H(0) -> CNOT = 110 ns; H(2) runs in parallel.
        assert sabre_oracle.duration(dag, model) == pytest.approx(110.0)
        assert circuit.asap_schedule(model.duration)[2] == pytest.approx(110.0)

    def test_duration_swap_is_three_cnots(self):
        assert DEFAULT_LATENCY.duration(SWAP(0, 1)) == pytest.approx(
            3 * DEFAULT_LATENCY.cx_ns
        )

    def test_duration_accepts_callable(self):
        circuit = Circuit(1, [H(0), X(0)])
        dag = CircuitDAG.from_circuit(circuit)
        assert sabre_oracle.duration(dag, lambda gate: 2.0) == pytest.approx(4.0)
        assert circuit.asap_schedule(lambda gate: 2.0)[2] == pytest.approx(4.0)


class TestScheduleReport:
    def test_swap_decomposition_counts_three_levels(self):
        from repro.compiler import schedule_report

        report = schedule_report(Circuit(2, [SWAP(0, 1)]))
        assert report.depth == 1
        assert report.scheduled_depth == 3
        assert report.duration_ns == pytest.approx(3 * DEFAULT_LATENCY.cx_ns)


_CUSTOM_LATENCY = GateLatencyModel(single_qubit_ns=17.3, cx_ns=211.7, cz_ns=123.4, measure_ns=41.9)


@st.composite
def scheduled_circuits(draw):
    """Random circuits over every gate kind the schedule treats apart."""
    num_qubits = draw(st.integers(1, 6))
    qubit = st.integers(0, num_qubits - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    angle = st.floats(-3.0, 3.0, allow_nan=False)
    kinds = ["h", "x", "y", "s", "rz", "rx", "ry", "measure", "barrier"]
    if num_qubits > 1:
        kinds += ["cx", "cz", "swap"]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind in ("cx", "cz", "swap"):
            a, b = draw(pair)
            gates.append({"cx": CNOT, "cz": CZ, "swap": SWAP}[kind](a, b))
        elif kind in ("rz", "rx", "ry"):
            gates.append({"rz": RZ, "rx": RX, "ry": RY}[kind](draw(angle), draw(qubit)))
        elif kind == "barrier":
            gates.append(Barrier(*draw(st.lists(qubit, max_size=num_qubits, unique=True))))
        elif kind == "measure":
            gates.append(Measure(draw(qubit)))
        else:
            gates.append({"h": H, "x": X, "y": Y, "s": S}[kind](draw(qubit)))
    return Circuit(num_qubits, gates)


class TestInvariantOracle:
    @settings(max_examples=150, deadline=None)
    @given(circuit=scheduled_circuits())
    def test_from_circuit_keeps_every_invariant(self, circuit):
        for commute in (False, True):
            dag = CircuitDAG.from_circuit(circuit, commute=commute)
            assert dag_invariant_errors(dag) == []


class TestScheduleOracle:
    """The one-pass schedule equals the DAG critical path, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        circuit=scheduled_circuits(),
        latency=st.sampled_from([DEFAULT_LATENCY, _CUSTOM_LATENCY]),
    )
    def test_schedule_report_matches_dag_critical_path(self, circuit, latency):
        from repro.compiler import schedule_report

        report = schedule_report(circuit, latency)
        depth, scheduled_depth, duration_ns = sabre_oracle.schedule(circuit, latency)
        assert report.depth == depth
        assert report.scheduled_depth == scheduled_depth
        assert report.duration_ns == duration_ns
        assert circuit.depth() == depth


class TestCommutingFrontierRouting:
    @pytest.mark.parametrize("seed", range(4))
    def test_commute_routing_equivalent(self, seed):
        """SABRE over the commutation-aware frontier stays correct."""
        from repro.compiler import SabreRouter, assert_routed_equivalent, synthesize_program_chain
        from repro.hardware import xtree
        from test_compiler import random_program

        program = random_program(5, 6, seed=40 + seed)
        params = np.random.default_rng(seed).normal(size=6)
        chain = synthesize_program_chain(program, params)
        result = SabreRouter(xtree(8), commute=True).run(chain)
        assert_routed_equivalent(program, params, result)

    def test_commute_routing_respects_coupling(self):
        from repro.compiler import SabreRouter, synthesize_program_chain
        from repro.hardware import xtree
        from test_compiler import random_program

        program = random_program(6, 8, seed=77)
        chain = synthesize_program_chain(program, [0.1] * 8)
        device = xtree(8)
        result = SabreRouter(device, commute=True).run(chain)
        for gate in result.circuit.decompose_swaps():
            if gate.is_two_qubit():
                assert device.are_connected(*gate.qubits), gate
