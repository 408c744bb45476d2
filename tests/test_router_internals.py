"""White-box tests for Merge-to-Root routing and SABRE internals."""

from collections import Counter
from unittest import mock

import pytest
import sabre_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gates import CNOT, CZ, RZ, SWAP, Barrier, Gate, H, Measure, S, X
from repro.compiler.merge_to_root import MergeToRootCompiler
from repro.compiler import sabre
from repro.compiler.sabre import SabreRouter, _Plan
from repro.core.ir import IRTerm, PauliProgram
from repro.hardware.grid import grid
from repro.hardware.xtree import xtree
from repro.pauli import PauliString


def program_from_labels(labels: list[str], occupations=None) -> PauliProgram:
    num_qubits = len(labels[0])
    terms = [
        IRTerm(PauliString.from_label(label), 1.0, index)
        for index, label in enumerate(labels)
    ]
    return PauliProgram(num_qubits, len(labels), terms, occupations or [])


class TestSteinerRouting:
    @pytest.fixture()
    def compiler(self):
        return MergeToRootCompiler(xtree(8))

    def test_steiner_single_node(self, compiler):
        assert compiler._steiner_nodes([3]) == {3}

    def test_steiner_siblings_include_parent(self, compiler):
        # XTree8Q: qubits 1..4 are children of root 0.
        nodes = compiler._steiner_nodes([1, 2])
        assert nodes == {0, 1, 2}

    def test_steiner_deep_pair(self, compiler):
        # Qubits 5, 6, 7 are children of qubit 1 in the BFS construction.
        tree = xtree(8)
        child_of_1 = tree.children(1)[0]
        nodes = compiler._steiner_nodes([child_of_1, 2])
        assert nodes == {child_of_1, 1, 0, 2}

    def test_steiner_subtree_without_root(self, compiler):
        tree = xtree(8)
        children = tree.children(1)
        nodes = compiler._steiner_nodes([children[0], children[1]])
        assert nodes == {children[0], children[1], 1}
        assert 0 not in nodes

    def test_future_counts_suffix(self, compiler):
        # Supports: string 0 -> {6,7}, string 1 -> {5,6}, string 2 -> {0,1}.
        program = program_from_labels(["ZZIIIIII", "IZZIIIII", "IIIIIIZZ"])
        future = compiler._future_counts(program)
        # suffix[i] counts strings i, i+1, ...; the compiler indexes i+1
        # to look strictly ahead of the current string.
        assert future[0][6] == 2
        assert future[1][6] == 1
        assert future[1][0] == 1
        assert future[2] == {0: 1, 1: 1}
        assert future[-1] == {}

    def test_route_zero_swaps_for_adjacent_support(self, compiler):
        # Logical 0 on root, logical 1 on its child: already connected.
        program = program_from_labels(["ZZ"])
        compiled = compiler.compile(
            PauliProgram(2, 1, program.terms, []), initial_layout={0: 0, 1: 1}
        )
        assert compiled.num_swaps == 0

    def test_route_pulls_disconnected_pair_together(self, compiler):
        # Two leaves in different branches need exactly one swap on XTree8Q
        # (their Steiner tree has one hole: the root).
        tree = xtree(8)
        leaf_a = tree.children(1)[0]
        program = program_from_labels(["ZZ"])
        compiled = compiler.compile(
            PauliProgram(2, 1, program.terms, []),
            initial_layout={0: leaf_a, 1: 2},
        )
        # Steiner tree {leaf_a, 1, 0, 2} has holes {1, 0}: two swaps.
        assert compiled.num_swaps == 2

    def test_mapping_persists_across_strings(self, compiler):
        """A qubit dragged toward the root stays there for later strings."""
        tree = xtree(8)
        leaf_a = tree.children(1)[0]
        labels = ["ZZ", "ZZ"]  # same pair twice
        program = program_from_labels(labels)
        compiled = compiler.compile(
            PauliProgram(2, 2, program.terms, []),
            initial_layout={0: leaf_a, 1: 2},
        )
        # Second occurrence reuses the arrangement: no further swaps.
        assert compiled.num_swaps == 2


class TestSabreInternals:
    def test_dag_dependencies(self):
        """SABRE's frontier comes from the shared CircuitDAG."""
        from repro.circuit.dag import CircuitDAG

        circuit = Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2)])
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.nodes[0].num_predecessors == 0
        assert dag.nodes[1].num_predecessors == 1  # depends on H(0)
        assert [s.index for s in dag.nodes[1].successors] == [2]

    def test_private_dag_builder_is_gone(self):
        """Single DAG construction path: the router's old private
        ``_build_dag`` must not resurface."""
        assert not hasattr(SabreRouter, "_build_dag")

    def test_candidate_swaps_touch_front_qubits(self):
        router = SabreRouter(xtree(8))
        circuit = Circuit(8, [CNOT(2, 6)])
        result = router.run(circuit)
        for gate in result.circuit:
            if gate.name == "swap":
                assert True  # swaps allowed; final equivalence checked below
        # The routed CNOT must be on an edge.
        cnots = [g for g in result.circuit if g.name == "cx"]
        assert len(cnots) == 1
        assert xtree(8).are_connected(*cnots[0].qubits)

    def test_single_qubit_gates_flow_through(self):
        router = SabreRouter(xtree(8))
        circuit = Circuit(8, [H(3), H(5)])
        result = router.run(circuit)
        assert result.num_swaps == 0
        assert result.circuit.counts()["h"] == 2

    def test_escape_swap_moves_toward_target(self):
        router = SabreRouter(xtree(8))
        tree = xtree(8)
        leaf = tree.children(2)[0] if tree.children(2) else 6
        position = {0: leaf, 1: 1}
        a, b = router._escape_swap(CNOT(0, 1), position)
        assert tree.are_connected(a, b)

    def test_gate_on_three_qubits_is_rejected(self):
        circuit = Circuit(3, [Gate("ccx", (0, 1, 2))])
        with pytest.raises(ValueError, match="at most two qubits"):
            SabreRouter(xtree(8)).run(circuit)
        assert SabreRouter(xtree(8)).run(Circuit(3, [Barrier(0, 1, 2)])).num_swaps == 0

    def test_refinement_does_not_break_routing(self):
        program_circuit = Circuit(6, [CNOT(0, 5), CNOT(5, 3), CNOT(3, 0)])
        result = SabreRouter(xtree(8)).run(program_circuit, refinement_passes=3)
        for gate in result.circuit.decompose_swaps():
            if gate.is_two_qubit():
                assert xtree(8).are_connected(*gate.qubits)


class TestCompiledProgramAccounting:
    def test_final_layout_consistent_with_swaps(self):
        tree = xtree(8)
        leaf_a = tree.children(1)[0]
        program = program_from_labels(["ZZ"])
        compiled = MergeToRootCompiler(tree).compile(
            PauliProgram(2, 1, program.terms, []),
            initial_layout={0: leaf_a, 1: 2},
        )
        if compiled.num_swaps == 0:
            assert compiled.final_layout == compiled.initial_layout
        else:
            assert compiled.final_layout != compiled.initial_layout
        # Layout stays injective.
        assert len(set(compiled.final_layout.values())) == 2


@st.composite
def routing_cases(draw):
    """A connected device, a circuit that fits it, and maybe a layout."""
    if draw(st.booleans()):
        device = xtree(draw(st.integers(2, 17)))
    else:
        device = grid(draw(st.integers(1, 4)), draw(st.integers(2, 5)))
    num_qubits = draw(st.integers(2, device.num_qubits))
    qubit = st.integers(0, num_qubits - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    gates = []
    for kind in draw(st.lists(st.sampled_from(["1q", "2q", "2q", "barrier"]), max_size=60)):
        if kind == "1q":
            maker = draw(st.sampled_from([H, X, S, Measure, lambda q: RZ(0.25, q)]))
            gates.append(maker(draw(qubit)))
        elif kind == "2q":
            maker = draw(st.sampled_from([CNOT, CNOT, CZ, SWAP]))
            gates.append(maker(*draw(pair)))
        else:
            gates.append(Barrier(*draw(st.lists(qubit, min_size=1, max_size=4, unique=True))))
    layout = None
    if draw(st.booleans()):
        physical = draw(st.permutations(range(device.num_qubits)))
        layout = dict(enumerate(physical[:num_qubits]))
    return device, Circuit(num_qubits, gates), layout


class TestOracleEquality:
    """Incremental SWAP scoring against the full-recompute oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=routing_cases(), commute=st.booleans())
    def test_router_matches_full_recompute_oracle(self, case, commute):
        device, circuit, layout = case
        result = SabreRouter(device, commute=commute).run(circuit, initial_layout=layout)
        gates, num_swaps, final_layout = sabre_oracle.route(
            circuit, device, commute=commute, initial_layout=layout
        )
        assert result.circuit.gates == gates
        assert result.num_swaps == num_swaps
        assert result.final_layout == final_layout

    def test_seed_does_not_change_a_routing(self):
        circuit = Circuit(6, [CNOT(0, 5), CNOT(5, 3), CNOT(3, 0), CNOT(1, 4)])
        routers = [SabreRouter(xtree(8), seed=seed) for seed in (0, 11, 99)]
        routed = [router.run(circuit) for router in routers]
        assert all(r.circuit.gates == routed[0].circuit.gates for r in routed)
        assert not any(hasattr(router, "_rng") for router in routers)

    @settings(max_examples=100, deadline=None)
    @given(case=routing_cases(), commute=st.booleans(), factor=st.sampled_from([0, 0.25]))
    def test_escape_swaps_match_the_oracle(self, case, commute, factor):
        """A small stall factor makes the escape SWAP run (at factor 0 it
        takes every SWAP), so the scoring totals carried from SWAP to
        SWAP must be rebuilt after it."""
        device, circuit, layout = case
        with mock.patch.object(sabre, "_STALL_FACTOR", factor), \
                mock.patch.object(sabre_oracle, "_STALL_FACTOR", factor):
            result = SabreRouter(device, commute=commute).run(circuit, initial_layout=layout)
            gates, num_swaps, final_layout = sabre_oracle.route(
                circuit, device, commute=commute, initial_layout=layout
            )
        assert result.circuit.gates == gates
        assert result.num_swaps == num_swaps
        assert result.final_layout == final_layout

    def test_escape_swap_runs_between_scored_swaps(self):
        """One pass at factor 0.25 (a stall after two SWAPs on five
        qubits): two scored SWAPs, the escape SWAP, then a scored one."""
        device = grid(1, 5)
        circuit = Circuit(5, [CNOT(4, 0), CNOT(2, 0), CNOT(0, 4)])
        escaped = []
        original = SabreRouter._escape_swap

        def recording(router, gate, position):
            escaped.append(original(router, gate, position))
            return escaped[-1]

        with mock.patch.object(sabre, "_STALL_FACTOR", 0.25), \
                mock.patch.object(sabre_oracle, "_STALL_FACTOR", 0.25), \
                mock.patch.object(SabreRouter, "_escape_swap", recording):
            result = SabreRouter(device).run(circuit, refinement_passes=0)
            gates, num_swaps, final_layout = sabre_oracle.route(
                circuit, device, refinement_passes=0
            )
        assert escaped == [(2, 3)]
        swaps = [gate.qubits for gate in result.circuit if gate.name == "swap"]
        assert swaps == [(0, 1), (3, 4), (2, 3), (1, 2)]
        assert (result.circuit.gates, result.num_swaps, result.final_layout) == (
            gates, num_swaps, final_layout
        )


class TestPlan:
    """The router's integer plans against the shared CircuitDAG."""

    @settings(max_examples=100, deadline=None)
    @given(case=routing_cases(), commute=st.booleans())
    def test_backward_plan_is_the_reversed_circuits_dag(self, case, commute):
        device, circuit, layout = case
        forward = _Plan.from_dag(CircuitDAG.from_circuit(circuit, commute=commute))
        backward = _Plan.from_dag(
            CircuitDAG(circuit.num_qubits, commute=commute).extend(reversed(circuit.gates))
        )
        transposed = forward.transposed()
        assert transposed.in_degree == backward.in_degree
        assert transposed.successors == backward.successors
        assert transposed == backward

        built = []
        original = CircuitDAG.__init__

        def counting(dag, *args, **kwargs):
            built.append(dag)
            original(dag, *args, **kwargs)

        with mock.patch.object(CircuitDAG, "__init__", counting):
            SabreRouter(device, commute=commute).run(circuit, initial_layout=layout)
        assert len(built) == 1

    def test_lookahead_memo_is_keyed_on_the_ordered_front(self):
        """Three CNOT chains: the 20-gate cut falls inside the seventh
        level, so reordering the front changes the window's gates."""
        circuit = Circuit(6, [CNOT(q, q + 1) for _ in range(10) for q in (0, 2, 4)])
        plan = _Plan.from_dag(CircuitDAG.from_circuit(circuit))
        forward = plan.lookahead((0, 1, 2))
        backward = plan.lookahead((2, 1, 0))
        fresh = _Plan.from_dag(CircuitDAG.from_circuit(circuit)).lookahead((2, 1, 0))
        assert backward == fresh
        assert Counter(forward) == {(0, 1): 7, (2, 3): 7, (4, 5): 6}
        assert Counter(backward) == {(0, 1): 6, (2, 3): 7, (4, 5): 7}
