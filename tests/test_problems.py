"""Graph generators, graph Hamiltonians and the problem registry."""

import pytest

from repro.pauli import PauliString
from repro.problems import (
    CircuitProblem,
    Graph,
    GraphProblem,
    erdos_renyi_graph,
    get_problem,
    ising_hamiltonian,
    maxcut_hamiltonian,
    random_regular_graph,
    ring_graph,
)


class TestGraphs:
    def test_edges_normalized_and_deduplicated(self):
        graph = Graph(4, [(2, 1), (1, 2), (0, 3)])
        assert graph.edges == ((0, 3), (1, 2))

    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi_graph(10, 0.5, seed=3)
        b = erdos_renyi_graph(10, 0.5, seed=3)
        assert a.edges == b.edges
        assert erdos_renyi_graph(10, 0.5, seed=4).edges != a.edges

    def test_erdos_renyi_probability_extremes(self):
        assert erdos_renyi_graph(6, 1.0, seed=0).num_edges == 15
        assert erdos_renyi_graph(6, 0.0, seed=0).num_edges == 0

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_random_regular_is_3_regular(self, n):
        graph = random_regular_graph(n, 3, seed=n)
        degree = [0] * n
        for a, b in graph.edges:
            degree[a] += 1
            degree[b] += 1
        assert degree == [3] * n

    def test_random_regular_rejects_odd_product(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, seed=0)  # n * d must be even

    def test_ring(self):
        graph = ring_graph(5)
        assert graph.num_edges == 5
        assert (0, 4) in graph.edges


class TestGraphHamiltonians:
    def test_maxcut_term_structure(self):
        graph = ring_graph(4)
        hamiltonian = maxcut_hamiltonian(graph)
        labels = {
            pauli.label(): coefficient for coefficient, pauli in hamiltonian
        }
        # w/2 * I per edge plus -w/2 * ZZ per edge.
        assert labels["IIII"] == pytest.approx(2.0)
        assert labels["ZZII"] == pytest.approx(-0.5)
        assert len(labels) == 5

    def test_maxcut_expectation_counts_cut_edges(self):
        # On a computational basis state the MaxCut Hamiltonian's value
        # is exactly the number of cut edges.
        import numpy as np

        from repro.sim import ExpectationEngine, basis_state

        graph = ring_graph(4)
        engine = ExpectationEngine(maxcut_hamiltonian(graph))
        # |0101>: qubits 0,2 one side, 1,3 the other -- all 4 ring edges cut.
        state = basis_state(4, 0b0101)
        assert engine.value(state) == pytest.approx(4.0)
        assert engine.value(basis_state(4, 0)) == pytest.approx(0.0)

    def test_ising_field_terms(self):
        hamiltonian = ising_hamiltonian(ring_graph(3), longitudinal_field=0.7)
        labels = {pauli.label(): c for c, pauli in hamiltonian}
        assert labels["ZII"] == pytest.approx(0.7)
        assert labels["ZZI"] == pytest.approx(1.0)
        assert len(labels) == 6


class TestRegistry:
    def test_maxcut_er_spec(self):
        problem = get_problem("maxcut:er-8-3")
        assert isinstance(problem, GraphProblem)
        assert problem.num_qubits == 8
        assert problem.graph is not None
        # Same spec, same problem.
        again = get_problem("maxcut:er-8-3")
        assert problem.graph.edges == again.graph.edges

    def test_reg3_and_ring_specs(self):
        assert get_problem("maxcut:reg3-8-1").num_qubits == 8
        assert get_problem("maxcut:ring-6").graph.num_edges == 6
        assert get_problem("ising:ring-5").num_qubits == 5

    def test_hubbard_spec(self):
        problem = get_problem("hubbard:3")
        assert isinstance(problem, GraphProblem)
        assert problem.hamiltonian.num_qubits == problem.num_qubits

    def test_qasm_spec(self, tmp_path):
        from repro.circuit import Circuit
        from repro.circuit.gates import CNOT, H
        from repro.circuit.qasm import to_qasm

        path = tmp_path / "bell.qasm"
        path.write_text(to_qasm(Circuit(2, [H(0), CNOT(0, 1)])))
        problem = get_problem(f"qasm:{path}")
        assert isinstance(problem, CircuitProblem)
        assert problem.num_qubits == 2
        assert problem.circuit.num_gates() == 2

    def test_qasm_spec_missing_file(self):
        with pytest.raises(FileNotFoundError):
            get_problem("qasm:/nonexistent/circuit.qasm")

    def test_qasm_spec_directory_is_not_a_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="QASM file not found"):
            get_problem(f"qasm:{tmp_path}")

    @pytest.mark.parametrize(
        "spec",
        ["", "maxcut", "maxcut:torus-4", "nonsense:er-4-0", "maxcut:er-4"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            get_problem(spec)

    def test_identity_has_full_support_helper(self):
        # Guard the PauliString API the Hamiltonian builders rely on.
        identity = PauliString.identity(3)
        assert identity.is_identity()
