"""Tests for the fast-path simulation engines (ISSUE 3).

Covers the three contract points of the engine work:

* in-place gate kernels agree with the legacy tensordot engine on
  random circuits (single states and batches);
* the batched parameter sweep agrees with sequential evaluation (both
  the real-orthogonal fast path and the generic complex path);
* ``engine="legacy"`` stays wired end to end as a regression guard.
"""

import numpy as np
import pytest

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import (
    CNOT,
    CZ,
    H,
    RX,
    RY,
    RZ,
    S,
    SDG,
    SWAP,
    X,
    Y,
    Z,
)
from repro.core import Energy, Pipeline, PipelineConfig
from repro.pauli import PauliString
from repro.sim import (
    BatchedStatevector,
    ExpectationEngine,
    StatevectorSimulator,
    apply_circuit,
    apply_circuit_inplace,
    basis_state,
    check_engine,
)
from repro.sim.batched import real_evolution_compatible
from repro.vqe import VQE, sweep_energies
from repro.vqe.energy import StatevectorEnergy


def random_circuit(num_qubits: int, depth: int, seed: int) -> Circuit:
    """A random circuit covering every gate the kernels specialize."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(depth):
        q = int(rng.integers(0, num_qubits))
        q2 = int((q + 1 + rng.integers(0, num_qubits - 1)) % num_qubits)
        theta = float(rng.normal())
        choices = [
            H(q), X(q), Y(q), Z(q), S(q), SDG(q),
            RX(theta, q), RY(theta, q), RZ(theta, q),
            CNOT(q, q2), CZ(q, q2), SWAP(q, q2),
        ]
        gates.append(choices[int(rng.integers(0, len(choices)))])
    return Circuit(num_qubits, gates)


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


class TestInplaceGateKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_legacy_on_random_circuits(self, seed):
        num_qubits = 3 + seed % 3
        circuit = random_circuit(num_qubits, depth=40, seed=seed)
        state = random_state(num_qubits, seed)
        legacy = apply_circuit(circuit, state, engine="legacy")
        inplace = apply_circuit(circuit, state, engine="inplace")
        np.testing.assert_allclose(inplace, legacy, atol=1e-12)

    def test_two_qubit_edge_case(self):
        """n == 2 exercises the all-axes-indexed slab path."""
        circuit = random_circuit(2, depth=30, seed=3)
        state = random_state(2, 5)
        np.testing.assert_allclose(
            apply_circuit(circuit, state, engine="inplace"),
            apply_circuit(circuit, state, engine="legacy"),
            atol=1e-12,
        )

    def test_input_state_not_mutated(self):
        state = random_state(3, 1)
        before = state.copy()
        apply_circuit(random_circuit(3, 20, 2), state, engine="inplace")
        np.testing.assert_array_equal(state, before)

    def test_inplace_mutates_buffer(self):
        circuit = Circuit(2, [H(0), CNOT(0, 1)])
        state = basis_state(2)
        returned = apply_circuit_inplace(circuit, state)
        assert returned is state
        np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_batched_leading_axis(self):
        circuit = random_circuit(4, depth=30, seed=9)
        stack = np.stack([random_state(4, s) for s in range(5)])
        batch = stack.copy()
        apply_circuit_inplace(circuit, batch)
        for row, single in zip(batch, stack):
            np.testing.assert_allclose(
                row, apply_circuit(circuit, single, engine="legacy"), atol=1e-12
            )

    def test_rejects_noncontiguous_buffer(self):
        from repro.sim import apply_gate_inplace

        state = np.zeros((2, 8), dtype=complex)[::, ::2]  # non-contiguous view
        with pytest.raises(ValueError, match="contiguous"):
            apply_gate_inplace(np.asarray(state)[0], H(0), 2)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            check_engine("warp")
        with pytest.raises(ValueError):
            apply_circuit(Circuit(1, [H(0)]), engine="warp")


class TestSimulatorEngines:
    @pytest.mark.parametrize("engine", ["inplace", "batched", "legacy"])
    def test_simulator_runs_under_every_engine(self, engine):
        simulator = StatevectorSimulator(3, seed=0, engine=engine)
        simulator.run(Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2)]))
        probabilities = simulator.probabilities()
        np.testing.assert_allclose(probabilities[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(probabilities[7], 0.5, atol=1e-12)

    def test_sample_rejects_unnormalized_state(self):
        simulator = StatevectorSimulator(2, seed=0)
        simulator.state = simulator.state * 2.0  # break the invariant
        with pytest.raises(ValueError, match="not normalized"):
            simulator.sample(10)

    def test_sample_tolerates_float_fuzz(self):
        simulator = StatevectorSimulator(1, seed=0)
        simulator.run(Circuit(1, [H(0)]))
        simulator.state = simulator.state * (1.0 + 1e-12)
        assert len(simulator.sample(16)) == 16


class TestBatchedStatevector:
    def test_circuit_batch_matches_sequential(self):
        circuit = random_circuit(3, depth=25, seed=11)
        stack = np.stack([random_state(3, s) for s in range(4)])
        batch = BatchedStatevector.from_states(stack)
        batch.apply_circuit(circuit)
        for row, single in zip(batch.states, stack):
            np.testing.assert_allclose(
                row, apply_circuit(circuit, single, engine="legacy"), atol=1e-12
            )

    def test_evolve_matches_sequential_exponentials(self):
        from repro.sim.pauli_evolution import evolve_pauli_sequence

        rng = np.random.default_rng(2)
        paulis = [
            PauliString.from_label(label)
            for label in ("XYI", "ZZY", "YXZ", "IIY", "XYZ")
        ]
        angles = rng.normal(0, 0.7, (6, len(paulis)))
        batch = BatchedStatevector.broadcast(basis_state(3, 1), 6)
        batch.evolve(paulis, angles)
        for k in range(6):
            expected = evolve_pauli_sequence(
                list(zip(paulis, angles[k])), basis_state(3, 1)
            )
            np.testing.assert_allclose(batch.states[k], expected, atol=1e-10)

    def test_evolve_large_angles_hit_tan_guard(self):
        """Angles near pi/2 must take the exact (non-deferred) update."""
        from repro.sim.pauli_evolution import evolve_pauli_sequence

        paulis = [PauliString.from_label("XY"), PauliString.from_label("ZY")]
        angles = np.array([[np.pi / 2, 1.5707], [0.1, -np.pi / 2]])
        batch = BatchedStatevector.broadcast(basis_state(2, 1), 2)
        batch.evolve(paulis, angles)
        for k in range(2):
            expected = evolve_pauli_sequence(
                list(zip(paulis, angles[k])), basis_state(2, 1)
            )
            np.testing.assert_allclose(batch.states[k], expected, atol=1e-10)

    def test_norms_and_reset(self):
        batch = BatchedStatevector(2, 3)
        batch.apply_circuit(Circuit(2, [H(0), CNOT(0, 1)]))
        np.testing.assert_allclose(batch.norms(), 1.0, atol=1e-12)
        batch.reset(2)
        assert np.all(batch.states[:, 2] == 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchedStatevector(2, 0)
        with pytest.raises(ValueError):
            BatchedStatevector(2, 3, states=np.zeros((3, 5), dtype=complex))
        with pytest.raises(ValueError):
            BatchedStatevector(2, 2).evolve(
                [PauliString.from_label("XY")], np.zeros((3, 1))
            )


class TestBatchedSweeps:
    @pytest.fixture(scope="class")
    def lih(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        return program, problem.hamiltonian

    def test_uccsd_is_real_orthogonal(self, lih):
        program, _ = lih
        assert real_evolution_compatible(program.paulis())

    def test_batched_matches_sequential_sweep(self, lih):
        """Real fast path vs. one-at-a-time legacy evaluation."""
        program, hamiltonian = lih
        rng = np.random.default_rng(0)
        thetas = rng.normal(0, 0.4, (11, program.num_parameters))  # ragged tail
        batched = sweep_energies(program, hamiltonian, thetas, engine="batched")
        legacy = sweep_energies(program, hamiltonian, thetas, engine="legacy")
        np.testing.assert_allclose(batched, legacy, atol=1e-9)

    def test_complex_fallback_matches_sequential(self, lih):
        """Programs with even-#Y strings take the complex batched path."""
        from repro.core.ir import IRTerm, PauliProgram

        program, hamiltonian = lih
        terms = list(program.terms) + [
            IRTerm(PauliString.from_label("ZZ" + "I" * (program.num_qubits - 2)), 0.5, 0)
        ]
        mixed = PauliProgram(
            num_qubits=program.num_qubits,
            num_parameters=program.num_parameters,
            terms=terms,
            initial_occupations=list(program.initial_occupations),
        )
        assert not real_evolution_compatible(mixed.paulis())
        rng = np.random.default_rng(1)
        thetas = rng.normal(0, 0.3, (5, mixed.num_parameters))
        np.testing.assert_allclose(
            sweep_energies(mixed, hamiltonian, thetas, engine="batched"),
            sweep_energies(mixed, hamiltonian, thetas, engine="legacy"),
            atol=1e-9,
        )

    def test_inplace_single_point_matches_legacy(self, lih):
        program, hamiltonian = lih
        theta = np.random.default_rng(3).normal(0, 0.3, program.num_parameters)
        fast = StatevectorEnergy(program, hamiltonian, engine="inplace")
        slow = StatevectorEnergy(program, hamiltonian, engine="legacy")
        assert fast(theta) == pytest.approx(slow(theta), abs=1e-10)

    def test_expectation_values_batched(self):
        problem = build_molecule_hamiltonian("H2")
        engine = ExpectationEngine(problem.hamiltonian)
        states = np.stack([random_state(problem.num_qubits, s) for s in range(4)])
        batched = engine.values(states)
        np.testing.assert_allclose(
            batched, [engine.value(s) for s in states], atol=1e-10
        )
        real_states = np.abs(states) / np.linalg.norm(np.abs(states), axis=1)[:, None]
        np.testing.assert_allclose(
            engine.values_real(real_states),
            [engine.value(s.astype(complex)) for s in real_states],
            atol=1e-10,
        )


class TestLegacyRegressionGuard:
    """engine="legacy" must stay selectable end to end."""

    def test_vqe_legacy_engine_matches_default(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        legacy = VQE(program, problem.hamiltonian, engine="legacy").run()
        default = VQE(program, problem.hamiltonian).run()
        assert legacy.energy == pytest.approx(default.energy, abs=1e-9)

    def test_pipeline_engine_field_round_trips(self):
        config = PipelineConfig(molecule="H2", engine="legacy")
        assert PipelineConfig.from_dict(config.to_dict()).engine == "legacy"

    def test_energy_pass_uses_config_engine(self):
        result = (
            Pipeline(PipelineConfig(molecule="H2", ratio=1.0, engine="legacy"))
            .appending(Energy(max_iterations=50))
            .run()
        )
        assert result.metrics["energy"] == pytest.approx(
            result.metrics["exact_energy"], abs=1e-4
        )

    def test_unknown_engine_rejected_at_vqe_construction(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        with pytest.raises(ValueError, match="unknown simulation engine"):
            VQE(program, problem.hamiltonian, engine="warp")
