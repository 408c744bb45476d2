"""Density-matrix simulator and noise-channel tests."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import embed, kron_chain
from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, SDG, SWAP, H, RX, RZ, S, X, Y, Gate
from repro.pauli import PauliSum
from repro.sim import (
    DensityMatrixSimulator,
    DepolarizingNoiseModel,
    ExpectationEngine,
    apply_circuit,
)
from repro.sim.noise import depolarizing_paulis
from repro.vqe import VQE, DensityMatrixEnergy, SamplingEnergy


class TestNoiseModel:
    def test_pauli_set_sizes(self):
        assert len(depolarizing_paulis(1)) == 3
        assert len(depolarizing_paulis(2)) == 15

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            depolarizing_paulis(3)

    def test_error_rates_by_gate(self):
        model = DepolarizingNoiseModel(two_qubit_error=1e-3, one_qubit_error=1e-5)
        assert model.error_for("cx", 2) == 1e-3
        assert model.error_for("h", 1) == 1e-5
        assert model.error_for("rz", 1) == 1e-5
        assert model.error_for("measure", 1) == 0.0

    def test_trivial_check(self):
        assert DepolarizingNoiseModel(0.0, 0.0).is_trivial()
        assert not DepolarizingNoiseModel(1e-4).is_trivial()


class TestNoiselessPropagation:
    @pytest.mark.parametrize(
        "circuit",
        [
            Circuit(2, [H(0), CNOT(0, 1)]),
            Circuit(3, [X(0), SWAP(0, 2), RZ(0.4, 2), RX(0.9, 1)]),
            Circuit(2, [RX(1.1, 0), RZ(-0.3, 1), CNOT(1, 0)]),
        ],
    )
    def test_matches_statevector(self, circuit):
        simulator = DensityMatrixSimulator(circuit.num_qubits)
        rho = simulator.run(circuit)
        state = apply_circuit(circuit)
        np.testing.assert_allclose(rho, np.outer(state, state.conj()), atol=1e-10)

    def test_trace_preserved(self):
        simulator = DensityMatrixSimulator(2)
        simulator.run(Circuit(2, [H(0), CNOT(0, 1)]))
        assert simulator.trace() == pytest.approx(1.0)

    def test_purity_one_without_noise(self):
        simulator = DensityMatrixSimulator(2)
        simulator.run(Circuit(2, [H(0), CNOT(0, 1)]))
        assert simulator.purity() == pytest.approx(1.0)


class TestDepolarizingChannel:
    def test_purity_decreases_with_noise(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.05)
        simulator = DensityMatrixSimulator(2, noise)
        simulator.run(Circuit(2, [H(0), CNOT(0, 1)]))
        assert simulator.purity() < 1.0
        assert simulator.trace() == pytest.approx(1.0)

    def test_maximal_mixing_at_p_15_16(self):
        # With the Pauli-mixture parameterization, rho + sum_P P rho P =
        # 2^n Tr(rho) I, so p = 15/16 yields the maximally mixed state.
        noise = DepolarizingNoiseModel(two_qubit_error=15.0 / 16.0)
        simulator = DensityMatrixSimulator(2, noise)
        simulator.run(Circuit(2, [CNOT(0, 1)]))
        np.testing.assert_allclose(simulator.rho, np.eye(4) / 4.0, atol=1e-10)

    def test_swap_decomposed_into_noisy_cnots(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.01)
        a = DensityMatrixSimulator(2, noise)
        a.run(Circuit(2, [SWAP(0, 1)]))
        b = DensityMatrixSimulator(2, noise)
        b.run(Circuit(2, [CNOT(0, 1), CNOT(1, 0), CNOT(0, 1)]))
        np.testing.assert_allclose(a.rho, b.rho, atol=1e-12)

    def test_expectation_matches_dense_trace(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.02, one_qubit_error=0.01)
        simulator = DensityMatrixSimulator(3, noise)
        rho = simulator.run(Circuit(3, [H(0), CNOT(0, 1), RX(0.7, 2), CNOT(2, 1)]))
        observable = PauliSum.from_label_dict(
            {"ZZI": 1.0, "XXI": 0.5, "YIY": -0.3, "IXZ": 0.2, "III": 0.1}
        )
        dense = np.trace(observable.to_matrix() @ rho).real
        assert simulator.expectation(observable) == pytest.approx(dense, abs=1e-12)

    def test_noise_weakens_correlations(self):
        observable = PauliSum.from_label_dict({"ZZ": 1.0})
        ideal = DensityMatrixSimulator(2)
        ideal.run(Circuit(2, [H(0), CNOT(0, 1)]))
        noisy = DensityMatrixSimulator(2, DepolarizingNoiseModel(0.1))
        noisy.run(Circuit(2, [H(0), CNOT(0, 1)]))
        assert noisy.expectation(observable) < ideal.expectation(observable)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            DensityMatrixSimulator(13)


class TestSizeMismatch:
    """A program, Hamiltonian or rho of the wrong size raises instead of
    returning a plausible number."""

    def test_energy_rejects_mismatched_program_and_hamiltonian(self):
        program = build_uccsd_program(build_molecule_hamiltonian("H2")).program
        two_qubit = PauliSum.from_label_dict({"ZZ": 1.0, "XX": 0.5, "II": -0.2})
        assert program.num_qubits == 4
        with pytest.raises(ValueError, match="sizes differ"):
            DensityMatrixEnergy(program, two_qubit)
        with pytest.raises(ValueError, match="sizes differ"):
            VQE(program, two_qubit, backend="density_matrix")
        with pytest.raises(ValueError, match="sizes differ"):
            SamplingEnergy(program, two_qubit)

    def test_trace_value_rejects_wrong_rho_shape(self):
        engine = ExpectationEngine(PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.5}))
        with pytest.raises(ValueError, match=r"rho must have shape \(4, 4\)"):
            engine.trace_value(np.eye(16) / 16)
        with pytest.raises(ValueError, match=r"rho must have shape \(4, 4\)"):
            engine.trace_value(np.eye(4).reshape(-1) / 4)
        assert engine.trace_value(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-15)


# ----------------------------------------------------------------------
# Dense oracle: full-size unitaries from np.kron, the explicit Pauli sum
# ----------------------------------------------------------------------
_PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def _dense_reference(circuit, noise):
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.decompose_swaps().gates:
        unitary = embed(gate.matrix(), gate.qubits, n)
        rho = unitary @ rho @ unitary.conj().T
        p, k = noise.error_for(gate.name, gate.num_qubits), gate.num_qubits
        mixed = np.zeros_like(rho)
        for labels in itertools.product("IXYZ", repeat=k):
            if set(labels) == {"I"}:
                continue
            factors = [np.eye(2)] * n
            for qubit, label in zip(gate.qubits, labels):
                factors[qubit] = _PAULI_MATRICES[label]
            pauli = kron_chain(factors)
            mixed += pauli @ rho @ pauli
        rho = (1.0 - p) * rho + p / (4**k - 1) * mixed
    return rho


_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz", "swap")


@st.composite
def _noisy_circuits(draw):
    n = draw(st.integers(1, 4))
    names = _ONE_QUBIT + (_TWO_QUBIT if n > 1 else ())
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(names))
        qubits = tuple(
            draw(st.permutations(range(n)))[: 2 if name in _TWO_QUBIT else 1]
        )
        params = (draw(st.floats(-np.pi, np.pi)),) if name[0] == "r" else ()
        gates.append(Gate(name, qubits, params))
    noise = DepolarizingNoiseModel(
        two_qubit_error=draw(st.floats(0.0, 0.3)),
        one_qubit_error=draw(st.floats(0.0, 0.3)),
    )
    return Circuit(n, gates), noise


class TestDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(_noisy_circuits())
    @example((Circuit(1, [Y(0)]), DepolarizingNoiseModel(0.0, 0.0)))
    @example((Circuit(2, [H(0), Y(1)]), DepolarizingNoiseModel(0.1, 0.05)))
    @example((Circuit(2, [H(0), S(0), CNOT(0, 1), SDG(1)]), DepolarizingNoiseModel(0.0, 0.0)))
    @example((Circuit(3, [H(2), SDG(2), S(0), SWAP(0, 2)]), DepolarizingNoiseModel(0.2, 0.1)))
    def test_run_matches_dense_reference(self, case):
        circuit, noise = case
        rho = DensityMatrixSimulator(circuit.num_qubits, noise).run(circuit)
        np.testing.assert_allclose(rho, _dense_reference(circuit, noise), rtol=0, atol=1e-12)
