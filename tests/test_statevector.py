"""Tests for the statevector kernels and Pauli evolution engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit
from repro.circuit.gates import CNOT, SWAP, H, RX, RY, RZ, X
from repro.pauli import PauliString, PauliSum
from repro.sim import (
    apply_circuit,
    apply_pauli,
    apply_pauli_exponential,
    basis_state,
    expectation,
)
from repro.sim.pauli_evolution import evolve_pauli_sequence


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    dim = 1 << circuit.num_qubits
    columns = [apply_circuit(circuit, basis_state(circuit.num_qubits, i)) for i in range(dim)]
    return np.column_stack(columns)


class TestBasics:
    def test_basis_state(self):
        state = basis_state(2, 3)
        assert state[3] == 1.0
        assert np.sum(np.abs(state)) == 1.0

    def test_basis_state_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)

    def test_x_flips_qubit(self):
        state = apply_circuit(Circuit(2, [X(1)]))
        assert abs(state[2]) == 1.0  # |q1=1, q0=0> = index 2

    def test_bell_state(self):
        state = apply_circuit(Circuit(2, [H(0), CNOT(0, 1)]))
        np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_swap_moves_amplitude(self):
        state = apply_circuit(Circuit(2, [X(0), SWAP(0, 1)]))
        assert abs(state[2]) == 1.0

    def test_ghz_state(self):
        state = apply_circuit(Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2)]))
        np.testing.assert_allclose(abs(state[0]) ** 2, 0.5, atol=1e-12)
        np.testing.assert_allclose(abs(state[7]) ** 2, 0.5, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2), st.floats(-3, 3))
    def test_norm_preserved(self, qubit, angle):
        circuit = Circuit(3, [RX(angle, qubit), RY(angle / 2, (qubit + 1) % 3), CNOT(0, 2)])
        state = apply_circuit(circuit, random_state(3, 7))
        np.testing.assert_allclose(np.linalg.norm(state), 1.0, atol=1e-10)


class TestPauliApplication:
    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="IXYZ", min_size=3, max_size=3), st.integers(0, 100))
    def test_apply_pauli_matches_dense(self, label, seed):
        pauli = PauliString.from_label(label)
        state = random_state(3, seed)
        np.testing.assert_allclose(
            apply_pauli(pauli, state), pauli.to_matrix() @ state, atol=1e-10
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.text(alphabet="IXYZ", min_size=3, max_size=3),
        st.floats(-2.0, 2.0),
        st.integers(0, 50),
    )
    def test_exponential_matches_expm(self, label, theta, seed):
        from scipy.linalg import expm

        pauli = PauliString.from_label(label)
        state = random_state(3, seed)
        expected = expm(1j * theta * pauli.to_matrix()) @ state
        np.testing.assert_allclose(
            apply_pauli_exponential(pauli, theta, state), expected, atol=1e-9
        )

    def test_evolution_sequence_order(self):
        # exp(i a X) then exp(i b Z) on |0>.
        x = PauliString.from_label("X")
        z = PauliString.from_label("Z")
        state = evolve_pauli_sequence([(x, 0.3), (z, 0.5)], basis_state(1))
        from scipy.linalg import expm

        expected = (
            expm(0.5j * z.to_matrix()) @ expm(0.3j * x.to_matrix()) @ basis_state(1)
        )
        np.testing.assert_allclose(state, expected, atol=1e-10)

    def test_identity_exponential_is_global_phase(self):
        state = random_state(2, 3)
        result = apply_pauli_exponential(PauliString.identity(2), 0.7, state)
        np.testing.assert_allclose(result, np.exp(0.7j) * state, atol=1e-12)


class TestExpectation:
    def test_z_expectation_on_basis_states(self):
        z0 = PauliSum.from_label_dict({"IZ": 1.0})
        assert expectation(z0, basis_state(2, 0)) == pytest.approx(1.0)
        assert expectation(z0, basis_state(2, 1)) == pytest.approx(-1.0)

    def test_x_expectation_on_plus(self):
        plus = apply_circuit(Circuit(1, [H(0)]))
        assert expectation(PauliSum.from_label_dict({"X": 1.0}), plus) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 30))
    def test_matches_dense_quadratic_form(self, seed):
        observable = PauliSum.from_label_dict({"XX": 0.3, "ZI": -1.2, "YZ": 0.9})
        state = random_state(2, seed)
        expected = np.vdot(state, observable.to_matrix() @ state).real
        assert expectation(observable, state) == pytest.approx(expected, abs=1e-10)


class TestUnitaryComposition:
    def test_hh_is_identity(self):
        unitary = circuit_unitary(Circuit(1, [H(0), H(0)]))
        np.testing.assert_allclose(unitary, np.eye(2), atol=1e-12)

    def test_inverse_circuit_gives_identity(self):
        circuit = Circuit(3, [H(0), RZ(0.7, 1), CNOT(0, 1), RX(0.2, 2), SWAP(0, 2)])
        unitary = circuit_unitary(circuit.compose(circuit.inverse()))
        np.testing.assert_allclose(unitary, np.eye(8), atol=1e-10)
