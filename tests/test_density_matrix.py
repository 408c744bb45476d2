"""Noise-model and density-matrix energy tests.

The exact noisy energy (:class:`repro.vqe.DensityMatrixEnergy`) holds
rho as its ``4**n`` real Pauli coefficients ``c_Q = Tr(rho Q)``; these
tests read trace, purity and mixing off those coefficients and check
the energy against the dense oracle of :mod:`dense_oracle`.
"""

import numpy as np
import pytest

from dense_oracle import dense_density_matrix
from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, SWAP, H, RX, RZ, X
from repro.compiler.synthesis import synthesize_program_chain
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.sim import DepolarizingNoiseModel, apply_circuit
from repro.sim.noise import depolarizing_paulis
from repro.vqe import VQE, DensityMatrixEnergy, SamplingEnergy

NOISELESS = DepolarizingNoiseModel(two_qubit_error=0.0)


def _program(labels, occupations=()):
    """One term per label, each with its own parameter and coefficient 0.5."""
    terms = [
        IRTerm(PauliString.from_label(label), 0.5, index)
        for index, label in enumerate(labels)
    ]
    return PauliProgram(len(labels[0]), len(labels), terms, list(occupations))


def _coefficients(program, noise, theta):
    """``Tr(rho Q)`` over every label Q (index 0 is the identity)."""
    identity = PauliSum.from_label_dict({"I" * program.num_qubits: 1.0})
    energy = DensityMatrixEnergy(program, identity, noise)
    return energy.evolution.evolve(energy.angles(theta)).copy()


def _purity(coefficients, num_qubits):
    """``Tr(rho**2) = sum_Q c_Q**2 / 2**n``."""
    return float(coefficients @ coefficients) / 2**num_qubits


#: A two-qubit program that entangles |01> with |10>.
SWAP_LIKE = _program(["XY"], [0])
THETA = np.array([0.6])


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
        # The dense oracle's noiseless limit is the pure state.
        state = apply_circuit(circuit)
        np.testing.assert_allclose(
            dense_density_matrix(circuit), np.outer(state, state.conj()), atol=1e-12
        )

    def test_trace_preserved(self):
        coefficients = _coefficients(SWAP_LIKE, NOISELESS, THETA)
        assert coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_purity_one_without_noise(self):
        coefficients = _coefficients(SWAP_LIKE, NOISELESS, THETA)
        assert _purity(coefficients, 2) == pytest.approx(1.0, abs=1e-12)


class TestDepolarizingChannel:
    def test_purity_decreases_with_noise(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.05)
        coefficients = _coefficients(SWAP_LIKE, noise, THETA)
        assert _purity(coefficients, 2) < 1.0
        assert coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_maximal_mixing_at_p_15_16(self):
        # With the Pauli-mixture parameterization, rho + sum_P P rho P =
        # 2^n Tr(rho) I, so p = 15/16 on the last CNOT of exp(i a ZZ)
        # (cx, rz, cx) leaves the maximally mixed state: c_Q = 0 but c_I.
        noise = DepolarizingNoiseModel(two_qubit_error=15.0 / 16.0)
        coefficients = _coefficients(_program(["ZZ"]), noise, THETA)
        np.testing.assert_allclose(coefficients, np.eye(16)[0], atol=1e-12)

    def test_expectation_matches_dense_trace(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.02, one_qubit_error=0.01)
        program = _program(["XZY", "IYX", "ZII"], [0, 2])
        theta = np.array([0.7, -0.4, 1.1])
        observable = PauliSum.from_label_dict(
            {"ZZI": 1.0, "XXI": 0.5, "YIY": -0.3, "IXZ": 0.2, "III": 0.1}
        )
        rho = dense_density_matrix(synthesize_program_chain(program, theta), noise)
        dense = np.trace(observable.to_matrix() @ rho).real
        energy = DensityMatrixEnergy(program, observable, noise)
        assert energy(theta) == pytest.approx(dense, rel=0, abs=1e-12)

    def test_noise_weakens_correlations(self):
        observable = PauliSum.from_label_dict({"ZZ": 1.0})
        ideal = DensityMatrixEnergy(SWAP_LIKE, observable, NOISELESS)(THETA)
        noisy = DensityMatrixEnergy(SWAP_LIKE, observable, DepolarizingNoiseModel(0.1))(THETA)
        assert ideal == pytest.approx(-1.0, abs=1e-12)
        assert abs(noisy) < abs(ideal)

    def test_qubit_cap(self):
        program = PauliProgram(13, 0)
        observable = PauliSum.from_label_dict({"Z" * 13: 1.0})
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            VQE(program, observable, backend="density_matrix")


class TestSizeMismatch:
    """A program and Hamiltonian of different sizes raise instead of
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
