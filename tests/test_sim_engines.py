"""Tests for the statevector simulation paths.

Covers the contract points of the two paths:

* circuits: ``apply_circuit`` and ``apply_circuit_inplace`` on one
  state or a ``(K, 2**n)`` stack agree with the dense ``np.kron``
  oracle (:mod:`dense_oracle`) on generated circuits over the full gate
  set, and reject states of the wrong size;
* Pauli programs: the fused evolution behind ``StatevectorEnergy``
  and ``sweep_energies`` agrees with term-by-term
  :func:`evolve_pauli_sequence` and with the dense Hamiltonian matrix on
  generated programs (odd- and even-Y strings, identity terms, shared
  parameters, angles of +-pi/2).

It also pins the public names of :mod:`repro.sim`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_apply
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
    Gate,
    X,
    Y,
    Z,
)
import repro.sim
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.sim import (
    ExpectationEngine,
    apply_circuit,
    apply_circuit_inplace,
    basis_state,
    checked_probabilities,
)
from repro.sim.pauli_evolution import FusedPauliEvolution, evolve_pauli_sequence
from repro.sim.statevector import apply_gate
from repro.vqe import sweep_energies
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


_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "rx", "ry", "rz", "measure")
_TWO_QUBIT = ("cx", "cz", "swap")


@st.composite
def _circuits(draw):
    """Circuits of 1-8 qubits over every gate, plus barriers and measures."""
    n = draw(st.integers(1, 8))
    names = _ONE_QUBIT + ("barrier",) + (_TWO_QUBIT if n > 1 else ())
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        name = draw(st.sampled_from(names))
        if name == "barrier":
            gates.append(Gate("barrier", tuple(range(n))))
            continue
        qubits = tuple(
            draw(st.permutations(range(n)))[: 2 if name in _TWO_QUBIT else 1]
        )
        params = (draw(st.floats(-4.0, 4.0)),) if name[0] == "r" else ()
        gates.append(Gate(name, qubits, params))
    return Circuit(n, gates)


class TestDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(circuit=_circuits(), seed=st.integers(0, 2**16))
    def test_every_circuit_path_matches_dense_oracle(self, circuit, seed):
        n = circuit.num_qubits
        stack = np.stack([random_state(n, seed + row) for row in range(3)])
        expected = dense_apply(circuit, stack)

        np.testing.assert_allclose(apply_circuit(circuit, stack[0]), expected[0], atol=1e-12)
        single = stack[1].copy()
        np.testing.assert_allclose(apply_circuit_inplace(circuit, single), expected[1], atol=1e-12)
        batch = stack[1:].copy()
        apply_circuit_inplace(circuit, batch)
        np.testing.assert_allclose(batch, expected[1:], atol=1e-12)


class TestInplaceGateKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_legacy_on_random_circuits(self, seed):
        num_qubits = 3 + seed % 3
        circuit = random_circuit(num_qubits, depth=40, seed=seed)
        state = random_state(num_qubits, seed)
        np.testing.assert_allclose(
            apply_circuit(circuit, state), dense_apply(circuit, state), atol=1e-12
        )

    def test_two_qubit_edge_case(self):
        """n == 2 exercises the all-axes-indexed slab path."""
        circuit = random_circuit(2, depth=30, seed=3)
        state = random_state(2, 5)
        np.testing.assert_allclose(
            apply_circuit(circuit, state), dense_apply(circuit, state), atol=1e-12
        )

    def test_input_state_not_mutated(self):
        state = random_state(3, 1)
        before = state.copy()
        apply_circuit(random_circuit(3, 20, 2), state)
        np.testing.assert_array_equal(state, before)

    def test_rejects_mismatched_state_size(self):
        bell = Circuit(2, [H(0), CNOT(0, 1)])
        with pytest.raises(ValueError, match="does not match 2 qubits"):
            apply_circuit(bell, basis_state(3))
        with pytest.raises(ValueError, match="does not match 2 qubits"):
            apply_gate(basis_state(3), H(0), 2)
        with pytest.raises(ValueError, match="does not match 2 qubits"):
            apply_circuit_inplace(bell, np.zeros((2, 8), dtype=complex))
        # A (K, 2**n) stack is a batch, not a size mismatch.
        assert apply_circuit(bell, np.stack([basis_state(2)] * 3)).shape == (3, 4)

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
        np.testing.assert_allclose(batch, dense_apply(circuit, stack), atol=1e-12)

    def test_rejects_noncontiguous_buffer(self):
        from repro.sim import apply_gate_inplace

        state = np.zeros((2, 8), dtype=complex)[::, ::2]  # non-contiguous view
        with pytest.raises(ValueError, match="contiguous"):
            apply_gate_inplace(np.asarray(state)[0], H(0), 2)


class TestSimulatorEngines:
    @staticmethod
    def _ghz_probabilities(engine: str) -> np.ndarray:
        """GHZ-state probabilities from one of the circuit paths.

        ``inplace``: :func:`apply_circuit_inplace` on one state;
        ``batched``: a two-row ``(2, 2**n)`` stack through
        :func:`apply_circuit_inplace` (one row is returned, the other
        must agree); ``legacy``: the copy-out
        :func:`apply_circuit` signature on an explicit input state.
        """
        circuit = Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2)])
        if engine == "inplace":
            return np.abs(apply_circuit_inplace(circuit, basis_state(3))) ** 2
        if engine == "batched":
            rows = np.stack([basis_state(3)] * 2)
            probabilities = np.abs(apply_circuit_inplace(circuit, rows)) ** 2
            np.testing.assert_allclose(probabilities[1], probabilities[0], atol=1e-12)
            return probabilities[0]
        state = basis_state(3)
        probabilities = np.abs(apply_circuit(circuit, state)) ** 2
        np.testing.assert_array_equal(state, basis_state(3))
        return probabilities

    @pytest.mark.parametrize("engine", ["inplace", "batched", "legacy"])
    def test_simulator_runs_under_every_engine(self, engine):
        probabilities = self._ghz_probabilities(engine)
        np.testing.assert_allclose(probabilities[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(probabilities[7], 0.5, atol=1e-12)
        np.testing.assert_allclose(probabilities.sum(), 1.0, atol=1e-12)

    def test_sample_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="not normalized"):
            checked_probabilities(basis_state(2) * 2.0)  # break the invariant

    def test_sample_tolerates_float_fuzz(self):
        state = apply_circuit(Circuit(1, [H(0)])) * (1.0 + 1e-12)
        probabilities = checked_probabilities(state)
        assert probabilities.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
        samples = np.random.default_rng(0).choice(2, size=16, p=probabilities)
        assert len(samples) == 16


class TestBatchedStatevector:
    """``(K, 2**n)`` stacks of states and K-point parameter sweeps."""

    def test_circuit_batch_matches_sequential(self):
        circuit = random_circuit(3, depth=25, seed=11)
        stack = np.stack([random_state(3, s) for s in range(4)])
        batch = stack.copy()
        apply_circuit_inplace(circuit, batch)
        for row, single in zip(batch, stack):
            np.testing.assert_allclose(row, dense_apply(circuit, single), atol=1e-12)

    def test_evolve_matches_sequential_exponentials(self):
        """Each row's angles through one reused fused evolution plan."""
        rng = np.random.default_rng(2)
        paulis = [
            PauliString.from_label(label)
            for label in ("XYI", "ZZY", "YXZ", "IIY", "XYZ")
        ]
        angles = rng.normal(0, 0.7, (6, len(paulis)))
        evolution = FusedPauliEvolution(3, paulis)
        for row in angles:
            state = evolution.evolve(row, basis_state(3, 1))
            expected = evolve_pauli_sequence(list(zip(paulis, row)), basis_state(3, 1))
            np.testing.assert_allclose(state, expected, atol=1e-10)

    def test_shape_validation(self):
        program = PauliProgram(2, 2, [IRTerm(PauliString.from_label("XY"), 1.0, 1)])
        hamiltonian = PauliSum.from_label_dict({"ZZ": 1.0})
        with pytest.raises(ValueError, match="expected 2 parameters"):
            sweep_energies(program, hamiltonian, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="expected 2 parameters"):
            sweep_energies(program, hamiltonian, np.zeros(2))
        with pytest.raises(ValueError):
            FusedPauliEvolution(2, program.paulis()).evolve(
                [0.1, 0.2], basis_state(2)
            )
        with pytest.raises(ValueError, match="does not match 2 qubits"):
            apply_circuit_inplace(
                Circuit(2, [H(0)]), np.zeros((3, 5), dtype=complex)
            )


def term_by_term_energies(program, hamiltonian, thetas):
    """One point at a time through :func:`evolve_pauli_sequence`."""
    engine = ExpectationEngine(hamiltonian)
    reference = basis_state(
        program.num_qubits, sum(1 << q for q in program.initial_occupations)
    )
    return np.array(
        [
            engine.value(evolve_pauli_sequence(program.bound_terms(theta), reference))
            for theta in thetas
        ]
    )


class TestBatchedSweeps:
    @pytest.fixture(scope="class")
    def lih(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        return program, problem.hamiltonian

    def test_batched_matches_sequential_sweep(self, lih):
        """UCCSD sweep vs. one-at-a-time term-by-term evaluation."""
        program, hamiltonian = lih
        rng = np.random.default_rng(0)
        thetas = rng.normal(0, 0.4, (11, program.num_parameters))  # ragged tail
        np.testing.assert_allclose(
            sweep_energies(program, hamiltonian, thetas),
            term_by_term_energies(program, hamiltonian, thetas),
            atol=1e-9,
        )

    def test_complex_fallback_matches_sequential(self, lih):
        """A program with an even-#Y string (complex amplitudes)."""
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
        rng = np.random.default_rng(1)
        thetas = rng.normal(0, 0.3, (5, mixed.num_parameters))
        np.testing.assert_allclose(
            sweep_energies(mixed, hamiltonian, thetas),
            term_by_term_energies(mixed, hamiltonian, thetas),
            atol=1e-9,
        )

    def test_inplace_single_point_matches_legacy(self, lih):
        program, hamiltonian = lih
        theta = np.random.default_rng(3).normal(0, 0.3, program.num_parameters)
        (expected,) = term_by_term_energies(program, hamiltonian, [theta])
        assert StatevectorEnergy(program, hamiltonian)(theta) == pytest.approx(
            expected, abs=1e-10
        )

    def test_expectation_values_batched(self):
        problem = build_molecule_hamiltonian("H2")
        engine = ExpectationEngine(problem.hamiltonian)
        states = np.stack([random_state(problem.num_qubits, s) for s in range(4)])
        batched = engine.values(states)
        np.testing.assert_allclose(
            batched, [engine.value(s) for s in states], atol=1e-10
        )



_ANGLES = st.one_of(
    st.sampled_from([np.pi / 2, -np.pi / 2, 0.0, np.pi]),
    st.floats(-4.0, 4.0),
)


@st.composite
def _programs(draw):
    """Random Pauli programs with a matching Hermitian Hamiltonian.

    1-6 qubits; strings over ``IXYZ`` (so odd- and even-Y strings and
    identity terms all occur); several terms may share one parameter;
    unit coefficients let bound angles land exactly on +-pi/2.
    """
    n = draw(st.integers(1, 6))
    labels = st.text("IXYZ", min_size=n, max_size=n)
    num_parameters = draw(st.integers(1, 4))
    terms = [
        IRTerm(
            PauliString.from_label(draw(labels)),
            draw(st.one_of(st.sampled_from([1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))),
            draw(st.integers(0, num_parameters - 1)),
        )
        for _ in range(draw(st.integers(0, 10)))
    ]
    occupations = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    program = PauliProgram(n, num_parameters, terms, occupations)
    hamiltonian = PauliSum.from_label_dict(
        draw(st.dictionaries(labels, st.floats(-2.0, 2.0), min_size=1, max_size=8))
    )
    parameter_sets = draw(
        st.lists(
            st.lists(_ANGLES, min_size=num_parameters, max_size=num_parameters),
            min_size=1,
            max_size=4,
        )
    )
    return program, hamiltonian, np.array(parameter_sets)


class TestPauliProgramOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=_programs())
    def test_single_point_path_matches_oracles(self, case):
        program, hamiltonian, parameter_sets = case
        energy = StatevectorEnergy(program, hamiltonian)
        matrix = hamiltonian.to_matrix()
        reference = basis_state(
            program.num_qubits, sum(1 << q for q in program.initial_occupations)
        )
        values = []
        for theta in parameter_sets:
            expected = evolve_pauli_sequence(program.bound_terms(theta), reference)
            np.testing.assert_allclose(energy.state(theta), expected, atol=1e-10)
            values.append(energy(theta))
            assert values[-1] == pytest.approx(
                np.vdot(expected, matrix @ expected).real, abs=1e-10
            )
        sweep = sweep_energies(program, hamiltonian, parameter_sets)
        assert sweep.dtype == np.float64
        np.testing.assert_array_equal(sweep, values)
        assert sweep_energies(program, hamiltonian, []).shape == (0,)


def test_public_names():
    """The gate-level noisy and stateful simulators live in the tests'
    oracles, not in the library."""
    assert sorted(repro.sim.__all__) == [
        "DepolarizingNoiseModel",
        "ExpectationEngine",
        "apply_circuit",
        "apply_circuit_inplace",
        "apply_gate_inplace",
        "apply_pauli",
        "apply_pauli_exponential",
        "basis_state",
        "checked_probabilities",
        "expectation",
        "ground_state_energy",
    ]
