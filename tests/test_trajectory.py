"""Stochastic Pauli-trajectory engine + noisy-path regression tests.

Covers the trajectory engine's agreement with the exact density matrix
and, bit for bit, with a dense oracle that evolves every row; seeded
determinism; the noise models that used to be silently discarded now
raising; the shared popcount helper; and the normalization assertion
that replaced silent renormalization in the sampling backend.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, RX, RZ, SWAP, Gate, H
from repro.core import compress_ansatz
from repro.core.bits import _popcount_swar, popcount
from repro.pauli import PauliSum
from repro.sim import (
    DensityMatrixSimulator,
    DepolarizingNoiseModel,
    ExpectationEngine,
    StatevectorSimulator,
    apply_circuit,
    apply_gate_inplace,
    trajectory_estimate,
    trajectory_expectations,
)
from repro.sim.trajectory import (
    _apply_pauli_rows,
    _draw_events,
    _noisy_gates,
    channel_paulis,
)
from repro.vqe import VQE, TrajectoryEnergy
from repro.vqe.energy import DensityMatrixEnergy, SamplingEnergy


@pytest.fixture(scope="module")
def lih():
    problem = build_molecule_hamiltonian("LiH")
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, 0.3).program
    return problem, compressed


NOISE = DepolarizingNoiseModel(two_qubit_error=0.02)

OBSERVABLE = PauliSum.from_label_dict(
    {"ZZI": 1.0, "IXX": 0.5, "ZIZ": -0.7, "YIY": 0.25}
)

CIRCUIT = Circuit(
    3, [H(0), CNOT(0, 1), RX(0.7, 2), CNOT(1, 2), RZ(0.3, 0), SWAP(0, 2)]
)


class TestChannelPaulis:
    def test_sizes_and_embedding(self):
        one_qubit = channel_paulis(4, (2,))
        assert len(one_qubit) == 3
        assert {p.label() for p in one_qubit} == {"IXII", "IYII", "IZII"}
        two_qubit = channel_paulis(3, (0, 2))
        assert len(two_qubit) == 15
        # Local qubit 0 of the gate maps to physical qubit 0, local 1 to 2.
        assert all(p.op_on(1) == "I" for p in two_qubit)
        assert not any(p.is_identity() for p in two_qubit)


class TrajectorySimulator:
    """Dense oracle: K trajectories, every row through every gate.

    An independent reference for the error-sparse engine: it draws each
    gate's errors while it runs, right after the gate, and evolves all K
    rows of one ``(K, 2**n)`` stack.  On two or more qubits the engine
    must match it bit for bit, block by block (see
    :func:`dense_trajectories`).
    """

    def __init__(self, num_qubits, noise=None, *, trajectories=64, seed=None, rng=None):
        if trajectories < 1:
            raise ValueError("trajectories must be at least 1")
        self.num_qubits = num_qubits
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=0.0)
        self.trajectories = trajectories
        self.states = np.zeros((trajectories, 1 << num_qubits), dtype=complex)
        self.states[:, 0] = 1.0
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self.error_events = 0

    def reset(self, state):
        self.states[...] = state
        return self

    def run(self, circuit):
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        for gate in circuit.decompose_swaps().gates:
            if gate.name in ("barrier", "measure"):
                continue
            apply_gate_inplace(self.states, gate, self.num_qubits)
            probability = self.noise.error_for(gate.name, gate.num_qubits)
            if probability > 0.0:
                self._inject_errors(gate.qubits, probability)
        return self.states

    def _inject_errors(self, qubits, probability):
        hits = np.nonzero(self._rng.random(self.trajectories) < probability)[0]
        if hits.size == 0:
            return
        paulis = channel_paulis(self.num_qubits, qubits)
        choices = self._rng.integers(len(paulis), size=hits.size)
        self.error_events += int(hits.size)
        for index in np.unique(choices):
            _apply_pauli_rows(self.states, paulis[index], hits[choices == index])


def dense_trajectories(
    circuit, observable, noise, *, trajectories, seed, block_size, initial_state=None
):
    """The oracle's per-row values and error count.

    Blocks of ``block_size`` rows (the last one ragged), block ``i``
    seeded by child ``i`` of ``SeedSequence(seed)`` -- the documented
    seeding of :func:`repro.sim.trajectory.trajectory_expectations`.
    """
    engine = ExpectationEngine(observable)
    full, tail = divmod(trajectories, block_size)
    sizes = [block_size] * full + ([tail] if tail else [])
    values, events = [], 0
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        simulator = TrajectorySimulator(
            circuit.num_qubits, noise, trajectories=size, rng=np.random.default_rng(child)
        )
        if initial_state is not None:
            simulator.reset(initial_state)
        values.append(engine.values(simulator.run(circuit)))
        events += simulator.error_events
    return np.concatenate(values), events


class TestTrajectorySimulator:
    def test_noiseless_rows_match_statevector_exactly(self):
        simulator = TrajectorySimulator(3, None, trajectories=4, seed=0)
        simulator.run(CIRCUIT)
        expected = apply_circuit(CIRCUIT)
        for row in simulator.states:
            np.testing.assert_allclose(row, expected, atol=1e-12)
        assert simulator.error_events == 0
        # The engine forks no row at all: every value is the clean one.
        estimate = trajectory_estimate(CIRCUIT, OBSERVABLE, None, trajectories=4, seed=0)
        assert estimate.error_events == 0
        values = trajectory_expectations(CIRCUIT, OBSERVABLE, None, trajectories=4, seed=0)
        clean = ExpectationEngine(OBSERVABLE).value(expected)
        np.testing.assert_allclose(values, clean, rtol=0, atol=1e-12)

    def test_seeded_determinism(self):
        a = trajectory_expectations(CIRCUIT, OBSERVABLE, NOISE, trajectories=32, seed=5)
        b = trajectory_expectations(CIRCUIT, OBSERVABLE, NOISE, trajectories=32, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_unbiased_against_density_matrix(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.05, one_qubit_error=0.01)
        dm = DensityMatrixSimulator(3, noise)
        dm.run(CIRCUIT)
        exact = dm.expectation(OBSERVABLE)
        estimate = trajectory_estimate(
            CIRCUIT, OBSERVABLE, noise, trajectories=4096, seed=3
        )
        assert estimate.error_events > 0
        assert estimate.standard_error > 0.0
        assert estimate.agrees_with(exact, sigmas=4.0)

    def test_swaps_are_noisy(self):
        # SWAPs decompose into three noisy CNOTs, as in the DM simulator.
        swap_only = Circuit(2, [H(0), SWAP(0, 1)])
        noise = DepolarizingNoiseModel(two_qubit_error=1.0)
        observable = PauliSum.from_label_dict({"ZI": 1.0})
        estimate = trajectory_estimate(swap_only, observable, noise, trajectories=8, seed=0)
        assert estimate.error_events == 3 * 8

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            trajectory_expectations(
                CIRCUIT, PauliSum.from_label_dict({"ZZ": 1.0}), trajectories=2
            )

    @pytest.mark.parametrize("size", [1, 1 << 4])
    @pytest.mark.parametrize("run", [trajectory_estimate, trajectory_expectations])
    def test_wrong_sized_initial_state_rejected(self, run, size):
        # A 2-qubit circuit needs 4 amplitudes; 1 or 16 used to broadcast.
        circuit = Circuit(2, [H(0), CNOT(0, 1)])
        observable = PauliSum.from_label_dict({"ZZ": 1.0, "XX": 0.5})
        with pytest.raises(ValueError, match="does not match 2 qubits"):
            run(
                circuit, observable, DepolarizingNoiseModel(two_qubit_error=0.1),
                trajectories=8, seed=0, initial_state=np.ones(size) / np.sqrt(size),
            )

    @pytest.mark.parametrize("knob", [{"executor": "serial"}, {"workers": 2}])
    def test_no_executor_knobs(self, knob):
        # The gate-level API runs in one process: there is no pool to pick.
        with pytest.raises(TypeError):
            trajectory_expectations(CIRCUIT, OBSERVABLE, trajectories=2, **knob)
        with pytest.raises(TypeError):
            trajectory_estimate(CIRCUIT, OBSERVABLE, trajectories=2, **knob)

    def test_invalid_trajectory_count(self):
        with pytest.raises(ValueError, match="trajectories"):
            trajectory_expectations(CIRCUIT, OBSERVABLE, trajectories=0)
        with pytest.raises(ValueError, match="block_size"):
            trajectory_expectations(CIRCUIT, OBSERVABLE, trajectories=4, block_size=0)

    def test_block_streaming_shapes(self):
        values = trajectory_expectations(
            CIRCUIT, OBSERVABLE, NOISE, trajectories=10, seed=2, block_size=4
        )
        assert values.shape == (10,)
        assert np.isfinite(values).all()

    def test_estimate_fields(self):
        estimate = trajectory_estimate(
            CIRCUIT, OBSERVABLE, NOISE, trajectories=16, seed=1
        )
        assert estimate.trajectories == 16
        assert np.isfinite(estimate.value)
        single = trajectory_estimate(
            CIRCUIT, OBSERVABLE, NOISE, trajectories=1, seed=1
        )
        assert np.isnan(single.standard_error)


_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "rx", "ry", "rz", "measure")
_TWO_QUBIT = ("cx", "cz", "swap")
_RATES = (0.0, 1e-4, 1e-2, 0.3, 1.0)


@st.composite
def _trajectory_cases(draw):
    """A noisy <=5-qubit circuit, an observable, K, a block size, a start."""
    n = draw(st.integers(1, 5))
    names = _ONE_QUBIT + ("barrier",) + (_TWO_QUBIT if n > 1 else ())
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(names))
        order = draw(st.permutations(range(n)))
        if name == "barrier":
            qubits = tuple(order[: draw(st.integers(1, n))])
        else:
            qubits = tuple(order[: 2 if name in _TWO_QUBIT else 1])
        params = (draw(st.floats(-np.pi, np.pi)),) if name[0] == "r" else ()
        gates.append(Gate(name, qubits, params))
    noise = DepolarizingNoiseModel(
        two_qubit_error=draw(st.sampled_from(_RATES)),
        one_qubit_error=draw(st.sampled_from(_RATES)),
    )
    labels = st.text("IXYZ", min_size=n, max_size=n)
    terms = draw(st.dictionaries(labels, st.floats(-1.0, 1.0), min_size=1, max_size=4))
    initial_state = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        initial_state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        initial_state /= np.linalg.norm(initial_state)
    return {
        "circuit": Circuit(n, gates),
        "observable": PauliSum.from_label_dict(terms),
        "noise": noise,
        "trajectories": draw(st.integers(1, 40)),
        "block_size": draw(st.integers(1, 16)),
        "seed": draw(st.integers(0, 2**16)),
        "initial_state": initial_state,
    }


def _check_chunk_plan(case):
    """Chunks tile the rows in order and fork at most ``block_size`` each."""
    circuit = case["circuit"].decompose_swaps()
    _, signature = _noisy_gates(circuit, case["noise"])
    events = _draw_events(
        signature, circuit.num_qubits, case["trajectories"], case["seed"],
        case["block_size"],
    )
    start = 0
    for chunk in events.chunks:
        assert chunk.start == start
        assert np.unique(chunk.targets).size <= case["block_size"]
        assert np.all(np.diff(chunk.gates) >= 0)
        start += chunk.rows
    assert start == case["trajectories"]
    return events


class TestDenseOracle:
    @settings(max_examples=80, deadline=None)
    @given(_trajectory_cases())
    @example(
        {
            "circuit": Circuit(3, [H(0), SWAP(0, 2), Gate("barrier", (0, 1, 2)), CNOT(2, 1)]),
            "observable": OBSERVABLE,
            "noise": DepolarizingNoiseModel(two_qubit_error=1.0, one_qubit_error=0.3),
            "trajectories": 37,
            "block_size": 8,
            "seed": 4,
            "initial_state": None,
        }
    )
    @example(
        # An observable whose only term has a zero coefficient has no
        # groups: every row still reads exactly 0.
        {
            "circuit": Circuit(3, [H(0), H(1), H(2), H(0), H(1)]),
            "observable": PauliSum.from_label_dict({"ZZZ": 0.0}),
            "noise": DepolarizingNoiseModel(one_qubit_error=0.3),
            "trajectories": 2,
            "block_size": 1,
            "seed": 0,
            "initial_state": None,
        }
    )
    def test_matches_dense_oracle_bit_for_bit(self, case):
        expected, events = dense_trajectories(**case)
        values = trajectory_expectations(**case)
        if case["circuit"].num_qubits > 1:
            np.testing.assert_array_equal(values, expected)
        else:
            # On one qubit an amplitude slab of a one-row stack is a single
            # element, and NumPy multiplies it by RZ's complex phase in its
            # scalar loop rather than the fused-multiply-add SIMD loop: the
            # last bit then depends on the stack height, in the dense oracle
            # too (a one-row tail block rounds unlike a full block).
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-14)
        assert trajectory_estimate(**case).error_events == events
        assert _check_chunk_plan(case).total == events

    def test_certain_errors_give_every_block_its_own_chunk(self):
        # p = 1 forks every row, so no two blocks fit in one chunk and the
        # stack never holds more than block_size + 1 rows.
        case = {
            "circuit": CIRCUIT,
            "noise": DepolarizingNoiseModel(two_qubit_error=1.0),
            "trajectories": 20,
            "block_size": 8,
            "seed": 1,
        }
        events = _check_chunk_plan(case)
        assert [chunk.rows for chunk in events.chunks] == [8, 8, 4]
        # At the paper's rate every block shares one chunk.
        case["noise"] = DepolarizingNoiseModel(two_qubit_error=1e-4)
        assert len(_check_chunk_plan(case).chunks) == 1


class TestTrajectoryEnergy:
    def test_converges_to_density_matrix_on_lih(self, lih):
        problem, program = lih
        rng = np.random.default_rng(7)
        theta = rng.normal(0.0, 0.05, program.num_parameters)
        reference = DensityMatrixEnergy(program, problem.hamiltonian, NOISE)(theta)
        energy = TrajectoryEnergy(
            program, problem.hamiltonian, NOISE, trajectories=512, seed=11
        )
        value = energy(theta)
        assert energy.last_error_events > 0
        assert energy.last_standard_error > 0.0
        assert abs(value - reference) <= 3.0 * energy.last_standard_error

    def test_seeded_determinism(self, lih):
        problem, program = lih
        theta = np.full(program.num_parameters, 0.03)
        kwargs = dict(trajectories=32, seed=13)
        first = TrajectoryEnergy(program, problem.hamiltonian, NOISE, **kwargs)
        second = TrajectoryEnergy(program, problem.hamiltonian, NOISE, **kwargs)
        assert first(theta) == second(theta)
        # Common randomness: repeated evaluations reuse the realizations,
        # so the optimizer sees a deterministic surface.
        assert first(theta) == second(theta)

    def test_common_randomness_reuses_the_event_draw(self, lih):
        from repro.compiler.synthesis import synthesize_program_chain

        problem, program = lih
        energy = TrajectoryEnergy(
            program, problem.hamiltonian, NOISE, trajectories=32, seed=13
        )
        energy(np.full(program.num_parameters, 0.03))
        events = energy._events
        theta = np.full(program.num_parameters, 0.05)
        value = energy(theta)
        assert energy._events is events
        circuit = synthesize_program_chain(program, theta)

        def fresh(trajectories):
            return trajectory_expectations(
                circuit, problem.hamiltonian, NOISE, trajectories=trajectories, seed=13
            )

        # The Pauli-level rows round unlike the gate-level ones, so the
        # draw is compared row by row rather than through an exact mean.
        np.testing.assert_allclose(energy.values(theta), fresh(32), rtol=0, atol=1e-12)
        assert value == pytest.approx(fresh(32).mean(), rel=0, abs=1e-12)
        assert energy.last_error_events == trajectory_estimate(
            circuit, problem.hamiltonian, NOISE, trajectories=32, seed=13
        ).error_events
        # A changed draw key redraws instead of reusing stale events.
        energy.trajectories = 16
        np.testing.assert_allclose(energy.values(theta), fresh(16), rtol=0, atol=1e-12)
        assert energy._events is not events

    def test_fresh_randomness_varies(self, lih):
        problem, program = lih
        theta = np.full(program.num_parameters, 0.03)
        energy = TrajectoryEnergy(
            program,
            problem.hamiltonian,
            NOISE,
            trajectories=32,
            seed=13,
            common_randomness=False,
        )
        assert energy(theta) != energy(theta)
        assert energy._events is None

    def test_vqe_backend_registered(self, lih):
        problem, program = lih
        vqe = VQE(
            program,
            problem.hamiltonian,
            backend="trajectory",
            noise=DepolarizingNoiseModel(two_qubit_error=1e-4),
            trajectories=8,
            max_iterations=1,
        )
        assert isinstance(vqe.energy, TrajectoryEnergy)
        assert vqe.energy.trajectories == 8


class TestNoiseRejection:
    @pytest.fixture(scope="class")
    def h2(self):
        problem = build_molecule_hamiltonian("H2")
        return problem, build_uccsd_program(problem).program

    @pytest.mark.parametrize("backend", ["statevector", "sampling"])
    def test_noise_rejected(self, h2, backend):
        problem, program = h2
        with pytest.raises(ValueError, match="silently ignored"):
            VQE(program, problem.hamiltonian, backend=backend, noise=NOISE)

    def test_statevector_error_points_at_noisy_backends(self, h2):
        problem, program = h2
        with pytest.raises(ValueError, match="trajectory.*density_matrix"):
            VQE(program, problem.hamiltonian, backend="statevector", noise=NOISE)

    @pytest.mark.parametrize("backend", ["statevector", "sampling"])
    def test_trivial_noise_accepted(self, h2, backend):
        problem, program = h2
        trivial = DepolarizingNoiseModel(two_qubit_error=0.0)
        VQE(program, problem.hamiltonian, backend=backend, noise=trivial)
        VQE(program, problem.hamiltonian, backend=backend, noise=None)

    @pytest.mark.parametrize("backend", ["density_matrix", "trajectory"])
    def test_noisy_backends_accept_noise(self, h2, backend):
        problem, program = h2
        VQE(program, problem.hamiltonian, backend=backend, noise=NOISE)


class TestPopcount:
    def _reference(self, values):
        return np.array([bin(int(v)).count("1") for v in values])

    def test_matches_pure_python_reference(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        values[:3] = [0, 1, np.iinfo(np.uint64).max // 2]
        np.testing.assert_array_equal(popcount(values), self._reference(values))

    def test_swar_fallback_matches_reference(self):
        # The NumPy-1.x fallback must agree even when np.bitwise_count
        # exists, so the numpy>=2.0 requirement lives only in setup.py.
        rng = np.random.default_rng(1)
        values = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        np.testing.assert_array_equal(
            _popcount_swar(values), self._reference(values)
        )

    def test_shape_preserved(self):
        values = np.arange(16, dtype=np.uint64).reshape(4, 4)
        assert popcount(values).shape == (4, 4)


class TestNormalizationAssertion:
    def test_sample_rejects_leaky_state(self):
        simulator = StatevectorSimulator(2, seed=0)
        simulator.state *= 0.9  # deliberate norm leak
        with pytest.raises(ValueError, match="not normalized"):
            simulator.sample(10)

    def test_sampling_energy_rejects_leaky_state(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        energy = SamplingEnergy(program, problem.hamiltonian, shots_per_group=64)
        energy._reference *= 0.9  # deliberate norm leak in the evolution input
        with pytest.raises(ValueError, match="not normalized"):
            energy(np.zeros(program.num_parameters))

    def test_sampling_energy_unchanged_on_normalized_state(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        energy = SamplingEnergy(
            program, problem.hamiltonian, shots_per_group=2048, seed=3
        )
        value = energy(np.zeros(program.num_parameters))
        assert value == pytest.approx(problem.hf_energy, abs=0.05)


class TestFig10Backends:
    def test_auto_backend_selection(self):
        from repro.bench.fig10 import noisy_backend_for

        assert noisy_backend_for("LiH") == "density_matrix"
        assert noisy_backend_for("H2O") == "density_matrix"
        assert noisy_backend_for("BH3") == "trajectory"
        assert noisy_backend_for("CH4") == "trajectory"

    def test_pipeline_energy_pass_trajectory(self):
        from repro.core import (
            BuildAnsatz,
            BuildProblem,
            Compress,
            Energy,
            Pipeline,
            PipelineConfig,
        )

        config = PipelineConfig(molecule="H2", ratio=1.0, trajectories=8)
        pipeline = Pipeline(
            config,
            [
                BuildProblem(),
                BuildAnsatz(),
                Compress(),
                Energy(
                    backend="trajectory",
                    noise=DepolarizingNoiseModel(two_qubit_error=1e-3),
                    max_iterations=2,
                    compute_exact=False,
                ),
            ],
        )
        result = pipeline.run()
        assert np.isfinite(result.metrics["energy"])
