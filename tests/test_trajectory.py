"""Pauli-trajectory noise + noisy-path regression tests.

Covers the trajectory energy's construction checks, seeded determinism
and agreement with the exact density matrix; its error draw against the
dense oracle's (:func:`dense_oracle.dense_trajectories`), event by event
at every block size; the noise models that used to be silently
discarded now raising; the shared popcount helper; and the
normalization assertion that replaced silent renormalization in the
sampling backend.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_trajectories
from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, RX, RZ, SWAP, Gate, H
from repro.core import compress_ansatz
from repro.core.bits import _popcount_swar, popcount
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.sim import (
    DepolarizingNoiseModel,
    ExpectationEngine,
    apply_circuit,
    basis_state,
    checked_probabilities,
)
from repro.sim.channel_plan import ChannelPlan
from repro.sim.trajectory import _draw_events, _noisy_gates, channel_paulis
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

#: A small three-qubit program for the energy's own checks.
PROGRAM = PauliProgram(
    3,
    2,
    [
        IRTerm(PauliString.from_label("XZY"), 0.5, 0),
        IRTerm(PauliString.from_label("YYI"), -0.8, 1),
        IRTerm(PauliString.from_label("IXX"), 0.3, 0),
    ],
    [0],
)
THETA = np.array([0.4, -0.7])


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


class TestTrajectorySimulator:
    """The trajectory energy's construction, draw and estimate."""

    def test_noiseless_rows_match_statevector_exactly(self):
        values, events = dense_trajectories(CIRCUIT, OBSERVABLE, None, trajectories=4, seed=0)
        clean = ExpectationEngine(OBSERVABLE).value(apply_circuit(CIRCUIT))
        np.testing.assert_allclose(values, clean, rtol=0, atol=1e-12)
        assert events == []
        # The energy draws no error: every row reads the clean value.
        noiseless = DepolarizingNoiseModel(two_qubit_error=0.0)
        energy = TrajectoryEnergy(PROGRAM, OBSERVABLE, noiseless, trajectories=4, seed=0)
        values = energy.values(THETA)
        np.testing.assert_array_equal(values, np.full(4, values[0]))
        energy(THETA)
        assert energy.last_error_events == 0

    def test_seeded_determinism(self):
        signature = ChannelPlan(PROGRAM, NOISE).signature
        first = _draw_events(signature, 3, 200, 5)
        second = _draw_events(signature, 3, 200, 5)
        assert first[0].size > 0
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        other = _draw_events(signature, 3, 200, 6)
        assert any(a.shape != b.shape or (a != b).any() for a, b in zip(first, other))

    def test_unbiased_against_density_matrix(self):
        noise = DepolarizingNoiseModel(two_qubit_error=0.05, one_qubit_error=0.01)
        exact = DensityMatrixEnergy(PROGRAM, OBSERVABLE, noise)(THETA)
        energy = TrajectoryEnergy(PROGRAM, OBSERVABLE, noise, trajectories=4096, seed=3)
        value = energy(THETA)
        assert energy.last_error_events > 0
        assert energy.last_standard_error > 0.0
        assert abs(value - exact) <= 4.0 * energy.last_standard_error

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            TrajectoryEnergy(PROGRAM, PauliSum.from_label_dict({"ZZ": 1.0}), trajectories=2)

    @pytest.mark.parametrize("knob", [{"executor": "serial"}, {"workers": 2}])
    def test_no_executor_knobs(self, knob):
        # The energy runs in one process: there is no pool to pick.
        with pytest.raises(TypeError):
            TrajectoryEnergy(PROGRAM, OBSERVABLE, trajectories=2, **knob)

    def test_no_block_size_knob(self):
        # Every draw uses 64-row blocks: there is no block size to pick.
        with pytest.raises(TypeError):
            TrajectoryEnergy(PROGRAM, OBSERVABLE, trajectories=2, block_size=4)

    def test_invalid_trajectory_count(self):
        # Rejected at construction, naming the value, not at the first call.
        for trajectories in (0, -3, True, 2.5, "8", None):
            with pytest.raises(ValueError, match=f"trajectories .* got {trajectories!r}"):
                TrajectoryEnergy(PROGRAM, OBSERVABLE, NOISE, trajectories=trajectories)

    def test_numpy_trajectory_count_accepted(self):
        energy = TrajectoryEnergy(PROGRAM, OBSERVABLE, NOISE, trajectories=np.int64(8))
        assert energy.values(THETA).shape == (8,)

    def test_energy_stage_keeps_an_explicit_trajectory_count(self):
        # An explicit count reaches the energy; only None means the config's.
        from repro.core import BuildAnsatz, BuildProblem, Energy, Pipeline, PipelineConfig

        stage = Energy(backend="trajectory", noise=NOISE, trajectories=0, compute_exact=False)
        pipeline = Pipeline(
            PipelineConfig(molecule="H2", ratio=1.0), [BuildProblem(), BuildAnsatz(), stage]
        )
        with pytest.raises(ValueError, match="got 0"):
            pipeline.run()

    def test_block_streaming_shapes(self):
        # 130 rows: two full 64-row blocks and a ragged one of 2.
        values = TrajectoryEnergy(
            PROGRAM, OBSERVABLE, NOISE, trajectories=130, seed=2
        ).values(THETA)
        assert values.shape == (130,)
        assert np.isfinite(values).all()

    def test_estimate_fields(self):
        energy = TrajectoryEnergy(PROGRAM, OBSERVABLE, NOISE, trajectories=16, seed=1)
        assert np.isfinite(energy(THETA))
        assert np.isfinite(energy.last_standard_error)
        single = TrajectoryEnergy(PROGRAM, OBSERVABLE, NOISE, trajectories=1, seed=1)
        single(THETA)
        assert np.isnan(single.last_standard_error)


_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "rx", "ry", "rz", "measure")
_TWO_QUBIT = ("cx", "cz", "swap")
_RATES = (0.0, 1e-4, 1e-2, 0.3, 1.0)


@st.composite
def _trajectory_cases(draw):
    """A noisy <=5-qubit circuit, an observable, K and a block size."""
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
    return {
        "circuit": Circuit(n, gates),
        "observable": PauliSum.from_label_dict(terms),
        "noise": noise,
        "trajectories": draw(st.integers(1, 40)),
        "block_size": draw(st.integers(1, 16)),
        "seed": draw(st.integers(0, 2**16)),
    }


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
        }
    )
    @example(
        {
            "circuit": Circuit(3, [H(0), H(1), H(2), H(0), H(1)]),
            "observable": PauliSum.from_label_dict({"ZZZ": 0.0}),
            "noise": DepolarizingNoiseModel(one_qubit_error=0.3),
            "trajectories": 2,
            "block_size": 1,
            "seed": 0,
        }
    )
    def test_matches_dense_oracle_bit_for_bit(self, case):
        """The draw is the oracle's, error by error, at any block size."""
        circuit = case["circuit"]
        _, signature = _noisy_gates(circuit.decompose_swaps(), case["noise"])
        drawn = _draw_events(
            signature, circuit.num_qubits, case["trajectories"], case["seed"],
            case["block_size"],
        )
        _, events = dense_trajectories(**case)
        assert list(zip(*(column.tolist() for column in drawn))) == events


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
        problem, program = lih
        energy = TrajectoryEnergy(
            program, problem.hamiltonian, NOISE, trajectories=32, seed=13
        )
        energy(np.full(program.num_parameters, 0.03))
        events = energy._events
        theta = np.full(program.num_parameters, 0.05)
        value = energy(theta)
        assert energy._events is events

        def fresh(trajectories):
            return TrajectoryEnergy(
                program, problem.hamiltonian, NOISE, trajectories=trajectories, seed=13
            ).values(theta)

        # The kept draw gives what a fresh draw at this theta gives.
        np.testing.assert_array_equal(energy.values(theta), fresh(32))
        assert value == fresh(32).mean()
        assert energy.last_error_events == events[0].size > 0
        # A changed draw key redraws instead of reusing stale events.
        energy.trajectories = 16
        np.testing.assert_array_equal(energy.values(theta), fresh(16))
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
        leaky = basis_state(2) * 0.9  # deliberate norm leak
        with pytest.raises(ValueError, match="not normalized"):
            checked_probabilities(leaky)

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
