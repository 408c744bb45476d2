"""Energy evaluators: E(theta) = <psi(theta)| H |psi(theta)>.

Four backends mirror the paper's experimental setups:

* :class:`StatevectorEnergy` -- exact, fast (Pauli-level ansatz evolution
  plus the grouped expectation engine); the "noise-free simulations ...
  with Qiskit Aer statevector simulator".
* :class:`DensityMatrixEnergy` -- exact open-system propagation of the
  chain-synthesized circuit with depolarizing CNOT noise; the "noisy
  simulations ... with Qiskit Aer qasm simulator" (Figure 10).  O(4^n),
  capped at 12 qubits.
* :class:`TrajectoryEnergy` -- the same depolarizing channel unraveled
  into K stochastic Pauli trajectories (:mod:`repro.sim.trajectory`):
  an unbiased O(K*T*2^n) estimate of the density-matrix energy, the
  noisy path past 12 qubits (Figure 10 on BH3/NH3/CH4).
* :class:`SamplingEnergy` -- finite-shot estimation with qubit-wise
  commuting measurement grouping (the realistic inner loop).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bits import popcount
from repro.core.ir import PauliProgram
from repro.core.seeding import seeded_rng
from repro.pauli import PauliString, PauliSum
from repro.sim.density_matrix import DensityMatrixSimulator
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel
from repro.sim.pauli_evolution import PauliEvolutionWorkspace, evolve_pauli_sequence
from repro.sim.statevector import basis_state, check_engine, checked_probabilities
from repro.vqe.measurement import MeasurementGroup, group_commuting_terms


def _initial_state(program: PauliProgram) -> np.ndarray:
    index = 0
    for qubit in program.initial_occupations:
        index |= 1 << qubit
    return basis_state(program.num_qubits, index)


class StatevectorEnergy:
    """Exact noise-free energy of a Pauli program.

    ``engine`` selects the simulation fast path (see
    ``docs/performance.md``):

    * ``"inplace"`` (default) -- evolves a preallocated buffer with the
      allocation-free workspace kernels; fastest single-point path.
    * ``"batched"`` -- same single-point path, plus :meth:`values`
      evaluates K parameter sets through one ``(K, 2**n)`` stack.
    * ``"fused"`` -- chain-synthesizes the program once into a gate
      template, fuses adjacent gates into dense unitary blocks
      (:mod:`repro.compiler.fusion`; the plan is content-addressed, so
      every evaluation reuses it), and rebinds only the per-term RZ
      angles.  :meth:`values` binds all K rows at once into
      ``(K, 4, 4)`` matrix stacks applied by batched GEMMs -- the
      gate-level sweep fast path.  ``fusion`` selects the fusion level
      (:data:`repro.compiler.fusion.FUSION_LEVELS`) and ``cache`` the
      compile cache (True = global, False = off, or an instance).
    * ``"legacy"`` -- the original out-of-place per-term evolution, kept
      as the reference semantics and benchmark baseline.
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        *,
        engine: str = "inplace",
        fusion: str = "2q",
        cache=True,
    ):
        if program.num_qubits != hamiltonian.num_qubits:
            raise ValueError("program and Hamiltonian sizes differ")
        check_engine(engine)
        if engine == "fused":
            from repro.compiler.fusion import check_fusion_level

            check_fusion_level(fusion)
        self.program = program
        self.hamiltonian = hamiltonian
        self.engine = ExpectationEngine(hamiltonian)
        self.simulation_engine = engine
        self.fusion = fusion
        self.cache = cache
        self._reference = _initial_state(program)
        self._paulis = program.paulis()
        self._workspace: PauliEvolutionWorkspace | None = None
        self._buffer: np.ndarray | None = None
        self._template: tuple | None = None
        self.evaluations = 0

    def _fused_template(self):
        """The chain-synthesized gate template and its RZ positions."""
        if self._template is None:
            from repro.compiler.synthesis import (
                synthesize_program_chain_with_positions,
            )

            self._template = synthesize_program_chain_with_positions(
                self.program, np.zeros(self.program.num_parameters)
            )
        return self._template

    def _fused_stack(self, parameter_sets: np.ndarray) -> np.ndarray:
        """Evolve K parameter rows through the fused template at once."""
        from repro.compiler.fusion import fusion_plan

        circuit, positions = self._fused_template()
        bound = self.program.bound_angles(parameter_sets)
        # Chain synthesis realizes exp(i a P) with RZ(-2a) on the root.
        overrides = {
            position: -2.0 * bound[:, term]
            for term, position in enumerate(positions)
            if position is not None
        }
        plan = fusion_plan(circuit, level=self.fusion, cache=self.cache)
        fused = plan.bind_sweep(circuit, overrides)
        stack = np.zeros((len(parameter_sets), self._reference.shape[0]), dtype=complex)
        stack[:, 0] = 1.0  # the template includes the Hartree-Fock X gates
        return fused.apply(stack)

    def state(self, parameters: Sequence[float]) -> np.ndarray:
        """The ansatz state ``|psi(theta)>``.

        The fast engines return a view of an internal buffer that is
        overwritten by the next evaluation; copy it to keep it.
        """
        if self.simulation_engine == "fused":
            return self._fused_stack(
                np.asarray(parameters, dtype=float).reshape(1, -1)
            )[0]
        bound = self.program.bound_terms(parameters)
        if self.simulation_engine == "legacy":
            return evolve_pauli_sequence(bound, self._reference)
        if self._buffer is None:
            self._buffer = np.empty_like(self._reference)
            self._workspace = PauliEvolutionWorkspace(self._reference.shape)
        np.copyto(self._buffer, self._reference)
        angles = np.array([angle for _, angle in bound], dtype=float)
        return self._workspace.evolve_inplace(self._paulis, angles, self._buffer)

    #: Rows per batched block.  Each block keeps ``block x 2**n`` state
    #: plus one scratch buffer resident; 8 rows at 12 qubits is ~1 MiB,
    #: inside L2 on commodity cores -- larger stacks go memory-bound and
    #: lose the vectorization win (measured in ``BENCH_sim.json``).
    batch_block_size = 8

    def values(self, parameter_sets: Sequence[Sequence[float]]) -> np.ndarray:
        """Energies of K parameter sets, shape ``(K,)``.

        Under the ``"batched"`` engine the points evolve per gate in
        vectorized cache-sized blocks (see :attr:`batch_block_size`);
        the other engines fall back to a sequential loop (the baseline
        the ``BENCH_sim.json`` speedup is measured against).
        """
        parameter_sets = np.asarray(parameter_sets, dtype=float)
        if self.simulation_engine == "fused":
            self.evaluations += len(parameter_sets)
            return self.engine.values(self._fused_stack(parameter_sets))
        if self.simulation_engine != "batched":
            return np.array([self(theta) for theta in parameter_sets])
        from repro.sim.batched import sweep_expectations

        self.evaluations += len(parameter_sets)
        return sweep_expectations(
            self._paulis,
            self.program.bound_angles(parameter_sets),
            self._reference,
            self.engine,
            block_size=self.batch_block_size,
        )

    def __call__(self, parameters: Sequence[float]) -> float:
        self.evaluations += 1
        return self.engine.value(self.state(parameters))


class DensityMatrixEnergy:
    """Exact noisy energy: gate-level circuit + depolarizing channels."""

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        noise: DepolarizingNoiseModel | None = None,
    ):
        from repro.compiler.synthesis import synthesize_program_chain

        self.program = program
        self.hamiltonian = hamiltonian
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=1e-4)
        self._synthesize = synthesize_program_chain
        self._observable_matrix = hamiltonian.to_matrix()
        self.evaluations = 0

    def __call__(self, parameters: Sequence[float]) -> float:
        self.evaluations += 1
        circuit = self._synthesize(self.program, parameters)
        simulator = DensityMatrixSimulator(self.program.num_qubits, self.noise)
        simulator.run(circuit)
        return simulator.expectation_matrix(self._observable_matrix)


class TrajectoryEnergy:
    """Noisy energy by stochastic Pauli-trajectory averaging.

    Unbiased estimator of the :class:`DensityMatrixEnergy` result at
    O(K*T*2^n) instead of O(4^n) -- the only noisy backend that scales
    past the density-matrix simulator's 12-qubit cap.  After each call,
    :attr:`last_standard_error` / :attr:`last_error_events` report the
    Monte-Carlo error bar and the number of injected error Paulis.

    With the default ``common_randomness=True`` (and a non-``None``
    seed), every evaluation reuses the same noise realizations, making
    ``E(theta)`` a deterministic function the outer-loop optimizer can
    minimize (the classic common-random-numbers smoothing; the estimate
    stays unbiased over the seed distribution).  Set it to ``False`` for
    fresh realizations per call (independent error bars).
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        noise: DepolarizingNoiseModel | None = None,
        *,
        trajectories: int = 256,
        seed: int | None = 17,
        block_size: int | None = None,
        common_randomness: bool = True,
        executor: str = "serial",
        workers: "int | str | None" = None,
    ):
        from repro.compiler.synthesis import synthesize_program_chain
        from repro.sim.trajectory import DEFAULT_BLOCK_SIZE, check_executor

        if program.num_qubits != hamiltonian.num_qubits:
            raise ValueError("program and Hamiltonian sizes differ")
        self.program = program
        self.hamiltonian = hamiltonian
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=1e-4)
        self.trajectories = trajectories
        self.block_size = block_size or DEFAULT_BLOCK_SIZE
        self.common_randomness = common_randomness
        self.executor = check_executor(executor)
        self.workers = workers
        self.engine = ExpectationEngine(hamiltonian)
        self._synthesize = synthesize_program_chain
        self._seed = seed
        self._seeds = np.random.SeedSequence(seed) if seed is not None else None
        self.evaluations = 0
        self.last_standard_error = float("nan")
        self.last_error_events = 0

    def _next_seed(self):
        if self._seeds is None:
            return None
        if self.common_randomness:
            return self._seed
        return self._seeds.spawn(1)[0]

    def __call__(self, parameters: Sequence[float]) -> float:
        from repro.sim.trajectory import trajectory_estimate

        self.evaluations += 1
        circuit = self._synthesize(self.program, parameters)
        estimate = trajectory_estimate(
            circuit,
            self.engine,
            self.noise,
            trajectories=self.trajectories,
            seed=self._next_seed(),
            block_size=self.block_size,
            executor=self.executor,
            workers=self.workers,
        )
        self.last_standard_error = estimate.standard_error
        self.last_error_events = estimate.error_events
        return estimate.value


class SamplingEnergy:
    """Finite-shot energy with qubit-wise-commuting grouping.

    Each group is measured in a common basis: the basis-change layer from
    the group's "witness" string is appended and the group's terms are
    estimated from the sampled bitstrings' parities.
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        shots_per_group: int = 4096,
        seed: int | None = 17,
    ):
        self.program = program
        self.hamiltonian = hamiltonian
        self.shots_per_group = shots_per_group
        self.groups: list[MeasurementGroup] = group_commuting_terms(hamiltonian)
        self._reference = _initial_state(program)
        self._rng = seeded_rng(seed)
        self.evaluations = 0

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def __call__(self, parameters: Sequence[float]) -> float:
        self.evaluations += 1
        state = evolve_pauli_sequence(
            self.program.bound_terms(parameters), self._reference
        )
        total = 0.0
        for group in self.groups:
            if group.is_identity_group():
                total += sum(c.real for c, _ in group.terms)
                continue
            rotated = self._rotate(state, group.witness)
            # Basis changes are unitary, so a norm leak here is an
            # evolution bug -- surface it (shared check with
            # StatevectorSimulator.sample) instead of renormalizing.
            probabilities = checked_probabilities(
                rotated, context="rotated measurement state"
            )
            samples = self._rng.choice(
                len(probabilities), size=self.shots_per_group, p=probabilities
            )
            for coefficient, pauli in group.terms:
                if pauli.is_identity():
                    total += coefficient.real
                    continue
                mask = np.uint64(pauli.support_mask)
                parities = popcount(samples.astype(np.uint64) & mask) & 1
                expectation = 1.0 - 2.0 * parities.mean()
                total += coefficient.real * float(expectation)
        return total

    @staticmethod
    def _rotate(state: np.ndarray, witness: PauliString) -> np.ndarray:
        """Apply the basis-change layer diagonalizing the witness string."""
        from repro.circuit import Circuit
        from repro.compiler.synthesis import basis_change_gates
        from repro.sim.statevector import apply_circuit

        circuit = Circuit(witness.num_qubits, basis_change_gates(witness))
        return apply_circuit(circuit, state)
