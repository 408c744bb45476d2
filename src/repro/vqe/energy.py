"""Energy evaluators: E(theta) = <psi(theta)| H |psi(theta)>.

Four backends mirror the paper's experimental setups:

* :class:`StatevectorEnergy` -- exact, fast (Pauli-level ansatz evolution
  in the reference state's particle-number sector when the program
  keeps it, as UCCSD does, against the Hamiltonian's block there; all
  ``2**n`` amplitudes and the grouped expectation engine otherwise);
  the "noise-free simulations ... with Qiskit Aer statevector
  simulator".
* :class:`DensityMatrixEnergy` -- exact open-system energy of the
  chain-synthesized circuit with depolarizing channels; the "noisy
  simulations ... with Qiskit Aer qasm simulator" (Figure 10).  The
  state is held as its ``4**n`` real Pauli coefficients and each string
  is a few broadcast passes over them (:mod:`repro.sim.channel_plan`):
  O(S * 4^n) per call for S non-identity strings, capped at 12 qubits.
* :class:`TrajectoryEnergy` -- the same depolarizing channels unraveled
  into K stochastic Pauli trajectories (:mod:`repro.sim.trajectory`):
  an unbiased estimate of the density-matrix energy.  Each of the d
  rows that draw an error is the Pauli program with some angles negated
  and one error Pauli at the end, so a call costs (1 + d) Pauli-level
  evolutions and readouts over ``2**n`` amplitudes, plus the event
  draw; the noisy path past 12 qubits (Figure 10 on BH3/NH3/CH4).
* :class:`SamplingEnergy` -- finite-shot estimation with qubit-wise
  commuting measurement grouping (the realistic inner loop).
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.bits import popcount
from repro.core.ir import PauliProgram
from repro.core.seeding import seeded_rng
from repro.pauli import PauliString, PauliSum
from repro.sim.channel_plan import _MAX_QUBITS
from repro.sim.exact import Block, Sector, restricted_matrix, sector_basis
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel
from repro.sim.pauli_evolution import FusedPauliEvolution, evolve_pauli_sequence
from repro.sim.statevector import basis_state, checked_probabilities
from repro.vqe.measurement import MeasurementGroup, group_commuting_terms


def _reference_index(program: PauliProgram) -> int:
    index = 0
    for qubit in program.initial_occupations:
        index |= 1 << qubit
    return index


def _initial_state(program: PauliProgram) -> np.ndarray:
    return basis_state(program.num_qubits, _reference_index(program))


def _reference_sector(program: PauliProgram) -> Sector | None:
    """The particle-number sector of the program's reference state.

    ``(n/2, N_alpha, N_beta)`` in the blocked spin order of
    :meth:`~repro.chem.hamiltonian.MolecularProblem.hartree_fock_occupations`
    (alpha on qubits ``0..n/2-1``, beta above); None for odd n.
    """
    if program.num_qubits % 2:
        return None
    orbitals = program.num_qubits // 2
    index = _reference_index(program)
    alpha = (index & ((1 << orbitals) - 1)).bit_count()
    return orbitals, alpha, (index >> orbitals).bit_count()


class _BlockEngine:
    """A Hamiltonian block over the evolved basis, with
    :class:`ExpectationEngine`'s ``apply``/``value``.

    A real block multiplies the real and imaginary parts of a state as
    the two columns of one float array, never a complex copy of itself.
    """

    def __init__(self, matrix: csr_matrix) -> None:
        self.matrix = matrix
        self._real = not np.iscomplexobj(matrix.data)

    def apply(self, state: np.ndarray) -> np.ndarray:
        if self._real:
            columns = state.view(np.float64).reshape(-1, 2)
            return (self.matrix @ columns).view(complex).ravel()
        return self.matrix @ state

    def value(self, state: np.ndarray) -> float:
        return float(np.vdot(state, self.apply(state)).real)


class _TermAngles:
    """The bound angle ``theta[k_j] * c_j`` of every term of a program."""

    def __init__(self, program: PauliProgram) -> None:
        self.program = program
        self._coefficients = np.array([term.coefficient for term in program], dtype=float)
        self._parameter_indices = np.array(
            [term.parameter_index for term in program], dtype=np.intp
        )

    def angles(self, parameters: Sequence[float]) -> np.ndarray:
        """The bound angle ``theta[k_j] * c_j`` of every program term."""
        values = np.asarray(parameters, dtype=float)
        if values.shape != (self.program.num_parameters,):
            raise ValueError(
                f"expected {self.program.num_parameters} parameters, got {values.shape}"
            )
        return values[self._parameter_indices] * self._coefficients


class StatevectorPlan(NamedTuple):
    """The angle-independent part of a :class:`StatevectorEnergy`.

    Evaluators built on one plan share its scratch buffers, so they must
    not run at the same time in different threads.
    """

    evolution: FusedPauliEvolution
    engine: ExpectationEngine | _BlockEngine  # H over the evolved amplitudes
    reference: np.ndarray  # read-only initial basis state, over those amplitudes


def statevector_plan(
    program: PauliProgram, hamiltonian: PauliSum, block: Callable[[Sector], Block] | None = None
) -> StatevectorPlan:
    """The angle-independent part of the energy of ``program`` under ``hamiltonian``.

    When every run keeps the particle-number sector of the reference
    state for all parameter values (:meth:`FusedPauliEvolution.closed_under`),
    as UCCSD's excitations do, the plan evolves only the amplitudes of
    that sector (225 of 4096 on H2O, ``evolution.dimension``) against
    the Hamiltonian's block over them: ``block(sector)`` (e.g. cached)
    or :func:`~repro.sim.exact.restricted_matrix`.  The state never
    leaves the sector, so the block is exact even for a Hamiltonian that
    does not conserve it.  Any other program (odd n, QAOA, an
    interleaved spin order) evolves all ``2**n`` amplitudes under the
    grouped :class:`ExpectationEngine`.  Both give the same energy, so
    there is nothing to choose.
    """
    num_qubits, paulis, terms = program.num_qubits, program.paulis(), _TermAngles(program)
    index, sector = _reference_index(program), _reference_sector(program)
    if sector is not None:
        basis = sector_basis(*sector)
        evolution = FusedPauliEvolution(num_qubits, paulis, basis=basis)
        if evolution.closed_under(terms._parameter_indices, terms._coefficients):
            built = restricted_matrix(hamiltonian, basis) if block is None else block(sector)
            reference = np.zeros(basis.size, dtype=complex)
            reference[np.searchsorted(basis, np.uint64(index))] = 1.0
            reference.flags.writeable = False
            return StatevectorPlan(evolution, _BlockEngine(built[0]), reference)
    reference = basis_state(num_qubits, index)
    reference.flags.writeable = False
    full = FusedPauliEvolution(num_qubits, paulis)
    return StatevectorPlan(full, ExpectationEngine(hamiltonian), reference)


class StatevectorEnergy(_TermAngles):
    """Exact noise-free energy of a Pauli program.

    The program evolves at the Pauli level, one fused rotation per run
    of adjacent same-X-mask strings (:class:`FusedPauliEvolution`, see
    ``docs/performance.md``), on a preallocated buffer, over the
    amplitudes its :func:`statevector_plan` picks.  A given ``plan`` of
    the same program and Hamiltonian is shared, not rebuilt; the
    evaluator still gets its own buffer and evaluation count.
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        plan: StatevectorPlan | None = None,
    ):
        if program.num_qubits != hamiltonian.num_qubits:
            raise ValueError("program and Hamiltonian sizes differ")
        super().__init__(program)
        self.hamiltonian = hamiltonian
        self.evolution, self.engine, self.reference = plan or statevector_plan(program, hamiltonian)
        self._buffer: np.ndarray | None = None
        self.evaluations = 0

    def parameter_gradient(self, angle_gradient: np.ndarray) -> np.ndarray:
        """``dE/dtheta`` from ``dE/da`` of every term (the transpose of :meth:`angles`)."""
        gradient = np.bincount(
            self._parameter_indices,
            weights=self._coefficients * angle_gradient,
            minlength=self.program.num_parameters,
        )
        # bincount returns integers when there are no terms at all.
        return gradient.astype(float, copy=False)

    def _evolve(self, parameters: Sequence[float]) -> np.ndarray:
        """The evolved amplitudes, in an internal buffer."""
        angles = self.angles(parameters)
        if self._buffer is None:
            self._buffer = np.empty_like(self.reference)
        np.copyto(self._buffer, self.reference)
        return self.evolution.evolve(angles, self._buffer)

    def state(self, parameters: Sequence[float]) -> np.ndarray:
        """The ansatz state ``|psi(theta)>`` over all ``2**n`` basis states.

        A full-space plan returns a view of an internal buffer that is
        overwritten by the next evaluation; copy it to keep it.
        """
        amplitudes = self._evolve(parameters)
        basis = self.evolution.basis
        if basis is None:
            return amplitudes
        state = np.zeros(1 << self.program.num_qubits, dtype=complex)
        state[basis] = amplitudes
        return state

    def __call__(self, parameters: Sequence[float]) -> float:
        self.evaluations += 1
        return self.engine.value(self._evolve(parameters))


class DensityMatrixEnergy(_TermAngles):
    """Exact noisy energy of the chain-synthesized circuit.

    Equal to ``Tr(rho H)`` for the density matrix rho of
    ``synthesize_program_chain(program, theta)`` run gate by gate under
    ``noise`` (the dense oracle of ``tests/test_channel_plan.py``),
    without building rho: the angle-independent :class:`~repro.sim.channel_plan.ChannelPlan` pushes
    every channel to a string boundary once, and each call evolves the
    ``4**n`` real Pauli coefficients of rho string by string
    (:class:`~repro.sim.channel_plan.PauliTransferEvolution`) and reads
    ``sum_Q h_Q Tr(rho Q)``.  Cost per call: a few passes over the
    ``4**n`` coefficients per non-identity string, plus the tables of
    strings too wide to keep (4**w each).  Capped at 12 qubits.
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        noise: DepolarizingNoiseModel | None = None,
    ):
        from repro.sim.channel_plan import ChannelPlan, PauliTransferEvolution

        if program.num_qubits != hamiltonian.num_qubits:
            raise ValueError("program and Hamiltonian sizes differ")
        if program.num_qubits > _MAX_QUBITS:
            raise ValueError(
                f"density-matrix simulation capped at {_MAX_QUBITS} qubits "
                f"(requested {program.num_qubits})"
            )
        super().__init__(program)
        self.hamiltonian = hamiltonian
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=1e-4)
        self.plan = ChannelPlan(program, self.noise)
        self.evolution = PauliTransferEvolution(self.plan)
        self._positions, self._weights = self.evolution.coefficient_index(hamiltonian)
        self.evaluations = 0

    def __call__(self, parameters: Sequence[float]) -> float:
        self.evaluations += 1
        coefficients = self.evolution.evolve(self.angles(parameters))
        return float(self._weights @ coefficients[self._positions])


class TrajectoryEnergy(_TermAngles):
    """Noisy energy by stochastic Pauli-trajectory averaging.

    Unbiased estimator of the :class:`DensityMatrixEnergy` result, and the
    only noisy backend that scales past the density-matrix 12-qubit cap.
    Every error of the chain-synthesized circuit's noisy gates is drawn
    up front (:func:`~repro.sim.trajectory._draw_events`: the same events,
    and per-row values to rounding, as the dense gate-by-gate oracle of
    ``tests/test_channel_plan.py``), and every row runs at the Pauli
    level: the :class:`~repro.sim.channel_plan.ChannelPlan` pushes each drawn error
    Pauli E to a string boundary and then past every later string,
    ``E exp(i a P) = exp(-+i a P) E``.  A row with errors is the clean
    program with the angles of the strings its errors anticommute with
    negated, one :class:`FusedPauliEvolution` over ``2**n`` amplitudes,
    then the product of its E's and the readout; rows without an error
    read the clean row's value.  Cost per call: (1 + d) evolutions and
    readouts for d rows with an error, plus the draw when it is not
    reused.  After each call, :attr:`last_standard_error` /
    :attr:`last_error_events` report the Monte-Carlo error bar and the
    number of injected error Paulis.

    With the default ``common_randomness=True`` (and a non-``None``
    seed), every evaluation reuses the same noise realizations, making
    ``E(theta)`` a deterministic function the outer-loop optimizer can
    minimize (the classic common-random-numbers smoothing; the estimate
    stays unbiased over the seed distribution): the error events, and
    each row's angle signs and final Pauli, are drawn and derived once.
    Set it to ``False`` for fresh realizations per call (independent
    error bars).
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        noise: DepolarizingNoiseModel | None = None,
        *,
        trajectories: int = 256,
        seed: int | None = 17,
        common_randomness: bool = True,
    ):
        from repro.sim.channel_plan import ChannelPlan

        if program.num_qubits != hamiltonian.num_qubits:
            raise ValueError("program and Hamiltonian sizes differ")
        if (
            not isinstance(trajectories, numbers.Integral)
            or isinstance(trajectories, bool)
            or trajectories < 1
        ):
            raise ValueError(f"trajectories must be an int of at least 1, got {trajectories!r}")
        super().__init__(program)
        self.hamiltonian = hamiltonian
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=1e-4)
        self.trajectories = int(trajectories)
        self.common_randomness = common_randomness
        self.engine = ExpectationEngine(hamiltonian)
        self.plan = ChannelPlan(program, self.noise)
        self.evolution = FusedPauliEvolution(program.num_qubits, program.paulis())
        self.reference = _initial_state(program)
        self._seed = seed
        self._seeds = np.random.SeedSequence(seed) if seed is not None else None
        self.evaluations = 0
        self.last_standard_error = float("nan")
        self.last_error_events = 0
        # Common random numbers redraw the same errors on every call, so
        # the draw and its rows are kept while the draw key stays the same.
        self._key: tuple | None = None
        self._events: tuple[np.ndarray, ...] | None = None
        self._rows = None

    def _next_seed(self):
        if self._seeds is None:
            return None
        if self.common_randomness:
            return self._seed
        return self._seeds.spawn(1)[0]

    def _draw(self):
        """The error events and the rows they make (reused under CRN)."""
        from repro.sim.trajectory import _draw_events, _error_rows

        key = (self.plan.signature, self.trajectories)
        if self._events is not None and self._key == key:
            return self._events, self._rows
        events = _draw_events(
            self.plan.signature, self.program.num_qubits, self.trajectories,
            self._next_seed(),
        )
        rows = _error_rows(self.plan, *events)
        if self.common_randomness and self._seed is not None:
            self._key, self._events, self._rows = key, events, rows
        return events, rows

    def _evaluate(self, parameters: Sequence[float]):
        from repro.sim.trajectory import _pauli_row_values

        angles = self.angles(parameters)
        events, rows = self._draw()
        values = _pauli_row_values(
            self.evolution, self.engine, self.reference, angles, rows,
            self.trajectories,
        )
        return values, events

    def values(self, parameters: Sequence[float]) -> np.ndarray:
        """Per-trajectory energies, shape ``(K,)``."""
        return self._evaluate(parameters)[0]

    def __call__(self, parameters: Sequence[float]) -> float:
        self.evaluations += 1
        values, events = self._evaluate(parameters)
        count = values.size
        self.last_standard_error = (
            float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else float("nan")
        )
        self.last_error_events = events[0].size  # one entry per drawn error
        return float(values.mean())


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
        if program.num_qubits != hamiltonian.num_qubits:
            raise ValueError("program and Hamiltonian sizes differ")
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
            # evolution bug -- surface it instead of renormalizing.
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
