"""Simulation substrate.

* :mod:`repro.sim.statevector` -- gate-level statevector simulator on
  in-place index-slice kernels (the stand-in for Qiskit Aer's
  statevector simulator).
* :mod:`repro.sim.pauli_evolution` -- fast application of ``exp(i theta P)``
  directly to statevectors (the workhorse of the VQE energy loop),
  including the allocation-free workspace of the single-point path.
* :mod:`repro.sim.expectation` -- grouped Pauli-sum expectation values
  (single states, ``(K, 2**n)`` stacks and density matrices).
* :mod:`repro.sim.density_matrix` -- exact density-matrix simulator with
  noise channels (the stand-in for Aer's qasm simulator + noise model);
  vec(rho) on the statevector kernels, O(4^n), capped at 12 qubits.
* :mod:`repro.sim.trajectory` -- stochastic Pauli-trajectory unraveling
  of the same depolarizing channels: K statevector trajectories give an
  unbiased estimate of the density-matrix result, evolved as one clean
  row plus the d rows that draw an error, O(T*(1+d)*2^n) plus the event
  draw (the path past 12 qubits for noisy studies).
* :mod:`repro.sim.exact` -- exact ground-state solver ("Ground State"
  reference curves in Figure 9): in a particle-number sector built
  from the Pauli keys when the caller names one (molecules), else
  matrix-free Lanczos over all ``2**n`` states.

The input's type picks the path (``docs/performance.md``): a Pauli
program evolves term by term, one parameter set at a time
(:class:`repro.vqe.energy.StatevectorEnergy`); a circuit runs gate by
gate through the in-place kernels, which broadcast over the leading
axis of a ``(K, 2**n)`` stack of states.

Every path runs on NumPy arrays in one process unless the
``executor=``/``workers=`` knobs (:data:`repro.sim.trajectory.EXECUTORS`:
``"serial"`` or ``"process"``) fan the work out over a process pool.
The trajectory engine's pool is the one that maps its big constant --
the observable's grouped diagonals -- from a shared-memory segment
(:class:`repro.core.shm.SharedSlabs`) instead of pickling it per chunk;
``workers=None``/``"auto"`` means the CPUs this process may run on.
"""

from repro.sim.statevector import (
    StatevectorSimulator,
    apply_circuit,
    apply_circuit_inplace,
    apply_gate_inplace,
    apply_unitary_inplace,
    basis_state,
    checked_probabilities,
)
from repro.sim.trajectory import (
    EXECUTORS,
    TrajectoryEstimate,
    check_executor,
    resolve_workers,
    trajectory_estimate,
    trajectory_expectations,
)
from repro.sim.pauli_evolution import (
    PauliEvolutionWorkspace,
    apply_pauli,
    apply_pauli_exponential,
)
from repro.sim.expectation import ExpectationEngine, expectation
from repro.sim.exact import ground_state_energy
from repro.sim.density_matrix import DensityMatrixSimulator
from repro.sim.noise import DepolarizingNoiseModel

__all__ = [
    "EXECUTORS",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "DepolarizingNoiseModel",
    "ExpectationEngine",
    "PauliEvolutionWorkspace",
    "TrajectoryEstimate",
    "trajectory_estimate",
    "trajectory_expectations",
    "basis_state",
    "checked_probabilities",
    "apply_circuit",
    "apply_circuit_inplace",
    "apply_gate_inplace",
    "apply_unitary_inplace",
    "apply_pauli",
    "apply_pauli_exponential",
    "check_executor",
    "expectation",
    "ground_state_energy",
    "resolve_workers",
]
