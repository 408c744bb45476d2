"""Simulation substrate.

* :mod:`repro.sim.statevector` -- gate-level statevector simulator with
  in-place index-slice kernels plus the legacy tensordot engine
  (the stand-in for Qiskit Aer's statevector simulator).
* :mod:`repro.sim.batched` -- K statevectors in one ``(K, 2**n)`` array,
  evolved per gate in one vectorized call (parameter sweeps).
* :mod:`repro.sim.pauli_evolution` -- fast application of ``exp(i theta P)``
  directly to statevectors (the workhorse of the VQE energy loop),
  including the allocation-free workspace used by the fast engines.
* :mod:`repro.sim.expectation` -- grouped Pauli-sum expectation values
  (single, batched, and real-arithmetic evaluation).
* :mod:`repro.sim.density_matrix` -- exact density-matrix simulator with
  noise channels (the stand-in for Aer's qasm simulator + noise model);
  O(4^n), capped at 12 qubits.
* :mod:`repro.sim.trajectory` -- stochastic Pauli-trajectory unraveling
  of the same depolarizing channels: K batched statevector trajectories
  give an unbiased O(K*T*2^n) estimate of the density-matrix result
  (the path past 12 qubits for noisy studies).
* :mod:`repro.sim.exact` -- sparse exact ground-state solver ("Ground
  State" reference curves in Figure 9).

Engine selection (``"inplace"`` / ``"batched"`` / ``"fused"`` /
``"legacy"``) is documented in ``docs/performance.md``; the ``"fused"``
engine's dense-block planner lives in :mod:`repro.compiler.fusion`.

Every engine runs on NumPy arrays; scale-out across processes is driven
by the ``executor=``/``workers=`` knobs
(:data:`repro.sim.trajectory.EXECUTORS`).
"""

from repro.sim.statevector import (
    ENGINES,
    StatevectorSimulator,
    apply_circuit,
    apply_circuit_inplace,
    apply_gate_inplace,
    apply_unitary_inplace,
    basis_state,
    check_engine,
    checked_probabilities,
)
from repro.sim.trajectory import (
    EXECUTORS,
    TrajectoryEstimate,
    TrajectorySimulator,
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
from repro.sim.batched import BatchedStatevector
from repro.sim.expectation import ExpectationEngine, expectation
from repro.sim.exact import ground_state_energy
from repro.sim.density_matrix import DensityMatrixSimulator
from repro.sim.noise import DepolarizingNoiseModel

__all__ = [
    "ENGINES",
    "EXECUTORS",
    "StatevectorSimulator",
    "BatchedStatevector",
    "DensityMatrixSimulator",
    "DepolarizingNoiseModel",
    "ExpectationEngine",
    "PauliEvolutionWorkspace",
    "TrajectoryEstimate",
    "TrajectorySimulator",
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
    "check_engine",
    "check_executor",
    "expectation",
    "ground_state_energy",
    "resolve_workers",
]
