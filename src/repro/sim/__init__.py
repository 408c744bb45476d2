"""Simulation substrate.

* :mod:`repro.sim.statevector` -- gate-level statevector kernels on
  in-place index slices (the stand-in for Qiskit Aer's statevector
  simulator): circuits run gate by gate on one state or a ``(K, 2**n)``
  stack.
* :mod:`repro.sim.pauli_evolution` -- fast application of ``exp(i theta P)``
  directly to statevectors (the workhorse of the VQE energy loop): the
  fused evolution that turns each run of adjacent same-X-mask strings
  into one rotation, and the out-of-place per-term oracle.
* :mod:`repro.sim.expectation` -- grouped Pauli-sum expectation values
  (single states and ``(K, 2**n)`` stacks).
* :mod:`repro.sim.channel_plan` -- depolarizing noise on a
  chain-synthesized Pauli program, pushed to string boundaries once: the
  exact noisy state as real Pauli coefficients evolved string by string
  (O(4^n), capped at 12 qubits; the stand-in for Aer's qasm simulator +
  noise model), and trajectory errors as negated angles plus one final
  Pauli.
* :mod:`repro.sim.trajectory` -- stochastic Pauli-trajectory unraveling
  of the same channels: K trajectories give an unbiased estimate of the
  density-matrix result, evolved as one clean row plus the d rows that
  draw an error, O((1+d)*2^n) per call plus the event draw (the path
  past 12 qubits for noisy studies).
* :mod:`repro.sim.exact` -- exact ground-state solver ("Ground State"
  reference curves in Figure 9): in a particle-number sector built
  from the Pauli keys when the caller names one (molecules), else
  matrix-free Lanczos over all ``2**n`` states.

The input's type picks the path (``docs/performance.md``): a Pauli
program evolves one fused rotation per same-X-mask run, one parameter
set at a time, over its reference state's particle-number sector when
every run keeps it (:class:`repro.vqe.energy.StatevectorEnergy`); a
noisy Pauli program runs on a channel plan
(:class:`~repro.vqe.energy.DensityMatrixEnergy`,
:class:`~repro.vqe.energy.TrajectoryEnergy`); a circuit runs gate by
gate through the in-place kernels.  The gate-level noisy references
(a dense density matrix, dense trajectories) live in the tests'
oracles (``tests/dense_oracle.py``).

Every simulation path runs on NumPy arrays in one process; only
:func:`repro.core.pipeline.run_batch` fans work (whole pipeline configs)
out over a process pool.
"""

from repro.sim.statevector import (
    apply_circuit,
    apply_circuit_inplace,
    apply_gate_inplace,
    basis_state,
    checked_probabilities,
)
from repro.sim.pauli_evolution import (
    apply_pauli,
    apply_pauli_exponential,
)
from repro.sim.expectation import ExpectationEngine, expectation
from repro.sim.exact import ground_state_energy
from repro.sim.noise import DepolarizingNoiseModel

__all__ = [
    "DepolarizingNoiseModel",
    "ExpectationEngine",
    "basis_state",
    "checked_probabilities",
    "apply_circuit",
    "apply_circuit_inplace",
    "apply_gate_inplace",
    "apply_pauli",
    "apply_pauli_exponential",
    "expectation",
    "ground_state_energy",
]
