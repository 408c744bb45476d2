"""VQE driver (Section II-B execution flow).

* :mod:`repro.vqe.energy`      -- energy evaluators: exact statevector
  (Aer-statevector stand-in), exact density matrix with noise
  (Aer-qasm + noise-model stand-in), stochastic Pauli-trajectory noisy
  energies (the unbiased noisy path past 12 qubits), and shot-based
  sampling;
* :mod:`repro.vqe.measurement` -- qubit-wise-commuting measurement
  grouping (the inner loop);
* :mod:`repro.vqe.gradient`    -- the exact adjoint gradient (one
  forward + one backward sweep) of the statevector energy;
* :mod:`repro.vqe.optimizer`   -- SLSQP/COBYLA outer loop [55] with
  iteration accounting and an optional fused value-and-gradient
  objective;
* :mod:`repro.vqe.runner`      -- the VQE object tying them together
  (energy backends; statevector backends use the adjoint gradient,
  the others finite differences);
* :mod:`repro.vqe.scan`        -- bond-length scans (Figure 9 workloads)
  and K-point parameter sweeps (:func:`repro.vqe.scan.sweep_energies`).
"""

from repro.vqe.energy import (
    StatevectorEnergy,
    DensityMatrixEnergy,
    TrajectoryEnergy,
    SamplingEnergy,
)
from repro.vqe.gradient import AdjointGradient
from repro.vqe.measurement import group_commuting_terms, MeasurementGroup
from repro.vqe.optimizer import minimize_energy, OptimizationOutcome
from repro.vqe.runner import VQE, VQEResult
from repro.vqe.scan import bond_scan, ScanPoint, sweep_energies

__all__ = [
    "StatevectorEnergy",
    "DensityMatrixEnergy",
    "TrajectoryEnergy",
    "SamplingEnergy",
    "AdjointGradient",
    "group_commuting_terms",
    "MeasurementGroup",
    "minimize_energy",
    "OptimizationOutcome",
    "VQE",
    "VQEResult",
    "bond_scan",
    "ScanPoint",
    "sweep_energies",
]
