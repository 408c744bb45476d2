"""The VQE object: ansatz + Hamiltonian + optimizer + backend.

Mirrors the paper's execution flow (Figure 3): the inner loop evaluates
``E(theta)`` through one of the energy backends, the outer loop adjusts
``theta`` with SLSQP, and the reported cost is the number of outer
iterations to convergence.  A :class:`StatevectorEnergy` backend gets
the exact adjoint gradient (one forward and one backward sweep per
Jacobian); every other backend leaves the Jacobian to the optimizer's
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.ir import PauliProgram
from repro.pauli import PauliSum
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.energy import (
    DensityMatrixEnergy,
    SamplingEnergy,
    StatevectorEnergy,
    StatevectorPlan,
    TrajectoryEnergy,
)
from repro.vqe.gradient import AdjointGradient
from repro.vqe.optimizer import OptimizationOutcome, minimize_energy


def _reject_noise(backend: str, noise: DepolarizingNoiseModel | None) -> None:
    """Fail loudly when a noise model would be silently discarded.

    A user "reproducing Figure 10" through a backend that cannot apply
    gate noise must get an error, not noiseless numbers labeled noisy.
    """
    if noise is not None and not noise.is_trivial():
        raise ValueError(
            f"VQE backend {backend!r} cannot apply a noise model, so the "
            "given noise= would be silently ignored; use "
            "backend='trajectory' (unbiased, scales past 12 qubits) or "
            "backend='density_matrix' (exact, <= 12 qubits) for noisy "
            "energies, or pass noise=None"
        )


#: Valid ``backend`` names for :class:`VQE`.
BACKENDS = ("statevector", "density_matrix", "trajectory", "sampling")


@dataclass
class VQEResult:
    """Outcome of one VQE run."""

    energy: float
    parameters: np.ndarray
    iterations: int
    function_evaluations: int
    success: bool
    history: list[float]
    backend: str

    @property
    def hartree_fock_energy(self) -> float:
        """The first evaluated energy (the all-zero Hartree-Fock start).

        NaN when the optimizer recorded no evaluations at all.
        """
        return float(self.history[0]) if len(self.history) > 0 else float("nan")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the run."""
        return {
            "energy": float(self.energy),
            "parameters": [float(p) for p in np.asarray(self.parameters).ravel()],
            "iterations": int(self.iterations),
            "function_evaluations": int(self.function_evaluations),
            "success": bool(self.success),
            "history": [float(e) for e in self.history],
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VQEResult":
        return cls(
            energy=float(data["energy"]),
            parameters=np.asarray(data["parameters"], dtype=float),
            iterations=int(data["iterations"]),
            function_evaluations=int(data["function_evaluations"]),
            success=bool(data["success"]),
            history=[float(e) for e in data["history"]],
            backend=str(data["backend"]),
        )


class VQE:
    """Variational quantum eigensolver over a Pauli-string program.

    ``plan`` is a prebuilt :class:`~repro.vqe.energy.StatevectorPlan`
    of the same program and Hamiltonian for the statevector backend.
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        *,
        backend: str = "statevector",
        noise: DepolarizingNoiseModel | None = None,
        shots_per_group: int = 4096,
        trajectories: int = 256,
        seed: int | None = 17,
        method: str = "SLSQP",
        max_iterations: int = 200,
        tolerance: float = 1e-8,
        plan: StatevectorPlan | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown VQE backend {backend!r}; valid backends: "
                f"{', '.join(BACKENDS)}"
            )
        if plan is not None and backend != "statevector":
            raise ValueError(f"a statevector plan cannot run on backend {backend!r}")
        self.energy: Any
        self.gradient: AdjointGradient | None = None
        if backend == "statevector":
            _reject_noise(backend, noise)
            self.energy = StatevectorEnergy(program, hamiltonian, plan)
            self.gradient = AdjointGradient(program, hamiltonian, energy=self.energy)
        elif backend == "density_matrix":
            self.energy = DensityMatrixEnergy(program, hamiltonian, noise)
        elif backend == "trajectory":
            self.energy = TrajectoryEnergy(
                program, hamiltonian, noise, trajectories=trajectories, seed=seed
            )
        else:
            _reject_noise(backend, noise)
            self.energy = SamplingEnergy(
                program, hamiltonian, shots_per_group=shots_per_group, seed=seed
            )
        self.backend = backend
        self.program = program
        self.hamiltonian = hamiltonian
        self.method = method
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def run(self, initial: Sequence[float] | None = None) -> VQEResult:
        outcome: OptimizationOutcome = minimize_energy(
            self.energy,
            self.program.num_parameters,
            method=self.method,
            initial=initial,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            value_and_gradient=(
                self.gradient.value_and_gradient if self.gradient is not None else None
            ),
        )
        return VQEResult(
            energy=outcome.energy,
            parameters=outcome.parameters,
            iterations=outcome.iterations,
            function_evaluations=outcome.function_evaluations,
            success=outcome.success,
            history=outcome.history,
            backend=self.backend,
        )
