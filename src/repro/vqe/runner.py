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

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.ir import PauliProgram
from repro.pauli import PauliSum
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.energy import (
    DensityMatrixEnergy,
    SamplingEnergy,
    StatevectorEnergy,
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


def _statevector_backend(program, hamiltonian, *, noise, shots_per_group, seed):
    _reject_noise("statevector", noise)
    return StatevectorEnergy(program, hamiltonian)


def _density_matrix_backend(program, hamiltonian, *, noise, shots_per_group, seed):
    return DensityMatrixEnergy(program, hamiltonian, noise)


def _trajectory_backend(
    program, hamiltonian, *, noise, shots_per_group, seed, trajectories,
    executor="serial", workers=None,
):
    return TrajectoryEnergy(
        program, hamiltonian, noise, trajectories=trajectories, seed=seed,
        executor=executor, workers=workers,
    )


def _sampling_backend(program, hamiltonian, *, noise, shots_per_group, seed):
    _reject_noise("sampling", noise)
    return SamplingEnergy(
        program, hamiltonian, shots_per_group=shots_per_group, seed=seed
    )


#: Registry of energy-backend factories; keys are the valid ``backend``
#: names for :class:`VQE`.  Extend with :func:`register_backend`.
ENERGY_BACKENDS: dict[str, Callable[..., Any]] = {
    "statevector": _statevector_backend,
    "density_matrix": _density_matrix_backend,
    "trajectory": _trajectory_backend,
    "sampling": _sampling_backend,
}


def available_backends() -> list[str]:
    return sorted(ENERGY_BACKENDS)


def register_backend(
    name: str, factory: Callable[..., Any], *, overwrite: bool = False
) -> None:
    """Register an energy-backend factory under ``name``.

    The factory is called as ``factory(program, hamiltonian, noise=...,
    shots_per_group=..., seed=...)`` and must return a callable mapping
    a parameter vector to a float energy.  Factories that declare a
    ``trajectories``, ``executor``, or ``workers`` keyword (or
    ``**kwargs``) additionally receive the trajectory count and/or the
    scale-out executor knobs; backends that don't use them may simply
    not declare them.  A factory that cannot honor a
    non-trivial ``noise`` model must raise rather than drop it silently.
    """
    if name in ENERGY_BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} already registered")
    ENERGY_BACKENDS[name] = factory


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
    """Variational quantum eigensolver over a Pauli-string program."""

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        *,
        backend: str = "statevector",
        executor: str = "serial",
        workers: int | str | None = None,
        noise: DepolarizingNoiseModel | None = None,
        shots_per_group: int = 4096,
        trajectories: int = 256,
        seed: int | None = 17,
        method: str = "SLSQP",
        max_iterations: int = 200,
        tolerance: float = 1e-8,
    ):
        from repro.sim.trajectory import check_executor

        check_executor(executor)
        try:
            factory = ENERGY_BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown VQE backend {backend!r}; valid backends: "
                f"{', '.join(available_backends())}"
            ) from None
        factory_kwargs: dict[str, Any] = {
            "noise": noise,
            "shots_per_group": shots_per_group,
            "seed": seed,
        }
        # Only hand optional knobs to factories that take them, so
        # backends registered against older signatures keep working.
        factory_params = inspect.signature(factory).parameters
        accepts_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in factory_params.values()
        )
        for knob, value in (
            ("trajectories", trajectories),
            ("executor", executor),
            ("workers", workers),
        ):
            if knob in factory_params or accepts_kwargs:
                factory_kwargs[knob] = value
        self.energy = factory(program, hamiltonian, **factory_kwargs)
        # Decided from the evaluator, not the backend name, so a factory
        # re-registered under any name still gets (or skips) the adjoint.
        self.gradient = (
            AdjointGradient(program, hamiltonian, energy=self.energy)
            if isinstance(self.energy, StatevectorEnergy)
            else None
        )
        self.backend = backend
        self.executor = executor
        self.workers = workers
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
