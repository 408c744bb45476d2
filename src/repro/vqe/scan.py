"""Bond-length scans: the Figure 9 / Figure 10 workload driver.

A scan runs VQE for one molecule across bond lengths under a given ansatz
configuration (full UCCSD, compressed at some ratio, or random baseline)
and records simulated energy, error against the exact ground state, and
outer-loop iteration counts.

Every inner-loop energy evaluation evolves the Pauli program term by
term (see ``docs/performance.md``), and :func:`sweep_energies` exposes
the blocked sweep directly: K parameter sets stacked into
``(K, 2**n)`` blocks that evolve per term in one vectorized NumPy call
-- the primitive behind energy landscapes, multi-start screening, and
the ``BENCH_sim.json`` speedup benchmark.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.ansatz.uccsd import build_uccsd_program
from repro.chem.hamiltonian import build_molecule_hamiltonian
from repro.core.compression import compress_ansatz, random_ansatz
from repro.core.ir import PauliProgram
from repro.pauli import PauliSum
from repro.sim.exact import ground_state_energy
from repro.sim.noise import DepolarizingNoiseModel
from repro.sim.trajectory import check_executor, resolve_workers
from repro.vqe.runner import VQE


@dataclass
class ScanPoint:
    """One (molecule, bond length, configuration) VQE result."""

    molecule: str
    bond_length: float
    configuration: str
    energy: float
    exact_energy: float
    hf_energy: float
    iterations: int
    num_parameters: int

    @property
    def error(self) -> float:
        return self.energy - self.exact_energy

    @property
    def relative_error(self) -> float:
        return abs(self.error / self.exact_energy)


def _configure_program(
    program: PauliProgram,
    hamiltonian,
    configuration: str,
    seed: int,
) -> tuple[PauliProgram, str]:
    """Resolve a configuration label into a concrete program.

    Labels: "full", "NN%" (compression ratio), "randNN%" (random subset).
    """
    label = configuration.strip().lower()
    if label == "full":
        return program, "full"
    if label.startswith("rand") and label.endswith("%"):
        ratio = float(label[4:-1]) / 100.0
        return random_ansatz(program, ratio, seed=seed).program, label
    if label.endswith("%"):
        ratio = float(label[:-1]) / 100.0
        return compress_ansatz(program, hamiltonian, ratio).program, label
    raise ValueError(f"unknown configuration {configuration!r}")


def sweep_energies(
    program: PauliProgram,
    hamiltonian: PauliSum,
    parameter_sets: Sequence[Sequence[float]],
) -> np.ndarray:
    """Energies of K parameter sets for one (program, Hamiltonian).

    The K points are stacked into cache-sized ``(K, 2**n)`` blocks and
    every ansatz term is applied to all rows of a block in one
    vectorized call (:meth:`StatevectorEnergy.values`).
    """
    from repro.vqe.energy import StatevectorEnergy

    return StatevectorEnergy(program, hamiltonian).values(
        np.asarray(parameter_sets, dtype=float)
    )


#: Per-process memo of exact ground-state energies keyed by
#: (molecule, bond length): one scan evaluates each bond point under
#: several configurations, and the exact diagonalization is shared
#: (process-pool workers each warm their own copy as tasks arrive).
_EXACT_CACHE: dict[tuple[str, float | None], float] = {}


def _scan_point_task(task: tuple[str, float, str, dict[str, Any]]) -> ScanPoint:
    """Build and solve one (molecule, bond length, configuration) point.

    Module-level (not a closure) so :func:`bond_scan` can hand it to a
    ``ProcessPoolExecutor``; everything it needs travels in the task
    tuple, and the heavyweight inputs (Hamiltonian, exact energy) are
    rebuilt through per-process caches rather than pickled across.
    """
    molecule, bond_length, configuration, options = task
    problem = build_molecule_hamiltonian(molecule, bond_length)
    full_program = build_uccsd_program(problem).program
    key = (molecule, bond_length)
    if key not in _EXACT_CACHE:
        # lint: ignore[RR101] - idempotent memo: racing writers store equal values
        _EXACT_CACHE[key] = ground_state_energy(problem.hamiltonian)
    exact = _EXACT_CACHE[key]
    program, label = _configure_program(
        full_program, problem.hamiltonian, configuration, options["seed"]
    )
    vqe = VQE(
        program,
        problem.hamiltonian,
        backend=options["backend"],
        noise=options["noise"],
        trajectories=options["trajectories"],
        max_iterations=options["max_iterations"],
    )
    result = vqe.run()
    return ScanPoint(
        molecule=molecule,
        bond_length=bond_length,
        configuration=label,
        energy=result.energy,
        exact_energy=exact,
        hf_energy=problem.hf_energy,
        iterations=result.iterations,
        num_parameters=program.num_parameters,
    )


def bond_scan(
    molecule: str,
    bond_lengths: list[float],
    configurations: list[str],
    *,
    backend: str = "statevector",
    noise: DepolarizingNoiseModel | None = None,
    trajectories: int = 256,
    max_iterations: int = 200,
    seed: int = 23,
    executor: str = "serial",
    workers: int | str | None = None,
) -> list[ScanPoint]:
    """Run the VQE sweep the accuracy/convergence figures are built from.

    ``backend="trajectory"`` (with ``noise=`` and ``trajectories=``)
    selects the stochastic Pauli-trajectory noisy path, which is the
    only way to run noisy sweeps on >12-qubit molecules; ``seed`` only
    feeds the configuration randomization (``randNN%`` ansatz subsets).

    ``executor``/``workers`` fan the (bond length, configuration) grid
    over a process pool; every point is an independent module-level
    task, so results are identical point for point across
    ``executor="serial" | "process"`` and any worker count
    (each VQE run is deterministic given its knobs).
    """
    check_executor(executor)
    options: dict[str, Any] = {
        "backend": backend,
        "noise": noise,
        "trajectories": trajectories,
        "max_iterations": max_iterations,
        "seed": seed,
    }
    tasks = [
        (molecule, bond_length, configuration, options)
        for bond_length in bond_lengths
        for configuration in configurations
    ]
    if not tasks:
        return []
    count = resolve_workers(workers, len(tasks))
    if executor == "serial" or count == 1 or len(tasks) == 1:
        return [_scan_point_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(_scan_point_task, tasks))
