"""Bond-length scans: the Figure 9 / Figure 10 workload driver.

A scan runs VQE for one molecule across bond lengths under a given ansatz
configuration (full UCCSD, compressed at some ratio, or random baseline)
and records simulated energy, error against the exact ground state, and
outer-loop iteration counts.  Each point is a :func:`run_batch` item
through the pipeline's cached stages (BuildProblem -> BuildAnsatz ->
Compress -> Energy), so a warm point finds its ansatz, compression,
statevector plan and exact energy built and only runs the optimizer.
:func:`sweep_energies` evaluates K parameter sets on one evaluator.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass
from functools import partial
from typing import Any, NoReturn, Sequence

import numpy as np

# The pipeline stages build each point; these names stay importable here
# for callers that rebind them (perfbench/tracing.py).
from repro.ansatz.uccsd import build_uccsd_program  # noqa: F401
from repro.chem.hamiltonian import MolecularProblem, build_molecule_hamiltonian  # noqa: F401
from repro.core.compression import compress_ansatz, random_ansatz  # noqa: F401
from repro.core.ir import PauliProgram
from repro.core.passes import BuildAnsatz, BuildProblem, Compress, Energy, PipelineConfig
from repro.core.passes import cache_entry, problem_key
from repro.core.pipeline import BatchItemError, Pipeline, run_batch
from repro.pauli import PauliSum
from repro.sim.exact import Block, Sector, ground_state_energy, restricted_matrix, sector_basis
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.runner import VQE  # noqa: F401


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


#: The ``Energy`` stage metrics a :class:`ScanPoint` reads, in field order.
_SCAN_METRICS = ("energy", "exact_energy", "hf_energy", "iterations", "num_parameters")


def sweep_energies(
    program: PauliProgram,
    hamiltonian: PauliSum,
    parameter_sets: Sequence[Sequence[float]],
) -> np.ndarray:
    """Energies of K parameter sets for one (program, Hamiltonian).

    One :class:`StatevectorEnergy` evaluates the K points in turn;
    returns a float ``(K,)`` array (``(0,)`` for no sets).
    """
    from repro.vqe.energy import StatevectorEnergy

    energy = StatevectorEnergy(program, hamiltonian)
    return np.array([energy(parameters) for parameters in parameter_sets], dtype=float)


def sector_block(key: str, hamiltonian: PauliSum, sector: Sector) -> Block:
    """``restricted_matrix`` over a sector of the problem with entry key ``key``.

    A compile-cache entry, so a problem's exact energy and statevector
    plan share one block.
    """
    build = partial(restricted_matrix, hamiltonian, sector_basis(*sector))
    return cache_entry(("sector-block", key, sector), build)[1]


def exact_energy(problem: MolecularProblem, key: str | None = None) -> float:
    """Exact ground-state energy of a molecular problem, cached.

    Solved over the :func:`sector_block` of the Hartree-Fock
    particle-number sector, which UCCSD conserves
    (:func:`repro.sim.exact.ground_state_energy`), and kept as a
    compile-cache entry under the problem's entry key ``key`` (derived
    from the problem when not given).
    """
    key = problem_key(problem) if key is None else key
    sector = (problem.num_spatial_orbitals, problem.num_alpha, problem.num_beta)

    def solve() -> float:
        block = sector_block(key, problem.hamiltonian, sector)
        return ground_state_energy(problem.hamiltonian, sector=sector, block=block)

    return cache_entry(("exact-energy", key), solve)[1]


def _scan_label(configuration: str) -> tuple[str, str, float]:
    """``(label, compression scheme, ratio)`` of "full", "NN%" or "randNN%"."""
    label = configuration.strip().lower()
    scheme, percent = "importance", label
    if label == "full":
        scheme, percent = "none", "100%"
    elif label.startswith("rand"):
        scheme, percent = "random", label[4:]
    if not percent.endswith("%"):
        raise ValueError(f"unknown configuration {configuration!r}")
    return label, scheme, float(percent[:-1]) / 100.0


def _scan_pipeline(config: PipelineConfig, **energy: Any) -> Pipeline:
    """BuildProblem -> BuildAnsatz -> Compress -> Energy; "full" skips Compress."""
    compress = [] if config.compression == "none" else [Compress()]
    return Pipeline(config, [BuildProblem(), BuildAnsatz(), *compress, Energy(**energy)])


def _raise(error: BatchItemError) -> NoReturn:
    """Raise a failed point's error again, as its builtin type where it has one."""
    kind = getattr(builtins, error.error_type, None)
    if not (isinstance(kind, type) and issubclass(kind, Exception)):
        kind = RuntimeError
    raise kind(str(error))


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

    Every (bond length, configuration) point is one :func:`run_batch`
    item, so ``executor``/``workers`` fan the grid over its process
    pool, and results are identical point for point across executors
    and worker counts (each VQE run is deterministic given its knobs).
    A failed point raises its error again.
    """
    labels = [_scan_label(configuration) for configuration in configurations]
    grid = [(bond, label) for bond in bond_lengths for label in labels]
    configs = [
        PipelineConfig(
            molecule=molecule, bond_length=bond, ratio=ratio, compression=scheme,
            seed=seed, trajectories=trajectories, label=f"{molecule}@{bond} {label}",
        )
        for bond, (label, scheme, ratio) in grid
    ]
    factory = partial(_scan_pipeline, backend=backend, noise=noise, max_iterations=max_iterations)
    results = run_batch(configs, executor=executor, workers=workers, pipeline_factory=factory)
    points = []
    for (bond, (label, _, _)), result in zip(grid, results):
        if isinstance(result, BatchItemError):
            _raise(result)
        values = (result.metrics[name] for name in _SCAN_METRICS)
        points.append(ScanPoint(molecule, bond, label, *values))
    return points
