"""Figure 10: noisy-simulation case studies.

Depolarizing noise with CNOT error rate 1e-4 (the paper's setting);
sweeps compression ratios and reports energy, error and iterations,
exposing the pruning-vs-noise trade-off the paper discusses (more
parameters help accuracy until gate error masks them).

Two noisy backends drive the sweep.  The exact density-matrix energy
(the paper's LiH/NaH setting) is O(4^n) and capped at 12 qubits; the
stochastic Pauli-trajectory engine (:mod:`repro.sim.trajectory`) is an
unbiased O(K*2^n) estimate of the same channel and extends the study to
BH3/NH3/CH4 (14-16 qubits).  ``backend="auto"`` picks per molecule.
"""

from __future__ import annotations

from repro.bench.fig9 import default_bond_lengths
from repro.chem.molecules import molecule_by_name
from repro.sim.channel_plan import _MAX_QUBITS as _DENSITY_MATRIX_MAX_QUBITS
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.scan import ScanPoint, bond_scan

DEFAULT_CONFIGURATIONS = ["10%", "30%", "50%", "70%", "90%"]
PAPER_CNOT_ERROR = 1e-4


def noisy_backend_for(molecule: str) -> str:
    """The noisy backend ``backend="auto"`` resolves to for a molecule."""
    num_qubits = molecule_by_name(molecule).active_space.num_qubits
    if num_qubits <= _DENSITY_MATRIX_MAX_QUBITS:
        return "density_matrix"
    return "trajectory"


def fig10_data(
    molecules: list[str] | None = None,
    *,
    configurations: list[str] | None = None,
    cnot_error: float = PAPER_CNOT_ERROR,
    backend: str = "auto",
    trajectories: int = 256,
    points_per_molecule: int = 2,
    max_iterations: int = 60,
) -> list[ScanPoint]:
    """Noisy VQE sweep (defaults match the paper's case studies).

    ``backend`` is ``"auto"`` (exact density matrix up to 12 qubits,
    Pauli trajectories above -- the only way BH3/NH3/CH4 sweeps can
    run), ``"density_matrix"``, or ``"trajectory"``; ``trajectories``
    sizes the stochastic estimate when the trajectory engine is used.
    """
    molecules = molecules or ["LiH", "NaH"]
    configurations = configurations or DEFAULT_CONFIGURATIONS
    noise = DepolarizingNoiseModel(two_qubit_error=cnot_error)
    points: list[ScanPoint] = []
    for molecule in molecules:
        lengths = default_bond_lengths(molecule, points_per_molecule)
        points.extend(
            bond_scan(
                molecule,
                lengths,
                configurations,
                backend=(
                    noisy_backend_for(molecule) if backend == "auto" else backend
                ),
                noise=noise,
                trajectories=trajectories,
                max_iterations=max_iterations,
            )
        )
    return points


def error_by_ratio(points: list[ScanPoint]) -> dict[str, dict[str, float]]:
    """molecule -> configuration -> mean |energy error| (Hartree)."""
    import numpy as np

    table: dict[str, dict[str, list[float]]] = {}
    for point in points:
        table.setdefault(point.molecule, {}).setdefault(
            point.configuration, []
        ).append(abs(point.error))
    return {
        molecule: {
            config: float(np.mean(values)) for config, values in sorted(configs.items())
        }
        for molecule, configs in sorted(table.items())
    }
