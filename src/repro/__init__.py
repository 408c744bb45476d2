"""repro -- reproduction of the ISCA 2021 paper "Software-Hardware
Co-Optimization for Computational Chemistry on Superconducting Quantum
Processors" (Li, Shi, Javadi-Abhari).

The public API re-exports the main entry points of each layer:

* end-to-end flow:       :class:`repro.Pipeline` +
  :class:`repro.PipelineConfig` (the Figure-1 pass manager),
  :func:`repro.run_batch` for config sweeps, and the legacy one-call
  :func:`repro.co_optimize`
* chemistry substrate:   :func:`repro.chem.build_molecule_hamiltonian`
* ansatz:                :class:`repro.ansatz.UCCSDAnsatz`
* contribution 1:        :func:`repro.core.compress_ansatz`
* contribution 2:        :func:`repro.get_device` (device registry over
  the X-Tree family and grid baselines)
* contribution 3:        :func:`repro.get_compiler` (Merge-to-Root /
  SABRE behind one interface)
* VQE driver:            :class:`repro.VQE`
* static verification:   :mod:`repro.analysis` --
  :func:`repro.analysis.check` / :func:`repro.analysis.assert_clean`
  over circuits, routed results and Pauli programs
  (see ``docs/analysis.md``)
"""

from repro import analysis
from repro.pauli import PauliString, PauliSum
from repro.core import (
    CoOptimizationResult,
    Pipeline,
    PipelineConfig,
    co_optimize,
    load_batch,
    run_batch,
    save_batch,
)
from repro.hardware import get_device, list_devices, register_device
from repro.compiler import get_compiler, list_compilers, register_compiler
from repro.vqe import VQE, VQEResult

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "PauliString",
    "PauliSum",
    "Pipeline",
    "PipelineConfig",
    "CoOptimizationResult",
    "co_optimize",
    "run_batch",
    "save_batch",
    "load_batch",
    "get_device",
    "list_devices",
    "register_device",
    "get_compiler",
    "list_compilers",
    "register_compiler",
    "VQE",
    "VQEResult",
    "__version__",
]
