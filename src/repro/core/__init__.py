"""The paper's primary contribution: Pauli-string-centric co-optimization.

* :mod:`repro.core.ir`          -- the Pauli-string IR between algorithm
  and compiler ("a new intermediate representation above quantum
  circuits");
* :mod:`repro.core.importance`  -- parameter importance estimation
  (Algorithm 1);
* :mod:`repro.core.compression` -- hardware-friendly compressed ansatz
  construction (Section III-B);
* :mod:`repro.core.passes`      -- the composable pass-manager: named
  pipeline stages over a shared context, configured by
  :class:`~repro.core.passes.PipelineConfig`;
* :mod:`repro.core.cache`       -- the content-addressed compile cache:
  canonical SHA-256 hashes over circuits/programs/Hamiltonians plus a
  thread-safe LRU store with hit/miss/eviction counters, shared by the
  pipeline passes;
* :mod:`repro.core.pipeline`    -- the end-to-end co-optimization flow of
  Figure 1 as a :class:`~repro.core.pipeline.Pipeline` of passes, plus
  batch execution and serializable results.
"""

from repro.core.cache import (
    CacheStats,
    ContentAddressedCache,
    canonical_hash,
    circuit_key,
    clear_compile_cache,
    compile_cache,
    coupling_key,
    pauli_sum_key,
    program_key,
)
from repro.core.ir import IRTerm, PauliProgram
from repro.core.importance import parameter_importance
from repro.core.compression import CompressedAnsatz, compress_ansatz, random_ansatz
from repro.core.passes import (
    BuildAnsatz,
    BuildProblem,
    Compress,
    Energy,
    InitialLayout,
    Metrics,
    Pass,
    PipelineConfig,
    PipelineContext,
    PipelineError,
    Route,
)
from repro.core.pipeline import (
    DEFAULT_PASSES,
    BatchItemError,
    CoOptimizationResult,
    Pipeline,
    co_optimize,
    default_passes,
    load_batch,
    run_batch,
    save_batch,
)

__all__ = [
    "CacheStats",
    "ContentAddressedCache",
    "canonical_hash",
    "circuit_key",
    "clear_compile_cache",
    "compile_cache",
    "coupling_key",
    "pauli_sum_key",
    "program_key",
    "IRTerm",
    "PauliProgram",
    "parameter_importance",
    "CompressedAnsatz",
    "compress_ansatz",
    "random_ansatz",
    "Pass",
    "PipelineConfig",
    "PipelineContext",
    "PipelineError",
    "BuildProblem",
    "BuildAnsatz",
    "Compress",
    "InitialLayout",
    "Route",
    "Metrics",
    "Energy",
    "DEFAULT_PASSES",
    "default_passes",
    "Pipeline",
    "BatchItemError",
    "CoOptimizationResult",
    "co_optimize",
    "run_batch",
    "save_batch",
    "load_batch",
]
