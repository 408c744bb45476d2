"""Compilation flows (Section V).

Two flows are provided, mirroring the paper's comparison:

* the **traditional** flow: chain synthesis of every Pauli string into
  CNOT ladders (:mod:`repro.compiler.synthesis`, what Qiskit does),
  followed by general-purpose SABRE mapping
  (:mod:`repro.compiler.sabre`);
* the **co-designed** flow: hierarchical initial layout straight from the
  Pauli IR (:mod:`repro.compiler.layout`, Algorithm 2) plus Merge-to-Root
  combined synthesis-and-routing (:mod:`repro.compiler.merge_to_root`,
  Algorithm 3).

:mod:`repro.compiler.verify` checks compiled circuits against the
Pauli-evolution reference semantics, and :mod:`repro.compiler.metrics`
computes the paper's overhead numbers.

Both flows are exposed behind the string-keyed registry in
:mod:`repro.compiler.registry` (``get_compiler("mtr")`` /
``get_compiler("sabre")``) with one uniform ``compile(program, device)``
entry point, which is how the pipeline's ``Route`` stage selects a flow.
"""

from repro.compiler.synthesis import (
    synthesize_pauli_chain,
    synthesize_program_chain,
    hartree_fock_circuit,
)
from repro.compiler.layout import (
    circuit_cooccurrence,
    hierarchical_circuit_layout,
    hierarchical_initial_layout,
    trivial_layout,
)
from repro.compiler.merge_to_root import MergeToRootCompiler, CompiledProgram
from repro.compiler.sabre import SabreRouter, SabreResult
from repro.compiler.cancellation import cancel_gates, cancellation_savings
from repro.compiler.metrics import (
    mapping_overhead,
    OverheadReport,
    ScheduleReport,
    schedule_report,
)
from repro.compiler.verify import (
    logical_reference_state,
    compiled_state,
    assert_circuit_routed_equivalent,
    assert_equivalent,
    assert_routed_equivalent,
    states_match,
)
from repro.compiler.registry import (
    CompilerAdapter,
    MergeToRootAdapter,
    SabreAdapter,
    get_compiler,
    list_compilers,
    register_compiler,
)

__all__ = [
    "CompilerAdapter",
    "MergeToRootAdapter",
    "SabreAdapter",
    "get_compiler",
    "list_compilers",
    "register_compiler",
    "synthesize_pauli_chain",
    "synthesize_program_chain",
    "hartree_fock_circuit",
    "hierarchical_initial_layout",
    "hierarchical_circuit_layout",
    "circuit_cooccurrence",
    "trivial_layout",
    "MergeToRootCompiler",
    "CompiledProgram",
    "SabreRouter",
    "SabreResult",
    "cancel_gates",
    "cancellation_savings",
    "mapping_overhead",
    "OverheadReport",
    "ScheduleReport",
    "schedule_report",
    "logical_reference_state",
    "compiled_state",
    "states_match",
    "assert_equivalent",
    "assert_routed_equivalent",
    "assert_circuit_routed_equivalent",
]
