"""Golden Table II CNOT counts for all nine molecules, and routed SABRE
circuits pinned byte for byte.

Each molecule's UCCSD ansatz is compressed to ratio 0.3, chain-synthesized
and Merge-to-Root-compiled on XTree17Q, then run through the adjacency-only
and the commutation-aware cancellation passes -- the recipe of
``collect_compiler_optimization_stats`` in ``benchmarks/bench_primitives.py``.
The pins equal the committed ``BENCH_compiler.json`` rows.  A refactor of
compression, synthesis, routing or cancellation that moves any of them
must say so and re-record them on purpose.

The SABRE pins hash the routed circuit's OpenQASM text, so any change to
the router's SWAP choices, emission order or final layout moves them.
"""

import hashlib

import pytest

import repro
from repro.circuit.qasm import to_qasm

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.compiler import MergeToRootCompiler, cancel_gates, synthesize_program_chain
from repro.core import compress_ansatz
from repro.hardware import xtree

#: molecule -> (chain_cnots, mtr_cnots, mtr_cnots_adjacency, mtr_cnots_commute)
TABLE2_CNOTS = {
    "H2": (48, 48, 48, 44),
    "LiH": (208, 208, 188, 176),
    "NaH": (464, 464, 436, 372),
    "HF": (912, 912, 704, 472),
    "H2O": (3840, 3840, 2840, 2136),
    "BeH2": (3808, 3808, 2646, 2004),
    "BH3": (9632, 9632, 6882, 4744),
    "NH3": (9680, 9680, 6314, 4658),
    "CH4": (19040, 19076, 12176, 8326),
}


@pytest.mark.parametrize("molecule", sorted(TABLE2_CNOTS))
def test_table2_cnot_counts(molecule):
    problem = build_molecule_hamiltonian(molecule)
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, 0.3).program
    chain = synthesize_program_chain(compressed, [0.0] * compressed.num_parameters)
    physical = MergeToRootCompiler(xtree(17)).compile(compressed).circuit.decompose_swaps()
    counts = (
        chain.num_cnots(),
        physical.num_cnots(),
        cancel_gates(physical).num_cnots(),
        cancel_gates(physical, commute=True).num_cnots(),
    )
    assert counts == TABLE2_CNOTS[molecule]


#: (molecule, commute) -> SHA-256 of the SABRE-routed circuit's QASM
#: (ratio 0.3, xtree17, seed 7).
SABRE_QASM_SHA256 = {
    ("HF", False): "7bd9ce16420812a5bb6f97ffaa1f503b9b520c41360cb56c536504809462501e",
    ("HF", True): "1f97eed121f6cc7da45cf7d8c471fc08f81f198575eadc99a160cb16a250e277",
    ("H2O", False): "132843034eaee4f44f2ffe286758aab13c51188304cd9f935d8d6c6357e6b53a",
    ("H2O", True): "92788b1ccd11cdf78a84ea13fdcaf9091f3eeb0284ff066c01d63902a5321cba",
}


@pytest.mark.parametrize(
    "molecule,commute", sorted(SABRE_QASM_SHA256), ids=lambda value: str(value)
)
def test_sabre_routed_qasm(molecule, commute):
    config = repro.PipelineConfig(
        molecule=molecule, ratio=0.3, compiler="sabre", device="xtree17",
        seed=7, commute=commute,
    )
    circuit = repro.Pipeline(config).run().compiled.circuit
    digest = hashlib.sha256(to_qasm(circuit).encode()).hexdigest()
    assert digest == SABRE_QASM_SHA256[molecule, commute]
