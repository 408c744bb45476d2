"""Pauli-string simulation-circuit synthesis (Section II-A).

``exp(i phi P)`` decomposes as ``B+ . C+ . RZ(-2 phi, root) . C . B``:

* ``B``: basis changes on every X (Hadamard) and Y (RX(pi/2)) qubit;
* ``C``: a CNOT tree over the non-identity qubits, leaves toward root;
* the central Z rotation on the root.

The *chain* variant connects the support qubits in index order -- this is
the uniform plan traditional compilers use ("Qiskit synthesizes the CNOTs
in a chain structure like Figure 2(b)") and the convention under which
the paper's Table I gate counts are defined.  The tree-flexible variant
used by Merge-to-Root lives in :mod:`repro.compiler.merge_to_root`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.circuit import Circuit
from repro.circuit.gates import CNOT, Gate, H, RX, RZ, X
from repro.core.ir import PauliProgram
from repro.pauli import PauliString

_HALF_PI = math.pi / 2.0


def basis_change_gates(pauli: PauliString, *, inverse: bool = False) -> list[Gate]:
    """Single-qubit gates mapping each X/Y of the string to Z."""
    gates: list[Gate] = []
    for qubit in pauli.support():
        op = pauli.op_on(qubit)
        if op == "X":
            gates.append(H(qubit))
        elif op == "Y":
            gates.append(RX(-_HALF_PI if inverse else _HALF_PI, qubit))
    return gates


def synthesize_pauli_chain(pauli: PauliString, angle: float) -> Circuit:
    """Chain-synthesized circuit for ``exp(i angle P)``.

    The CNOT ladder runs over the support in ascending qubit order; the
    rotation lands on the highest support qubit (the chain's root).
    """
    circuit = Circuit(pauli.num_qubits)
    support = pauli.support()
    if not support:
        return circuit  # global phase only; irrelevant for expectation values
    circuit.extend(basis_change_gates(pauli))
    for lower, upper in zip(support, support[1:]):
        circuit.append(CNOT(lower, upper))
    circuit.append(RZ(-2.0 * angle, support[-1]))
    for lower, upper in reversed(list(zip(support, support[1:]))):
        circuit.append(CNOT(lower, upper))
    circuit.extend(basis_change_gates(pauli, inverse=True))
    return circuit


def hartree_fock_circuit(num_qubits: int, occupations: Sequence[int]) -> Circuit:
    """X gates preparing the Hartree-Fock initial state."""
    circuit = Circuit(num_qubits)
    for qubit in occupations:
        circuit.append(X(qubit))
    return circuit


def synthesize_program_chain(
    program: PauliProgram, parameters: Sequence[float], *, include_initial_state: bool = True
) -> Circuit:
    """Chain-synthesize a whole Pauli program into one logical circuit.

    This is the "traditional compilation flow" front half: after this, the
    high-level Pauli semantics are gone and a mapper like SABRE only sees
    gates.
    """
    circuit = Circuit(program.num_qubits)
    if include_initial_state:
        circuit = circuit.compose(
            hartree_fock_circuit(program.num_qubits, program.initial_occupations)
        )
    for pauli, angle in program.bound_terms(parameters):
        # Append in place: composing a fresh copy per term is quadratic.
        circuit.gates.extend(synthesize_pauli_chain(pauli, angle).gates)
    return circuit
