"""Per-pair oracle for Algorithm 1 (parameter importance).

The straight double loop over (ansatz string, Hamiltonian string) pairs
that ``repro.core.importance`` vectorizes.  It sums each score left to
right over H's sorted terms starting from 0.0, so the shipped scorer
must match it bit for bit.
"""

import numpy as np


def decay_factor(ansatz_pauli, hamiltonian_pauli):
    """The exponent ``d`` comparing one ansatz / Hamiltonian string pair."""
    if ansatz_pauli.num_qubits != hamiltonian_pauli.num_qubits:
        raise ValueError("qubit count mismatch")
    both_non_identity = ansatz_pauli.support_mask & hamiltonian_pauli.support_mask
    differ = (ansatz_pauli.x ^ hamiltonian_pauli.x) | (ansatz_pauli.z ^ hamiltonian_pauli.z)
    return ansatz_pauli.num_qubits - (both_non_identity & differ).bit_count()


def string_score(ansatz_pauli, hamiltonian, *, decay_base=2.0):
    """``sum_PH base^-d * |w_H|`` over the non-identity terms of H."""
    score = 0.0
    for coefficient, hamiltonian_pauli in hamiltonian:
        if hamiltonian_pauli.is_identity():
            continue  # the constant term is insensitive to every parameter
        d = decay_factor(ansatz_pauli, hamiltonian_pauli)
        score += (decay_base ** -d) * abs(coefficient)
    return score


def parameter_importance(program, hamiltonian, *, decay_base=2.0):
    """Each parameter's summed string scores, in program order."""
    importance = np.zeros(program.num_parameters)
    for term in program:
        importance[term.parameter_index] += string_score(
            term.pauli, hamiltonian, decay_base=decay_base
        )
    return importance
