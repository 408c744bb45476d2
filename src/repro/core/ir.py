"""The Pauli-string intermediate representation.

The paper's key abstraction: an ansatz is *not* a gate-level circuit but an
ordered sequence of parameterized Pauli strings ("a new intermediate
representation (IR) above quantum circuits").  The compression pass emits
this IR and the customized compilation flow consumes it directly, which is
what lets synthesis adapt each string to the current qubit mapping.

Each :class:`IRTerm` represents one factor ``exp(i * theta_k * c * P)`` of
the Trotterized ansatz, where ``theta_k`` is the shared variational
parameter of excitation ``k`` and ``c`` is the string's fixed Jordan-Wigner
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.pauli import PauliString


@dataclass(frozen=True)
class IRTerm:
    """One parameterized Pauli-string evolution ``exp(i theta_k c P)``."""

    pauli: PauliString
    coefficient: float      # fixed JW coefficient c (real)
    parameter_index: int    # which variational parameter theta_k drives it

    @property
    def weight(self) -> int:
        return self.pauli.weight


@dataclass
class PauliProgram:
    """An ordered Pauli-string program plus its parameter space.

    This is the object handed from the algorithm level (ansatz
    construction / compression) to the compiler level (hierarchical
    layout + Merge-to-Root).
    """

    num_qubits: int
    num_parameters: int
    terms: list[IRTerm] = field(default_factory=list)
    initial_occupations: list[int] = field(default_factory=list)

    def __iter__(self) -> Iterator[IRTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # ------------------------------------------------------------------
    # Views used across the stack
    # ------------------------------------------------------------------
    def paulis(self) -> list[PauliString]:
        return [term.pauli for term in self.terms]

    def bound_terms(self, parameters: Sequence[float]) -> list[tuple[PauliString, float]]:
        """Bind parameters: ``[(P, theta_k * c), ...]`` in program order."""
        values = np.asarray(parameters, dtype=float)
        if values.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {values.shape}"
            )
        return [
            (term.pauli, float(values[term.parameter_index]) * term.coefficient)
            for term in self.terms
        ]

    def parameters_of_terms(self) -> dict[int, list[int]]:
        """parameter index -> positions of its terms in the program."""
        mapping: dict[int, list[int]] = {}
        for position, term in enumerate(self.terms):
            mapping.setdefault(term.parameter_index, []).append(position)
        return mapping

    def restricted_to(self, parameter_indices: Sequence[int]) -> "PauliProgram":
        """A sub-program keeping only the given parameters, renumbered in
        the given order (the order is significant: the paper sorts kept
        parameters by decreasing importance for locality)."""
        order = {old: new for new, old in enumerate(parameter_indices)}
        kept = [
            IRTerm(term.pauli, term.coefficient, order[term.parameter_index])
            for term in self.terms
            if term.parameter_index in order
        ]
        # Stable sort on the new index preserves the original term order
        # within each parameter while realizing the requested ordering.
        kept.sort(key=lambda term: term.parameter_index)
        return PauliProgram(
            num_qubits=self.num_qubits,
            num_parameters=len(parameter_indices),
            terms=kept,
            initial_occupations=list(self.initial_occupations),
        )

    # ------------------------------------------------------------------
    # Cost metrics (paper Table I conventions, verified analytically)
    # ------------------------------------------------------------------
    def cnot_count(self) -> int:
        """CNOTs under chain synthesis: ``2 * (weight - 1)`` per string."""
        return sum(2 * (term.weight - 1) for term in self.terms if term.weight > 1)

    def gate_count(self) -> int:
        """Total gates under chain synthesis, including the Hartree-Fock
        X gates: per string ``2*#XY`` basis changes + CNOTs + 1 RZ."""
        total = len(self.initial_occupations)
        for term in self.terms:
            if term.weight == 0:
                continue
            total += 2 * term.pauli.num_xy + 2 * (term.weight - 1) + 1
        return total

    def qubit_cooccurrence(self) -> np.ndarray:
        """Mat[j, k] = number of strings where qubits j and k co-occur
        (Algorithm 2's statistics, also used by the swap lookahead)."""
        matrix = np.zeros((self.num_qubits, self.num_qubits), dtype=np.int64)
        for term in self.terms:
            support = term.pauli.support()
            for i, qubit_a in enumerate(support):
                for qubit_b in support[i + 1:]:
                    matrix[qubit_a, qubit_b] += 1
                    matrix[qubit_b, qubit_a] += 1
        return matrix
