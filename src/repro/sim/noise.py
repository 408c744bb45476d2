"""Noise channels for the noisy energies.

The paper's noisy case studies (Figure 10) use "a depolarizing error model
with realistic CNOT error rates of 0.0001".  A noise-model object
attaches one- and two-qubit depolarizing channels to gates by name; the
density-matrix energy damps the Pauli coefficients each channel touches,
and the trajectory energy samples its non-identity Paulis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pauli import PauliString


def depolarizing_paulis(num_qubits: int) -> list[PauliString]:
    """All 4^k - 1 non-identity Paulis on k qubits (k = 1 or 2)."""
    if num_qubits not in (1, 2):
        raise ValueError("depolarizing channels are defined for 1 or 2 qubits here")
    labels_1q = ["X", "Y", "Z"]
    if num_qubits == 1:
        return [PauliString.from_label(label) for label in labels_1q]
    labels = [
        a + b
        for a in ["I", "X", "Y", "Z"]
        for b in ["I", "X", "Y", "Z"]
        if (a, b) != ("I", "I")
    ]
    return [PauliString.from_label(label) for label in labels]


@dataclass
class DepolarizingNoiseModel:
    """Attach depolarizing channels to named gates.

    ``two_qubit_error`` is the depolarizing parameter applied after every
    CNOT/SWAP-decomposed CNOT; ``one_qubit_error`` after every single-qubit
    gate.  With parameter p the channel is

        rho -> (1 - p) rho + p/(4^k - 1) * sum_P P rho P

    over the non-identity Paulis P of the gate's qubits.
    """

    two_qubit_error: float = 1e-4
    one_qubit_error: float = 0.0
    noisy_gates: frozenset = field(
        default_factory=lambda: frozenset({"cx", "cz", "swap"})
    )

    def error_for(self, gate_name: str, num_qubits: int) -> float:
        if gate_name in ("barrier", "measure"):
            return 0.0
        if num_qubits == 2:
            return self.two_qubit_error if gate_name in self.noisy_gates else 0.0
        return self.one_qubit_error

    def is_trivial(self) -> bool:
        return self.two_qubit_error == 0.0 and self.one_qubit_error == 0.0
