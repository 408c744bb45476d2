"""p-layer QAOA ansatz over diagonal cost Hamiltonians.

The ansatz is emitted directly in the Pauli-string IR
(:class:`~repro.core.ir.PauliProgram`), so everything downstream --
compression, hierarchical layout, Merge-to-Root and SABRE compilation,
the statevector energy, its parameter sweeps and the adjoint gradient --
consumes QAOA workloads unchanged:

* **State preparation.** ``|+>^n`` is itself a product of Pauli
  evolutions: ``exp(-i pi/4 Y_q)|0> = RY(pi/2)|0> = |+>``.  The builder
  emits one weight-1 Y term per qubit, all driven by a dedicated shared
  parameter (index 0) that :meth:`QAOAAnsatz.parameters` pins to
  ``-pi/4``, keeping "prepare plus states" inside the IR instead of as a
  compiler special case.
* **Cost layers.** Each non-identity term ``c * P`` of the cost
  Hamiltonian becomes ``exp(i theta c P)`` with the layer's shared gamma
  parameter (so a layer is one parameter, exactly like a UCCSD
  excitation).
* **Mixer layers.** One weight-1 X term per qubit under the layer's
  shared beta parameter.

Our IR convention is ``exp(+i theta c P)`` while the textbook QAOA
unitary is ``exp(-i gamma C) exp(-i beta B)``; the
:meth:`QAOAAnsatz.parameters` helper performs the sign flip so callers
think in ``(gammas, betas)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum

_QUARTER_PI = np.pi / 4.0

#: Supported initial states for the builder.
INITIAL_STATES = ("plus", "zero")


@dataclass(frozen=True)
class QAOAAnsatz:
    """A built QAOA program plus its provenance.

    Mirrors :class:`~repro.ansatz.uccsd.UCCSDAnsatz`: the ``program``
    field is what the pipeline stages consume; the rest is metadata.
    """

    program: PauliProgram
    cost_hamiltonian: PauliSum
    layers: int
    initial_state: str = "plus"

    @property
    def num_qubits(self) -> int:
        return self.program.num_qubits

    @property
    def num_parameters(self) -> int:
        return self.program.num_parameters

    @property
    def num_pauli_strings(self) -> int:
        return len(self.program.terms)

    def parameters(
        self,
        gammas: Sequence[float],
        betas: Sequence[float],
    ) -> np.ndarray:
        """Map QAOA angles to the program's parameter vector.

        Returns ``[-pi/4, -gamma_1, -beta_1, ..., -gamma_p, -beta_p]``
        (without the leading prep entry when ``initial_state="zero"``):
        the sign flip converts the textbook ``exp(-i gamma C)`` /
        ``exp(-i beta B)`` convention into the IR's ``exp(+i theta c P)``.
        """
        if len(gammas) != self.layers or len(betas) != self.layers:
            raise ValueError(
                f"expected {self.layers} gammas and betas, "
                f"got {len(gammas)} and {len(betas)}"
            )
        values = [] if self.initial_state == "zero" else [-_QUARTER_PI]
        for gamma, beta in zip(gammas, betas):
            values.append(-float(gamma))
            values.append(-float(beta))
        return np.array(values, dtype=float)


def build_qaoa_ansatz(
    cost_hamiltonian: PauliSum,
    layers: int = 1,
    *,
    initial_state: str = "plus",
) -> QAOAAnsatz:
    """Build the p-layer QAOA program for a cost Hamiltonian.

    Identity terms of the Hamiltonian (constant energy offsets, e.g.
    the ``sum w/2`` part of MaxCut) are skipped: they contribute a
    global phase only.  Complex coefficients are rejected -- QAOA cost
    functions are real diagonal observables.
    """
    if layers < 1:
        raise ValueError(f"QAOA needs at least one layer, got {layers}")
    if initial_state not in INITIAL_STATES:
        raise ValueError(
            f"unknown initial state {initial_state!r}; "
            f"expected one of {INITIAL_STATES}"
        )
    num_qubits = cost_hamiltonian.num_qubits
    cost_terms: list[tuple[float, PauliString]] = []
    for coefficient, pauli in cost_hamiltonian:
        if pauli.is_identity():
            continue
        if abs(coefficient.imag) > 1e-12:
            raise ValueError(
                f"cost Hamiltonian has a complex coefficient {coefficient} "
                f"on {pauli.label()}; QAOA costs must be real"
            )
        cost_terms.append((float(coefficient.real), pauli))
    if not cost_terms:
        raise ValueError("cost Hamiltonian has no non-identity terms")

    terms: list[IRTerm] = []
    offset = 0
    if initial_state == "plus":
        offset = 1
        for qubit in range(num_qubits):
            terms.append(
                IRTerm(PauliString.single(num_qubits, qubit, "Y"), 1.0, 0)
            )
    for layer in range(layers):
        gamma_index = offset + 2 * layer
        beta_index = gamma_index + 1
        for coefficient, pauli in cost_terms:
            terms.append(IRTerm(pauli, coefficient, gamma_index))
        for qubit in range(num_qubits):
            terms.append(
                IRTerm(PauliString.single(num_qubits, qubit, "X"), 1.0, beta_index)
            )
    program = PauliProgram(
        num_qubits=num_qubits,
        num_parameters=offset + 2 * layers,
        terms=terms,
        initial_occupations=[],
    )
    return QAOAAnsatz(
        program=program,
        cost_hamiltonian=cost_hamiltonian,
        layers=layers,
        initial_state=initial_state,
    )
