"""Exact analytic gradient of the statevector energy: adjoint mode.

:class:`AdjointGradient` computes the full gradient with **one forward
and one backward sweep** over the ansatz.  For the product ansatz

    |psi> = U_M ... U_1 |phi_0>,     U_j = exp(i a_j P_j),
    a_j = theta_{k_j} * c_j,

the chain rule gives

    dE/da_j = 2 Re <lambda_j| i P_j |phi_j>,
    phi_j    = U_j ... U_1 |phi_0>,
    lambda_j = U_{j+1}^dag ... U_M^dag H |psi>,

so after computing ``|psi>`` forward and ``H|psi>`` once, a single
backward sweep peels one exponential per step off both vectors (each
undo is one Pauli application, and ``P_j |phi_j>`` is shared between the
gradient bracket and the undo).  Total cost ~3 Pauli applications per
term: O(M) statevector work per gradient, against the p+1 full energy
evaluations of finite differences and the 2M of the parameter-shift
rule (which the tests keep as this class's oracle).

:class:`repro.vqe.runner.VQE` attaches it to every
:class:`~repro.vqe.energy.StatevectorEnergy` backend and hands SLSQP
the fused :meth:`AdjointGradient.value_and_gradient` objective.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.ir import PauliProgram
from repro.pauli import PauliSum
from repro.sim.pauli_evolution import PauliEvolutionWorkspace
from repro.vqe.energy import StatevectorEnergy


class AdjointGradient:
    """Exact gradient via one forward + one backward sweep.

    Usage:

    >>> from repro.ansatz import build_uccsd_program
    >>> from repro.chem import build_molecule_hamiltonian
    >>> problem = build_molecule_hamiltonian("H2")
    >>> program = build_uccsd_program(problem).program
    >>> gradient = AdjointGradient(program, problem.hamiltonian)
    >>> g = gradient.gradient([0.1] * program.num_parameters)
    >>> g.shape == (program.num_parameters,)
    True
    """

    def __init__(
        self,
        program: PauliProgram,
        hamiltonian: PauliSum,
        *,
        energy: StatevectorEnergy | None = None,
    ):
        self.program = program
        # Reuse the caller's energy evaluator when given (shares the
        # grouped ExpectationEngine and the forward-sweep buffer).
        self.energy = energy or StatevectorEnergy(program, hamiltonian)
        self._paulis = program.paulis()
        self._coefficients = np.array(
            [term.coefficient for term in program.terms], dtype=float
        )
        self._parameter_indices = np.array(
            [term.parameter_index for term in program.terms], dtype=int
        )

    def value(self, parameters: Sequence[float]) -> float:
        return self.energy(parameters)

    def value_and_gradient(
        self, parameters: Sequence[float]
    ) -> tuple[float, np.ndarray]:
        """``(E(theta), dE/dtheta)`` sharing the single forward sweep."""
        base = np.asarray(parameters, dtype=float)
        if base.shape != (self.program.num_parameters,):
            raise ValueError("parameter vector has the wrong length")
        angles = self._coefficients * base[self._parameter_indices] if len(
            self._paulis
        ) else np.zeros(0)

        # Forward sweep: phi = |psi(theta)> (internal buffer; copy it --
        # the backward sweep mutates phi through its own workspace).
        phi = self.energy.state(base).copy()
        engine = self.energy.engine
        # lambda = H |psi>; peeled backward alongside phi.
        lam = engine.apply(phi)
        value = float(np.vdot(phi, lam).real)
        gradient = np.zeros(self.program.num_parameters)
        workspace = PauliEvolutionWorkspace(phi.shape)      # undoes lam
        pauli_workspace = PauliEvolutionWorkspace(phi.shape)  # holds P|phi>
        for j in range(len(self._paulis) - 1, -1, -1):
            pauli = self._paulis[j]
            angle = float(angles[j])
            if pauli.is_identity():
                # exp(i a I) is a global phase: contributes 2 Re(i c <l|f>)
                # which vanishes for lambda = (global phase) * H phi ...
                # except intermediate undos keep the relative phase, so
                # evaluate it honestly.
                bracket = np.vdot(lam, phi)
                gradient[self._parameter_indices[j]] += (
                    -2.0 * self._coefficients[j] * bracket.imag
                )
                phase = complex(math.cos(angle), -math.sin(angle))
                phi *= phase
                lam *= phase
                continue
            p_phi = pauli_workspace.apply_pauli_into(pauli, phi)
            # dE/da_j = 2 Re( <lambda| i P |phi> ) = -2 Im( <lambda| P |phi> )
            bracket = np.vdot(lam, p_phi)
            gradient[self._parameter_indices[j]] += (
                -2.0 * self._coefficients[j] * bracket.imag
            )
            # Undo U_j on both vectors: U^dag v = cos(a) v - i sin(a) P v.
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            phi *= cos_a
            phi -= (1j * sin_a) * p_phi
            workspace.apply_exponential_inplace(pauli, -angle, lam)
        return value, gradient

    def gradient(self, parameters: Sequence[float]) -> np.ndarray:
        """dE/dtheta_k for every parameter (adjoint mode)."""
        return self.value_and_gradient(parameters)[1]
