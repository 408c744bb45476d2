"""Exact analytic gradient of the statevector energy: adjoint mode.

:class:`AdjointGradient` computes the full gradient with **one forward
and one backward sweep** over the ansatz.  For the product ansatz

    |psi> = U_M ... U_1 |phi_0>,     U_j = exp(i a_j P_j),
    a_j = theta_{k_j} * c_j,

the chain rule gives

    dE/da_j = 2 Re <lambda_j| i P_j |phi_j>,
    phi_j    = U_j ... U_1 |phi_0>,
    lambda_j = U_{j+1}^dag ... U_M^dag H |psi>.

The sweeps run over the fused runs of
:class:`~repro.sim.pauli_evolution.FusedPauliEvolution`: the strings of a
run commute, so the brackets of all its terms come from one gather of
``phi`` against one ``lambda``, and each backward step undoes a whole run
on both vectors with the cos/sin tables of the forward sweep.  Both
vectors, and ``H``, live on the energy's evolved amplitudes: the
particle-number sector for a program that keeps it, where ``lambda``
starts as the Hamiltonian's block applied to ``phi``.  The cost
is O(runs) statevector passes per gradient, against the p+1 full energy
evaluations of finite differences and the 2M of the parameter-shift
rule (which the tests keep as this class's oracle).

:class:`repro.vqe.runner.VQE` attaches it to every
:class:`~repro.vqe.energy.StatevectorEnergy` backend and hands SLSQP
the fused :meth:`AdjointGradient.value_and_gradient` objective.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.ir import PauliProgram
from repro.pauli import PauliSum
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
        # grouped ExpectationEngine and the fused evolution plan).
        self.energy = energy or StatevectorEnergy(program, hamiltonian)

    def value(self, parameters: Sequence[float]) -> float:
        return self.energy(parameters)

    def value_and_gradient(
        self, parameters: Sequence[float]
    ) -> tuple[float, np.ndarray]:
        """``(E(theta), dE/dtheta)`` sharing the single forward sweep."""
        energy = self.energy
        tables = energy.evolution.rotation_tables(energy.angles(parameters))
        phi = energy.evolution.apply(tables, energy.reference.copy())
        lam = energy.engine.apply(phi)
        value = float(np.vdot(phi, lam).real)
        angle_gradient = energy.evolution.adjoint(tables, phi, lam)
        return value, energy.parameter_gradient(angle_gradient)

    def gradient(self, parameters: Sequence[float]) -> np.ndarray:
        """dE/dtheta_k for every parameter (adjoint mode)."""
        return self.value_and_gradient(parameters)[1]
