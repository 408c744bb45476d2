"""Top-level molecular Hamiltonian driver.

``build_molecule_hamiltonian("LiH", bond_length=1.6)`` runs the entire
substrate pipeline -- STO-3G basis, integrals, RHF, active-space
reduction, second quantization, Jordan-Wigner -- and returns a
:class:`MolecularProblem` carrying the weighted-Pauli-string Hamiltonian
together with the metadata the ansatz and compiler layers need.

Results are memoized per (molecule, bond length) because the evaluation
harness revisits the same configurations across experiment stages.  A
memoized problem carries that key as its ``spec``, which the compile
cache keys on instead of hashing the Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.chem.active_space import ActiveSpaceIntegrals, reduce_to_active_space
from repro.chem.hartree_fock import RHFResult, run_rhf
from repro.chem.integrals import build_basis, compute_integrals
from repro.chem.jordan_wigner import LadderTerm, jordan_wigner
from repro.chem.mo_integrals import spin_orbital_integrals, transform_to_mo
from repro.chem.molecules import Molecule, molecule_by_name
from repro.pauli import PauliSum


@dataclass
class MolecularProblem:
    """Everything downstream layers need about one molecular instance."""

    molecule: Molecule
    hamiltonian: PauliSum          # qubit Hamiltonian (includes core energy)
    num_qubits: int
    num_spatial_orbitals: int      # active spatial orbitals
    num_alpha: int                 # active alpha electrons
    num_beta: int
    hf_energy: float               # full-molecule RHF total energy
    core_energy: float
    active_integrals: ActiveSpaceIntegrals
    rhf: RHFResult
    #: ``(name, bond length in 1e-4 A)`` when built by
    #: :func:`build_molecule_hamiltonian`, which fixes the content; None
    #: for a hand-built problem or a :func:`dataclasses.replace` copy,
    #: whose content must be hashed.
    spec: tuple[str, int] | None = field(default=None, init=False, compare=False)

    @property
    def num_electrons(self) -> int:
        return self.num_alpha + self.num_beta

    def hartree_fock_occupations(self) -> list[int]:
        """Qubits set to |1> by the Hartree-Fock initial state.

        Blocked ordering: alpha orbitals 0..n_alpha-1 and beta orbitals
        M..M+n_beta-1 are occupied (lowest active MOs).
        """
        m = self.num_spatial_orbitals
        return list(range(self.num_alpha)) + [m + i for i in range(self.num_beta)]

    def hartree_fock_state_index(self) -> int:
        index = 0
        for qubit in self.hartree_fock_occupations():
            index |= 1 << qubit
        return index


def fermion_terms(
    h1: np.ndarray, h2: np.ndarray, constant: float
) -> list[tuple[complex, LadderTerm]]:
    """``constant + sum h1 a+_p a_q + 1/2 sum h2 a+_p a+_q a_s a_r`` as sorted terms.

    Returns ``(coefficient, ladder)`` pairs in ladder order, skipping
    coefficients within 1e-12 of zero (blocked spin orbitals, physicist
    ordering for ``h2``).
    """
    terms: dict[LadderTerm, complex] = {(): constant}
    for p, q in np.argwhere(np.abs(h1) > 1e-12).tolist():
        terms[(p, True), (q, False)] = h1[p, q]
    half = 0.5 * h2
    for p, q, r, s in np.argwhere(np.abs(half) > 1e-12).tolist():
        terms[(p, True), (q, True), (s, False), (r, False)] = half[p, q, r, s]
    return [(terms[ladder], ladder) for ladder in sorted(terms)]


@lru_cache(maxsize=256)
def _build_cached(name: str, bond_length_key: int) -> MolecularProblem:
    bond_length = bond_length_key / 10000.0
    molecule = molecule_by_name(name, bond_length)
    basis = build_basis(molecule.symbols, molecule.coordinates_bohr)
    integrals = compute_integrals(basis, molecule.charges, molecule.coordinates_bohr)
    rhf = run_rhf(integrals, molecule.num_electrons)
    hcore_mo, eri_mo = transform_to_mo(
        integrals.kinetic + integrals.nuclear, integrals.eri, rhf.mo_coefficients
    )
    active = reduce_to_active_space(
        hcore_mo,
        eri_mo,
        integrals.nuclear_repulsion,
        molecule.num_electrons,
        molecule.active_space.num_electrons,
        molecule.active_space.num_orbitals,
    )
    num_qubits = 2 * active.num_orbitals
    h1, h2 = spin_orbital_integrals(active.hcore, active.eri)
    qubit_hamiltonian = jordan_wigner(fermion_terms(h1, h2, active.core_energy), num_qubits)
    num_alpha = active.num_electrons // 2
    num_beta = active.num_electrons - num_alpha
    problem = MolecularProblem(
        molecule=molecule,
        hamiltonian=qubit_hamiltonian,
        num_qubits=num_qubits,
        num_spatial_orbitals=active.num_orbitals,
        num_alpha=num_alpha,
        num_beta=num_beta,
        hf_energy=rhf.energy,
        core_energy=active.core_energy,
        active_integrals=active,
        rhf=rhf,
    )
    problem.spec = (name, bond_length_key)
    return problem


def build_molecule_hamiltonian(
    name: str, bond_length: float | None = None
) -> MolecularProblem:
    """Build the qubit Hamiltonian of a benchmark molecule.

    Args:
        name: one of the Table I molecules ("H2", ..., "CH4").
        bond_length: X-H / diatomic bond length in Angstrom; defaults to
            the experimental equilibrium value.
    """
    if bond_length is None:
        bond_length = molecule_by_name(name).bond_length
    key = int(round(bond_length * 10000))
    return _build_cached(name, key)
