"""Quantum-chemistry substrate (the stand-in for PySCF + Qiskit chemistry).

Pipeline, exactly mirroring the paper's setup section:

1. :mod:`repro.chem.molecules`     -- geometries of the nine benchmark
   molecules, parameterized by bond length;
2. :mod:`repro.chem.basis_data` + :mod:`repro.chem.integrals` -- STO-3G
   orbitals [53] and Gaussian integral evaluation (McMurchie-Davidson);
3. :mod:`repro.chem.hartree_fock`  -- restricted Hartree-Fock SCF;
4. :mod:`repro.chem.active_space`  -- frozen-core active-space reduction
   ("we freeze the core electrons and only simulate the interaction of
   the outermost electrons");
5. :mod:`repro.chem.jordan_wigner` -- the Jordan-Wigner encoding [54] of
   second-quantized ``(coefficient, ladder)`` terms, multiplied out on
   symplectic masks straight into one Pauli sum;
6. :mod:`repro.chem.hamiltonian`   -- the top-level driver producing the
   weighted-Pauli-string Hamiltonian the rest of the stack consumes.
"""

from repro.chem.molecules import Molecule, molecule_by_name, BENCHMARK_MOLECULES
from repro.chem.hamiltonian import MolecularProblem, build_molecule_hamiltonian
from repro.chem.hartree_fock import run_rhf, RHFResult
from repro.chem.hubbard import hubbard_hamiltonian

__all__ = [
    "Molecule",
    "molecule_by_name",
    "BENCHMARK_MOLECULES",
    "MolecularProblem",
    "build_molecule_hamiltonian",
    "run_rhf",
    "RHFResult",
    "hubbard_hamiltonian",
]
