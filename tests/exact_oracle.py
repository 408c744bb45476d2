"""Dense oracles for the exact solver: the whole matrix and its blocks.

Both start from :meth:`PauliSum.to_matrix` and diagonalize with
``np.linalg.eigvalsh``, sharing no code with the sector builder or the
Lanczos path of :mod:`repro.sim.exact` (fine up to ~10 qubits).
"""

import numpy as np


def spectrum(hamiltonian):
    """Every eigenvalue over all ``2**n`` states, ascending."""
    return np.linalg.eigvalsh(hamiltonian.to_matrix())


def sector_indices(num_spatial_orbitals, num_alpha, num_beta):
    """Basis states with ``num_alpha`` set bits among qubits ``0..M-1``
    and ``num_beta`` among ``M..2M-1``, ascending, by a bit-string loop."""
    m = num_spatial_orbitals
    indices = []
    for state in range(1 << (2 * m)):
        bits = format(state, f"0{2 * m}b")[::-1]  # bits[q] is qubit q
        if bits[:m].count("1") == num_alpha and bits[m:].count("1") == num_beta:
            indices.append(state)
    return indices


def sector_block(hamiltonian, sector):
    """The dense Hamiltonian's rows and columns of one sector's states."""
    indices = sector_indices(*sector)
    return hamiltonian.to_matrix()[np.ix_(indices, indices)]
