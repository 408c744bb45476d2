"""Fermi-Hubbard model Hamiltonians (paper SS VII, "more physical systems").

The paper argues its Pauli-string-centric principle extends beyond
chemistry, naming the Hubbard model [58] explicitly.  This module builds
the one-dimensional (optionally periodic) Hubbard Hamiltonian

    H = -t sum_{<i,j>, sigma} (a_{i sigma}+ a_{j sigma} + h.c.)
        + U sum_i n_{i up} n_{i down}

in the same blocked spin-orbital encoding the chemistry stack uses, so it
flows through the identical compression / architecture / compilation
pipeline.
"""

from __future__ import annotations

from repro.chem.jordan_wigner import LadderTerm, jordan_wigner
from repro.pauli import PauliSum


def hubbard_hamiltonian(
    num_sites: int,
    tunneling: float = 1.0,
    interaction: float = 4.0,
    *,
    periodic: bool = False,
) -> PauliSum:
    """Qubit Hamiltonian of the 1D Hubbard chain (2 qubits per site)."""
    if num_sites < 2:
        raise ValueError("need at least two sites")
    num_qubits = 2 * num_sites

    def spin_orbital(site: int, spin: int) -> int:
        return site + spin * num_sites  # blocked ordering, like chemistry

    terms: dict[LadderTerm, float] = {}
    bonds = [(i, i + 1) for i in range(num_sites - 1)]
    if periodic and num_sites > 2:
        bonds.append((num_sites - 1, 0))
    for i, j in bonds:
        for spin in (0, 1):
            p, q = spin_orbital(i, spin), spin_orbital(j, spin)
            terms[(p, True), (q, False)] = -tunneling
            terms[(q, True), (p, False)] = -tunneling
    for i in range(num_sites):
        up, down = spin_orbital(i, 0), spin_orbital(i, 1)
        terms[(up, True), (up, False), (down, True), (down, False)] = interaction
    return jordan_wigner(((terms[ladder], ladder) for ladder in sorted(terms)), num_qubits)
