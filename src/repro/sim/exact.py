"""Exact ground-state solver for qubit Hamiltonians.

Provides the "Ground State" reference line of Figure 9.  UCCSD conserves
the alpha and beta electron counts, so a molecular caller passes the
particle-number sector its Hartree-Fock state sits in,
``(num_spatial_orbitals, num_alpha, num_beta)`` in the blocked spin
ordering of
:meth:`~repro.chem.hamiltonian.MolecularProblem.hartree_fock_occupations`
(alpha orbitals on qubits ``0..M-1``, beta on ``M..2M-1``).  The solve
then covers the ``C(M, N_alpha) * C(M, N_beta)`` basis states of that
sector -- 225 for H2O instead of 4096 -- through a matrix built straight
from the Pauli ``(x, z)`` keys and diagonalized directly (dense
``eigvalsh`` up to 500 states, sparse ``eigsh`` above).  A Hamiltonian
that does not conserve the sector, or a sector that does not fit it,
raises ``ValueError``: a leak would make the block's minimum a wrong
number.  The same block construction, :func:`restricted_matrix`, is the
Hamiltonian of :class:`repro.vqe.energy.StatevectorEnergy` when the
ansatz keeps the sector; there the state never leaves it, so the block
is exact even for a Hamiltonian that does.

Without a sector the solve covers all ``2**n`` states: dense
diagonalization for tiny systems, matrix-free Lanczos (scipy ``eigsh``
over a LinearOperator built on the grouped Pauli evaluator) above that.

H2 has one electron of each spin in two spatial orbitals, so its sector
holds 2 * 2 = 4 of the 16 basis states:

>>> from repro.chem import build_molecule_hamiltonian
>>> problem = build_molecule_hamiltonian("H2")
>>> sector = (problem.num_spatial_orbitals, problem.num_alpha, problem.num_beta)
>>> sector_basis(*sector).tolist()
[5, 6, 9, 10]
>>> round(ground_state_energy(problem.hamiltonian, sector=sector), 6)
-1.137306
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, eigsh

from repro.core.bits import popcount
from repro.pauli import PauliSum
from repro.sim.expectation import ExpectationEngine

_DENSE_QUBIT_LIMIT = 6

#: Largest sector solved by dense ``eigvalsh``; larger sectors run
#: sparse ``eigsh`` from the seeded start vector.  On one thread the two
#: tie on H2O (225 states, 4 ms each); sparse wins on BH3/NH3 (1225
#: states, 0.02 s against 0.26 s) and CH4 (4900 states, 1.0 s against
#: 17.8 s and half the memory).
_DENSE_SECTOR_LIMIT = 500

#: Fixed seed of the Lanczos starting vector.  ``eigsh`` defaults to a
#: *random* ``v0``, which makes the last float bits of the reference
#: energy run-to-run (and process-to-process) dependent -- poison for
#: the executor-determinism guarantees of ``bond_scan``/``run_batch``.
_LANCZOS_V0_SEED = 97

#: Largest matrix weight (Frobenius norm, Hartree) a sector solve may
#: drop by mapping sector states outside the sector.  Molecular
#: Hamiltonians drop ~1e-17; anything near this bound is a Hamiltonian
#: that does not conserve the sector, whose sector energy would be a
#: plausible wrong number.
_LEAK_TOLERANCE = 1e-8

#: ``i**k`` for ``k = 0..3``, exact (``1j ** k`` rounds for k >= 2).
_I_POWERS = np.array([1, 1j, -1, -1j])

#: ``(num_spatial_orbitals, num_alpha, num_beta)``.
Sector = tuple[int, int, int]


def _lanczos_v0(dim: int) -> np.ndarray:
    """A deterministic dense starting vector for ``eigsh``."""
    return np.random.default_rng(_LANCZOS_V0_SEED).standard_normal(dim)


def ground_state_energy(
    hamiltonian: PauliSum, *, sector: Sector | None = None
) -> float:
    """Lowest eigenvalue of the Hamiltonian (Hartree for molecules).

    With ``sector`` the lowest eigenvalue within that particle-number
    sector (see the module docstring); without it, over all states.
    """
    if sector is None:
        return ground_state(hamiltonian)[0]
    matrix = sector_matrix(hamiltonian, sector)
    dim = matrix.shape[0]
    if dim <= _DENSE_SECTOR_LIMIT:
        return float(np.linalg.eigvalsh(matrix.toarray())[0])
    values, _ = eigsh(matrix, k=1, which="SA", v0=_lanczos_v0(dim))
    return float(values[0])


def ground_state(hamiltonian: PauliSum) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and eigenvector of the Hamiltonian, all 2**n states.

    Deterministic: the dense path exactly so, the Lanczos path through a
    fixed seeded starting vector (identical results in every process).
    """
    n = hamiltonian.num_qubits
    dim = 1 << n
    if n <= _DENSE_QUBIT_LIMIT:
        matrix = hamiltonian.to_matrix()
        values, vectors = np.linalg.eigh(matrix)
        return float(values[0]), vectors[:, 0]

    engine = ExpectationEngine(hamiltonian)

    def matvec(vector: np.ndarray) -> np.ndarray:
        return engine.apply(vector.astype(complex))

    operator = LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    values, vectors = eigsh(operator, k=1, which="SA", v0=_lanczos_v0(dim))
    return float(values[0]), vectors[:, 0]


def sector_basis(num_spatial_orbitals: int, num_alpha: int, num_beta: int) -> np.ndarray:
    """Ascending ``uint64`` basis states of a particle-number sector.

    ``num_alpha`` bits set among qubits ``0..M-1`` and ``num_beta``
    among ``M..2M-1``, for ``M = num_spatial_orbitals``.
    """
    spin = np.arange(1 << num_spatial_orbitals, dtype=np.uint64)
    counts = popcount(spin)
    alpha = spin[counts == num_alpha]
    beta = spin[counts == num_beta] << np.uint64(num_spatial_orbitals)
    return (beta[:, None] | alpha[None, :]).ravel()


def _check_sector(hamiltonian: PauliSum, sector: Sector) -> None:
    orbitals, alpha, beta = sector
    if 2 * orbitals != hamiltonian.num_qubits:
        raise ValueError(
            f"sector of {orbitals} spatial orbitals needs {2 * orbitals} qubits; "
            f"the Hamiltonian has {hamiltonian.num_qubits}"
        )
    for label, count in (("alpha", alpha), ("beta", beta)):
        if not 0 <= count <= orbitals:
            raise ValueError(
                f"{count} {label} electrons do not fit {orbitals} spatial orbitals"
            )


def sector_matrix(hamiltonian: PauliSum, sector: Sector) -> csr_matrix:
    """The Hamiltonian restricted to a particle-number sector, sparse.

    Row and column ``i`` are ``sector_basis(*sector)[i]``; see
    :func:`restricted_matrix`.  Raises ``ValueError`` when the sector
    does not fit the Hamiltonian, or when the Hamiltonian maps sector
    states out of the sector with more than ``_LEAK_TOLERANCE`` of
    weight: the lowest eigenvalue of the block would then not be one of
    the Hamiltonian's.
    """
    _check_sector(hamiltonian, sector)
    matrix, leaked = restricted_matrix(hamiltonian, sector_basis(*sector))
    if leaked > _LEAK_TOLERANCE:
        raise ValueError(
            f"the Hamiltonian does not conserve the sector {tuple(sector)}: "
            f"{leaked:.3g} of matrix weight leaves it"
        )
    return matrix


def restricted_matrix(hamiltonian: PauliSum, basis: np.ndarray) -> tuple[csr_matrix, float]:
    """The block ``<b|H|b'>`` over a sorted ``uint64`` basis, and what leaves it.

    Each Pauli ``(x, z)`` maps ``|b>`` to ``i**popcount(x & z) * (-1)**popcount(z & b)
    |b ^ x>``; terms sharing ``x`` move every state to the same target,
    so they are summed per ``x`` over the basis states only.  The matrix
    is real (float64) when every entry is, complex otherwise.  The float
    is the Frobenius norm of the entries ``<c|H|b>`` with ``b`` in the
    basis and ``c`` outside it.  For states in the span of the basis the
    block gives ``<psi|H|psi>`` and the part of ``H|psi>`` inside the
    span exactly, whether or not H leaves the span.
    """
    dim = basis.size
    if not len(hamiltonian):
        return csr_matrix((dim, dim)), 0.0
    keys, coefficients = zip(*hamiltonian.items())  # sorted: equal x adjacent
    xs = np.array([x for x, _ in keys], dtype=np.uint64)
    zs = np.array([z for _, z in keys], dtype=np.uint64)
    weights = np.array(coefficients, dtype=complex)
    weights *= _I_POWERS[popcount(xs & zs) % 4]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    stops = np.r_[starts[1:], xs.size]

    columns = np.arange(dim)
    rows_of, columns_of, values_of = [], [], []
    leaked = 0.0
    for start, stop in zip(starts, stops):
        parity = popcount(zs[start:stop, None] & basis[None, :]) & 1
        amplitudes = weights[start:stop] @ (1.0 - 2.0 * parity)
        targets = basis ^ xs[start]
        rows = np.minimum(np.searchsorted(basis, targets), dim - 1)
        inside = basis[rows] == targets
        outside = amplitudes[~inside]
        leaked += float(np.vdot(outside, outside).real)
        rows_of.append(rows[inside])
        columns_of.append(columns[inside])
        values_of.append(amplitudes[inside])
    values = np.concatenate(values_of)
    if not values.imag.any():
        values = values.real
    entries = (np.concatenate(rows_of), np.concatenate(columns_of))
    return csr_matrix((values, entries), shape=(dim, dim)), float(np.sqrt(leaked))
