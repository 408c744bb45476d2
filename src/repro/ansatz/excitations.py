"""Enumeration of UCCSD excitations over an active space.

Counting convention (verified against Table I of the paper):

* singles:            ``occ * virt`` per spin sector;
* same-spin doubles:  ``C(occ, 2) * C(virt, 2)`` per spin sector;
* mixed-spin doubles: ``(occ_a * virt_a) * (occ_b * virt_b)`` -- every
  combination counted, no spatial deduplication.

With the per-molecule active spaces of :mod:`repro.chem.molecules` this
gives exactly 3, 8, 15, 24, 92, 92, 204, 204, 360 parameters for the nine
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.chem.jordan_wigner import LadderTerm
from repro.chem.mo_integrals import spin_orbital_index


@dataclass(frozen=True)
class Excitation:
    """A single or double excitation; indices are spin orbitals.

    ``occupied`` and ``virtual`` each hold one index (single) or two
    (double).  The generator is ``T - T+`` with
    ``T = a_{v0}+ [a_{v1}+] a_{o1} a_{o0}``.
    """

    occupied: tuple[int, ...]
    virtual: tuple[int, ...]

    @property
    def is_single(self) -> bool:
        return len(self.occupied) == 1

    @property
    def is_double(self) -> bool:
        return len(self.occupied) == 2

    def generator(self) -> list[tuple[float, LadderTerm]]:
        """The anti-Hermitian generator ``T - T+`` as ladder-sorted
        ``(coefficient, ladder)`` terms."""
        excite = tuple(
            [(index, True) for index in self.virtual]
            + [(index, False) for index in reversed(self.occupied)]
        )
        dagger = tuple((index, not creation) for index, creation in reversed(excite))
        return sorted([(1.0, excite), (-1.0, dagger)], key=lambda term: term[1])

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.occupied + self.virtual))


def generate_excitations(
    num_spatial: int, num_alpha: int, num_beta: int
) -> list[Excitation]:
    """All UCCSD excitations in deterministic order: singles first
    (alpha then beta), then same-spin doubles, then mixed doubles."""
    if num_alpha > num_spatial or num_beta > num_spatial:
        raise ValueError("more electrons of one spin than spatial orbitals")

    def orbitals(spin: int, occupied_count: int) -> tuple[list[int], list[int]]:
        occupied = [
            spin_orbital_index(p, spin, num_spatial) for p in range(occupied_count)
        ]
        virtual = [
            spin_orbital_index(p, spin, num_spatial)
            for p in range(occupied_count, num_spatial)
        ]
        return occupied, virtual

    occ_alpha, virt_alpha = orbitals(0, num_alpha)
    occ_beta, virt_beta = orbitals(1, num_beta)

    excitations: list[Excitation] = []
    # Singles.
    for occupied, virtual in ((occ_alpha, virt_alpha), (occ_beta, virt_beta)):
        for i in occupied:
            for a in virtual:
                excitations.append(Excitation((i,), (a,)))
    # Same-spin doubles.
    for occupied, virtual in ((occ_alpha, virt_alpha), (occ_beta, virt_beta)):
        for i, j in combinations(occupied, 2):
            for a, b in combinations(virtual, 2):
                excitations.append(Excitation((i, j), (a, b)))
    # Mixed-spin doubles (all combinations, Table I convention).
    for i in occ_alpha:
        for a in virt_alpha:
            for j in occ_beta:
                for b in virt_beta:
                    excitations.append(Excitation((i, j), (a, b)))
    return excitations


def count_uccsd_parameters(num_spatial: int, num_alpha: int, num_beta: int) -> int:
    """Closed-form parameter count (used by tests against Table I)."""
    def comb2(k: int) -> int:
        return k * (k - 1) // 2

    virt_alpha = num_spatial - num_alpha
    virt_beta = num_spatial - num_beta
    singles = num_alpha * virt_alpha + num_beta * virt_beta
    same_spin = comb2(num_alpha) * comb2(virt_alpha) + comb2(num_beta) * comb2(virt_beta)
    mixed = num_alpha * virt_alpha * num_beta * virt_beta
    return singles + same_spin + mixed
