"""Scalar oracles for the chemistry substrate.

Two straight-line reference paths that ``repro.chem`` hoists and
flattens:

* the per-quartet McMurchie-Davidson ERI: every primitive quartet
  rebuilds its six Hermite tables and evaluates each ``R_tuv`` by plain
  recursion;
* the ladder-product Jordan-Wigner map: each ladder operator is a
  two-term :class:`PauliSum` and a fermion term is their operator
  product, added into a fresh sum term by term.  Its input is a
  :class:`FermionOperator`, a weighted sum of ladder products that is
  summed up with ``+=`` one term at a time.

Both do the arithmetic in the same order as the shipped code, so the
shipped ERI tensor and qubit Hamiltonians must equal them bit for bit.
"""

import math
from typing import Iterable, Iterator

import numpy as np

from repro.chem.integrals import _hermite_coefficients, boys
from repro.pauli import PauliString, PauliSum


# ----------------------------------------------------------------------
# Electron repulsion integrals
# ----------------------------------------------------------------------
def hermite_coulomb(t, u, v, n, p, pc):
    """Auxiliary Hermite Coulomb integrals R_{tuv}^n (recursive)."""
    x, y, z = pc
    if t == u == v == 0:
        r2 = x * x + y * y + z * z
        return (-2.0 * p) ** n * boys(n, p * r2)
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t > 0:
        value = (t - 1) * hermite_coulomb(t - 2, u, v, n + 1, p, pc) if t > 1 else 0.0
        return value + x * hermite_coulomb(t - 1, u, v, n + 1, p, pc)
    if u > 0:
        value = (u - 1) * hermite_coulomb(t, u - 2, v, n + 1, p, pc) if u > 1 else 0.0
        return value + y * hermite_coulomb(t, u - 1, v, n + 1, p, pc)
    value = (v - 1) * hermite_coulomb(t, u, v - 2, n + 1, p, pc) if v > 1 else 0.0
    return value + z * hermite_coulomb(t, u, v - 1, n + 1, p, pc)


def primitive_eri(
    alpha, pa_pows, a_center, beta, pb_pows, b_center,
    gamma_, pc_pows, c_center, delta, pd_pows, d_center,
):
    """(ab|cd) over four Cartesian Gaussian primitives."""
    p = alpha + beta
    q = gamma_ + delta
    composite_p = tuple((alpha * a + beta * b) / p for a, b in zip(a_center, b_center))
    composite_q = tuple(
        (gamma_ * c + delta * d) / q for c, d in zip(c_center, d_center)
    )
    omega = p * q / (p + q)
    ab2 = sum((a - b) ** 2 for a, b in zip(a_center, b_center))
    cd2 = sum((c - d) ** 2 for c, d in zip(c_center, d_center))
    prefactor = math.exp(-alpha * beta / p * ab2) * math.exp(-gamma_ * delta / q * cd2)

    e_bra = []
    e_ket = []
    for axis in range(3):
        pa = composite_p[axis] - a_center[axis]
        pb = composite_p[axis] - b_center[axis]
        e_bra.append(_hermite_coefficients(pa_pows[axis], pb_pows[axis], pa, pb, p))
        qc = composite_q[axis] - c_center[axis]
        qd = composite_q[axis] - d_center[axis]
        e_ket.append(_hermite_coefficients(pc_pows[axis], pd_pows[axis], qc, qd, q))

    pq = tuple(composite_p[axis] - composite_q[axis] for axis in range(3))
    value = 0.0
    for t in range(len(e_bra[0])):
        for u in range(len(e_bra[1])):
            for v in range(len(e_bra[2])):
                bra = e_bra[0][t] * e_bra[1][u] * e_bra[2][v]
                if bra == 0.0:
                    continue
                for tau in range(len(e_ket[0])):
                    for nu in range(len(e_ket[1])):
                        for phi in range(len(e_ket[2])):
                            ket = e_ket[0][tau] * e_ket[1][nu] * e_ket[2][phi]
                            if ket == 0.0:
                                continue
                            sign = (-1.0) ** (tau + nu + phi)
                            value += bra * ket * sign * hermite_coulomb(
                                t + tau, u + nu, v + phi, 0, omega, pq
                            )
    return (
        2.0 * math.pi**2.5
        / (p * q * math.sqrt(p + q))
        * prefactor
        * value
    )


def eri_contracted(a, b, c, d):
    """(ab|cd) over four contracted basis functions."""
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            for cc, gamma_ in zip(c.coefficients, c.exponents):
                for cd, delta in zip(d.coefficients, d.exponents):
                    value += ca * cb * cc * cd * primitive_eri(
                        alpha, a.powers, a.center,
                        beta, b.powers, b.center,
                        gamma_, c.powers, c.center,
                        delta, d.powers, d.center,
                    )
    return value


def eri_tensor(basis):
    """The full (pq|rs) tensor from the unique quartets."""
    n = len(basis)
    eri = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                s_max = q if r == p else r
                for s in range(s_max + 1):
                    value = eri_contracted(basis[p], basis[q], basis[r], basis[s])
                    for (i, j, k, l) in {
                        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
                    }:
                        eri[i, j, k, l] = value
    return eri


# ----------------------------------------------------------------------
# Jordan-Wigner
# ----------------------------------------------------------------------
LadderTerm = tuple[tuple[int, bool], ...]  # ((orbital, is_creation), ...)


class FermionOperator:
    """A weighted sum of ladder-operator products."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[LadderTerm, complex] | None = None):
        self._terms: dict[LadderTerm, complex] = dict(terms) if terms else {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "FermionOperator":
        return cls()

    @classmethod
    def identity(cls, coefficient: complex = 1.0) -> "FermionOperator":
        return cls({(): coefficient})

    @classmethod
    def from_term(cls, ladder: Iterable[tuple[int, bool]], coefficient: complex = 1.0) -> "FermionOperator":
        """E.g. ``from_term([(2, True), (0, False)])`` is ``a2+ a0``."""
        return cls({tuple(ladder): coefficient})

    @classmethod
    def creation(cls, orbital: int) -> "FermionOperator":
        return cls.from_term([(orbital, True)])

    @classmethod
    def annihilation(cls, orbital: int) -> "FermionOperator":
        return cls.from_term([(orbital, False)])

    @classmethod
    def number(cls, orbital: int) -> "FermionOperator":
        return cls.from_term([(orbital, True), (orbital, False)])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[complex, LadderTerm]]:
        for ladder in sorted(self._terms):
            yield self._terms[ladder], ladder

    def coefficient(self, ladder: LadderTerm) -> complex:
        return self._terms.get(tuple(ladder), 0.0)

    def max_orbital(self) -> int:
        """Largest orbital index appearing (or -1 for scalar operators)."""
        indices = [index for ladder in self._terms for index, _ in ladder]
        return max(indices) if indices else -1

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _add_term(self, ladder: LadderTerm, coefficient: complex) -> None:
        value = self._terms.get(ladder, 0.0) + coefficient
        if value == 0:
            self._terms.pop(ladder, None)
        else:
            self._terms[ladder] = value

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        result = FermionOperator(self._terms)
        for coefficient, ladder in other:
            result._add_term(ladder, coefficient)
        return result

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "FermionOperator":
        if isinstance(other, FermionOperator):
            result = FermionOperator()
            for c1, ladder1 in self:
                for c2, ladder2 in other:
                    result._add_term(ladder1 + ladder2, c1 * c2)
            return result
        return FermionOperator({k: v * other for k, v in self._terms.items() if v * other != 0})

    __rmul__ = __mul__

    def dagger(self) -> "FermionOperator":
        """Hermitian conjugate: reverse products, flip dagger flags."""
        result = FermionOperator()
        for coefficient, ladder in self:
            conjugated = tuple((index, not creation) for index, creation in reversed(ladder))
            result._add_term(conjugated, coefficient.conjugate() if isinstance(coefficient, complex) else coefficient)
        return result

    def is_anti_hermitian(self, tolerance: float = 1e-10) -> bool:
        total = self + self.dagger()
        return all(abs(c) < tolerance for c, _ in total)

    def __repr__(self) -> str:
        def fmt(ladder: LadderTerm) -> str:
            if not ladder:
                return "1"
            return " ".join(f"a{index}^" if creation else f"a{index}" for index, creation in ladder)

        preview = " + ".join(f"({c:.4g}) {fmt(l)}" for c, l in list(self)[:4])
        suffix = " + ..." if len(self) > 4 else ""
        return f"FermionOperator({preview}{suffix})"


def ladder_operator(num_qubits, orbital, creation):
    """JW image of ``a_p`` or ``a_p+`` as a two-term Pauli sum."""
    if not 0 <= orbital < num_qubits:
        raise ValueError(f"orbital {orbital} out of range for {num_qubits} qubits")
    z_chain = (1 << orbital) - 1  # Z on qubits 0..p-1
    x_term = PauliString(num_qubits, x=1 << orbital, z=z_chain)
    y_term = PauliString(num_qubits, x=1 << orbital, z=z_chain | (1 << orbital))
    sign = -0.5j if creation else 0.5j
    return PauliSum(num_qubits, {x_term.key(): 0.5, y_term.key(): sign})


def jordan_wigner(operator, num_qubits):
    """Multiply out each ladder product and add the terms one by one."""
    result = PauliSum.zero(num_qubits)
    for coefficient, ladder in operator:
        term = PauliSum.identity(num_qubits, coefficient)
        for orbital, creation in ladder:
            term = term @ ladder_operator(num_qubits, orbital, creation)
        result = result + term
    return result.chop()


def fermionic_hamiltonian(h1, h2, constant):
    """``constant + sum h1 a+a + 1/2 sum h2 a+a+aa`` as a FermionOperator."""
    n = h1.shape[0]
    operator = FermionOperator.identity(constant)
    for p in range(n):
        for q in range(n):
            coefficient = h1[p, q]
            if abs(coefficient) > 1e-12:
                operator += FermionOperator.from_term(
                    [(p, True), (q, False)], coefficient
                )
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    coefficient = 0.5 * h2[p, q, r, s]
                    if abs(coefficient) > 1e-12:
                        # physicist ordering a_p+ a_q+ a_s a_r
                        operator += FermionOperator.from_term(
                            [(p, True), (q, True), (s, False), (r, False)], coefficient
                        )
    return operator


def hubbard_hamiltonian(num_sites, tunneling=1.0, interaction=4.0, *, periodic=False):
    """The 1D Hubbard chain built as a FermionOperator and mapped above."""
    operator = FermionOperator.zero()
    bonds = [(i, i + 1) for i in range(num_sites - 1)]
    if periodic and num_sites > 2:
        bonds.append((num_sites - 1, 0))
    for i, j in bonds:
        for spin in (0, 1):
            p, q = i + spin * num_sites, j + spin * num_sites
            operator += FermionOperator.from_term([(p, True), (q, False)], -tunneling)
            operator += FermionOperator.from_term([(q, True), (p, False)], -tunneling)
    for i in range(num_sites):
        up, down = i, i + num_sites
        operator += FermionOperator.from_term(
            [(up, True), (up, False), (down, True), (down, False)], interaction
        )
    return jordan_wigner(operator, 2 * num_sites)


def excitation_generator(excitation):
    """``T - T+`` of a UCCSD excitation as a FermionOperator."""
    if excitation.is_single:
        excite = FermionOperator.from_term(
            [(excitation.virtual[0], True), (excitation.occupied[0], False)]
        )
    else:
        excite = FermionOperator.from_term(
            [
                (excitation.virtual[0], True),
                (excitation.virtual[1], True),
                (excitation.occupied[1], False),
                (excitation.occupied[0], False),
            ]
        )
    return excite - excite.dagger()
