"""Gaussian integral evaluation over contracted Cartesian Gaussians.

Implements the McMurchie-Davidson scheme for the four integral classes a
minimal-basis Hartree-Fock needs: overlap, kinetic, nuclear attraction and
electron repulsion.  Primitives are Cartesian Gaussians

    g(r; alpha, l, m, n, A) = (x-Ax)^l (y-Ay)^m (z-Az)^n exp(-alpha |r-A|^2)

with l+m+n <= 1 (s and p) for STO-3G, though the recursions below are
written generally and tested up to d-type Hermite orders.

References: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978);
Helgaker, Jorgensen & Olsen, "Molecular Electronic-Structure Theory".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gamma

from repro.chem.basis_data import Shell, shells_for_element

# Cartesian components (l, m, n) per angular momentum.
_ANGULAR_COMPONENTS = {
    0: [(0, 0, 0)],
    1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


@dataclass(frozen=True)
class BasisFunction:
    """A contracted Cartesian Gaussian centred on an atom."""

    center: tuple[float, float, float]
    powers: tuple[int, int, int]
    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]  # contraction coefs * primitive norms
    atom_index: int
    label: str


def _primitive_norm(alpha: float, powers: tuple[int, int, int]) -> float:
    """Normalization constant of one Cartesian Gaussian primitive."""
    l, m, n = powers
    prefactor = (2.0 * alpha / math.pi) ** 0.75
    numerator = (4.0 * alpha) ** ((l + m + n) / 2.0)
    denominator = math.sqrt(
        _double_factorial(2 * l - 1)
        * _double_factorial(2 * m - 1)
        * _double_factorial(2 * n - 1)
    )
    return prefactor * numerator / denominator


def _double_factorial(k: int) -> float:
    if k <= 0:
        return 1.0
    result = 1.0
    while k > 1:
        result *= k
        k -= 2
    return result


def build_basis(
    symbols: list[str], coordinates_bohr: np.ndarray
) -> list[BasisFunction]:
    """Construct the STO-3G basis for a molecule (coordinates in Bohr)."""
    functions: list[BasisFunction] = []
    for atom_index, symbol in enumerate(symbols):
        center = tuple(float(c) for c in coordinates_bohr[atom_index])
        shell_counter: dict[int, int] = {}
        for shell in shells_for_element(symbol):
            shell_counter[shell.angular_momentum] = (
                shell_counter.get(shell.angular_momentum, 0) + 1
            )
            for powers in _ANGULAR_COMPONENTS[shell.angular_momentum]:
                functions.append(
                    _contracted_function(symbol, atom_index, center, shell, powers)
                )
    return functions


def _contracted_function(
    symbol: str,
    atom_index: int,
    center: tuple[float, float, float],
    shell: Shell,
    powers: tuple[int, int, int],
) -> BasisFunction:
    coefficients = tuple(
        c * _primitive_norm(alpha, powers)
        for c, alpha in zip(shell.coefficients, shell.exponents)
    )
    function = BasisFunction(
        center=center,
        powers=powers,
        exponents=shell.exponents,
        coefficients=coefficients,
        atom_index=atom_index,
        label=f"{symbol}{atom_index}:{'spdf'[shell.angular_momentum]}{powers}",
    )
    # Renormalize the contraction so <chi|chi> = 1 even when tabulated
    # contraction coefficients are only approximately normalized.
    norm = math.sqrt(_overlap_contracted(function, function))
    return BasisFunction(
        center=center,
        powers=powers,
        exponents=shell.exponents,
        coefficients=tuple(c / norm for c in function.coefficients),
        atom_index=atom_index,
        label=function.label,
    )


# ----------------------------------------------------------------------
# Hermite expansion coefficients E_t^{ij}
# ----------------------------------------------------------------------
def _hermite_coefficients(l1: int, l2: int, pa: float, pb: float, p: float) -> np.ndarray:
    """E[t] for the 1D product of two Gaussians, t = 0 .. l1+l2.

    pa = Px - Ax, pb = Px - Bx, p = combined exponent alpha + beta.
    Built with the standard upward recursions in (i, j).
    """
    one_over_2p = 0.5 / p
    # One extra slot in t so the E(i-1, t+1) lookups never go out of range.
    table = np.zeros((l1 + 1, l2 + 1, l1 + l2 + 2))
    table[0, 0, 0] = 1.0
    for i in range(1, l1 + 1):
        for t in range(i + 1):
            table[i, 0, t] = (
                (table[i - 1, 0, t - 1] * one_over_2p if t > 0 else 0.0)
                + pa * table[i - 1, 0, t]
                + (t + 1) * table[i - 1, 0, t + 1]
            )
    for j in range(1, l2 + 1):
        for i in range(l1 + 1):
            for t in range(i + j + 1):
                table[i, j, t] = (
                    (table[i, j - 1, t - 1] * one_over_2p if t > 0 else 0.0)
                    + pb * table[i, j - 1, t]
                    + (t + 1) * table[i, j - 1, t + 1]
                )
    return table[l1, l2, : l1 + l2 + 1]


# ----------------------------------------------------------------------
# Boys function
# ----------------------------------------------------------------------
def boys(n: int, x: float) -> float:
    """The Boys function F_n(x) = int_0^1 t^{2n} exp(-x t^2) dt."""
    if x < 1e-12:
        return 1.0 / (2 * n + 1)
    half = n + 0.5
    return 0.5 * gamma(half) * gammainc(half, x) / (x**half)


# ----------------------------------------------------------------------
# Primitive integrals
# ----------------------------------------------------------------------
def _primitive_overlap(alpha, powers_a, center_a, beta, powers_b, center_b) -> float:
    p = alpha + beta
    mu = alpha * beta / p
    ab2 = sum((a - b) ** 2 for a, b in zip(center_a, center_b))
    prefactor = math.exp(-mu * ab2)
    value = prefactor * (math.pi / p) ** 1.5
    for axis in range(3):
        pax = (alpha * center_a[axis] + beta * center_b[axis]) / p - center_a[axis]
        pbx = (alpha * center_a[axis] + beta * center_b[axis]) / p - center_b[axis]
        e = _hermite_coefficients(powers_a[axis], powers_b[axis], pax, pbx, p)
        value *= e[0]
    return value


def _primitive_kinetic(alpha, powers_a, center_a, beta, powers_b, center_b) -> float:
    """Kinetic energy via the Gaussian differentiation identity."""
    l2, m2, n2 = powers_b

    def overlap_shifted(db: tuple[int, int, int]) -> float:
        shifted = (l2 + db[0], m2 + db[1], n2 + db[2])
        if any(component < 0 for component in shifted):
            return 0.0
        return _primitive_overlap(alpha, powers_a, center_a, beta, shifted, center_b)

    term0 = beta * (2 * (l2 + m2 + n2) + 3) * overlap_shifted((0, 0, 0))
    term1 = -2.0 * beta**2 * (
        overlap_shifted((2, 0, 0)) + overlap_shifted((0, 2, 0)) + overlap_shifted((0, 0, 2))
    )
    term2 = -0.5 * (
        l2 * (l2 - 1) * overlap_shifted((-2, 0, 0))
        + m2 * (m2 - 1) * overlap_shifted((0, -2, 0))
        + n2 * (n2 - 1) * overlap_shifted((0, 0, -2))
    )
    return term0 + term1 + term2


# Hermite Coulomb tables are dicts keyed by one int per (t, u, v),
# ``(t * _STRIDE + u) * _STRIDE + v``, so the key of (t+tau, u+nu, v+phi)
# is the sum of the bra and ket keys.  Any order below _STRIDE fits.
_STRIDE = 16
_ERI_PREFACTOR = 2.0 * math.pi**2.5


def _tuv_key(t: int, u: int, v: int) -> int:
    return (t * _STRIDE + u) * _STRIDE + v


@lru_cache(maxsize=None)
def _tuv_recursion(limit: int) -> tuple[tuple[int, int, int, int], ...]:
    """(key, axis, step, k) for every 0 < t+u+v <= limit, lowest total first.

    ``axis`` is the first nonzero index of (t, u, v), ``k`` its value and
    ``step`` its key stride: the recursion lowers it.
    """
    steps = []
    for total in range(1, limit + 1):
        for t in range(total, -1, -1):
            for u in range(total - t, -1, -1):
                v = total - t - u
                axis = 0 if t else (1 if u else 2)
                step = (_STRIDE * _STRIDE, _STRIDE, 1)[axis]
                steps.append((_tuv_key(t, u, v), axis, step, (t, u, v)[axis]))
    return tuple(steps)


def _hermite_coulomb_table(
    order: int, p: float, pc: tuple[float, float, float]
) -> dict[int, float]:
    """Auxiliary Hermite Coulomb integrals R_{tuv}^0 for all t+u+v <= order.

    Level n holds R_{tuv}^n for t+u+v <= order-n and is built from level
    n+1 by the McMurchie-Davidson recursion on the first nonzero index,
    e.g. R_{tuv}^n = (t-1) R_{t-2,u,v}^{n+1} + X_PC R_{t-1,u,v}^{n+1}.
    """
    x, y, z = pc
    argument = p * (x * x + y * y + z * z)
    upper: dict[int, float] = {}
    for n in range(order, -1, -1):
        level = {0: (-2.0 * p) ** n * boys(n, argument)}
        for key, axis, step, k in _tuv_recursion(order - n):
            value = (k - 1) * upper[key - 2 * step] if k > 1 else 0.0
            level[key] = value + pc[axis] * upper[key - step]
        upper = level
    return upper


def _primitive_nuclear(
    alpha, powers_a, center_a, beta, powers_b, center_b, nucleus
) -> float:
    p = alpha + beta
    composite = tuple(
        (alpha * a + beta * b) / p for a, b in zip(center_a, center_b)
    )
    mu = alpha * beta / p
    ab2 = sum((a - b) ** 2 for a, b in zip(center_a, center_b))
    prefactor = math.exp(-mu * ab2)
    es = []
    for axis in range(3):
        pa = composite[axis] - center_a[axis]
        pb = composite[axis] - center_b[axis]
        es.append(_hermite_coefficients(powers_a[axis], powers_b[axis], pa, pb, p))
    pc = tuple(composite[axis] - nucleus[axis] for axis in range(3))
    r = _hermite_coulomb_table(sum(powers_a) + sum(powers_b), p, pc)
    value = 0.0
    for t in range(len(es[0])):
        for u in range(len(es[1])):
            for v in range(len(es[2])):
                value += es[0][t] * es[1][u] * es[2][v] * r[_tuv_key(t, u, v)]
    return 2.0 * math.pi / p * prefactor * value


class _PairGeometry:
    """The exponent sum p and centre P shared by some primitive pairs.

    An sp shell's s and p functions share exponents, so their primitive
    pairs meet at one (p, P), and every quartet of two geometries needs
    the same R table.  ``order`` grows to the largest l_a + l_b of any
    member, so one table serves them all.
    """

    __slots__ = ("exponent", "center", "order")

    def __init__(self, exponent: float, center: tuple[float, ...]):
        self.exponent = exponent
        self.center = center
        self.order = 0


@dataclass(frozen=True)
class _PrimitivePair:
    """Everything a primitive pair (alpha on A, beta on B) adds to an ERI.

    ``hermite`` lists the nonzero products E_t E_u E_v of the Hermite
    expansion as (tuv key, value) in (t, u, v) order; ``signed`` holds
    the same products times (-1)^(t+u+v) for use on the ket side.
    """

    coefficients: tuple[float, float]
    gaussian: float                    # exp(-alpha beta / p |AB|^2)
    geometry: _PairGeometry
    hermite: tuple[tuple[int, float], ...]
    signed: tuple[tuple[int, float], ...]


def _primitive_pairs(
    a: BasisFunction, b: BasisFunction, geometries: dict[tuple, _PairGeometry]
) -> list[_PrimitivePair]:
    """The primitive pairs of a contracted pair, a's primitives outermost.

    ``geometries`` maps (p, P) to the shared :class:`_PairGeometry`.
    """
    pairs = []
    ab2 = sum((x - y) ** 2 for x, y in zip(a.center, b.center))
    order = sum(a.powers) + sum(b.powers)
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            p = alpha + beta
            center = tuple((alpha * x + beta * y) / p for x, y in zip(a.center, b.center))
            geometry = geometries.get((p, center))
            if geometry is None:
                geometry = geometries[p, center] = _PairGeometry(p, center)
            geometry.order = max(geometry.order, order)
            es = [
                _hermite_coefficients(
                    a.powers[axis], b.powers[axis],
                    center[axis] - a.center[axis], center[axis] - b.center[axis], p,
                ).tolist()
                for axis in range(3)
            ]
            hermite = []
            signed = []
            for t, et in enumerate(es[0]):
                for u, eu in enumerate(es[1]):
                    for v, ev in enumerate(es[2]):
                        product = et * eu * ev
                        if product != 0.0:
                            key = _tuv_key(t, u, v)
                            hermite.append((key, product))
                            signed.append((key, product * (-1.0) ** (t + u + v)))
            pairs.append(_PrimitivePair(
                coefficients=(ca, cb),
                gaussian=math.exp(-alpha * beta / p * ab2),
                geometry=geometry,
                hermite=tuple(hermite),
                signed=tuple(signed),
            ))
    return pairs


def _eri_contracted(
    bra: list[_PrimitivePair],
    ket: list[_PrimitivePair],
    tables: dict[tuple[_PairGeometry, _PairGeometry], dict[int, float]],
) -> float:
    """(ab|cd) from the primitive pairs of (a, b) and of (c, d).

    ``tables`` memoizes one R table per pair of geometries.
    """
    value = 0.0
    for left in bra:
        ca, cb = left.coefficients
        lg = left.geometry
        p = lg.exponent
        for right in ket:
            rg = right.geometry
            q = rg.exponent
            r = tables.get((lg, rg))
            if r is None:
                r = tables[lg, rg] = _hermite_coulomb_table(
                    lg.order + rg.order,
                    p * q / (p + q),
                    tuple(x - y for x, y in zip(lg.center, rg.center)),
                )
            primitive = 0.0
            for bra_key, bra_value in left.hermite:
                for ket_key, ket_value in right.signed:
                    primitive += bra_value * ket_value * r[bra_key + ket_key]
            primitive = (
                _ERI_PREFACTOR / (p * q * math.sqrt(p + q))
                * (left.gaussian * right.gaussian)
                * primitive
            )
            cc, cd = right.coefficients
            value += ca * cb * cc * cd * primitive
    return value


# ----------------------------------------------------------------------
# Contracted integrals
# ----------------------------------------------------------------------
def _overlap_contracted(a: BasisFunction, b: BasisFunction) -> float:
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            value += ca * cb * _primitive_overlap(
                alpha, a.powers, a.center, beta, b.powers, b.center
            )
    return value


def _kinetic_contracted(a: BasisFunction, b: BasisFunction) -> float:
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            value += ca * cb * _primitive_kinetic(
                alpha, a.powers, a.center, beta, b.powers, b.center
            )
    return value


def _nuclear_contracted(
    a: BasisFunction, b: BasisFunction, charges: list[int], nuclei: np.ndarray
) -> float:
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            accumulated = 0.0
            for charge, nucleus in zip(charges, nuclei):
                accumulated -= charge * _primitive_nuclear(
                    alpha, a.powers, a.center, beta, b.powers, b.center, tuple(nucleus)
                )
            value += ca * cb * accumulated
    return value


@dataclass
class IntegralTables:
    """All AO integrals of a molecule (chemist's notation for the ERI)."""

    overlap: np.ndarray         # S[p, q]
    kinetic: np.ndarray         # T[p, q]
    nuclear: np.ndarray         # V[p, q] (attraction, negative)
    eri: np.ndarray             # (pq|rs)
    nuclear_repulsion: float


def nuclear_repulsion(charges: list[int], coordinates_bohr: np.ndarray) -> float:
    energy = 0.0
    for i in range(len(charges)):
        for j in range(i + 1, len(charges)):
            distance = float(np.linalg.norm(coordinates_bohr[i] - coordinates_bohr[j]))
            energy += charges[i] * charges[j] / distance
    return energy


def compute_integrals(
    basis: list[BasisFunction], charges: list[int], coordinates_bohr: np.ndarray
) -> IntegralTables:
    """Evaluate S, T, V and (pq|rs) over the contracted basis.

    The ERI visits each of the 8-fold symmetric quartets once.  Its
    per-primitive-pair work (centre, Gaussian factor, Hermite products)
    is done once per contracted pair, and each R table once per pair of
    pair geometries; the primitive sums run in quartet order.
    """
    n = len(basis)
    overlap = np.zeros((n, n))
    kinetic = np.zeros((n, n))
    nuclear = np.zeros((n, n))
    for p in range(n):
        for q in range(p, n):
            overlap[p, q] = overlap[q, p] = _overlap_contracted(basis[p], basis[q])
            kinetic[p, q] = kinetic[q, p] = _kinetic_contracted(basis[p], basis[q])
            value = _nuclear_contracted(basis[p], basis[q], charges, coordinates_bohr)
            nuclear[p, q] = nuclear[q, p] = value

    geometries: dict[tuple, _PairGeometry] = {}
    pairs = {
        (p, q): _primitive_pairs(basis[p], basis[q], geometries)
        for p in range(n)
        for q in range(p + 1)
    }
    tables: dict[tuple[_PairGeometry, _PairGeometry], dict[int, float]] = {}
    eri = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                s_max = q if r == p else r
                for s in range(s_max + 1):
                    value = _eri_contracted(pairs[p, q], pairs[r, s], tables)
                    eri[p, q, r, s] = eri[q, p, r, s] = eri[p, q, s, r] = value
                    eri[q, p, s, r] = eri[r, s, p, q] = eri[s, r, p, q] = value
                    eri[r, s, q, p] = eri[s, r, q, p] = value

    return IntegralTables(
        overlap=overlap,
        kinetic=kinetic,
        nuclear=nuclear,
        eri=eri,
        nuclear_repulsion=nuclear_repulsion(charges, coordinates_bohr),
    )
