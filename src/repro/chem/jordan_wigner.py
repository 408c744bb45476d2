"""Jordan-Wigner encoding [54] of fermionic operators into Pauli sums.

Spin orbital p maps to qubit p with

    a_p  = Z_{p-1} ... Z_0 (X_p + i Y_p) / 2
    a_p+ = Z_{p-1} ... Z_0 (X_p - i Y_p) / 2

A ladder product is multiplied out on symplectic ``(x, z)`` masks, one
ladder operator at a time, and every term is added in place into one
dict in arrival order.  Each product multiplies the same operands, in
the same order, as the operator product of the two-term Pauli sums of
the ladder operators, so the coefficients equal that product's bit for
bit (the oracle in ``tests/chem_oracle.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.pauli import PauliSum

LadderTerm = tuple[tuple[int, bool], ...]  # ((orbital, is_creation), ...)

#: ``(1j) ** k``: the phase of a Pauli product whose i-count is k mod 4.
_PHASES = tuple((1j) ** k for k in range(4))
#: i-count of ``P X`` and ``P Y`` on one qubit, indexed by P = I, X, Z, Y
#: as ``x + 2 z``: e.g. ``Z X = iY`` and ``Y X = -iZ``.
_TIMES_X = (0, 0, 1, -1)
_TIMES_Y = (0, 1, -1, 0)


def _accumulate(terms: dict[tuple[int, int], complex], key: tuple[int, int], value) -> None:
    """``PauliSum.add_key`` on a bare dict: a sum that cancels to 0 drops out."""
    total = terms.get(key, 0.0) + value
    if total == 0:
        terms.pop(key, None)
    else:
        terms[key] = total


def jordan_wigner(
    terms: Iterable[tuple[complex, LadderTerm]], num_qubits: int | None = None
) -> PauliSum:
    """Map ``(coefficient, ladder)`` terms to a qubit operator.

    A ladder is ``((orbital, is_creation), ...)``, e.g. ``((2, True),
    (0, False))`` for ``a2+ a0``.  The number of qubits defaults to
    ``max_orbital + 1``.
    """
    if num_qubits is None:
        terms = list(terms)
        num_qubits = max((index for _, ladder in terms for index, _ in ladder), default=-1) + 1
        if num_qubits <= 0:
            raise ValueError("cannot infer qubit count from a scalar operator")
    result: dict[tuple[int, int], complex] = {}
    for coefficient, ladder in terms:
        product = {(0, 0): coefficient}
        for orbital, creation in ladder:
            if not 0 <= orbital < num_qubits:
                raise ValueError(f"orbital {orbital} out of range for {num_qubits} qubits")
            # Right-multiply by a_p (a_p+) = Z_chain (X_p +(-) i Y_p) / 2.
            bit = 1 << orbital
            chain = bit - 1
            y_coefficient = -0.5j if creation else 0.5j
            expanded: dict[tuple[int, int], complex] = {}
            for (x, z), c in product.items():
                # Z on the chain: Y Z = iX and X Z = -iY.
                k = (x & z & chain).bit_count() - (x & ~z & chain).bit_count()
                here = (x >> orbital & 1) + 2 * (z >> orbital & 1)
                _accumulate(
                    expanded, (x ^ bit, z ^ chain), c * 0.5 * _PHASES[(k + _TIMES_X[here]) % 4]
                )
                _accumulate(
                    expanded,
                    (x ^ bit, z ^ chain ^ bit),
                    c * y_coefficient * _PHASES[(k + _TIMES_Y[here]) % 4],
                )
            product = expanded
        for key, value in product.items():
            _accumulate(result, key, value)
    return PauliSum(num_qubits, result).chop()
