"""Fast Pauli-string action and exponential on statevectors.

Because every Pauli string is a signed permutation in the computational
basis, ``P |psi>`` can be evaluated in O(2^n) with bit arithmetic, and

    exp(i theta P) |psi> = cos(theta) |psi> + i sin(theta) P |psi>

(P is an involution).  The VQE energy loop evolves the ansatz directly at
the Pauli level through this identity, which is dramatically faster than
gate-by-gate simulation of the synthesized circuit while being exactly
equivalent (the synthesized circuits are verified against this in tests).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.bits import popcount
from repro.pauli import PauliString

_INDEX_CACHE: dict[int, np.ndarray] = {}


def _all_indices(num_qubits: int) -> np.ndarray:
    """Cached ``arange(2^n)`` (uint64) reused across calls."""
    cached = _INDEX_CACHE.get(num_qubits)
    if cached is None:
        cached = np.arange(1 << num_qubits, dtype=np.uint64)
        if num_qubits <= 24:
            # lint: ignore[RR101] - idempotent memo: racing writers store equal values
            _INDEX_CACHE[num_qubits] = cached
    return cached


def parity_signs(num_qubits: int, z_mask: int) -> np.ndarray:
    """Vector of ``(-1)^{popcount(b & z_mask)}`` over all basis states b."""
    indices = _all_indices(num_qubits)
    parity = popcount(indices & np.uint64(z_mask)) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def apply_pauli(pauli: PauliString, state: np.ndarray) -> np.ndarray:
    """Return ``P |state>``.

    Derivation: ``P|c> = i^{#Y} (-1)^{popcount(c & z)} |c ^ x>``, so the
    new amplitude at ``b`` is ``phase(b ^ x) * psi[b ^ x]``.
    """
    n = pauli.num_qubits
    if state.shape[0] != (1 << n):
        raise ValueError("state dimension does not match Pauli size")
    signs = parity_signs(n, pauli.z)
    phase = (1j) ** (pauli.y_count() % 4)
    result = phase * (signs * state)
    if pauli.x:
        indices = _all_indices(n) ^ np.uint64(pauli.x)
        result = result[indices]
    return result


def apply_pauli_exponential(pauli: PauliString, theta: float, state: np.ndarray) -> np.ndarray:
    """Return ``exp(i theta P) |state>``."""
    if pauli.is_identity():
        return np.exp(1j * theta) * state
    return math.cos(theta) * state + 1j * math.sin(theta) * apply_pauli(pauli, state)


def evolve_pauli_sequence(
    terms: list[tuple[PauliString, float]], state: np.ndarray
) -> np.ndarray:
    """Apply ``prod_k exp(i theta_k P_k)`` (first term applied first)."""
    current = state
    for pauli, theta in terms:
        current = apply_pauli_exponential(pauli, theta, current)
    return current


# ----------------------------------------------------------------------
# In-place single-point fast path
# ----------------------------------------------------------------------
#: Byte budget for cached parity-sign vectors (keyed by (n, z)); molecular
#: programs revisit the same Z masks every sweep point and optimizer
#: iteration, so the cache turns the per-term popcount pass into a lookup.
_SIGNS_CACHE: dict[tuple[int, int], np.ndarray] = {}
_SIGNS_CACHE_BYTE_LIMIT = 64 << 20


def cached_parity_signs(num_qubits: int, z_mask: int) -> np.ndarray:
    """Memoized :func:`parity_signs`.

    The returned array is shared -- callers must not mutate it.
    """
    key = (num_qubits, z_mask)
    signs = _SIGNS_CACHE.get(key)
    if signs is None:
        signs = parity_signs(num_qubits, z_mask)
        cached_bytes = sum(v.nbytes for v in _SIGNS_CACHE.values())
        if cached_bytes + signs.nbytes <= _SIGNS_CACHE_BYTE_LIMIT:
            # lint: ignore[RR101] - idempotent memo: racing writers store equal values
            _SIGNS_CACHE[key] = signs
    return signs


_XOR_INDEX_CACHE: dict[tuple[int, int], np.ndarray] = {}


def cached_xor_indices(num_qubits: int, x_mask: int) -> np.ndarray:
    """Memoized gather indices ``b -> b ^ x`` (shared; do not mutate)."""
    key = (num_qubits, x_mask)
    indices = _XOR_INDEX_CACHE.get(key)
    if indices is None:
        indices = _all_indices(num_qubits) ^ np.uint64(x_mask)
        cached_bytes = sum(v.nbytes for v in _XOR_INDEX_CACHE.values())
        if cached_bytes + indices.nbytes <= _SIGNS_CACHE_BYTE_LIMIT:
            # lint: ignore[RR101] - idempotent memo: racing writers store equal values
            _XOR_INDEX_CACHE[key] = indices
    return indices


def pauli_sign_factor(pauli: PauliString) -> complex:
    """The scalar ``(-i)**#Y`` making ``P = factor * signs(z) . perm_x``.

    Follows from ``signs_z[b ^ x] = signs_z[b] * (-1)**popcount(x & z)``
    and ``popcount(x & z) = #Y``: the permuted parity vector is the
    unpermuted one times a global sign, so the whole Pauli action needs
    only the cached Z-parity vector, the XOR view, and this scalar.
    """
    return (-1j) ** (pauli.y_count() % 4)


class PauliEvolutionWorkspace:
    """Preallocated scratch for allocation-free exponential application.

    The scratch buffer matches the statevector's ``shape``.  One
    workspace is reused across every term of an evolution and across
    evaluations, which is what eliminates the per-term allocations of
    :func:`evolve_pauli_sequence`.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = tuple(shape)
        self._a = np.empty(self.shape, dtype=complex)

    def apply_pauli_into(self, pauli: PauliString, state: np.ndarray) -> np.ndarray:
        """Compute ``P |state>`` into scratch and return that buffer.

        The result aliases workspace scratch -- consume it before the
        next call.
        """
        n = pauli.num_qubits
        if pauli.x:
            np.take(state, cached_xor_indices(n, pauli.x), axis=-1, out=self._a)
        else:
            np.copyto(self._a, state)
        self._a *= cached_parity_signs(n, pauli.z)
        factor = pauli_sign_factor(pauli)
        if factor != 1.0:
            self._a *= factor
        return self._a

    def apply_exponential_inplace(
        self, pauli: PauliString, theta: float, state: np.ndarray
    ) -> np.ndarray:
        """Mutate ``state`` to ``exp(i theta P) |state>``; returns it."""
        if pauli.is_identity():
            state *= np.exp(1j * theta)
            return state
        n = pauli.num_qubits
        rotated = self._a
        if pauli.x:
            np.take(state, cached_xor_indices(n, pauli.x), axis=-1, out=rotated)
        else:
            np.copyto(rotated, state)
        rotated *= cached_parity_signs(n, pauli.z)
        # i * sin(theta) * (-i)**#Y folds the permuted-parity sign and the
        # Y phase into one scalar (see pauli_sign_factor): the gathered
        # signs vector equals the unpermuted one times (-1)**#Y.
        state *= math.cos(theta)
        rotated *= 1j * pauli_sign_factor(pauli) * math.sin(theta)
        state += rotated
        return state

    def evolve_inplace(
        self,
        paulis: Sequence[PauliString],
        angles: Sequence[float],
        state: np.ndarray,
    ) -> np.ndarray:
        """Apply ``prod_k exp(i angles[k] P_k)`` in place (first term first)."""
        for pauli, theta in zip(paulis, angles, strict=True):
            self.apply_exponential_inplace(pauli, float(theta), state)
        return state
