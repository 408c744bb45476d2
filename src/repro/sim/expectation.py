"""Expectation values of Pauli sums on statevectors.

The naive path evaluates ``<psi|P|psi>`` term by term.  The
:class:`ExpectationEngine` groups Hamiltonian terms by their X mask: all
terms sharing ``x`` act as ``perm_x . diag`` with a combined diagonal

    D_x[b] = sum_z c_{x,z} * i^{#Y(x,z)} * (-1)^{popcount(b & z)}

so ``<psi|H|psi> = sum_x <psi| perm_x (D_x * psi)>``.  Molecular
Hamiltonians have far fewer distinct X masks than terms, which makes the
grouped evaluation several times faster -- it is also the operator the
exact ground-state solver applies inside Lanczos iterations.

Usage -- build the engine once per observable, evaluate per state:

>>> import numpy as np
>>> from repro.pauli import PauliSum
>>> from repro.sim.expectation import ExpectationEngine
>>> from repro.sim.statevector import basis_state
>>> observable = PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.5})
>>> engine = ExpectationEngine(observable)
>>> engine.num_groups        # two distinct X masks -> two grouped diagonals
2
>>> round(engine.value(basis_state(2, 0)), 12)   # <00|ZZ|00> = 1, <00|XI|00> = 0
1.0
>>> states = np.stack([basis_state(2, 0), basis_state(2, 3)])
>>> engine.values(states)    # batched: one row per state, one vectorized pass
array([1., 1.])
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg.blas import daxpy, zaxpy

from repro.pauli import PauliSum
from repro.sim.pauli_evolution import cached_xor_indices, parity_signs


def _axpy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y += x`` in place as one fused BLAS pass; returns ``y``."""
    if y.dtype == np.float64:
        daxpy(x, y, a=1.0)
    else:
        zaxpy(x, y, a=1.0)
    return y


def expectation(observable: PauliSum, state: np.ndarray) -> float:
    """Term-by-term ``<state|observable|state>`` (real part).

    Intended for tests and small observables; use
    :class:`ExpectationEngine` in loops.
    """
    from repro.sim.pauli_evolution import apply_pauli

    value = 0.0 + 0.0j
    for coefficient, pauli in observable:
        value += coefficient * np.vdot(state, apply_pauli(pauli, state))
    return float(value.real)


class ExpectationEngine:
    """Precompiled evaluator of one Pauli-sum observable.

    Groups terms by X mask and caches the combined diagonals; construction
    is O(#terms * 2^n) once, evaluation is O(#groups * 2^n) per state.
    """

    def __init__(
        self,
        observable: PauliSum,
        max_bytes: int = 1 << 30,
    ) -> None:
        self.num_qubits = observable.num_qubits
        self.num_terms = len(observable)
        dim = 1 << self.num_qubits
        groups: dict[int, list[tuple[int, complex]]] = {}
        for (x, z), coefficient in observable.items():
            groups.setdefault(x, []).append((z, coefficient))

        estimated = len(groups) * dim * 16
        if estimated > max_bytes:
            raise MemoryError(
                f"grouped diagonals would need ~{estimated >> 20} MiB; "
                "raise max_bytes or evaluate term-by-term"
            )

        self._x_masks: list[int] = []
        self._diagonals: list[np.ndarray] = []
        for x, zs in sorted(groups.items()):
            diagonal = np.zeros(dim, dtype=complex)
            for z, coefficient in zs:
                y_count = (x & z).bit_count()
                phase = (1j) ** (y_count % 4)
                diagonal += coefficient * phase * parity_signs(self.num_qubits, z)
            self._x_masks.append(x)
            self._diagonals.append(diagonal)

        #: Real parts of the grouped diagonals, built lazily on the first
        #: real-arithmetic evaluation (see :meth:`values_real`).
        self._real_diagonals: list[np.ndarray] | None = None

    @classmethod
    def from_arrays(
        cls,
        num_qubits: int,
        x_masks: Sequence[int],
        diagonals: np.ndarray,
        *,
        num_terms: int = 0,
    ) -> "ExpectationEngine":
        """Rebuild an engine from exported tables without a PauliSum.

        The zero-copy path of the process-pool executors: a worker maps
        the ``(G, 2**n)`` diagonal stack and G-vector of X masks exported
        by :meth:`export_tables` out of shared memory and wires them
        straight in, skipping both pickling and reconstruction.
        """
        engine = cls.__new__(cls)
        engine.num_qubits = int(num_qubits)
        engine.num_terms = int(num_terms)
        engine._x_masks = [int(x) for x in x_masks]
        engine._diagonals = [np.asarray(d, dtype=complex) for d in diagonals]
        engine._real_diagonals = None
        return engine

    def export_tables(self) -> dict[str, np.ndarray]:
        """Flat numpy tables for :meth:`from_arrays` (shared-memory safe).

        ``x_masks`` is ``(G,)`` uint64 and ``diagonals`` is ``(G, 2**n)``
        complex128 -- contiguous arrays a :class:`repro.core.shm.SharedSlabs`
        segment can hold directly.
        """
        return {
            "x_masks": np.asarray(self._x_masks, dtype=np.uint64),
            "diagonals": np.stack(self._diagonals),
        }

    @property
    def num_groups(self) -> int:
        return len(self._x_masks)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Return ``H |state>`` (used by the exact eigensolver)."""
        state = np.asarray(state, dtype=complex)
        result = np.zeros(state.shape, dtype=state.dtype)
        for x, diagonal in zip(self._x_masks, self._diagonals):
            term = diagonal * state
            if x:
                term = np.take(term, cached_xor_indices(self.num_qubits, x), axis=-1)
            result = _axpy(term, result)
        return result

    def value(self, state: np.ndarray) -> float:
        """Return ``<state|H|state>`` (real part)."""
        state = np.asarray(state, dtype=complex)
        total = 0.0 + 0.0j
        conj = np.conjugate(state)
        for x, diagonal in zip(self._x_masks, self._diagonals):
            term = diagonal * state
            if x:
                term = np.take(term, cached_xor_indices(self.num_qubits, x), axis=-1)
            total += complex(np.einsum("d,d->", conj, term))
        return float(total.real)

    def _batched_quadratic(
        self, states: np.ndarray, conj: np.ndarray, diagonals: list[np.ndarray]
    ) -> np.ndarray:
        """``sum_x <conj_k| perm_x (D_x states_k)>`` per row ``k``."""
        if states.ndim != 2 or states.shape[1] != (1 << self.num_qubits):
            raise ValueError(
                f"states must have shape (K, {1 << self.num_qubits}), "
                f"got {tuple(states.shape)}"
            )
        totals = np.zeros(states.shape[0], dtype=states.dtype)
        for x, diagonal in zip(self._x_masks, diagonals):
            term = diagonal * states
            if x:
                term = np.take(term, cached_xor_indices(self.num_qubits, x), axis=-1)
            totals = _axpy(np.einsum("kd,kd->k", conj, term), totals)
        return totals

    def values(self, states: np.ndarray) -> np.ndarray:
        """Batched ``<state|H|state>`` over a ``(K, 2**n)`` stack.

        One vectorized pass per X-mask group, shared across all K rows;
        the workhorse of the batched parameter-sweep engine.
        """
        states = np.asarray(states, dtype=complex)
        return self._batched_quadratic(states, np.conjugate(states), self._diagonals).real

    def values_real(self, states: np.ndarray) -> np.ndarray:
        """Batched expectations of *real* float64 states, shape ``(K,)``.

        Each per-X-mask group operator is Hermitian, so for real states
        the imaginary parts of its combined diagonal cancel in the
        quadratic form and ``Re(D_x)`` gives the exact value -- the
        whole evaluation stays in float arithmetic (used by the real
        fast path of :func:`repro.sim.batched.sweep_expectations`).
        """
        states = np.asarray(states, dtype=float)
        if self._real_diagonals is None:
            self._real_diagonals = [np.ascontiguousarray(d.real) for d in self._diagonals]
        return self._batched_quadratic(states, states, self._real_diagonals)
