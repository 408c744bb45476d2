"""Exact density-matrix simulator with depolarizing noise.

Used for the paper's noisy case studies (Figure 10, LiH and NaH).  The
density matrix rho (dimension ``2^n x 2^n``) is propagated exactly, as
the row-major vector vec(rho) of a 2n-qubit register: ket qubit ``q``
is bit ``q + n`` of the flat index and bra qubit ``q`` is bit ``q``.
That makes the simulator a thin layer over the in-place statevector
kernels of :mod:`repro.sim.statevector`:

* unitary gates act as ``rho -> U rho U+``: U on the ket qubits, then
  conj(U) on the bra qubits, both in place on the same buffer;
* a depolarizing channel on the k qubits S uses the twirl identity
  ``sum_{all 4^k P} P rho P = 2^k I_S (x) Tr_S rho``, so it costs one
  partial trace and one update of the diagonal slabs instead of
  ``4^k - 1`` Pauli conjugations.

:meth:`DensityMatrixSimulator.run` returns the live rho buffer, which
the next gate mutates; copy it to keep a snapshot.

Exact propagation removes the shot noise of the paper's sampled qasm
simulation while keeping the identical channel, so the reported signal
(energy error vs compression under noise) is preserved.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.pauli import PauliSum
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel
from repro.sim.statevector import apply_gate_inplace, apply_unitary_inplace

_MAX_QUBITS = 12

#: Gates whose matrix is real, so conj(U) is the gate itself.
_REAL_GATES = frozenset({"h", "x", "z", "ry", "cx", "cz", "swap"})
#: Rotations whose conjugate is the same rotation by the negated angle.
_NEGATED_ANGLE = frozenset({"rx", "rz"})
_CONJUGATE_NAME = {"s": "sdg", "sdg": "s"}


class DensityMatrixSimulator:
    """Propagate density matrices through circuits with optional noise."""

    def __init__(
        self, num_qubits: int, noise: DepolarizingNoiseModel | None = None
    ) -> None:
        if num_qubits > _MAX_QUBITS:
            raise ValueError(
                f"density-matrix simulation capped at {_MAX_QUBITS} qubits "
                f"(requested {num_qubits})"
            )
        self.num_qubits = num_qubits
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=0.0)
        self.rho = self._initial_rho()

    def _initial_rho(self) -> np.ndarray:
        dim = 1 << self.num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def reset(self) -> "DensityMatrixSimulator":
        self.rho = self._initial_rho()
        return self

    # ------------------------------------------------------------------
    # Core maps
    # ------------------------------------------------------------------
    def _apply_unitary(self, gate: Gate) -> None:
        """In-place ``rho -> U rho U+`` on the vec(rho) register."""
        n, name = self.num_qubits, gate.name
        vector = self.rho.reshape(-1)
        ket = Gate(name, tuple(q + n for q in gate.qubits), gate.params)
        apply_gate_inplace(vector, ket, 2 * n)
        if name in _REAL_GATES:
            apply_gate_inplace(vector, gate, 2 * n)
        elif name in _NEGATED_ANGLE:
            apply_gate_inplace(vector, Gate(name, gate.qubits, (-gate.params[0],)), 2 * n)
        elif name in _CONJUGATE_NAME:
            apply_gate_inplace(vector, Gate(_CONJUGATE_NAME[name], gate.qubits), 2 * n)
        else:
            # y (conj(Y) = -Y) and anything else: the conjugated matrix.
            apply_unitary_inplace(vector, gate.matrix().conj(), gate.qubits, 2 * n)

    def _apply_depolarizing(self, qubits: tuple[int, ...], probability: float) -> None:
        """rho -> (1-p) rho + p/(4^k-1) sum_{P != I} P rho P, in place.

        With the twirl identity the Pauli sum is ``2^k I_S (x) Tr_S rho
        - rho``; the partial trace over S is the sum of the 2^k diagonal
        slabs (ket bits equal to bra bits on every qubit of S).
        """
        if probability <= 0.0:
            return
        n, k = self.num_qubits, len(qubits)
        # A leading unit axis keeps every slab a writable view, even when
        # S covers all qubits.
        tensor = self.rho.reshape((1,) + (2,) * (2 * n))
        diagonal_slabs = []
        for bits in itertools.product((0, 1), repeat=k):
            index: list = [slice(None)] * (2 * n + 1)
            for qubit, bit in zip(qubits, bits):
                index[n - qubit] = bit  # ket axis
                index[2 * n - qubit] = bit  # bra axis
            diagonal_slabs.append(tensor[tuple(index)])
        partial = diagonal_slabs[0].copy()
        for slab in diagonal_slabs[1:]:
            partial += slab
        others = 4**k - 1
        partial *= probability * 2**k / others
        self.rho *= 1.0 - probability - probability / others
        for slab in diagonal_slabs:
            slab += partial

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit) -> np.ndarray:
        """Propagate ``circuit``; returns the live rho buffer (see module doc)."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        hardware_view = circuit.decompose_swaps()
        for gate in hardware_view.gates:
            if gate.name in ("barrier", "measure"):
                continue
            self._apply_unitary(gate)
            error = self.noise.error_for(gate.name, gate.num_qubits)
            self._apply_depolarizing(gate.qubits, error)
        return self.rho

    def expectation(self, observable: PauliSum) -> float:
        """``Tr(rho H)`` over the grouped diagonals of ``observable``."""
        return ExpectationEngine(observable).trace_value(self.rho)

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def trace(self) -> float:
        return float(np.trace(self.rho).real)
