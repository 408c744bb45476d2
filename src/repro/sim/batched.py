"""Batched statevector: K states evolved per gate in one NumPy call.

:class:`BatchedStatevector` stacks K statevectors into a ``(K, 2**n)``
array so a parameter sweep -- K points of a dissociation curve, K
shifted evaluations of a gradient, K restarts of an optimizer -- pays
the Python- and NumPy-dispatch overhead of each gate/term *once* instead
of K times.  The per-gate kernels are the same in-place index-slice
kernels as the single-state engine (:mod:`repro.sim.statevector`); they
broadcast over the leading batch axis, so a batched gate touches the
same memory as K sequential gates but in one vectorized pass.

Usage::

    batch = BatchedStatevector(num_qubits=2, batch_size=3)
    batch.apply_circuit(bell_circuit)          # all 3 rows evolve at once
    batch.evolve(paulis, angles)               # angles: (3, num_terms)
    energies = batch.expectations(engine)      # (3,) via ExpectationEngine

The VQE fast path (:meth:`repro.vqe.energy.StatevectorEnergy.values`)
builds the ``(K, num_terms)`` angle matrix with
:meth:`repro.core.ir.PauliProgram.bound_angles` and evolves all K
parameter sets through one :meth:`evolve` call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg.blas import daxpy as _daxpy
from scipy.linalg.blas import zaxpy as _zaxpy

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.pauli import PauliString
from repro.sim.pauli_evolution import (
    cached_parity_signs,
    cached_xor_indices,
    pauli_sign_factor,
)
from repro.sim.statevector import apply_gate_inplace, basis_state, check_engine

if TYPE_CHECKING:
    from repro.sim.expectation import ExpectationEngine

#: Angles with |cos| below this fall back to the exact two-scaling
#: update instead of the deferred-cosine ``tan`` form (tan degrades
#: near pi/2).
_TAN_GUARD = 0.3

#: When the deferred cosine product drops below this, fold it back into
#: the states mid-evolution: the unnormalized amplitudes grow like
#: ``1 / scale`` and would otherwise overflow on very long programs.
_SCALE_REFOLD = 1e-60


class BatchedStatevector:
    """K statevectors in one ``(K, 2**n)`` buffer, evolved together."""

    def __init__(
        self,
        num_qubits: int,
        batch_size: int,
        *,
        states: np.ndarray | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.num_qubits = num_qubits
        self.batch_size = batch_size
        dim = 1 << num_qubits
        if states is None:
            self.states = np.zeros((batch_size, dim), dtype=complex)
            self.states[:, 0] = 1.0
        else:
            states = np.ascontiguousarray(states, dtype=complex)
            if states.shape != (batch_size, dim):
                raise ValueError(
                    f"states must have shape {(batch_size, dim)}, "
                    f"got {states.shape}"
                )
            self.states = states
        self._buffer: np.ndarray | None = None

    @classmethod
    def from_states(cls, states: np.ndarray) -> "BatchedStatevector":
        """Wrap an existing ``(K, 2**n)`` stack (copied to a fresh buffer)."""
        states = np.asarray(states, dtype=complex)
        if states.ndim != 2 or states.shape[1] & (states.shape[1] - 1):
            raise ValueError("states must be (K, 2**n)")
        num_qubits = int(states.shape[1]).bit_length() - 1
        return cls(num_qubits, states.shape[0], states=states.copy())

    @classmethod
    def broadcast(cls, state: np.ndarray, batch_size: int) -> "BatchedStatevector":
        """K copies of one statevector (e.g. a shared reference state)."""
        return cls.from_states(np.tile(np.asarray(state, dtype=complex), (batch_size, 1)))

    def reset(self, index: int = 0) -> "BatchedStatevector":
        """Reset every row to the basis state ``|index>``."""
        self.states[...] = basis_state(self.num_qubits, index)
        return self

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate) -> "BatchedStatevector":
        apply_gate_inplace(self.states, gate, self.num_qubits)
        return self

    def apply_circuit(
        self, circuit: Circuit, *, engine: str = "inplace"
    ) -> "BatchedStatevector":
        """Run one circuit on every row.

        ``engine="fused"`` merges adjacent gates into dense unitary
        blocks first (:mod:`repro.compiler.fusion`); the other engines
        apply gate by gate (all equivalent at this granularity, and the
        per-gate kernels already broadcast over the batch axis).
        """
        check_engine(engine)
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        if engine == "fused":
            from repro.compiler.fusion import fuse_circuit

            fuse_circuit(circuit).apply(self.states)
            return self
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self

    def evolve(
        self, paulis: Sequence[PauliString], angles: np.ndarray
    ) -> "BatchedStatevector":
        """Apply ``prod_k exp(i angles[:, k] P_k)`` -- one angle per row.

        ``angles`` has shape ``(batch_size, len(paulis))``; a 1-D vector
        of shared angles is broadcast to every row.

        The kernel is tuned for memory-bound batches: per term it runs
        one XOR gather (memoized indices), one cached-parity-sign
        multiply, and one fused BLAS ``axpy`` per row.  The
        ``cos(theta)`` row scalings are deferred into a per-row running
        product (``exp(i a P) = cos(a) (1 + i tan(a) P)``) folded back
        in a single pass at the end (or mid-evolution before the
        unnormalized amplitudes could overflow), except for angles near
        ``pi/2`` where ``tan`` degrades and the exact two-scaling update
        is used for that term.
        """
        angles = np.asarray(angles, dtype=float)
        if angles.ndim == 1:
            angles = np.broadcast_to(angles, (self.batch_size, angles.shape[0]))
        if angles.shape != (self.batch_size, len(paulis)):
            raise ValueError(
                f"angles must have shape {(self.batch_size, len(paulis))}, "
                f"got {angles.shape}"
            )
        states = self.states
        rows = self.batch_size
        n = self.num_qubits
        buf = self._get_buffer()
        cosines = np.cos(angles)
        sines = np.sin(angles)
        # Columns where every |cos| clears the guard take the deferred
        # (tan) form; the rest take the exact two-scaling update.
        deferrable = np.min(np.abs(cosines), axis=0) > _TAN_GUARD
        scale = np.ones(rows)
        deferred = False
        for position, pauli in enumerate(paulis):
            if pauli.is_identity():
                states *= np.exp(1j * angles[:, position])[:, None]
                continue
            cos_col = cosines[:, position]
            sin_col = sines[:, position]
            if pauli.x:
                np.take(states, cached_xor_indices(n, pauli.x), axis=-1, out=buf)
            else:
                np.copyto(buf, states)
            buf *= cached_parity_signs(n, pauli.z)
            factor = 1j * pauli_sign_factor(pauli)
            if deferrable[position]:
                coefficients = factor * sin_col / cos_col
                for k in range(rows):  # st_k += (i f tan a_k) P~ st_k (BLAS)
                    _zaxpy(buf[k], states[k], a=coefficients[k])
                scale *= cos_col
                deferred = True
                if np.min(np.abs(scale)) < _SCALE_REFOLD:
                    # Long programs can grow the unnormalized amplitudes
                    # toward overflow; fold the running product back in
                    # before it (or its inverse) leaves float range.
                    states *= scale[:, None]
                    scale[:] = 1.0
            else:
                states *= cos_col[:, None]
                buf *= (factor * sin_col)[:, None]
                states += buf
        if deferred:
            states *= scale[:, None]
        return self

    def _get_buffer(self) -> np.ndarray:
        if self._buffer is None or self._buffer.shape != self.states.shape:
            self._buffer = np.empty_like(self.states)
        return self._buffer

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Per-row probability vectors, shape ``(K, 2**n)``."""
        return np.abs(self.states) ** 2

    def norms(self) -> np.ndarray:
        """Per-row state norms (should all be ~1 after unitary evolution)."""
        return np.linalg.norm(self.states, axis=1)

    def expectations(self, engine: ExpectationEngine) -> np.ndarray:
        """Per-row ``<psi|H|psi>`` through an :class:`ExpectationEngine`."""
        return engine.values(self.states)

    def __len__(self) -> int:
        return self.batch_size

    def __repr__(self) -> str:
        return (
            f"BatchedStatevector(num_qubits={self.num_qubits}, "
            f"batch_size={self.batch_size})"
        )


# ----------------------------------------------------------------------
# Blocked parameter sweeps (the VQE fast path)
# ----------------------------------------------------------------------
def real_evolution_compatible(paulis: Sequence[PauliString]) -> bool:
    """True when every ``exp(i theta c P)`` factor is real orthogonal.

    A Pauli string with an odd Y count satisfies ``P = i R`` with ``R``
    real antisymmetric, so its exponential ``exp(-theta c R)`` is real
    orthogonal; starting from a real reference the whole evolution then
    stays in real arithmetic (float64 -- half the memory traffic of
    complex128).  Jordan-Wigner UCCSD programs qualify: every string of
    an anti-Hermitian excitation ``T - T^dag`` carries an odd number of
    Ys.
    """
    return all(pauli.y_count() % 2 == 1 for pauli in paulis)


def _sweep_block_real(
    paulis: Sequence[PauliString],
    angles: np.ndarray,
    states: np.ndarray,
    buf: np.ndarray,
) -> np.ndarray:
    """Evolve a real float64 ``(B, dim)`` block; returns per-row scales.

    Per term: one gather, one sign multiply, one fused DAXPY per row --
    with the ``cos`` normalizations deferred into the returned scale.
    ``i P = (-1)**((#Y + 1) / 2) * signs(z) . perm_x`` is entirely real.
    """
    rows = states.shape[0]
    n = paulis[0].num_qubits if paulis else 0
    cosines = np.cos(angles)
    tangents = np.tan(angles)
    deferrable = np.min(np.abs(cosines), axis=0) > _TAN_GUARD
    scale = np.ones(rows)
    for position, pauli in enumerate(paulis):
        # i * P = i * (-i)**#Y * signs(z) . perm_x = +-1 * signs . perm_x:
        # +1 when #Y % 4 == 1, -1 when #Y % 4 == 3.
        factor = 1.0 if pauli.y_count() % 4 == 1 else -1.0
        if pauli.x:
            np.take(states, cached_xor_indices(n, pauli.x), axis=-1, out=buf)
        else:
            np.copyto(buf, states)
        buf *= cached_parity_signs(n, pauli.z)
        if deferrable[position]:
            coefficients = factor * tangents[:, position]
            for k in range(rows):
                _daxpy(buf[k], states[k], a=coefficients[k])
            scale *= cosines[:, position]
            if np.min(np.abs(scale)) < _SCALE_REFOLD:
                states *= scale[:, None]  # refold before amplitudes overflow
                scale[:] = 1.0
        else:
            sin_col = np.sin(angles[:, position])
            states *= cosines[:, position][:, None]
            buf *= (factor * sin_col)[:, None]
            states += buf
    return scale


def sweep_expectations(
    paulis: Sequence[PauliString],
    angle_matrix: np.ndarray,
    reference: np.ndarray,
    engine: ExpectationEngine,
    block_size: int = 8,
) -> np.ndarray:
    """Blocked batched energies for K bound-angle rows, shape ``(K,)``.

    Splits the sweep into cache-sized blocks (``block_size`` rows keep
    state plus scratch inside L2, where the vectorized kernels earn
    their keep -- bigger stacks go memory-bound), evolves each block
    per gate in one vectorized call, and reads all block energies
    through ``engine`` (:class:`repro.sim.expectation.ExpectationEngine`).
    Programs whose factors are real orthogonal
    (:func:`real_evolution_compatible`) and whose reference is real run
    the whole evolution in float64 with fused BLAS DAXPY row updates;
    everything else takes the complex batched path.
    """
    angle_matrix = np.asarray(angle_matrix, dtype=float)
    total = angle_matrix.shape[0]
    if total == 0:
        return np.zeros(0)
    reference = np.asarray(reference)
    use_real = real_evolution_compatible(paulis) and np.allclose(reference.imag, 0.0)
    block = min(block_size, total)
    energies = np.empty(total)
    if use_real:
        states = np.empty((block, reference.shape[0]), dtype=float)
        buf = np.empty_like(states)
        reference = reference.real
    else:
        batch = BatchedStatevector.broadcast(reference, block)
    for start in range(0, total, block):
        stop = min(start + block, total)
        angles = angle_matrix[start:stop]
        if stop - start < block:  # ragged tail: pad, evolve, discard
            angles = np.vstack(
                [angles, np.zeros((block - (stop - start), angles.shape[1]))]
            )
        if use_real:
            states[...] = reference
            scales = _sweep_block_real(paulis, angles, states, buf)
            values = engine.values_real(states) * scales**2
        else:
            batch.states[...] = reference
            batch.evolve(paulis, angles)
            values = batch.expectations(engine)
        energies[start:stop] = values[: stop - start]
    return energies
