"""Gate-level statevector simulator.

States are little-endian: basis index ``b`` has qubit ``i`` in state
``(b >> i) & 1``.

Gates run through index-slice kernels that mutate a preallocated
buffer.  The state is viewed as a ``[2] * n`` tensor (a free reshape on
the contiguous buffer) and the two (four) amplitude slabs selected by
the acted-on qubit(s) are combined in place, with specialized updates
for the common gates (X/Z/S/RZ/H, CX/CZ/SWAP) that avoid even the
half-size temporary.  Kernels broadcast over any leading batch axes,
so a ``(K, 2**n)`` stack runs one circuit on K states at once.

``apply_gate`` / ``apply_circuit`` keep their copy-out signatures over
the in-place kernels.  ``tests/dense_oracle.py`` checks every circuit
entry point against dense ``np.kron`` unitaries.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.circuit import Circuit
from repro.circuit.gates import Gate

_SQRT1_2 = 1.0 / math.sqrt(2.0)

def checked_probabilities(
    state: np.ndarray, *, norm_tolerance: float = 1e-8, context: str = "statevector"
) -> np.ndarray:
    """The probability vector ``|psi|^2`` of a *normalized* state.

    A probability total further than ``norm_tolerance`` from 1 raises
    instead of being silently renormalized, so simulator bugs that leak
    or create norm surface at the sampling boundary instead of being
    masked.  Within tolerance, the residual float fuzz is divided out
    (``Generator.choice`` requires probabilities summing to exactly 1).
    Used by the finite-shot energy backend
    (:class:`repro.vqe.energy.SamplingEnergy`).
    """
    probabilities = np.abs(state) ** 2
    total = probabilities.sum()
    if abs(total - 1.0) > norm_tolerance:
        raise ValueError(
            f"{context} is not normalized: probabilities sum to {total!r} "
            f"(|total - 1| > {norm_tolerance}); this indicates a simulation "
            "bug rather than sampling noise"
        )
    return probabilities / total


def basis_state(num_qubits: int, index: int = 0) -> np.ndarray:
    """The computational basis state ``|index>`` as a statevector."""
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state


# ----------------------------------------------------------------------
# In-place kernels: index-slice updates on the [2]*n tensor view
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _slab_indices(ndim: int, qubits: tuple[int, ...]) -> tuple[tuple, ...]:
    """Index tuples of the ``2**k`` amplitude slabs ``T[bits]`` of ``qubits``.

    ``T`` has shape ``batch + [2]*n``; qubit ``q`` lives on axis
    ``ndim - 1 - q`` (little-endian: axis -1 is qubit 0).  Slabs come in
    gate-matrix index order: the first listed qubit is the least
    significant bit, as in :mod:`repro.circuit.gates`.
    """
    indices = []
    for code in range(1 << len(qubits)):
        index: list = [slice(None)] * ndim
        for bit, qubit in enumerate(qubits):
            index[ndim - 1 - qubit] = (code >> bit) & 1
        indices.append(tuple(index))
    return tuple(indices)


def _combine_single(slab0: np.ndarray, slab1: np.ndarray, matrix: np.ndarray) -> None:
    """Generic in-place 2x2 update of the two amplitude slabs."""
    m00, m01 = matrix[0, 0], matrix[0, 1]
    m10, m11 = matrix[1, 0], matrix[1, 1]
    old0 = slab0.copy()
    slab0 *= m00
    slab0 += m01 * slab1
    slab1 *= m11
    slab1 += m10 * old0


def _swap_slabs(a: np.ndarray, b: np.ndarray) -> None:
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def apply_gate_inplace(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to ``state`` by mutating it; returns ``state``.

    ``state`` must be complex, C-contiguous, and of shape
    ``(..., 2**num_qubits)``; any leading axes are treated as a batch and
    evolved under the same gate in one vectorized update.
    """
    name = gate.name
    if name in ("barrier", "measure"):
        return state
    _check_inplace_buffer(state)
    # Flatten any batch axes into one leading axis (always present, so
    # slab indexing below always yields writable views, never scalars).
    tensor = state.reshape((-1,) + (2,) * num_qubits)
    if gate.num_qubits == 1:
        slab0, slab1 = [tensor[index] for index in _slab_indices(tensor.ndim, gate.qubits)]
        if name == "x":
            _swap_slabs(slab0, slab1)
        elif name == "z":
            slab1 *= -1.0
        elif name == "s":
            slab1 *= 1j
        elif name == "sdg":
            slab1 *= -1j
        elif name == "rz":
            half = 0.5 * gate.params[0]
            slab0 *= complex(math.cos(half), -math.sin(half))
            slab1 *= complex(math.cos(half), math.sin(half))
        elif name == "h":
            old0 = slab0.copy()
            slab0 += slab1
            slab0 *= _SQRT1_2
            old0 -= slab1
            old0 *= _SQRT1_2
            slab1[...] = old0
        else:
            _combine_single(slab0, slab1, gate.matrix())
        return state
    if gate.num_qubits == 2:
        slabs = [tensor[index] for index in _slab_indices(tensor.ndim, gate.qubits)]
        if name == "cx":
            # control = first listed qubit (bit 0): flip the target bit
            # within the control=1 half, i.e. swap T[b=0,a=1] <-> T[b=1,a=1].
            _swap_slabs(slabs[1], slabs[3])
        elif name == "cz":
            np.multiply(slabs[3], -1.0, out=slabs[3])
        elif name == "swap":
            _swap_slabs(slabs[1], slabs[2])
        else:
            matrix = gate.matrix()
            old = [slab.copy() for slab in slabs]
            for row in range(4):
                slab = slabs[row]
                slab[...] = matrix[row, 0] * old[0]
                for col in range(1, 4):
                    if matrix[row, col] != 0.0:
                        slab += matrix[row, col] * old[col]
        return state
    raise ValueError(f"unsupported gate arity: {gate!r}")


def _check_inplace_buffer(state: np.ndarray) -> None:
    if not state.flags.c_contiguous or state.dtype != np.complex128:
        raise ValueError(
            "in-place kernels need a C-contiguous complex128 buffer "
            "(a non-contiguous view would silently reshape into a copy); "
            "use apply_gate/apply_circuit for arbitrary inputs"
        )


def _check_dimension(state: np.ndarray, num_qubits: int) -> None:
    """Reject a state whose last axis is not ``2**num_qubits`` long.

    The kernels read any leading axes as a batch, so without this check
    a state of the wrong size would evolve into a plausible wrong vector.
    """
    if state.shape[-1:] != (1 << num_qubits,):
        raise ValueError(
            f"state of shape {state.shape} does not match {num_qubits} qubits "
            f"(last axis must be {1 << num_qubits})"
        )


def apply_circuit_inplace(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run a circuit on ``state`` by mutating it; returns ``state``.

    Accepts batched states of shape ``(..., 2**n)`` (see
    :func:`apply_gate_inplace`).
    """
    _check_dimension(state, circuit.num_qubits)
    for gate in circuit.gates:
        apply_gate_inplace(state, gate, circuit.num_qubits)
    return state


# ----------------------------------------------------------------------
# Copy-out signatures
# ----------------------------------------------------------------------
def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a statevector, returning the new statevector.

    Copies the input, then runs the in-place kernel.
    """
    current = np.array(state, dtype=complex, copy=True)
    _check_dimension(current, num_qubits)
    return apply_gate_inplace(current, gate, num_qubits)


def apply_circuit(circuit: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run a circuit on ``state`` (defaults to ``|0...0>``).

    The input state is never mutated: it is copied once and the copy
    evolves gate by gate through the in-place kernels.
    """
    if state is None:
        return apply_circuit_inplace(circuit, basis_state(circuit.num_qubits))
    return apply_circuit_inplace(circuit, np.array(state, dtype=complex, copy=True))
