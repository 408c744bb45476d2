"""Gate-level statevector simulator.

States are little-endian: basis index ``b`` has qubit ``i`` in state
``(b >> i) & 1``.

Two engines implement gate application:

* ``"inplace"`` (default) -- index-slice kernels that mutate a
  preallocated buffer.  The state is viewed as a ``[2] * n`` tensor (a
  free reshape on the contiguous buffer) and the two (four) amplitude
  slabs selected by the acted-on qubit(s) are combined in place, with
  specialized updates for the common gates (X/Z/S/RZ/H, CX/CZ/SWAP)
  that avoid even the half-size temporary.  Kernels broadcast over any
  leading batch axes, which is what :class:`repro.sim.batched.BatchedStatevector`
  builds on.
* ``"legacy"`` -- the original out-of-place ``tensordot`` contraction,
  kept verbatim as the reference semantics (and regression guard).
* ``"fused"`` -- gate fusion (:mod:`repro.compiler.fusion`): runs of
  adjacent gates are merged into dense 2x2/4x4 unitaries ahead of time
  and applied through :func:`apply_unitary_inplace`, a low-op-count
  gather/GEMM/scatter kernel that also accepts per-row ``(K, 4, 4)``
  matrix stacks for vectorized parameter sweeps.

``apply_gate`` / ``apply_circuit`` keep their original copy-out
signatures as compatibility shims over the in-place kernels.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.core.seeding import seeded_rng

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: Valid values of the ``engine`` argument accepted across the stack
#: (simulator, energy backends, pipeline config).
ENGINES = ("inplace", "batched", "fused", "legacy")


def check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r}; valid engines: "
            f"{', '.join(ENGINES)}"
        )
    return engine


def checked_probabilities(
    state: np.ndarray, *, norm_tolerance: float = 1e-8, context: str = "statevector"
) -> np.ndarray:
    """The probability vector ``|psi|^2`` of a *normalized* state.

    A probability total further than ``norm_tolerance`` from 1 raises
    instead of being silently renormalized, so simulator bugs that leak
    or create norm surface at the sampling boundary instead of being
    masked.  Within tolerance, the residual float fuzz is divided out
    (``Generator.choice`` requires probabilities summing to exactly 1).
    Shared by :meth:`StatevectorSimulator.sample` and the finite-shot
    energy backend (:class:`repro.vqe.energy.SamplingEnergy`).
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
# Legacy engine: out-of-place tensordot contraction (reference semantics)
# ----------------------------------------------------------------------
def _apply_single_qubit(state: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Contract a 2x2 matrix into axis ``qubit`` of the state tensor."""
    tensor = state.reshape([2] * n)
    # Axis order in the reshaped tensor: axis 0 is the *highest* qubit.
    axis = n - 1 - qubit
    tensor = np.tensordot(matrix, tensor, axes=([1], [axis]))
    # tensordot moved the contracted axis to the front; move it back.
    tensor = np.moveaxis(tensor, 0, axis)
    return np.ascontiguousarray(tensor).reshape(-1)


def _apply_two_qubit(
    state: np.ndarray, matrix: np.ndarray, qubit_a: int, qubit_b: int, n: int
) -> np.ndarray:
    """Contract a 4x4 matrix into axes (qubit_a, qubit_b).

    Matrix convention: within the gate, the first listed qubit is the least
    significant bit of the 2-bit index (see :mod:`repro.circuit.gates`).
    """
    tensor = state.reshape([2] * n)
    axis_a = n - 1 - qubit_a
    axis_b = n - 1 - qubit_b
    gate_tensor = matrix.reshape(2, 2, 2, 2)
    # gate_tensor indices: [out_b, out_a, in_b, in_a] because bit 1 of the
    # 4-dim index is qubit_b and bit 0 is qubit_a.
    tensor = np.tensordot(gate_tensor, tensor, axes=([2, 3], [axis_b, axis_a]))
    # Contracted axes land at the front as (out_b, out_a).
    tensor = np.moveaxis(tensor, [0, 1], [axis_b, axis_a])
    return np.ascontiguousarray(tensor).reshape(-1)


def _apply_gate_legacy(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    if gate.name in ("barrier", "measure"):
        return state
    matrix = gate.matrix()
    if gate.num_qubits == 1:
        return _apply_single_qubit(state, matrix, gate.qubits[0], num_qubits)
    if gate.num_qubits == 2:
        return _apply_two_qubit(state, matrix, gate.qubits[0], gate.qubits[1], num_qubits)
    raise ValueError(f"unsupported gate arity: {gate!r}")


# ----------------------------------------------------------------------
# In-place engine: index-slice kernels on the [2]*n tensor view
# ----------------------------------------------------------------------
def _qubit_slabs(
    tensor: np.ndarray, num_qubits: int, qubit: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two amplitude slabs (views) selected by ``qubit``.

    ``tensor`` has shape ``batch + [2]*num_qubits``; qubit ``q`` lives on
    axis ``ndim - 1 - q`` (little-endian: axis -1 is qubit 0).
    """
    axis = tensor.ndim - 1 - qubit
    index: list = [slice(None)] * tensor.ndim
    index[axis] = 0
    slab0 = tensor[tuple(index)]
    index[axis] = 1
    return slab0, tensor[tuple(index)]


def _pair_slabs(
    tensor: np.ndarray, num_qubits: int, qubit_a: int, qubit_b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four slabs ``T[bit_b, bit_a]`` (views) for a two-qubit gate.

    Returned in gate-matrix index order ``(bit_b << 1) | bit_a`` (the
    first listed qubit is the least significant bit, as in
    :mod:`repro.circuit.gates`).
    """
    axis_a = tensor.ndim - 1 - qubit_a
    axis_b = tensor.ndim - 1 - qubit_b
    slabs = []
    for code in range(4):
        index: list = [slice(None)] * tensor.ndim
        index[axis_a] = code & 1
        index[axis_b] = (code >> 1) & 1
        slabs.append(tensor[tuple(index)])
    return slabs[0], slabs[1], slabs[2], slabs[3]


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
        slab0, slab1 = _qubit_slabs(tensor, num_qubits, gate.qubits[0])
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
        slabs = _pair_slabs(tensor, num_qubits, gate.qubits[0], gate.qubits[1])
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


#: Matrix-index permutation that swaps the roles of the two qubit bits
#: of a 4x4 unitary (index ``(b << 1) | a``  ->  ``(a << 1) | b``).
_SWAP_BITS_PERM = (0, 2, 1, 3)


def _check_inplace_buffer(state: np.ndarray) -> None:
    if not state.flags.c_contiguous or state.dtype != np.complex128:
        raise ValueError(
            "in-place kernels need a C-contiguous complex128 buffer "
            "(a non-contiguous view would silently reshape into a copy); "
            "use apply_gate/apply_circuit for arbitrary inputs"
        )


def apply_unitary_inplace(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: tuple[int, ...],
    num_qubits: int,
) -> np.ndarray:
    """Apply a dense 1q/2q unitary to ``state`` by mutating it.

    ``state`` must be C-contiguous complex128 of shape
    ``(..., 2**num_qubits)``.  ``matrix`` is ``(2, 2)`` / ``(4, 4)``
    (shared across any leading batch axes) or a per-row stack
    ``(K, 2, 2)`` / ``(K, 4, 4)`` matched to a ``(K, 2**n)`` state --
    the vectorized-sweep path, where every row evolves under its own
    bound matrix in one batched GEMM.

    For two-qubit unitaries the matrix convention follows
    :mod:`repro.circuit.gates`: the first entry of ``qubits`` is the
    least significant bit of the 2-bit matrix index.  The kernel is a
    three-pass gather / GEMM / scatter (one strided copy into ``(.., 4)``
    rows, one ``matmul``, one strided write-back), deliberately far
    cheaper per amplitude than the generic slab loop -- that is what
    makes fused dense blocks profitable against the specialized
    single-gate kernels.
    """
    _check_inplace_buffer(state)
    matrix = np.asarray(matrix, dtype=complex)
    arity = len(qubits)
    if arity == 1:
        qubit = qubits[0]
        lo = 1 << qubit
        hi = 1 << (num_qubits - 1 - qubit)
        view = state.reshape(-1, hi, 2, lo)
        # Move the qubit axis last so each amplitude pair is one GEMM row.
        moved = view.transpose(0, 1, 3, 2)
    elif arity == 2:
        qubit_a, qubit_b = qubits
        if qubit_a == qubit_b:
            raise ValueError("two-qubit unitary needs distinct qubits")
        if qubit_a > qubit_b:
            # Normalize to ascending qubits: permute the matrix so bit 0
            # of its index is the lower qubit.
            matrix = matrix[..., _SWAP_BITS_PERM, :][..., :, _SWAP_BITS_PERM]
            qubit_a, qubit_b = qubit_b, qubit_a
        lo = 1 << qubit_a
        mid = 1 << (qubit_b - qubit_a - 1)
        hi = 1 << (num_qubits - 1 - qubit_b)
        view = state.reshape(-1, hi, 2, mid, 2, lo)
        # Bring (qubit_b bit, qubit_a bit) last: combined index
        # ``(bit_b << 1) | bit_a`` matches the matrix convention.
        moved = view.transpose(0, 1, 3, 5, 2, 4)
    else:
        raise ValueError("dense unitary kernels support 1- and 2-qubit blocks only")
    dim = 1 << arity
    if matrix.ndim == 3:
        if state.ndim != 2 or matrix.shape[0] != state.shape[0]:
            raise ValueError(
                "per-row matrix stacks require a matching (K, 2**n) state stack"
            )
        rows = matrix.shape[0]
        gathered = moved.reshape(rows, -1, dim)  # strided view -> copy
        updated = np.matmul(gathered, matrix.transpose(0, 2, 1))
    else:
        gathered = moved.reshape(-1, dim)
        updated = gathered @ matrix.T
    moved[...] = updated.reshape(moved.shape)
    return state


def apply_circuit_inplace(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run a circuit on ``state`` by mutating it; returns ``state``.

    Accepts batched states of shape ``(..., 2**n)`` (see
    :func:`apply_gate_inplace`).
    """
    for gate in circuit.gates:
        apply_gate_inplace(state, gate, circuit.num_qubits)
    return state


# ----------------------------------------------------------------------
# Compatibility shims (original copy-out signatures)
# ----------------------------------------------------------------------
def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a statevector, returning the new statevector.

    Compatibility shim: copies the input, then runs the in-place kernel.
    """
    current = np.array(state, dtype=complex, copy=True)
    return apply_gate_inplace(current, gate, num_qubits)


def apply_circuit(
    circuit: Circuit, state: np.ndarray | None = None, *, engine: str = "inplace"
) -> np.ndarray:
    """Run a circuit on ``state`` (defaults to ``|0...0>``).

    The input state is never mutated.  ``engine="legacy"`` selects the
    original out-of-place tensordot path; ``"inplace"`` (and
    ``"batched"``, identical at this granularity) copy once and then
    mutate the copy gate by gate; ``"fused"`` merges adjacent gates into
    dense unitary blocks first (plans are content-addressed, so repeated
    runs of structurally identical circuits skip the planning).
    """
    check_engine(engine)
    if state is None:
        state = basis_state(circuit.num_qubits)
        current = state  # freshly allocated: safe to mutate
    else:
        current = np.array(state, dtype=complex, copy=True)
    if engine == "legacy":
        for gate in circuit.gates:
            current = _apply_gate_legacy(current, gate, circuit.num_qubits)
        return current
    if engine == "fused":
        from repro.compiler.fusion import fuse_circuit

        return fuse_circuit(circuit).apply(current)
    return apply_circuit_inplace(circuit, current)


class StatevectorSimulator:
    """Stateful simulator wrapper with sampling support.

    ``engine`` selects the gate-application path (see module docstring);
    the default in-place engine reuses ``self.state`` as its buffer.
    """

    def __init__(
        self, num_qubits: int, seed: int | None = None, engine: str = "inplace"
    ) -> None:
        self.num_qubits = num_qubits
        self.engine = check_engine(engine)
        self.state = basis_state(num_qubits)
        self._rng = seeded_rng(seed)

    def reset(self) -> "StatevectorSimulator":
        self.state = basis_state(self.num_qubits)
        return self

    def run(self, circuit: Circuit) -> np.ndarray:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        if self.engine == "legacy":
            for gate in circuit.gates:
                self.state = _apply_gate_legacy(self.state, gate, self.num_qubits)
        elif self.engine == "fused":
            from repro.compiler.fusion import fuse_circuit

            fuse_circuit(circuit).apply(self.state)
        else:
            apply_circuit_inplace(circuit, self.state)
        return self.state

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2

    def sample(self, shots: int, *, norm_tolerance: float = 1e-8) -> np.ndarray:
        """Sample ``shots`` basis-state indices from the current state.

        The state must be normalized: a probability total further than
        ``norm_tolerance`` from 1 raises instead of being silently
        renormalized (see :func:`checked_probabilities`).
        """
        probs = checked_probabilities(self.state, norm_tolerance=norm_tolerance)
        return self._rng.choice(len(probs), size=shots, p=probs)

    def sample_counts(self, shots: int) -> dict[int, int]:
        outcomes, counts = np.unique(self.sample(shots), return_counts=True)
        return {int(o): int(c) for o, c in zip(outcomes, counts)}
