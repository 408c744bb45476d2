"""Dense ``np.kron`` oracle shared by the simulator tests.

Every gate becomes its full ``2**n x 2**n`` matrix, built from Kronecker
products and its own small table of gate matrices, and the state is
multiplied through.  It is slow (fine up to ~8 qubits) but shares no
code with the in-place kernels or the dense-block kernel, so it checks
both.
"""

import itertools

import numpy as np

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def _rotation(pauli):
    def matrix(theta):
        return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * pauli

    return matrix


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)

#: Gate matrices in little-endian order: the first listed qubit is bit 0
#: of the matrix index (for ``cx``, the control).
GATE_MATRICES = {
    "h": lambda: _SQRT1_2 * np.array([[1, 1], [1, -1]], dtype=complex),
    "x": lambda: _X,
    "y": lambda: _Y,
    "z": lambda: _Z,
    "s": lambda: np.diag([1, 1j]),
    "sdg": lambda: np.diag([1, -1j]),
    "rx": _rotation(_X),
    "ry": _rotation(_Y),
    "rz": _rotation(_Z),
    "cx": lambda: np.eye(4)[[0, 3, 2, 1]].astype(complex),
    "cz": lambda: np.diag([1, 1, 1, -1]).astype(complex),
    "swap": lambda: np.eye(4)[[0, 2, 1, 3]].astype(complex),
}


def kron_chain(factors):
    """Kronecker product with ``factors[q]`` on qubit q (little-endian)."""
    operator = np.ones((1, 1))
    for factor in reversed(factors):
        operator = np.kron(operator, factor)
    return operator


def embed(matrix, qubits, n):
    """The n-qubit operator of a little-endian k-qubit ``matrix`` on ``qubits``."""
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for row, col in itertools.product(range(len(matrix)), repeat=2):
        if matrix[row, col] == 0:
            continue
        factors = [np.eye(2)] * n
        for i, qubit in enumerate(qubits):
            unit = np.zeros((2, 2))
            unit[(row >> i) & 1, (col >> i) & 1] = 1.0
            factors[qubit] = unit
        full += matrix[row, col] * kron_chain(factors)
    return full


def gate_unitary(gate, n):
    """The full n-qubit matrix of one gate (barrier/measure: identity)."""
    if gate.name in ("barrier", "measure"):
        return np.eye(1 << n, dtype=complex)
    return embed(GATE_MATRICES[gate.name](*gate.params), gate.qubits, n)


def dense_apply(circuit, states=None):
    """``circuit`` applied to ``states`` (``(2**n,)`` or ``(K, 2**n)``;
    defaults to ``|0...0>``) by dense matrix products."""
    n = circuit.num_qubits
    if states is None:
        states = np.zeros(1 << n, dtype=complex)
        states[0] = 1.0
    result = np.array(states, dtype=complex)
    for gate in circuit.gates:
        result = result @ gate_unitary(gate, n).T
    return result
