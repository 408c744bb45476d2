"""Dense ``np.kron`` oracles shared by the simulator tests.

Every gate becomes its full ``2**n x 2**n`` matrix, built from Kronecker
products and its own small table of gate matrices, and the state is
multiplied through.  It is slow (fine up to ~8 qubits) but shares no
code with the in-place kernels or the Pauli-level engines, so it checks
them:

* :func:`dense_apply` -- the statevector of a circuit;
* :func:`dense_density_matrix` -- rho of a noisy circuit, each
  depolarizing channel as its explicit Pauli sum;
* :func:`dense_trajectories` -- K noisy trajectories, each row through
  every gate, with the errors drawn right after their gate.

Only the noise model's rates and the order of a channel's Paulis
(:func:`repro.sim.noise.depolarizing_paulis`) come from the library: they
define the channel, so the noisy oracles must share them.
"""

import itertools

import numpy as np

from repro.sim.noise import depolarizing_paulis

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


_PAULIS = {"I": np.eye(2), "X": _X, "Y": _Y, "Z": _Z}


def _pauli_matrix(labels, qubits, n):
    """The n-qubit matrix of one Pauli label per qubit of ``qubits``."""
    factors = [np.eye(2)] * n
    for qubit, label in zip(qubits, labels):
        factors[qubit] = _PAULIS[label]
    return kron_chain(factors)


def _rate(noise, gate):
    return 0.0 if noise is None else noise.error_for(gate.name, gate.num_qubits)


def dense_density_matrix(circuit, noise=None):
    """rho of ``circuit`` from ``|0...0>``: every gate as ``U rho U+``,
    then its channel ``(1 - p) rho + p/(4^k - 1) sum_{P != I} P rho P``.

    SWAPs run as their three CNOTs, each with its own channel, as in
    :class:`repro.sim.channel_plan.ChannelPlan`.
    """
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.decompose_swaps().gates:
        unitary = gate_unitary(gate, n)
        rho = unitary @ rho @ unitary.conj().T
        p, k = _rate(noise, gate), gate.num_qubits
        if p > 0.0:
            mixed = np.zeros_like(rho)
            for labels in itertools.product("IXYZ", repeat=k):
                if set(labels) != {"I"}:
                    pauli = _pauli_matrix(labels, gate.qubits, n)
                    mixed += pauli @ rho @ pauli
            rho = (1.0 - p) * rho + p / (4**k - 1) * mixed
    return rho


def dense_trajectories(circuit, observable, noise, *, trajectories, seed, block_size=64):
    """Per-row ``<psi|H|psi>`` of K noisy trajectories, and their errors.

    Rows come in blocks of ``block_size`` (the last one ragged); block
    ``i`` draws from child ``i`` of ``SeedSequence(seed)``.  Each block
    runs every row through every gate as a dense matrix.  Right after a
    gate with rate ``p > 0`` it draws one uniform per row (``< p`` is a
    hit), then one channel-Pauli index per hit, and applies each hit's
    Pauli to its row.  Returns ``(values, events)``: ``events`` lists
    ``(noisy-gate ordinal, row, Pauli index)`` in draw order.
    """
    n = circuit.num_qubits
    hamiltonian = observable.to_matrix()
    gates = circuit.decompose_swaps().gates
    full, tail = divmod(trajectories, block_size)
    sizes = [block_size] * full + ([tail] if tail else [])
    values, events, start = [], [], 0
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(child)
        states = np.zeros((size, 1 << n), dtype=complex)
        states[:, 0] = 1.0
        ordinal = 0
        for gate in gates:
            states = states @ gate_unitary(gate, n).T
            p = _rate(noise, gate)
            if p <= 0.0:
                continue
            hits = np.flatnonzero(rng.random(size) < p)
            if hits.size:
                channel = depolarizing_paulis(gate.num_qubits)
                choices = rng.integers(len(channel), size=hits.size)
                for row, choice in zip(hits.tolist(), choices.tolist()):
                    local = channel[choice]
                    labels = [local.op_on(k) for k in range(gate.num_qubits)]
                    states[row] = _pauli_matrix(labels, gate.qubits, n) @ states[row]
                    events.append((ordinal, start + row, choice))
            ordinal += 1
        values.append(np.einsum("ki,ij,kj->k", states.conj(), hamiltonian, states).real)
        start += size
    return np.concatenate(values), events
