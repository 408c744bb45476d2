"""Noisy chain-synthesized Pauli programs at the Pauli-string level.

:func:`repro.compiler.synthesis.synthesize_program_chain` emits the
Hartree-Fock ``x`` gates, then one block ``B C RZ C+ B+`` per string
``P_j`` of the program: basis changes, a CNOT ladder, the central ``RZ``
and their mirror, which together are ``exp(i a_j P_j)``.  Every gate of
a block except the ``RZ`` is a Clifford, and a depolarizing channel
commutes with its own gate.  So each channel -- and each error Pauli a
trajectory draws from it -- can be conjugated to a string boundary:
channels before the ``RZ`` back to the block start, channels from the
``RZ`` on forward to the block end.  Phases drop out of both uses, so
the symplectic ``(x, z)`` update rules of ``h``, ``rx(+-pi/2)``, ``cx``
and ``x`` are all the conjugation needs.

:class:`ChannelPlan` does this once per (program, noise model), from the
gate stream of ``synthesize_program_chain`` itself: every noisy gate and
rate of the noise model (``one_qubit_error``, ``two_qubit_error``,
``noisy_gates``) is the one a gate-by-gate run of that stream sees (the
dense oracles of ``tests/test_channel_plan.py``).  It has two
users:

* :class:`PauliTransferEvolution`, the exact noisy state as its real
  Pauli coefficients ``c_Q = Tr(rho Q)`` over the ``4**n`` labels Q.  A
  channel of rate p on k qubits, pushed to a boundary, multiplies ``c_Q``
  by ``1 - p 4**k / (4**k - 1)`` wherever the conjugate of Q acts
  non-trivially on the channel's qubits, and ``exp(i a P)`` is one real
  rotation pairing Q with ``Q P`` for every Q that anticommutes with P::

      c_Q <- cos(2a) c_Q + sin(2a) s_Q c_{QP},    i Q P = s_Q (QP).

  So each string costs a few broadcast passes over the coefficients
  (:mod:`repro.vqe.energy`'s ``DensityMatrixEnergy``);
* :meth:`ChannelPlan.boundary_pauli`, which pushes a trajectory's error
  Pauli to its boundary (:mod:`repro.sim.trajectory`'s Pauli-level rows).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from repro.circuit.gates import Gate
from repro.core.ir import PauliProgram
from repro.pauli import PauliSum
from repro.sim.noise import DepolarizingNoiseModel
from repro.sim.trajectory import _noisy_gates

#: Most qubits a :class:`PauliTransferEvolution` may evolve: its three
#: buffers of ``4**n`` coefficients are 384 MiB at 12 qubits.
_MAX_QUBITS = 12

#: Bytes of block tables one :class:`PauliTransferEvolution` keeps; a
#: block whose tables do not fit is rebuilt on every evaluation, so the
#: 4**w tables of wide strings on 12 qubits are never held.
_TABLE_BYTE_LIMIT = 64 << 20


def _conjugate(gate: Gate, x, z):
    """Phase-free ``(x, z)`` label of ``G Q G+`` (also of ``G+ Q G``).

    ``x`` and ``z`` are qubit bitmasks: Python ints or unsigned arrays of
    them.  Every gate a block may hold besides its ``RZ`` has a label map
    that is its own inverse.
    """
    name, qubits = gate.name, gate.qubits
    if name == "cx":
        control, target = qubits
        x = x ^ (((x >> control) & 1) << target)
        z = z ^ (((z >> target) & 1) << control)
    elif name == "h":
        (qubit,) = qubits
        swap = ((x >> qubit) ^ (z >> qubit)) & 1
        x = x ^ (swap << qubit)
        z = z ^ (swap << qubit)
    elif name == "rx":
        (qubit,) = qubits
        x = x ^ (((z >> qubit) & 1) << qubit)
    elif name != "x":
        raise ValueError(f"cannot conjugate a Pauli label through {name!r}")
    return x, z


def _is_clifford(gate: Gate) -> bool:
    if gate.name == "rx":
        return math.isclose(abs(gate.params[0]), math.pi / 2, rel_tol=0, abs_tol=1e-12)
    return gate.name in ("cx", "h", "x")


def _damping(rate: float, arity: int) -> float:
    """``p 4**k / (4**k - 1)``: what a channel takes off a label it touches."""
    return rate * 4**arity / (4**arity - 1)


def _qubit_mask(qubits: Sequence[int]) -> int:
    return sum(1 << q for q in qubits)


class _Block(NamedTuple):
    """The gates of one string (or of the Hartree-Fock prefix)."""

    term: int  # program term index; -1 for the prefix
    qubits: tuple[int, ...]  # the string's support, ascending
    gates: tuple[Gate, ...]
    rates: tuple[float, ...]  # depolarizing rate after each gate
    center: int  # index of the RZ; 0 for the prefix (all pushed forward)


class ChannelPlan:
    """Where every depolarizing channel of a noisy program lands.

    Built from ``synthesize_program_chain(program, 0)``: the gate stream,
    the noisy-gate positions and the signature the trajectory engine draws
    from (:attr:`signature`, the same tuple ``_noisy_gates`` gives for any
    angles) do not depend on the parameters.  Raises ValueError when the
    stream is not the Hartree-Fock ``x`` prefix followed by one
    ``B C RZ C+ B+`` block per non-identity string.
    """

    def __init__(self, program: PauliProgram, noise: DepolarizingNoiseModel) -> None:
        from repro.compiler.synthesis import synthesize_program_chain

        self.num_qubits = program.num_qubits
        self.paulis = program.paulis()
        circuit = synthesize_program_chain(
            program, np.zeros(program.num_parameters)
        ).decompose_swaps()
        gates = circuit.gates
        positions, self.signature = _noisy_gates(circuit, noise)
        rates = [noise.error_for(gate.name, gate.num_qubits) for gate in gates]

        prefix = 0
        while prefix < len(gates) and gates[prefix].name == "x":
            prefix += 1
        #: The Hartree-Fock ``x`` gates, every channel pushed forward.
        self.prefix = _Block(
            -1, tuple(sorted({gate.qubits[0] for gate in gates[:prefix]})),
            tuple(gates[:prefix]), tuple(rates[:prefix]), 0,
        )
        owners = [(self.prefix, i) for i in range(prefix)]
        #: One block per non-identity string, in program order.
        self.blocks: list[_Block] = []
        start = prefix
        for term, pauli in enumerate(self.paulis):
            if pauli.is_identity():
                continue
            block = self._parse(term, gates, rates, start)
            owners.extend((block, i) for i in range(len(block.gates)))
            self.blocks.append(block)
            start += len(block.gates)
        if start != len(gates):
            raise ValueError("gate stream has gates past the last string's block")
        self._locations = [owners[int(position)] for position in positions]

    def _parse(self, term: int, gates, rates, start: int) -> _Block:
        """The block of ``term`` at ``start``: up to its ``RZ`` and the mirror."""
        pauli = self.paulis[term]
        center = start
        while center < len(gates) and gates[center].name != "rz":
            center += 1
        stop = 2 * center - start + 1
        block = _Block(
            term, tuple(pauli.support()), tuple(gates[start:stop]),
            tuple(rates[start:stop]), center - start,
        )
        support = set(block.qubits)
        ok = stop <= len(gates) and all(support.issuperset(g.qubits) for g in block.gates)
        if ok:
            # Both halves must be Cliffords taking P to Z on the RZ's qubit.
            root = _qubit_mask(gates[center].qubits)
            for side in (block.gates[:block.center], block.gates[:block.center:-1]):
                x, z = pauli.x, pauli.z
                for gate in side:
                    ok = ok and _is_clifford(gate)
                    if ok:
                        x, z = _conjugate(gate, x, z)
                ok = ok and (x, z) == (0, root)
        if not ok:
            raise ValueError(
                f"gates {start}..{stop} are not the chain-synthesized block "
                f"of term {term} ({pauli.label()})"
            )
        return block

    @property
    def num_terms(self) -> int:
        return len(self.paulis)

    def boundary_pauli(self, ordinal: int, pauli) -> tuple[int, int, int]:
        """An error Pauli drawn at noisy gate ``ordinal``, at its boundary.

        Returns ``(first, x, z)``: the error acts as the phase-free label
        ``(x, z)`` right before program term ``first`` (``num_terms``:
        after the last one).  ``pauli`` is a
        :class:`~repro.pauli.PauliString` on the gate's qubits.
        """
        block, index = self._locations[ordinal]
        x, z = pauli.x, pauli.z
        if index < block.center:
            for gate in reversed(block.gates[:index + 1]):
                x, z = _conjugate(gate, x, z)
            return block.term, x, z
        for gate in block.gates[index + 1:]:
            x, z = _conjugate(gate, x, z)
        return block.term + 1, x, z


def _interleave(x: np.ndarray, z: np.ndarray, num_qubits: int) -> np.ndarray:
    """Flat coefficient index of labels ``(x, z)``: bit ``2q + 1`` holds
    ``x_q`` and bit ``2q`` holds ``z_q``."""
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    index = np.zeros(np.broadcast(x, z).shape, dtype=np.int64)
    for q in range(num_qubits):
        index |= ((x >> q) & 1) << (2 * q + 1) | ((z >> q) & 1) << (2 * q)
    return index


def _label_sum(tables: list[np.ndarray]) -> np.ndarray:
    """``sum_k tables[k][c_k]`` over every local label ``sum_k c_k 4**k``,
    given one 4-entry table per support qubit (ascending)."""
    total = np.zeros(1, dtype=tables[0].dtype)
    for table in reversed(tables):
        total = np.add.outer(total, table).ravel()
    return total


def _walk_damping(gates, rates, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Product of the channel factors of ``gates``, each on the labels
    conjugated through the gates before it (in the order given)."""
    damping = np.ones(x.shape)
    for position, (gate, rate) in enumerate(zip(gates, rates)):
        # A channel commutes with its own gate, so it is read before the
        # gate's conjugation; the last gate (the RZ when walking back) is
        # never conjugated through.
        if rate > 0.0:
            touched = ((x | z) & _qubit_mask(gate.qubits)) != 0
            factor = 1.0 - _damping(rate, len(gate.qubits))
            np.multiply(damping, factor, out=damping, where=touched)
        if position + 1 < len(gates):
            x, z = _conjugate(gate, x, z)
    return damping


class PauliTransferEvolution:
    """The noisy program's state as real Pauli coefficients, string by string.

    ``evolve(angles)`` returns ``c_Q = Tr(rho Q)`` over all ``4**n``
    labels (flat index of :func:`_interleave`) for the chain-synthesized
    circuit under the plan's noise model.  A block's channel factors and
    rotation pairs depend only on Q restricted to the string's support, so
    each block keeps three tables over its ``4**w`` local labels and acts
    on the ``(2,) * 2n`` view of the coefficients by broadcasting:
    ``alpha c + beta flip(c)``, where the flip reverses the axes of P's
    bits (``Q -> Q P``).  Tables are kept while they fit
    ``_TABLE_BYTE_LIMIT`` and rebuilt per evaluation otherwise; the
    evolution holds three ``4**n`` buffers.
    """

    def __init__(self, plan: ChannelPlan) -> None:
        self.plan = plan
        n = plan.num_qubits
        self._shape = (2,) * (2 * n)
        # rho_HF = |b><b| has c_Q = (-1)**popcount(z & b) on the x = 0
        # labels; the prefix's x gates leave labels alone, so each of
        # their channels damps the labels with z on its qubit.
        z = np.arange(1 << n, dtype=np.int64)
        values = np.ones(z.size)
        for gate, rate in zip(plan.prefix.gates, plan.prefix.rates):
            on = (z >> gate.qubits[0]) & 1 == 1
            values[on] *= -(1.0 - _damping(rate, 1))
        self._initial = (_interleave(0, z, n), values)
        self._layouts = {block.term: self._block_layout(block) for block in plan.blocks}
        self._tables: dict[int, tuple[np.ndarray, ...]] = {}
        self._table_bytes = 0
        self._buffers: tuple[np.ndarray, ...] | None = None

    def coefficient_index(self, hamiltonian: PauliSum) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices and real weights of ``hamiltonian``'s terms, so that
        ``Tr(rho H) = weights @ evolve(angles)[indices]``."""
        keys = list(hamiltonian.items())
        x = np.array([x for (x, _), _ in keys], dtype=np.int64)
        z = np.array([z for (_, z), _ in keys], dtype=np.int64)
        weights = np.array([complex(c).real for _, c in keys], dtype=float)
        return _interleave(x, z, self.plan.num_qubits), weights

    def _block_layout(self, block: _Block) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Broadcast shape of a block's tables and the axes ``Q -> Q P`` flips."""
        n, pauli = self.plan.num_qubits, self.plan.paulis[block.term]
        shape = [1] * (2 * n)
        flips = []
        for q in block.qubits:
            x_axis, z_axis = 2 * (n - 1 - q), 2 * (n - 1 - q) + 1
            shape[x_axis] = shape[z_axis] = 2
            if pauli.x >> q & 1:
                flips.append(x_axis)
            if pauli.z >> q & 1:
                flips.append(z_axis)
        return tuple(shape), tuple(flips)

    def _build(self, block: _Block) -> tuple[np.ndarray, ...]:
        """``(commuting, anticommuting, partner)`` tables of a block.

        With ``D_b``/``D_a`` the channel factors at the block's start and
        end, a coefficient becomes ``D_a (r D_b c_Q + t D_b(QP) c_{QP})``
        with ``r = 1, t = 0`` on commuting labels and ``r = cos 2a,
        t = s_Q sin 2a`` on anticommuting ones.
        """
        n, pauli = self.plan.num_qubits, self.plan.paulis[block.term]
        dtype = np.min_scalar_type((1 << n) - 1)
        # Per support qubit, over its local code c = 2 x + z of Q: the
        # label bits, whether Q and P anticommute there, and the exponent
        # of i in Q P there, x1 z1 + x2 z2 - x3 z3 + 2 z1 x2.
        x_bits, z_bits, anti_bits, exponents = [], [], [], []
        for q in block.qubits:
            x2, z2 = pauli.x >> q & 1, pauli.z >> q & 1
            codes = [(c >> 1, c & 1) for c in range(4)]
            x_bits.append(np.array([x1 << q for x1, _ in codes], dtype=dtype))
            z_bits.append(np.array([z1 << q for _, z1 in codes], dtype=dtype))
            anti_bits.append(np.array([x1 * z2 ^ z1 * x2 for x1, z1 in codes], np.int8))
            exponents.append(np.array(
                [x1 * z1 + x2 * z2 - (x1 ^ x2) * (z1 ^ z2) + 2 * z1 * x2
                 for x1, z1 in codes], np.int8,
            ))
        x, z = _label_sum(x_bits), _label_sum(z_bits)
        center = block.center
        before = _walk_damping(block.gates[:center], block.rates[:center], x, z)
        after = _walk_damping(block.gates[center:][::-1], block.rates[center:][::-1], x, z)
        anti = _label_sum(anti_bits) & 1 == 1
        # i Q P = i**(1 + sum of exponents) (QP): +-1 where they anticommute.
        sign = np.where((1 + _label_sum(exponents)) % 4 == 0, 1.0, -1.0)
        width = len(block.qubits)
        flips = [
            axis
            for k, q in enumerate(block.qubits)
            for axis, mask in ((2 * (width - 1 - k), pauli.x), (2 * (width - k) - 1, pauli.z))
            if mask >> q & 1
        ]
        partner_before = np.flip(before.reshape((2,) * (2 * width)), flips).ravel()
        both = after * before
        commuting = np.where(anti, 0.0, both)
        anticommuting = np.where(anti, both, 0.0)
        partnered = np.where(anti, after * partner_before * sign, 0.0)
        return commuting, anticommuting, partnered

    def _block_tables(self, block: _Block) -> tuple[np.ndarray, ...]:
        tables = self._tables.get(block.term)
        if tables is None:
            tables = self._build(block)
            size = sum(table.nbytes for table in tables)
            if self._table_bytes + size <= _TABLE_BYTE_LIMIT:
                self._tables[block.term] = tables
                self._table_bytes += size
        return tables

    def evolve(self, angles: Sequence[float]) -> np.ndarray:
        """``Tr(rho Q)`` for every label after the noisy program with the
        term angles ``angles``; a view of an internal buffer that the next
        call overwrites."""
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (self.plan.num_terms,):
            raise ValueError(
                f"expected {self.plan.num_terms} angles, got shape {angles.shape}"
            )
        if self._buffers is None:
            size = 4**self.plan.num_qubits
            self._buffers = (np.empty(size), np.empty(size), np.empty(size))
        state, out, scratch = (b.reshape(self._shape) for b in self._buffers)
        state.fill(0.0)
        positions, values = self._initial
        state.reshape(-1)[positions] = values
        cosines, sines = np.cos(2.0 * angles), np.sin(2.0 * angles)
        for block in self.plan.blocks:
            commuting, anticommuting, partnered = self._block_tables(block)
            shape, flips = self._layouts[block.term]
            alpha = (commuting + cosines[block.term] * anticommuting).reshape(shape)
            beta = (sines[block.term] * partnered).reshape(shape)
            np.multiply(state, alpha, out=out)
            np.multiply(np.flip(state, flips), beta, out=scratch)
            out += scratch
            state, out = out, state
        return state.reshape(-1)
