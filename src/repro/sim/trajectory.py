"""Stochastic Pauli-trajectory (quantum-jump) noise at the Pauli level.

The exact density-matrix energy
(:class:`repro.vqe.energy.DensityMatrixEnergy`) costs O(4^n) memory and
time and is capped at 12 qubits, which locks the paper's Figure-10 noise
studies out of BH3/NH3/CH4 (14-16 qubits).  This module unravels the
same depolarizing channel into statevector trajectories instead: after
each noisy gate, every trajectory applies a uniformly random
*non-identity* Pauli from the gate's depolarizing set with probability
``p`` (and nothing otherwise).  Averaging the resulting pure-state
density matrices reproduces the channel exactly,

    E[|psi_traj><psi_traj|] = (1 - p) rho + p/(4^k - 1) sum_P P rho P,

so any expectation averaged over K trajectories is an *unbiased*
estimate of the density-matrix result with statistical error
O(1/sqrt(K)).

A trajectory's errors never depend on its state, so
:func:`_draw_events` draws all of them before anything evolves.  A Pauli
program's trajectories (:class:`repro.vqe.energy.TrajectoryEnergy`) then
run at the Pauli level: :func:`_error_rows` pushes each drawn error to
the end of the program through the
:class:`~repro.sim.channel_plan.ChannelPlan`, and
:func:`_pauli_row_values` evolves each error row as one
:class:`~repro.sim.pauli_evolution.FusedPauliEvolution` with some angles
negated, then applies the row's final Pauli and reads it out.  At the
paper's CNOT error of 1e-4 almost every row draws no error and reads the
clean row's value, so a call costs (1 + d) Pauli-program evolutions and
readouts of ``2^n`` amplitudes for the d rows with an error, plus the
draw.  ``tests/test_channel_plan.py`` checks the rows against a dense
oracle that runs the chain-synthesized circuit gate by gate with the
same draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.circuit import Circuit
from repro.core.bits import popcount
from repro.core.seeding import seeded_rng, spawn_seeds
from repro.pauli import PauliString
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel, depolarizing_paulis
from repro.sim.pauli_evolution import cached_parity_signs, cached_xor_indices

if TYPE_CHECKING:
    from repro.sim.channel_plan import ChannelPlan
    from repro.sim.pauli_evolution import FusedPauliEvolution

#: Rows per random-number block: block ``i`` draws from child ``i`` of
#: the seed's :class:`~numpy.random.SeedSequence`.
DEFAULT_BLOCK_SIZE = 64

#: Full-width error Paulis per (n, gate qubits): the depolarizing channel
#: of one gate location draws from the same 3 (1q) / 15 (2q) strings on
#: every shot of every trajectory, so embed the local Paulis once.
_CHANNEL_CACHE: dict[tuple[int, tuple[int, ...]], list[PauliString]] = {}


def channel_paulis(num_qubits: int, qubits: tuple[int, ...]) -> list[PauliString]:
    """The non-identity error Paulis of a depolarizing channel on
    ``qubits``, embedded into ``num_qubits``-wide strings (cached)."""
    key = (num_qubits, tuple(qubits))
    cached = _CHANNEL_CACHE.get(key)
    if cached is None:
        cached = []
        for local in depolarizing_paulis(len(qubits)):
            ops = {
                qubit: local.op_on(position)
                for position, qubit in enumerate(qubits)
                if local.op_on(position) != "I"
            }
            cached.append(PauliString.from_ops(num_qubits, ops))
        _CHANNEL_CACHE[key] = cached
    return cached


def _noisy_gates(
    circuit: Circuit, noise: DepolarizingNoiseModel | None
) -> tuple[np.ndarray, tuple]:
    """Positions of the gates that carry a channel, and their signature.

    The signature -- ``(qubits, p)`` per noisy gate, in gate order -- is
    all the event draw depends on; the rotation angles that change from
    one VQE evaluation to the next do not enter it.
    """
    noise = noise or DepolarizingNoiseModel(two_qubit_error=0.0)
    rates = [noise.error_for(gate.name, gate.num_qubits) for gate in circuit.gates]
    positions = np.flatnonzero(np.asarray(rates) > 0.0)
    return positions, tuple((circuit.gates[i].qubits, rates[i]) for i in positions)


def _draw_events(
    signature: tuple,
    num_qubits: int,
    trajectories: int,
    seed: int | np.random.SeedSequence | None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw every error before anything evolves.

    Block ``i`` (``block_size`` rows, the last one ragged) draws from
    child ``i`` of one :class:`~numpy.random.SeedSequence` root: per
    noisy gate in gate order, one uniform per row (``< p`` is a hit),
    then one channel-Pauli index per hit.  The draw never reads a state,
    and the results are a function of ``(seed, trajectories,
    block_size)`` alone.  Returns ``(gates, rows, paulis)`` in draw
    order: the noisy-gate ordinal, global row and channel-Pauli index of
    each error.
    """
    full, tail = divmod(trajectories, block_size)
    sizes = [block_size] * full + ([tail] if tail else [])
    gates, rows, paulis = [], [], []
    start = 0
    for size, block_seed in zip(sizes, spawn_seeds(seed, len(sizes))):
        rng = seeded_rng(block_seed)
        for ordinal, (qubits, probability) in enumerate(signature):
            hits = np.flatnonzero(rng.random(size) < probability)
            if hits.size:
                channel = len(channel_paulis(num_qubits, qubits))
                paulis.append(rng.integers(channel, size=hits.size))
                rows.append(start + hits)
                gates.append(np.full(hits.size, ordinal))
        start += size
    return tuple(
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
        for parts in (gates, rows, paulis)
    )


@dataclass(frozen=True)
class _ErrorRows:
    """The rows of one draw that hold an error, at the Pauli level."""

    rows: np.ndarray     # global rows with at least one error, ascending
    signs: np.ndarray    # (rows, terms): +-1 on each term's angle
    x: tuple[int, ...]   # X mask of each row's errors, pushed past the end
    z: tuple[int, ...]   # and their Z mask


def _error_rows(
    plan: "ChannelPlan", gates: np.ndarray, rows: np.ndarray, paulis: np.ndarray
) -> _ErrorRows:
    """Push every error of a :func:`_draw_events` draw to the end of the program.

    An error Pauli E drawn at a noisy gate acts, up to phase, at a string
    boundary (:meth:`~repro.sim.channel_plan.ChannelPlan.boundary_pauli`);
    moving it past every later string uses ``E exp(i a P) = exp(-i a P) E``
    when E and P anticommute.  So a row is the clean program with those
    angles negated, then the product of its E's.
    """
    num_qubits, num_terms = plan.num_qubits, plan.num_terms
    term_x = np.array([pauli.x for pauli in plan.paulis], dtype=np.uint64)
    term_z = np.array([pauli.z for pauli in plan.paulis], dtype=np.uint64)
    terms = np.arange(num_terms)
    found: dict[int, list] = {}
    for ordinal, target, choice in zip(gates.tolist(), rows.tolist(), paulis.tolist()):
        error = channel_paulis(num_qubits, plan.signature[ordinal][0])[choice]
        first, x, z = plan.boundary_pauli(ordinal, error)
        row = found.setdefault(target, [np.ones(num_terms), 0, 0])
        anticommutes = popcount((term_x & np.uint64(z)) ^ (term_z & np.uint64(x))) & 1
        row[0][(anticommutes == 1) & (terms >= first)] *= -1.0
        row[1] ^= x
        row[2] ^= z
    hit = sorted(found)
    return _ErrorRows(
        np.array(hit, dtype=np.intp),
        np.array([found[r][0] for r in hit]).reshape(len(hit), num_terms),
        tuple(found[r][1] for r in hit),
        tuple(found[r][2] for r in hit),
    )


def _pauli_row_values(
    evolution: "FusedPauliEvolution",
    engine: ExpectationEngine,
    reference: np.ndarray,
    angles: np.ndarray,
    rows: _ErrorRows,
    trajectories: int,
) -> np.ndarray:
    """Per-trajectory energies of a Pauli program under ``rows``' errors.

    The clean row and each error row are one full-space evolution of
    ``reference``; an error row then takes its final Pauli (phase
    dropped) before the readout.  Rows without an error read the clean
    value.
    """
    n = engine.num_qubits
    clean = evolution.evolve(angles, reference.copy())
    values = np.full(trajectories, engine.value(clean))
    if rows.rows.size:
        states = np.empty((rows.rows.size, reference.size), dtype=complex)
        for state, signs, x, z in zip(states, rows.signs, rows.x, rows.z):
            np.copyto(state, reference)
            evolution.evolve(angles * signs, state)
            state *= cached_parity_signs(n, z)
            if x:
                state[:] = state[cached_xor_indices(n, x)]
        values[rows.rows] = engine.values(states)
    return values
