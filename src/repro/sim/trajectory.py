"""Stochastic Pauli-trajectory (quantum-jump) noise engine.

The exact :class:`repro.sim.density_matrix.DensityMatrixSimulator` costs
O(4^n) memory and time and is hard-capped at 12 qubits, which locks the
paper's Figure-10 noise studies out of BH3/NH3/CH4 (14-16 qubits).  This
module unravels the same depolarizing channel into statevector
trajectories instead: after each noisy gate, every trajectory applies a
uniformly random *non-identity* Pauli from the gate's depolarizing set
with probability ``p`` (and nothing otherwise).  Averaging the resulting
pure-state density matrices reproduces the channel exactly,

    E[|psi_traj><psi_traj|] = (1 - p) rho + p/(4^k - 1) sum_P P rho P,

so any expectation averaged over K trajectories is an *unbiased*
estimate of the density-matrix result with statistical error
O(1/sqrt(K)).

A trajectory's errors never depend on its state, so all of them are
drawn before any gate runs.  At the paper's CNOT error of 1e-4 almost
every row draws none, so rows evolve error-sparsely in a
``(1 + d, 2^n)`` stack: one clean representative plus the d rows that
draw an error, each copied from the clean row at its first error.
Every gate is one in-place kernel call on the rows forked so far, and
rows that never fork take the clean row's expectation.  That costs
O(T * (1 + d) * 2^n) plus the event draw, and on two or more qubits
every row's value is bit-identical to evolving all K rows.  Chunks of
``block_size``-row blocks fork at most ``block_size`` rows each, so
memory stays bounded.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.circuit import Circuit
from repro.core.seeding import seeded_rng, spawn_seeds
from repro.pauli import PauliString, PauliSum
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel, depolarizing_paulis
from repro.sim.pauli_evolution import cached_parity_signs, cached_xor_indices
from repro.sim.statevector import apply_gate_inplace, basis_state

#: Valid values of the ``executor=`` knob of the streaming helpers (and
#: of :func:`repro.core.pipeline.run_batch`).
EXECUTORS = ("serial", "process")


def check_executor(executor: str) -> str:
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; valid executors: "
            f"{', '.join(EXECUTORS)}"
        )
    return executor


def resolve_workers(workers: "int | str | None", tasks: int) -> int:
    """Resolve the ``workers=`` knob: ``"auto"``/``None`` -> usable CPUs.

    The usable CPUs are this process's affinity set where the platform
    has one (a container or ``taskset`` may allow fewer than the
    machine has), else ``os.cpu_count()``.  Never more workers than
    tasks; always at least 1.
    """
    if workers in (None, "auto"):
        if hasattr(os, "sched_getaffinity"):
            count = len(os.sched_getaffinity(0))
        else:
            count = os.cpu_count() or 1
    else:
        count = int(workers)  # type: ignore[arg-type]
        if count < 1:
            raise ValueError("workers must be at least 1")
    return max(1, min(count, tasks))

#: Rows per random-number block, and the most rows one chunk may fork:
#: a chunk keeps at most ``block + 1`` rows of ``2**n`` amplitudes
#: resident (65 rows at 14 qubits is ~17 MiB).
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
        # lint: ignore[RR101] - idempotent memo: racing writers store equal values
        _CHANNEL_CACHE[key] = cached
    return cached


def _apply_pauli_rows(states: np.ndarray, pauli: PauliString, rows: np.ndarray) -> None:
    """Apply ``P`` to the selected rows of a ``(K, 2**n)`` stack.

    Same signed-permutation identity as
    :func:`repro.sim.pauli_evolution.apply_pauli`, restricted to the rows
    that actually drew this error (at realistic error rates almost all
    rows draw none, so the common case touches a handful of rows).
    """
    n = pauli.num_qubits
    sub = states[rows] * cached_parity_signs(n, pauli.z)
    if pauli.x:
        sub = np.take(sub, cached_xor_indices(n, pauli.x), axis=-1)
    phase = (1j) ** (pauli.y_count() % 4)
    if phase != 1.0:
        sub = sub * phase
    states[rows] = sub


@dataclass(frozen=True)
class TrajectoryEstimate:
    """A trajectory-averaged expectation with its statistical error."""

    value: float            # mean over trajectories (unbiased)
    standard_error: float   # sample std / sqrt(K); NaN when K == 1
    trajectories: int
    error_events: int       # total injected Paulis across all trajectories

    def agrees_with(self, reference: float, *, sigmas: float = 3.0) -> bool:
        """True when ``reference`` lies within ``sigmas`` standard errors."""
        return abs(self.value - reference) <= sigmas * self.standard_error


def _as_engine(observable: ExpectationEngine | PauliSum) -> ExpectationEngine:
    if isinstance(observable, ExpectationEngine):
        return observable
    return ExpectationEngine(observable)


def _summarize(values: np.ndarray, events: "_Events") -> TrajectoryEstimate:
    """Mean and standard error of per-trajectory values."""
    trajectories = len(values)
    if trajectories > 1:
        standard_error = float(values.std(ddof=1) / math.sqrt(trajectories))
    else:
        standard_error = float("nan")
    return TrajectoryEstimate(
        value=float(values.mean()),
        standard_error=standard_error,
        trajectories=trajectories,
        error_events=events.total,
    )


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


@dataclass(frozen=True)
class _Chunk:
    """Consecutive rows evolved together as one ``(1 + d, 2**n)`` stack."""

    start: int            # first global row
    rows: int
    gates: np.ndarray     # noisy-gate ordinal of each error, ascending
    targets: np.ndarray   # chunk-local row of each error
    paulis: np.ndarray    # index into the gate's channel Paulis


@dataclass(frozen=True)
class _Events:
    """Every error of one seeded draw, planned into chunks."""

    key: tuple            # (noisy-gate signature, trajectories, block_size)
    chunks: tuple[_Chunk, ...]
    total: int            # error events in all chunks


def _draw_events(
    signature: tuple,
    num_qubits: int,
    trajectories: int,
    seed: int | np.random.SeedSequence | None,
    block_size: int,
) -> _Events:
    """Draw every error before any gate runs, then plan the chunks.

    Block ``i`` (``block_size`` rows, the last one ragged) draws from
    child ``i`` of one :class:`~numpy.random.SeedSequence` root: per
    noisy gate in gate order, one uniform per row (``< p`` is a hit),
    then one channel-Pauli index per hit.  The draw never reads a
    state, so it can run ahead of the evolution, and the results are a
    function of ``(seed, trajectories, block_size)`` alone -- whatever
    executor evolves the chunks.

    Consecutive blocks join one chunk while it forks at most
    ``block_size`` rows, so a chunk keeps at most ``block_size + 1``
    rows resident; at realistic error rates every block fits one chunk.
    """
    if trajectories < 1:
        raise ValueError("trajectories must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
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
    all_gates, all_rows, all_paulis = (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
        for parts in (gates, rows, paulis)
    )

    starts = np.cumsum([0] + sizes)
    blocks = np.searchsorted(starts, np.unique(all_rows), side="right") - 1
    forked = np.bincount(blocks, minlength=len(sizes))
    bounds, load = [0], 0
    for block, count in enumerate(forked):
        if load + count > block_size:
            bounds.append(block)
            load = 0
        load += int(count)
    bounds.append(len(sizes))

    chunks = []
    for first, last in zip(bounds, bounds[1:]):
        lo, hi = int(starts[first]), int(starts[last])
        inside = np.flatnonzero((all_rows >= lo) & (all_rows < hi))
        order = inside[np.argsort(all_gates[inside], kind="stable")]
        chunks.append(
            _Chunk(lo, hi - lo, all_gates[order], all_rows[order] - lo, all_paulis[order])
        )
    return _Events((signature, trajectories, block_size), tuple(chunks), len(all_rows))


def _evolve_chunk(
    circuit: Circuit,
    positions: np.ndarray,
    engine: ExpectationEngine,
    chunk: _Chunk,
    initial_state: np.ndarray | None,
) -> np.ndarray:
    """Per-row expectations of one chunk, evolved error-sparsely.

    Row 0 of the stack is the clean representative.  A row forks at its
    first error: row 0 is copied into the next free slot, which then
    takes the error Pauli and every later gate.  Rows that never fork
    read row 0's value.
    """
    n = engine.num_qubits
    at = positions[chunk.gates]
    firsts = np.flatnonzero(np.diff(at, prepend=-1))
    errors = {
        int(at[lo]): (chunk.targets[lo:hi], chunk.paulis[lo:hi])
        for lo, hi in zip(firsts, [*firsts[1:], at.size])
    }
    stack = np.empty((1 + np.unique(chunk.targets).size, 1 << n), dtype=complex)
    stack[0] = basis_state(n, 0) if initial_state is None else initial_state
    slot = np.zeros(chunk.rows, dtype=np.intp)
    active = 1
    live = stack[:active]
    for position, gate in enumerate(circuit.gates):
        apply_gate_inplace(live, gate, n)
        hit = errors.get(position)
        if hit is None:
            continue
        targets, choices = hit
        fresh = targets[slot[targets] == 0]
        if fresh.size:
            slot[fresh] = np.arange(active, active + fresh.size)
            stack[active:active + fresh.size] = stack[0]
            active += fresh.size
            live = stack[:active]
        slots = slot[targets]
        paulis = channel_paulis(n, gate.qubits)
        for index in np.unique(choices):
            _apply_pauli_rows(stack, paulis[index], slots[choices == index])
    return engine.values(live)[slot]


def _trajectory_chunk_worker(payload: tuple) -> np.ndarray:
    """Process-pool task: map the shared tables, evolve one chunk.

    The observable's grouped diagonals (the only big constant of the
    computation -- ``(G, 2**n)`` complex128) and the optional initial
    state arrive as a :class:`repro.core.shm.SharedSlabs` handle, so
    every worker maps one shared copy instead of unpickling its own.
    """
    (circuit, positions, chunk, handle, num_qubits, num_terms, has_initial) = payload
    from repro.core.shm import SharedSlabs

    slabs = SharedSlabs.attach(handle)
    try:
        engine = ExpectationEngine.from_arrays(
            num_qubits, slabs["x_masks"], slabs["diagonals"], num_terms=num_terms
        )
        initial = slabs["initial_state"] if has_initial else None
        return _evolve_chunk(circuit, positions, engine, chunk, initial)
    finally:
        slabs.close()


def _run_trajectories(
    circuit: Circuit,
    observable: ExpectationEngine | PauliSum,
    noise: DepolarizingNoiseModel | None,
    trajectories: int,
    seed: int | np.random.SeedSequence | None,
    block_size: int,
    initial_state: np.ndarray | None,
    executor: str,
    workers: "int | str | None",
    events: _Events | None = None,
) -> tuple[np.ndarray, _Events]:
    """Per-trajectory values and the events behind them.

    ``events`` from an earlier call with the same seed is reused when
    its noisy-gate signature, ``trajectories`` and ``block_size`` still
    match (the common-random-numbers memo of
    :class:`repro.vqe.energy.TrajectoryEnergy`).  Every executor maps
    the same chunk function over the same chunks, so serial and process
    runs are bit-identical for any ``workers`` count.
    """
    check_executor(executor)
    engine = _as_engine(observable)
    if circuit.num_qubits != engine.num_qubits:
        raise ValueError("qubit count mismatch")
    # SWAPs become CNOTs first, so the noise model sees the same gate
    # stream as the density-matrix simulator.
    hardware = circuit.decompose_swaps()
    positions, signature = _noisy_gates(hardware, noise)
    if events is None or events.key != (signature, trajectories, block_size):
        events = _draw_events(
            signature, circuit.num_qubits, trajectories, seed, block_size
        )
    chunks = events.chunks
    count = resolve_workers(workers, len(chunks))

    values = np.empty(trajectories)

    def store(results: Iterable[np.ndarray]) -> None:
        for chunk, chunk_values in zip(chunks, results):
            values[chunk.start:chunk.start + chunk.rows] = chunk_values

    if executor == "serial" or count == 1:
        store(
            _evolve_chunk(hardware, positions, engine, chunk, initial_state)
            for chunk in chunks
        )
    else:
        from repro.core.shm import SharedSlabs

        tables = engine.export_tables()
        if initial_state is not None:
            tables["initial_state"] = np.ascontiguousarray(
                np.asarray(initial_state, dtype=complex)
            )
        slabs = SharedSlabs.create(tables)
        try:
            payloads = [
                (
                    hardware, positions, chunk, slabs.handle,
                    engine.num_qubits, engine.num_terms,
                    initial_state is not None,
                )
                for chunk in chunks
            ]
            with ProcessPoolExecutor(max_workers=count) as pool:
                store(pool.map(_trajectory_chunk_worker, payloads))
        finally:
            slabs.unlink()
    return values, events


def trajectory_expectations(
    circuit: Circuit,
    observable: ExpectationEngine | PauliSum,
    noise: DepolarizingNoiseModel | None = None,
    *,
    trajectories: int = 256,
    seed: int | np.random.SeedSequence | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    initial_state: np.ndarray | None = None,
    executor: str = "serial",
    workers: "int | str | None" = None,
) -> np.ndarray:
    """Per-trajectory expectations of a noisy circuit, shape ``(K,)``.

    ``seed`` accepts anything ``np.random.default_rng`` does (int,
    ``SeedSequence``, ``None`` for fresh entropy).  Each block of
    ``block_size`` rows draws from its own spawned child of one
    ``SeedSequence`` root, so results are fully deterministic given
    ``(seed, trajectories, block_size)`` -- and bit-identical across
    ``executor="serial" | "process"`` and any ``workers`` count.
    ``executor="process"`` shares the observable's grouped diagonals
    with the workers through :class:`repro.core.shm.SharedSlabs`.
    """
    values, _ = _run_trajectories(
        circuit, observable, noise, trajectories, seed, block_size,
        initial_state, executor, workers,
    )
    return values


def trajectory_estimate(
    circuit: Circuit,
    observable: ExpectationEngine | PauliSum,
    noise: DepolarizingNoiseModel | None = None,
    *,
    trajectories: int = 256,
    seed: int | np.random.SeedSequence | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    initial_state: np.ndarray | None = None,
    executor: str = "serial",
    workers: "int | str | None" = None,
) -> TrajectoryEstimate:
    """Trajectory-averaged expectation with its standard error.

    The mean is an unbiased estimate of the density-matrix expectation
    (see the module docstring); ``standard_error`` quantifies the
    remaining Monte-Carlo noise, so DM-vs-trajectory agreement checks
    should compare within a few standard errors.  See
    :func:`trajectory_expectations` for the ``executor``/``workers``
    scale-out knobs (results are bit-identical across executors for a
    fixed seed).
    """
    values, events = _run_trajectories(
        circuit, observable, noise, trajectories, seed, block_size,
        initial_state, executor, workers,
    )
    return _summarize(values, events)
