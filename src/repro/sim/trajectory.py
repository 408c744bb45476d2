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
O(1/sqrt(K)) -- at O(K * T * 2^n) cost instead of O(4^n).

The K trajectories live in one ``(K, 2^n)``
:class:`repro.sim.batched.BatchedStatevector` stack, so every gate is
applied to all trajectories in a single vectorized NumPy call (the same
in-place index-slice kernels as the noise-free fast path), error
injections touch only the sampled rows, and expectations read through
:meth:`repro.sim.expectation.ExpectationEngine.values` in one batched
pass.  Large trajectory counts stream through cache-sized blocks
(:data:`DEFAULT_BLOCK_SIZE` rows at a time) so resident memory stays
bounded by the block, not by K.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.circuit import Circuit
from repro.core.seeding import seeded_rng, spawn_seeds
from repro.pauli import PauliString, PauliSum
from repro.sim.batched import BatchedStatevector
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel, depolarizing_paulis
from repro.sim.pauli_evolution import cached_parity_signs, cached_xor_indices

#: Valid values of the ``executor=`` knob of the streaming helpers (and
#: of :func:`repro.core.pipeline.run_batch`).
EXECUTORS = ("serial", "thread", "process")


def check_executor(executor: str) -> str:
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; valid executors: "
            f"{', '.join(EXECUTORS)}"
        )
    return executor


def resolve_workers(workers: "int | str | None", tasks: int) -> int:
    """Resolve the ``workers=`` knob: ``"auto"``/``None`` -> CPU count.

    Never more workers than tasks; always at least 1.
    """
    if workers in (None, "auto"):
        count = os.cpu_count() or 1
    else:
        count = int(workers)  # type: ignore[arg-type]
        if count < 1:
            raise ValueError("workers must be at least 1")
    return max(1, min(count, tasks))

#: Trajectories evolved per block by the streaming helpers.  One block
#: keeps ``block x 2**n`` amplitudes resident (64 rows at 14 qubits is
#: ~16 MiB); bigger blocks buy nothing once the gate kernels go
#: memory-bound, smaller ones repay Python dispatch per gate K/block
#: times.
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


class TrajectorySimulator:
    """K stochastic Pauli trajectories evolved through noisy circuits.

    Mirrors the :class:`~repro.sim.density_matrix.DensityMatrixSimulator`
    interface (``run`` a circuit, read expectations) but scales past its
    12-qubit cap: memory is ``K * 2**n`` amplitudes and every unitary is
    one vectorized batched-kernel call.  Pass ``rng`` to share one
    random stream across several simulators (the block-streaming helpers
    below do exactly that).
    """

    def __init__(
        self,
        num_qubits: int,
        noise: DepolarizingNoiseModel | None = None,
        *,
        trajectories: int = DEFAULT_BLOCK_SIZE,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if trajectories < 1:
            raise ValueError("trajectories must be at least 1")
        self.num_qubits = num_qubits
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=0.0)
        self.trajectories = trajectories
        self.batch = BatchedStatevector(num_qubits, trajectories)
        self._rng = rng if rng is not None else seeded_rng(seed)
        #: Total error Paulis injected across all trajectories by ``run``
        #: calls since construction/reset (diagnostic: expected value is
        #: ``trajectories * sum_gates p_gate``).
        self.error_events = 0

    @property
    def states(self) -> np.ndarray:
        """The ``(K, 2**n)`` trajectory stack (a live view)."""
        return self.batch.states

    def reset(self, state: np.ndarray | None = None) -> "TrajectorySimulator":
        """Reset every trajectory to ``|0...0>`` (or a given statevector)."""
        if state is None:
            self.batch.reset()
        else:
            self.batch.states[...] = state
        self.error_events = 0
        return self

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit) -> np.ndarray:
        """Evolve all trajectories through the circuit with noise injection.

        SWAPs are decomposed into CNOTs first so the noise model sees the
        same gate stream as the density-matrix simulator.
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        hardware_view = circuit.decompose_swaps()
        for gate in hardware_view.gates:
            if gate.name in ("barrier", "measure"):
                continue
            self.batch.apply_gate(gate)
            probability = self.noise.error_for(gate.name, gate.num_qubits)
            if probability > 0.0:
                self._inject_errors(gate.qubits, probability)
        return self.batch.states

    def _inject_errors(self, qubits: tuple[int, ...], probability: float) -> None:
        """One depolarizing shot per trajectory after a noisy gate."""
        hits = np.nonzero(self._rng.random(self.trajectories) < probability)[0]
        if hits.size == 0:
            return
        paulis = channel_paulis(self.num_qubits, qubits)
        choices = self._rng.integers(len(paulis), size=hits.size)
        self.error_events += int(hits.size)
        for index in np.unique(choices):
            _apply_pauli_rows(self.batch.states, paulis[index], hits[choices == index])

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def expectations(self, observable: ExpectationEngine | PauliSum) -> np.ndarray:
        """Per-trajectory ``<psi|H|psi>``, shape ``(K,)`` (one batched pass)."""
        engine = _as_engine(observable)
        return engine.values(self.batch.states)

    def expectation(self, observable: ExpectationEngine | PauliSum) -> float:
        """Trajectory-averaged expectation (unbiased estimate of ``Tr(rho H)``)."""
        return float(self.expectations(observable).mean())


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


def _block_plan(trajectories: int, block_size: int) -> list[int]:
    """Block sizes covering ``trajectories`` (all ``block_size`` but the tail)."""
    if trajectories < 1:
        raise ValueError("trajectories must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    full, tail = divmod(trajectories, block_size)
    return [block_size] * full + ([tail] if tail else [])


def _spawn_block_seeds(
    seed: int | np.random.SeedSequence | None, count: int
) -> list[np.random.SeedSequence]:
    """One independent child :class:`~numpy.random.SeedSequence` per block.

    Spawning (instead of streaming one generator through the blocks in
    order) is what makes every block's randomness independent of which
    executor runs it and of how blocks are distributed over workers:
    block ``i`` always draws from child ``i`` of the same root, so
    serial, threaded, and process runs are bit-identical given
    ``(seed, trajectories, block_size)``.  Delegates to the audited
    normalization in :mod:`repro.core.seeding`.
    """
    return spawn_seeds(seed, count)


def _run_one_block(
    circuit: Circuit,
    engine: ExpectationEngine,
    noise: DepolarizingNoiseModel | None,
    block: int,
    seed: np.random.SeedSequence,
    initial_state: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Evolve one trajectory block; returns (values, error events)."""
    simulator = TrajectorySimulator(
        circuit.num_qubits,
        noise,
        trajectories=block,
        rng=np.random.default_rng(seed),
    )
    if initial_state is not None:
        simulator.reset(initial_state)
    simulator.run(circuit)
    return engine.values(simulator.states), simulator.error_events


def _trajectory_block_worker(
    payload: tuple,
) -> tuple[np.ndarray, int]:
    """Process-pool task: map the shared tables, evolve one block.

    The observable's grouped diagonals (the only big constant of the
    computation -- ``(G, 2**n)`` complex128) and the optional initial
    state arrive as a :class:`repro.core.shm.SharedSlabs` handle, so
    every worker maps one shared copy instead of unpickling its own.
    """
    (circuit, noise, block, seed, handle, num_qubits, num_terms, has_initial) = payload
    from repro.core.shm import SharedSlabs

    slabs = SharedSlabs.attach(handle)
    try:
        engine = ExpectationEngine.from_arrays(
            num_qubits,
            slabs["x_masks"],
            slabs["diagonals"],
            num_terms=num_terms,
        )
        initial = slabs["initial_state"] if has_initial else None
        return _run_one_block(circuit, engine, noise, block, seed, initial)
    finally:
        slabs.close()


def _run_blocks(
    circuit: Circuit,
    engine: ExpectationEngine,
    noise: DepolarizingNoiseModel | None,
    trajectories: int,
    seed: int | np.random.SeedSequence | None,
    block_size: int,
    initial_state: np.ndarray | None,
    *,
    executor: str = "serial",
    workers: "int | str | None" = None,
) -> tuple[np.ndarray, int]:
    """Stream trajectories through cache-sized blocks; values + events.

    Block ``i`` always draws from child ``i`` of one
    :class:`~numpy.random.SeedSequence` root (see
    :func:`_spawn_block_seeds`), so all executors and worker counts
    produce bit-identical results for the same
    ``(seed, trajectories, block_size)``.
    """
    check_executor(executor)
    sizes = _block_plan(trajectories, block_size)
    seeds = _spawn_block_seeds(seed, len(sizes))
    count = resolve_workers(workers, len(sizes))
    values = np.empty(trajectories)
    events = 0

    def _store(results: Iterable[tuple[np.ndarray, int]]) -> None:
        nonlocal events
        done = 0
        for (block_values, block_events), block in zip(results, sizes):
            values[done:done + block] = block_values
            events += block_events
            done += block

    if executor == "serial" or count == 1 or len(sizes) == 1:
        _store(
            _run_one_block(circuit, engine, noise, block, block_seed, initial_state)
            for block, block_seed in zip(sizes, seeds)
        )
    elif executor == "thread":
        with ThreadPoolExecutor(max_workers=count) as pool:
            _store(
                pool.map(
                    lambda pair: _run_one_block(
                        circuit, engine, noise, pair[0], pair[1], initial_state
                    ),
                    zip(sizes, seeds),
                )
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
                    circuit, noise, block, block_seed, slabs.handle,
                    engine.num_qubits, engine.num_terms,
                    initial_state is not None,
                )
                for block, block_seed in zip(sizes, seeds)
            ]
            with ProcessPoolExecutor(max_workers=count) as pool:
                _store(pool.map(_trajectory_block_worker, payloads))
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
    ``SeedSequence``, ``None`` for fresh entropy).  Each block draws
    from its own spawned child of one ``SeedSequence`` root, so results
    are fully deterministic given ``(seed, trajectories, block_size)``
    -- and bit-identical across ``executor="serial" | "thread" |
    "process"`` and any ``workers`` count.  ``executor="process"``
    shares the observable's grouped diagonals with the workers through
    :class:`repro.core.shm.SharedSlabs`.
    """
    values, _ = _run_blocks(
        circuit, _as_engine(observable), noise, trajectories, seed,
        block_size, initial_state, executor=executor, workers=workers,
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
    values, events = _run_blocks(
        circuit, _as_engine(observable), noise, trajectories, seed,
        block_size, initial_state, executor=executor, workers=workers,
    )
    if trajectories > 1:
        standard_error = float(values.std(ddof=1) / math.sqrt(trajectories))
    else:
        standard_error = float("nan")
    return TrajectoryEstimate(
        value=float(values.mean()),
        standard_error=standard_error,
        trajectories=trajectories,
        error_events=events,
    )
