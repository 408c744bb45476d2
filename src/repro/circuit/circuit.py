"""Ordered-gate-list circuit container with counting and transforms."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator

from repro.circuit.gates import Gate

#: Gates that take no schedule level (they still synchronize their wires).
_NO_LEVEL = ("barrier", "measure")


class Circuit:
    """A quantum circuit over ``num_qubits`` qubits.

    The container is intentionally simple: an ordered list of
    :class:`~repro.circuit.gates.Gate` records plus the metrics the paper
    evaluates compilers by (total gate count and CNOT count, where every
    SWAP decomposes into three CNOTs).
    """

    __slots__ = ("num_qubits", "gates")

    def __init__(self, num_qubits: int, gates: Iterable[Gate] | None = None) -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        self.gates: list[Gate] = []
        if gates:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"gate {gate!r} touches qubit {qubit}, circuit has {self.num_qubits}"
                )
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "Circuit") -> "Circuit":
        """Concatenation ``self; other`` as a new circuit."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        return Circuit(self.num_qubits, list(self.gates) + list(other.gates))

    def inverse(self) -> "Circuit":
        """The adjoint circuit (reversed order, inverted gates)."""
        return Circuit(self.num_qubits, [g.inverse() for g in reversed(self.gates)])

    def remap(self, mapping: dict[int, int], num_qubits: int | None = None) -> "Circuit":
        """Relabel qubits through ``mapping`` (e.g. logical -> physical)."""
        target = num_qubits if num_qubits is not None else self.num_qubits
        return Circuit(target, [g.remap(mapping) for g in self.gates])

    # ------------------------------------------------------------------
    # Metrics (the evaluation criteria of the paper)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def counts(self) -> Counter:
        """Histogram of gate names."""
        return Counter(gate.name for gate in self.gates)

    def num_gates(self) -> int:
        """Total gate count, excluding barriers and measurements."""
        return sum(1 for g in self.gates if g.name not in ("barrier", "measure"))

    def num_cnots(self) -> int:
        """CNOT count with each SWAP counted as three CNOTs.

        This is the paper's primary compiler metric: CNOTs have an order of
        magnitude larger latency/error than single-qubit gates, and routing
        SWAPs are realized as three CNOTs on cross-resonance hardware.
        """
        counts = self.counts()
        return counts.get("cx", 0) + 3 * counts.get("swap", 0)

    def num_swaps(self) -> int:
        return self.counts().get("swap", 0)

    def depth(self) -> int:
        """ASAP depth in gate levels; see :meth:`asap_schedule`."""
        return self.asap_schedule(lambda gate: 0.0)[0]

    def asap_schedule(self, duration: Callable[[Gate], float]) -> tuple[int, int, float]:
        """``(depth, scheduled_depth, time)`` of the ASAP schedule, in one pass.

        Each wire keeps running maxima, and a gate starts once all its
        wires are free.  ``depth`` counts a SWAP as one level;
        ``scheduled_depth`` and ``time`` count its three-CNOT chain,
        adding the CNOT time three times in chain order.  ``duration`` is
        a name-keyed gate time (e.g. :meth:`GateLatencyModel.duration`).
        Barriers and measurements take no level but synchronize their wires.
        """
        cx = duration(Gate("cx", (0, 1)))
        levels, steps, clock = [0] * self.num_qubits, [0] * self.num_qubits, [0.0] * self.num_qubits
        depth = scheduled = 0
        total = 0.0
        for gate in self.gates:
            qubits = gate.qubits
            level = max([levels[q] for q in qubits], default=0)
            step = max([steps[q] for q in qubits], default=0)
            end = max([clock[q] for q in qubits], default=0.0)
            if gate.name == "swap":
                level, step, end = level + 1, step + 3, end + cx + cx + cx
            else:
                cost = gate.name not in _NO_LEVEL
                level, step, end = level + cost, step + cost, end + duration(gate)
            for q in qubits:
                levels[q], steps[q], clock[q] = level, step, end
            depth, scheduled = max(depth, level), max(scheduled, step)
            if end > total:
                total = end
        return depth, scheduled, total

    def two_qubit_pairs(self) -> list[tuple[int, int]]:
        """Ordered list of interacting qubit pairs (for mapping analysis)."""
        return [
            (gate.qubits[0], gate.qubits[1])
            for gate in self.gates
            if gate.is_two_qubit() and gate.name != "barrier"
        ]

    def decompose_swaps(self) -> "Circuit":
        """Rewrite each SWAP as three CNOTs (hardware-level view)."""
        from repro.circuit.gates import CNOT

        result = Circuit(self.num_qubits)
        for gate in self.gates:
            if gate.name == "swap":
                a, b = gate.qubits
                result.extend([CNOT(a, b), CNOT(b, a), CNOT(a, b)])
            else:
                result.append(gate)
        return result

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        summary = ", ".join(f"{name}:{count}" for name, count in sorted(self.counts().items()))
        return f"Circuit({self.num_qubits} qubits, {len(self.gates)} gates [{summary}])"

    def to_text(self, max_gates: int = 80) -> str:
        """Human-readable gate listing (for examples and debugging)."""
        lines = [repr(self)]
        lines += [f"  {gate!r}" for gate in self.gates[:max_gates]]
        if len(self.gates) > max_gates:
            lines.append(f"  ... ({len(self.gates) - max_gates} more)")
        return "\n".join(lines)
