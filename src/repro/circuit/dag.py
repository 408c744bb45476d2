"""Shared circuit DAG IR: per-qubit wires with commutation-aware edges.

The compiler stages that need gate dependencies share this one structure
instead of re-deriving private ones: SABRE's front layer and lookahead
window over its *input* circuit, and the peephole cancellation pass.
Both routers emit a plain :class:`~repro.circuit.Circuit`, never a DAG
of their output, and the scheduling metrics need none either:
:meth:`repro.circuit.Circuit.asap_schedule` keeps per-wire running maxima
over the gate list, which is the wire DAG's critical path without
building it.  ``tests/dag_oracle.py`` checks the structural invariants
of the DAGs :meth:`CircuitDAG.from_circuit` builds.

The DAG is built by O(1) appends.  Each gate node records, per qubit it
touches, how it acts on that wire:

* **Z-like** (``z``, ``s``, ``sdg``, ``rz``, ``cz``, and the *control*
  of ``cx``): diagonal in the computational basis on that qubit;
* **X-like** (``x``, ``rx``, and the *target* of ``cx``): diagonal in
  the X basis on that qubit;
* **blocking** (``h``, ``y``, ``ry``, ``swap``, ``barrier``,
  ``measure``): commutes with nothing on that wire.

Two gates commute whenever their wire-actions agree on every shared
qubit: each can then be written as a projector sum over the shared wires
(``P0 (x) A0 + P1 (x) A1`` in the matching basis) with remainders on
disjoint qubits, so the cross terms commute.  With ``commute=True`` the
builder therefore keeps a *commuting group* per wire -- a maximal run of
gates with the same wire-action -- and a new gate only depends on the
previous group, not on every touching gate.  With ``commute=False``
every gate conflicts on its wires and the DAG reduces to the plain
wire-dependency graph (exactly the structure SABRE's old private
``_build_dag`` computed).

The append order is itself a topological order (every edge points from a
lower to a higher node index), which keeps iteration deterministic and
lets :meth:`CircuitDAG.to_circuit` reproduce the emission order exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate

#: Gates acting Z-like (computational-basis diagonal) on all their qubits.
_Z_LIKE = {"z", "s", "sdg", "rz", "cz"}
#: Gates acting X-like (X-basis diagonal) on all their qubits.
_X_LIKE = {"x", "rx"}


def gate_axes(gate: Gate) -> tuple[str | None, ...]:
    """Per-qubit wire-action of ``gate``: ``"Z"``, ``"X"`` or ``None``.

    ``None`` means the gate blocks its wire (commutes with nothing
    there).  Unknown gate names are conservatively blocking.
    """
    if gate.name in _Z_LIKE:
        return ("Z",) * len(gate.qubits)
    if gate.name in _X_LIKE:
        return ("X",) * len(gate.qubits)
    if gate.name == "cx":
        return ("Z", "X")
    return (None,) * len(gate.qubits)


class DAGNode:
    """One gate occurrence in the DAG."""

    __slots__ = ("index", "gate", "predecessors", "successors", "_axes", "_groups", "_wire_pos")

    def __init__(self, index: int, gate: Gate) -> None:
        self.index = index
        self.gate = gate
        self.predecessors: list[DAGNode] = []
        self.successors: list[DAGNode] = []
        self._axes: dict[int, str | None] = {}
        self._groups: dict[int, int] = {}
        self._wire_pos: dict[int, int] = {}

    @property
    def num_predecessors(self) -> int:
        return len(self.predecessors)

    def axis_on(self, qubit: int) -> str | None:
        """Wire-action of this gate on ``qubit`` (under the DAG's mode)."""
        return self._axes[qubit]

    def group_on(self, qubit: int) -> int:
        """Commuting-group id of this gate on ``qubit``'s wire."""
        return self._groups[qubit]

    def wire_position(self, qubit: int) -> int:
        """Index of this node within ``qubit``'s wire sequence."""
        return self._wire_pos[qubit]

    def __repr__(self) -> str:
        return f"DAGNode({self.index}: {self.gate!r})"


class CircuitDAG:
    """Gate dependency DAG over per-qubit wires (the shared compiler IR)."""

    def __init__(self, num_qubits: int, *, commute: bool = False) -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        self.commute = commute
        self.nodes: list[DAGNode] = []
        self._wires: list[list[DAGNode]] = [[] for _ in range(num_qubits)]
        # Trailing commuting group per wire: members, the group before it,
        # the wire-action shared by the members, and the group's id.
        self._last_members: list[list[DAGNode]] = [[] for _ in range(num_qubits)]
        self._prev_members: list[list[DAGNode]] = [[] for _ in range(num_qubits)]
        self._last_axis: list[str | None] = [None] * num_qubits
        self._last_group: list[int] = [-1] * num_qubits
        self._group_counter = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: Circuit, *, commute: bool = False) -> "CircuitDAG":
        dag = cls(circuit.num_qubits, commute=commute)
        dag.extend(circuit.gates)
        return dag

    def append(self, gate: Gate) -> "CircuitDAG":
        """O(1) append of one gate, wiring its dependency edges."""
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"gate {gate!r} touches qubit {qubit}, DAG has {self.num_qubits}"
                )
        node = DAGNode(len(self.nodes), gate)
        axes = gate_axes(gate) if self.commute else (None,) * len(gate.qubits)
        predecessors: dict[int, DAGNode] = {}
        for qubit, axis in zip(gate.qubits, axes):
            joins = (
                axis is not None
                and self._last_members[qubit]
                and self._last_axis[qubit] == axis
            )
            if joins:
                # Same wire-action as the trailing group: the new gate
                # commutes with all its members, so it only depends on
                # the group before it.
                for previous in self._prev_members[qubit]:
                    predecessors[previous.index] = previous
                self._last_members[qubit].append(node)
            else:
                for previous in self._last_members[qubit]:
                    predecessors[previous.index] = previous
                self._prev_members[qubit] = self._last_members[qubit]
                self._last_members[qubit] = [node]
                self._last_axis[qubit] = axis
                self._group_counter += 1
                self._last_group[qubit] = self._group_counter
            node._axes[qubit] = axis
            node._groups[qubit] = self._last_group[qubit]
            node._wire_pos[qubit] = len(self._wires[qubit])
            self._wires[qubit].append(node)
        for previous in predecessors.values():
            node.predecessors.append(previous)
            previous.successors.append(node)
        self.nodes.append(node)
        return self

    def extend(self, gates: Iterable[Gate]) -> "CircuitDAG":
        for gate in gates:
            self.append(gate)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Gate]:
        return (node.gate for node in self.nodes)

    def wire(self, qubit: int) -> list[DAGNode]:
        """The ordered gate sequence on one qubit's wire."""
        return self._wires[qubit]

    def front_layer(self) -> list[DAGNode]:
        """Nodes with no unsatisfied dependencies (the executable frontier)."""
        return [node for node in self.nodes if not node.predecessors]

    def topological_gates(self) -> list[Gate]:
        """Gates in append order, which is topological (edges point forward)."""
        return [node.gate for node in self.nodes]

    def to_circuit(self) -> Circuit:
        """Materialize back into an ordered-list circuit."""
        return Circuit(self.num_qubits, self.topological_gates())

    def __repr__(self) -> str:
        mode = "commute" if self.commute else "wire"
        return (
            f"CircuitDAG({self.num_qubits} qubits, {len(self.nodes)} gates, "
            f"{mode} edges)"
        )
