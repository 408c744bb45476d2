"""SABRE swap-based routing [52] -- the paper's baseline compiler.

A faithful reimplementation of the SABRE heuristic: maintain the front
layer of unsatisfied two-qubit gates, and repeatedly apply the candidate
SWAP minimizing

    H = 1/|F| sum_{g in F} D[pi(g.a)][pi(g.b)]
      + W / |E| sum_{g in E} D[pi(g.a)][pi(g.b)]

over SWAPs touching front-layer qubits, where E is a lookahead window and
a decay factor discourages ping-ponging the same qubit.  Initial mapping
quality is improved with forward-backward traversal passes, as in the
original paper.

The dependency structure comes from the shared circuit DAG IR
(:class:`repro.circuit.dag.CircuitDAG`): the router's front layer and
extended set are frontier queries over that DAG.  With ``commute=True``
the DAG drops edges between commuting gates (CNOTs sharing a control,
rotations sliding through controls, ...), so the frontier is larger and
the router may satisfy gates in any commutation-valid order.  The DAG
is of the *input* only: routed gates and SWAPs are appended straight to
the output :class:`~repro.circuit.Circuit`.

Each piece of work is done once: :meth:`SabreRouter.run` builds two DAGs,
the circuit's and its reverse, that every traversal pass walks with its
own in-degree counts; the extended set changes only with the front; and
SWAP scores are incremental.  Integer hop totals of the front and
lookahead sets are summed once per SWAP step, and a candidate ``(a, b)``
adjusts only the terms of gates on ``a`` or ``b``.  The totals are exact,
so every score has the bits of a full re-sum.

SABRE is general-purpose: it sees only gates, so on a sparse X-Tree it
pays the full price the co-designed Merge-to-Root flow avoids.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from repro.circuit import Circuit
from repro.circuit.dag import CircuitDAG, DAGNode
from repro.circuit.gates import Gate, SWAP
from repro.hardware.coupling import CouplingGraph

_LOOKAHEAD_SIZE = 20
_LOOKAHEAD_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5


@dataclass
class SabreResult:
    """Routed circuit plus accounting."""

    circuit: Circuit                  # physical circuit with SWAPs
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    num_swaps: int
    device: str

    @property
    def overhead_cnots(self) -> int:
        return 3 * self.num_swaps

    @property
    def total_cnots(self) -> int:
        return self.circuit.num_cnots()


class SabreRouter:
    """Route logical circuits onto a coupling graph with SWAP insertion.

    Routing is deterministic: score ties go to the first candidate in
    sorted edge order.  ``seed`` is accepted only so every compiler
    shares one interface; it does not change a routing.
    """

    def __init__(self, graph: CouplingGraph, *, seed: int = 11, commute: bool = False) -> None:
        graph.require_connected()
        self.graph = graph
        #: Integer all-pairs hop counts, ``hops[p][q]``.
        self.hops: list[list[int]] = graph.distance_matrix().tolist()
        self.commute = commute

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        *,
        initial_layout: dict[int, int] | None = None,
        refinement_passes: int = 2,
    ) -> SabreResult:
        """Route ``circuit``; the initial layout defaults to SABRE's
        reverse-traversal refinement starting from the identity."""
        if circuit.num_qubits > self.graph.num_qubits:
            raise ValueError("device too small for circuit")
        layout = dict(initial_layout) if initial_layout else {
            q: q for q in range(circuit.num_qubits)
        }
        forward = CircuitDAG.from_circuit(circuit, commute=self.commute)
        backward = CircuitDAG(circuit.num_qubits, commute=self.commute).extend(
            reversed(circuit.gates)
        )
        for _ in range(refinement_passes):
            # Forward pass: discard the routed gates, keep the final layout.
            layout = self._route_once(forward, layout, emit=False)[1]
            layout = self._route_once(backward, layout, emit=False)[1]
        del backward  # free it before the emitting pass builds its output
        routed, final_layout, swaps = self._route_once(forward, layout, emit=True)
        return SabreResult(
            circuit=routed,
            initial_layout=layout,
            final_layout=final_layout,
            num_swaps=swaps,
            device=self.graph.name,
        )

    # ------------------------------------------------------------------
    # Core pass
    # ------------------------------------------------------------------
    def _route_once(
        self,
        dag: CircuitDAG,
        initial_layout: dict[int, int],
        *,
        emit: bool,
    ) -> tuple[Circuit | None, dict[int, int], int]:
        position = dict(initial_layout)
        occupant = {p: l for l, p in position.items()}

        remaining = [node.num_predecessors for node in dag.nodes]
        front = [node for node in dag.nodes if remaining[node.index] == 0]
        output = Circuit(self.graph.num_qubits) if emit else None
        num_swaps = 0
        decay = [1.0] * self.graph.num_qubits
        extended: list[DAGNode] | None = None  # of the current front
        since_reset = 0
        swaps_since_progress = 0
        stall_limit = 6 * self.graph.num_qubits

        def execute(node: DAGNode) -> None:
            if emit:
                remapped = node.gate.remap(
                    {q: position[q] for q in node.gate.qubits}
                )
                output.append(remapped)
            for successor in node.successors:
                remaining[successor.index] -= 1
                if remaining[successor.index] == 0:
                    front.append(successor)

        while front:
            # Flush everything executable.
            progressed = True
            while progressed:
                progressed = False
                still_blocked: list[DAGNode] = []
                for node in front:
                    gate = node.gate
                    if len(gate.qubits) < 2 or gate.name == "barrier":
                        execute(node)
                        progressed = True
                    else:
                        a, b = gate.qubits
                        if self.graph.are_connected(position[a], position[b]):
                            execute(node)
                            progressed = True
                        else:
                            still_blocked.append(node)
                front = still_blocked
                if progressed:
                    decay = [1.0] * self.graph.num_qubits
                    extended = None
                    since_reset = 0
                    swaps_since_progress = 0
            if not front:
                break

            # All front gates blocked: choose the best SWAP.  If the
            # heuristic has stalled (rare oscillation), fall back to
            # deterministic shortest-path routing of the first gate.
            if swaps_since_progress >= stall_limit:
                a_phys, b_phys = self._escape_swap(front[0].gate, position)
            else:
                if extended is None:
                    extended = self._extended_set(front)
                candidates = self._candidate_swaps(front, position)
                a_phys, b_phys = self._best_swap(
                    candidates, front, extended, position, decay
                )
            swaps_since_progress += 1
            if emit:
                output.append(SWAP(a_phys, b_phys))
            num_swaps += 1
            self._swap_positions(a_phys, b_phys, position, occupant)
            decay[a_phys] += _DECAY_INCREMENT
            decay[b_phys] += _DECAY_INCREMENT
            since_reset += 1
            if since_reset >= _DECAY_RESET_INTERVAL:
                decay = [1.0] * self.graph.num_qubits
                since_reset = 0

        return output, dict(position), num_swaps

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _candidate_swaps(
        self, front: list[DAGNode], position: dict[int, int]
    ) -> list[tuple[int, int]]:
        involved = {position[qubit] for node in front for qubit in node.gate.qubits}
        return sorted(
            {(min(a, b), max(a, b)) for a, b in self.graph.edges if a in involved or b in involved}
        )

    def _extended_set(self, front: list[DAGNode]) -> list[DAGNode]:
        """Lookahead window: the next two-qubit gates past the frontier."""
        extended: list[DAGNode] = []
        frontier = list(front)
        seen = {node.index for node in front}
        while frontier and len(extended) < _LOOKAHEAD_SIZE:
            next_frontier: list[DAGNode] = []
            for node in frontier:
                for successor in node.successors:
                    if successor.index in seen:
                        continue
                    seen.add(successor.index)
                    if len(successor.gate.qubits) == 2:
                        extended.append(successor)
                        if len(extended) >= _LOOKAHEAD_SIZE:
                            break
                    next_frontier.append(successor)
                if len(extended) >= _LOOKAHEAD_SIZE:
                    break
            frontier = next_frontier
        return extended

    def _best_swap(
        self,
        candidates: list[tuple[int, int]],
        front: list[DAGNode],
        extended: list[DAGNode],
        position: dict[int, int],
        decay: list[float],
    ) -> tuple[int, int]:
        """Lowest-scoring candidate; ties go to the first.

        The hop totals of the front and lookahead sets are summed once.
        A SWAP ``(a, b)`` moves only the gates with one endpoint on ``a``
        or ``b`` (a gate on both keeps its distance), so each candidate
        adjusts the totals through the partners listed at ``a`` and ``b``.
        """
        hops = self.hops
        totals = [0, 0]
        ends: tuple[dict[int, list[int]], ...] = (defaultdict(list), defaultdict(list))
        for side, nodes in enumerate((front, extended)):
            for node in nodes:
                first, second = node.gate.qubits
                p, q = position[first], position[second]
                totals[side] += hops[p][q]
                ends[side][p].append(q)
                ends[side][q].append(p)
        best_score = math.inf
        best = candidates[0]
        for a_phys, b_phys in candidates:
            row_a, row_b = hops[a_phys], hops[b_phys]
            moved = []
            for total, partners in zip(totals, ends):
                for other in partners.get(a_phys, ()):
                    if other != b_phys:
                        total += row_b[other] - row_a[other]
                for other in partners.get(b_phys, ()):
                    if other != a_phys:
                        total += row_a[other] - row_b[other]
                moved.append(float(total))
            front_cost = moved[0] / len(front)
            extended_cost = 0.0
            if extended:
                extended_cost = _LOOKAHEAD_WEIGHT * moved[1] / len(extended)
            score = max(decay[a_phys], decay[b_phys]) * (front_cost + extended_cost)
            if score < best_score - 1e-12:
                best_score = score
                best = (a_phys, b_phys)
        return best

    def _escape_swap(
        self, gate: Gate, position: dict[int, int]
    ) -> tuple[int, int]:
        """First hop of the shortest path between a blocked gate's qubits
        (one exists: the constructor rejects a disconnected graph)."""
        source = position[gate.qubits[0]]
        target = position[gate.qubits[1]]
        neighbor = next(
            node
            for node in sorted(self.graph.neighbors(source))
            if self.hops[node][target] < self.hops[source][target]
        )
        return (min(source, neighbor), max(source, neighbor))

    @staticmethod
    def _swap_positions(
        a: int, b: int, position: dict[int, int], occupant: dict[int, int]
    ) -> None:
        logical_a = occupant.get(a)
        logical_b = occupant.get(b)
        if logical_a is not None:
            position[logical_a] = b
            occupant[b] = logical_a
        else:
            occupant.pop(b, None)
        if logical_b is not None:
            position[logical_b] = a
            occupant[a] = logical_b
        else:
            occupant.pop(a, None)
