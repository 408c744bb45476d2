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

Each piece of work is done once.  :meth:`SabreRouter.run` builds one
DAG, the circuit's, and reads it into an integer plan (successor
tuples, in-degrees, logical qubit pairs); the reversed circuit's plan
for the backward passes is its transpose.  Every traversal pass walks a
plan with its own in-degree counts.  The lookahead window is a function
of the ordered front alone, so each plan memoizes it for the run; the
three forward passes share one memo and the two backward passes the
other.  SWAP scores are incremental: the front's and the window's
partner lists are keyed by logical qubit, so they hold until the front
changes, and a candidate ``(a, b)`` adjusts the integer hop totals only
through the partners of the qubits sitting on ``a`` and ``b``.  The
chosen candidate's totals are those of the next SWAP step.  The totals
are exact, so every score has the bits of a full re-sum.

SABRE is general-purpose: it sees only gates, so on a sparse X-Tree it
pays the full price the co-designed Merge-to-Root flow avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.circuit import Circuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gates import Gate, SWAP
from repro.hardware.coupling import CouplingGraph

_LOOKAHEAD_SIZE = 20
_LOOKAHEAD_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
#: SWAPs without progress, per device qubit, before the escape SWAP.
_STALL_FACTOR = 6

_Edge = tuple[int, int]


@dataclass(frozen=True)
class _Plan:
    """One traversal direction of a circuit's DAG, read into integers.

    Node ``i`` is ``gates[i]``; ``successors[i]`` lists its dependants in
    ascending index and ``in_degree[i]`` counts its predecessors.
    ``pairs[i]`` is the logical qubit pair of a two-qubit gate (barriers
    included: the lookahead window counts them) and ``None`` otherwise;
    ``routed_pairs[i]`` keeps only the pairs that must sit on a device
    edge for the gate to run.  ``windows`` memoizes :meth:`lookahead`.
    """

    gates: tuple[Gate, ...]
    successors: tuple[tuple[int, ...], ...]
    in_degree: tuple[int, ...]
    pairs: tuple[_Edge | None, ...]
    routed_pairs: tuple[_Edge | None, ...]
    windows: dict[tuple[int, ...], tuple[_Edge, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def from_dag(cls, dag: CircuitDAG) -> _Plan:
        gates = tuple(node.gate for node in dag.nodes)
        pairs: list[_Edge | None] = []
        for gate in gates:
            qubits = gate.qubits
            if len(qubits) > 2 and gate.name != "barrier":
                raise ValueError(f"cannot route {gate!r}: gates act on at most two qubits")
            pairs.append((qubits[0], qubits[1]) if len(qubits) == 2 else None)
        return cls(
            gates=gates,
            successors=tuple(
                tuple(successor.index for successor in node.successors)
                for node in dag.nodes
            ),
            in_degree=tuple(node.num_predecessors for node in dag.nodes),
            pairs=tuple(pairs),
            routed_pairs=tuple(
                None if gate.name == "barrier" else pair
                for pair, gate in zip(pairs, gates)
            ),
        )

    def transposed(self) -> _Plan:
        """The plan of the reversed circuit: the transpose of this one.

        Commuting groups are maximal runs of one wire-action, so the DAG
        of ``reversed(gates)`` has exactly the reversed edges; node ``i``
        here is node ``n - 1 - i`` there.
        """
        last = len(self.gates) - 1
        successors: list[list[int]] = [[] for _ in self.gates]
        for node in range(last, -1, -1):
            for successor in self.successors[node]:
                successors[last - successor].append(last - node)
        return _Plan(
            gates=self.gates[::-1],
            successors=tuple(map(tuple, successors)),
            in_degree=tuple(len(nodes) for nodes in reversed(self.successors)),
            pairs=self.pairs[::-1],
            routed_pairs=self.routed_pairs[::-1],
        )

    def lookahead(self, front: tuple[int, ...]) -> tuple[_Edge, ...]:
        """The pairs of the next two-qubit gates past ``front``, breadth
        first, at most ``_LOOKAHEAD_SIZE`` of them; memoized per ordered
        front (its order decides where the cut falls)."""
        window = self.windows.get(front)
        if window is not None:
            return window
        successors, pairs = self.successors, self.pairs
        found: list[_Edge] = []
        frontier = list(front)
        seen = set(front)
        while frontier and len(found) < _LOOKAHEAD_SIZE:
            next_frontier: list[int] = []
            for node in frontier:
                for successor in successors[node]:
                    if successor in seen:
                        continue
                    seen.add(successor)
                    pair = pairs[successor]
                    if pair is not None:
                        found.append(pair)
                        if len(found) >= _LOOKAHEAD_SIZE:
                            break
                    next_frontier.append(successor)
                if len(found) >= _LOOKAHEAD_SIZE:
                    break
            frontier = next_frontier
        window = self.windows[front] = tuple(found)
        return window


def _partners(pairs: Sequence[_Edge]) -> dict[int, list[int]]:
    """Each logical qubit's partners over ``pairs``."""
    partners: dict[int, list[int]] = {}
    for a, b in pairs:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    return partners


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
        incident: list[list[_Edge]] = [[] for _ in range(graph.num_qubits)]
        for a, b in sorted((min(a, b), max(a, b)) for a, b in graph.edges):
            incident[a].append((a, b))
            incident[b].append((a, b))
        #: Each physical qubit's edges ``(low, high)``, in sorted order.
        self._incident: tuple[tuple[_Edge, ...], ...] = tuple(map(tuple, incident))

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
        forward = _Plan.from_dag(CircuitDAG.from_circuit(circuit, commute=self.commute))
        backward = forward.transposed()
        for _ in range(refinement_passes):
            # Forward pass: discard the routed gates, keep the final layout.
            layout = self._route_once(forward, layout, emit=False)[1]
            layout = self._route_once(backward, layout, emit=False)[1]
        del backward  # free it before the emitting pass builds its output
        routed, final_layout, swaps = self._route_once(forward, layout, emit=True)
        assert routed is not None
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
        plan: _Plan,
        initial_layout: dict[int, int],
        *,
        emit: bool,
    ) -> tuple[Circuit | None, dict[int, int], int]:
        hops = self.hops
        incident = self._incident
        gates, successors, routed_pairs = plan.gates, plan.successors, plan.routed_pairs
        num_physical = self.graph.num_qubits
        position = dict(initial_layout)
        occupant: list[int | None] = [None] * num_physical
        for logical, physical in position.items():
            occupant[physical] = logical

        remaining = list(plan.in_degree)
        front = [node for node, count in enumerate(remaining) if count == 0]
        output = Circuit(num_physical) if emit else None
        num_swaps = 0
        decay = [1.0] * num_physical
        since_reset = 0
        swaps_since_progress = 0
        stall_limit = _STALL_FACTOR * num_physical
        # Scoring state of the current front: its gates' and its lookahead
        # window's logical pairs and partner lists (None until needed
        # after each front change), and their integer hop totals under
        # the current layout (stale after a front change or an escape).
        front_pairs: list[_Edge] = []
        window_pairs: Sequence[_Edge] = ()
        front_partners: dict[int, list[int]] | None = None
        window_partners: dict[int, list[int]] = {}
        front_total = window_total = 0
        summed = False

        while front:
            # Flush everything executable.  A readied node joins the sweep
            # it was readied in, and the layout does not move during a
            # flush, so one sweep leaves only blocked gates.
            blocked: list[int] = []
            blocked_pairs: list[_Edge] = []
            for node in front:
                pair = routed_pairs[node]
                if pair is not None and hops[position[pair[0]]][position[pair[1]]] != 1:
                    blocked.append(node)
                    blocked_pairs.append(pair)
                    continue
                if output is not None:
                    gate = gates[node]
                    output.append(gate.remap({q: position[q] for q in gate.qubits}))
                for successor in successors[node]:
                    remaining[successor] -= 1
                    if remaining[successor] == 0:
                        front.append(successor)
            progressed = len(blocked) < len(front)
            front, front_pairs = blocked, blocked_pairs
            if not front:
                break
            if progressed:
                decay = [1.0] * num_physical
                front_partners = None
                since_reset = 0
                swaps_since_progress = 0

            # All front gates blocked: choose the best SWAP.  If the
            # heuristic has stalled (rare oscillation), fall back to
            # deterministic shortest-path routing of the first gate.
            if swaps_since_progress >= stall_limit:
                a_phys, b_phys = self._escape_swap(gates[front[0]], position)
                summed = False
            else:
                if front_partners is None:
                    window_pairs = plan.lookahead(tuple(front))
                    front_partners = _partners(front_pairs)
                    window_partners = _partners(window_pairs)
                    summed = False
                if not summed:
                    front_total = sum(hops[position[a]][position[b]] for a, b in front_pairs)
                    window_total = sum(hops[position[a]][position[b]] for a, b in window_pairs)
                candidates = sorted({
                    edge for qubit in front_partners for edge in incident[position[qubit]]
                })
                # A SWAP (a, b) moves only the gates with one endpoint on
                # a or b (a gate on both keeps its distance), so each
                # candidate adjusts the totals through the partners of
                # the logical qubits on a and b.  The totals are exact,
                # so every score has the bits of a full re-sum.
                best_score = math.inf
                a_phys, b_phys = candidates[0]
                best_totals = (front_total, window_total)
                for candidate in candidates:
                    low, high = candidate
                    row_low, row_high = hops[low], hops[high]
                    on_low, on_high = occupant[low], occupant[high]
                    front_moved, window_moved = front_total, window_total
                    if on_low is not None:
                        for other in front_partners.get(on_low, ()):
                            if other != on_high:
                                q = position[other]
                                front_moved += row_high[q] - row_low[q]
                        for other in window_partners.get(on_low, ()):
                            if other != on_high:
                                q = position[other]
                                window_moved += row_high[q] - row_low[q]
                    if on_high is not None:
                        for other in front_partners.get(on_high, ()):
                            if other != on_low:
                                q = position[other]
                                front_moved += row_low[q] - row_high[q]
                        for other in window_partners.get(on_high, ()):
                            if other != on_low:
                                q = position[other]
                                window_moved += row_low[q] - row_high[q]
                    front_cost = float(front_moved) / len(front_pairs)
                    window_cost = 0.0
                    if window_pairs:
                        window_cost = _LOOKAHEAD_WEIGHT * float(window_moved) / len(window_pairs)
                    score = max(decay[low], decay[high]) * (front_cost + window_cost)
                    if score < best_score - 1e-12:
                        best_score = score
                        a_phys, b_phys = candidate
                        best_totals = (front_moved, window_moved)
                # The chosen SWAP's totals are those of the next layout.
                front_total, window_total = best_totals
                summed = True
            swaps_since_progress += 1
            if output is not None:
                output.append(SWAP(a_phys, b_phys))
            num_swaps += 1
            logical_a, logical_b = occupant[a_phys], occupant[b_phys]
            if logical_a is not None:
                position[logical_a] = b_phys
            if logical_b is not None:
                position[logical_b] = a_phys
            occupant[a_phys], occupant[b_phys] = logical_b, logical_a
            decay[a_phys] += _DECAY_INCREMENT
            decay[b_phys] += _DECAY_INCREMENT
            since_reset += 1
            if since_reset >= _DECAY_RESET_INTERVAL:
                decay = [1.0] * num_physical
                since_reset = 0

        return output, dict(position), num_swaps

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
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
