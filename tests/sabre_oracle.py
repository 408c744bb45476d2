"""Full-recompute oracles for SABRE routing and the ASAP schedule.

``route`` is the SABRE router without its shortcuts: it builds a fresh
``CircuitDAG`` for every traversal pass, recomputes the extended set
before every SWAP, and scores each candidate SWAP by copying the layout
and re-summing float hop distances over the front and lookahead sets.
``repro.compiler.sabre.SabreRouter`` must emit the same gates, SWAP
count and final layout.

``schedule`` is the critical path of the wire-dependency DAG of the
circuit and of its SWAP-decomposed form, which the one-pass
``Circuit.asap_schedule`` must equal exactly.
"""

import numpy as np

from repro.circuit import Circuit, CircuitDAG
from repro.circuit.gates import SWAP
from repro.compiler.sabre import (
    _DECAY_INCREMENT,
    _DECAY_RESET_INTERVAL,
    _LOOKAHEAD_SIZE,
    _LOOKAHEAD_WEIGHT,
    _STALL_FACTOR,
)


# ----------------------------------------------------------------------
# SABRE routing
# ----------------------------------------------------------------------
def route(circuit, graph, *, commute=False, initial_layout=None, refinement_passes=2):
    """``(gates, num_swaps, final_layout)`` of the routed circuit."""
    distance = graph.distance_matrix().astype(float)
    layout = dict(initial_layout) if initial_layout else {
        q: q for q in range(circuit.num_qubits)
    }
    reversed_circuit = Circuit(circuit.num_qubits, list(reversed(circuit.gates)))
    for _ in range(refinement_passes):
        layout = _route_once(circuit, graph, distance, layout, commute)[1]
        layout = _route_once(reversed_circuit, graph, distance, layout, commute)[1]
    gates, final_layout, num_swaps = _route_once(circuit, graph, distance, layout, commute)
    return gates, num_swaps, final_layout


def _route_once(circuit, graph, distance, initial_layout, commute):
    position = dict(initial_layout)
    occupant = {p: l for l, p in position.items()}
    dag = CircuitDAG.from_circuit(circuit, commute=commute)
    remaining = [node.num_predecessors for node in dag.nodes]
    front = [node for node in dag.nodes if remaining[node.index] == 0]
    output = []
    num_swaps = 0
    decay = np.ones(graph.num_qubits)
    since_reset = 0
    swaps_since_progress = 0
    stall_limit = _STALL_FACTOR * graph.num_qubits

    def execute(node):
        output.append(node.gate.remap({q: position[q] for q in node.gate.qubits}))
        for successor in node.successors:
            remaining[successor.index] -= 1
            if remaining[successor.index] == 0:
                front.append(successor)

    while front:
        progressed = True
        while progressed:
            progressed = False
            still_blocked = []
            for node in front:
                gate = node.gate
                if len(gate.qubits) < 2 or gate.name == "barrier":
                    execute(node)
                    progressed = True
                else:
                    a, b = gate.qubits
                    if graph.are_connected(position[a], position[b]):
                        execute(node)
                        progressed = True
                    else:
                        still_blocked.append(node)
            front = still_blocked
            if progressed:
                decay[:] = 1.0
                since_reset = 0
                swaps_since_progress = 0
        if not front:
            break
        if swaps_since_progress >= stall_limit:
            a_phys, b_phys = _escape_swap(front[0].gate, position, graph, distance)
        else:
            candidates = _candidate_swaps(front, position, graph)
            extended = extended_set(front)
            a_phys, b_phys = best_swap(candidates, front, extended, position, decay, distance)
        swaps_since_progress += 1
        output.append(SWAP(a_phys, b_phys))
        num_swaps += 1
        _swap_positions(a_phys, b_phys, position, occupant)
        decay[a_phys] += _DECAY_INCREMENT
        decay[b_phys] += _DECAY_INCREMENT
        since_reset += 1
        if since_reset >= _DECAY_RESET_INTERVAL:
            decay[:] = 1.0
            since_reset = 0
    return output, dict(position), num_swaps


def _candidate_swaps(front, position, graph):
    involved = {position[qubit] for node in front for qubit in node.gate.qubits}
    return sorted(
        {(min(a, b), max(a, b)) for a, b in graph.edges if a in involved or b in involved}
    )


def extended_set(front):
    """Lookahead window: the next two-qubit gates past the frontier."""
    extended = []
    frontier = list(front)
    seen = {node.index for node in front}
    while frontier and len(extended) < _LOOKAHEAD_SIZE:
        next_frontier = []
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


def best_swap(candidates, front, extended, position, decay, distance):
    """Score every candidate on a copied layout with full float re-sums."""
    best_score = np.inf
    best = candidates[0]
    for a_phys, b_phys in candidates:
        trial = dict(position)
        for logical, physical in position.items():
            if physical == a_phys:
                trial[logical] = b_phys
            elif physical == b_phys:
                trial[logical] = a_phys
        front_cost = sum(
            distance[trial[n.gate.qubits[0]], trial[n.gate.qubits[1]]] for n in front
        ) / len(front)
        extended_cost = 0.0
        if extended:
            extended_cost = _LOOKAHEAD_WEIGHT * sum(
                distance[trial[n.gate.qubits[0]], trial[n.gate.qubits[1]]]
                for n in extended
            ) / len(extended)
        score = max(decay[a_phys], decay[b_phys]) * (front_cost + extended_cost)
        if score < best_score - 1e-12:
            best_score = score
            best = (a_phys, b_phys)
    return best


def _escape_swap(gate, position, graph, distance):
    source = position[gate.qubits[0]]
    target = position[gate.qubits[1]]
    for neighbor in sorted(graph.neighbors(source)):
        if distance[neighbor, target] < distance[source, target]:
            return (min(source, neighbor), max(source, neighbor))
    raise RuntimeError("disconnected coupling graph")


def _swap_positions(a, b, position, occupant):
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


# ----------------------------------------------------------------------
# ASAP schedule
# ----------------------------------------------------------------------
def critical_path(dag, cost):
    """Longest ``cost``-weighted path through ``dag`` (0.0 when empty)."""
    finish = [0.0] * len(dag.nodes)
    total = 0.0
    for node in dag.nodes:
        start = max((finish[p.index] for p in node.predecessors), default=0.0)
        finish[node.index] = start + cost(node.gate)
        if finish[node.index] > total:
            total = finish[node.index]
    return total


def depth(dag):
    """ASAP depth: barriers and measurements take no level."""
    return int(critical_path(dag, lambda gate: 0 if gate.name in ("barrier", "measure") else 1))


def duration(dag, latency):
    """Critical-path time; ``latency`` is a callable or has ``duration(gate)``."""
    if not callable(latency):
        latency = latency.duration
    return critical_path(dag, latency)


def schedule(circuit, latency):
    """``(depth, scheduled_depth, duration_ns)`` as ``schedule_report`` defines them."""
    decomposed = CircuitDAG.from_circuit(circuit.decompose_swaps())
    return depth(CircuitDAG.from_circuit(circuit)), depth(decomposed), duration(decomposed, latency)
