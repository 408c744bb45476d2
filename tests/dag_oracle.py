"""Structural invariants of a :class:`~repro.circuit.dag.CircuitDAG`.

:func:`dag_invariant_errors` returns one message per broken invariant:
predecessor/successor symmetry, forward-pointing edges (the append order
must be a topological order), per-wire membership, and the edge set the
wire/commutation rules imply.  That edge set is rebuilt from the gate
list alone, by grouping each wire's gates, so it shares no state with
the DAG builder: a missing edge is an unsound commute-edge, an extra one
a lost parallelism that corrupts scheduling metrics.
"""

from repro.circuit.dag import gate_axes


def _edge_set(dag):
    return {
        (predecessor.index, node.index)
        for node in dag.nodes
        for predecessor in node.predecessors
    }


def _expected_edges(dag):
    """A gate depends on every member of the group before its own, on each
    wire it touches.  A wire's groups are maximal runs of gates with one
    non-blocking wire-action; a blocking gate is a group of its own, and
    with ``commute=False`` every gate blocks."""
    groups = [[] for _ in range(dag.num_qubits)]  # per wire: [axis, members]
    edges = set()
    for index, gate in enumerate(dag.topological_gates()):
        axes = gate_axes(gate) if dag.commute else (None,) * len(gate.qubits)
        for qubit, axis in zip(gate.qubits, axes):
            wire = groups[qubit]
            if axis is None or not wire or wire[-1][0] != axis:
                wire.append([axis, []])
            if len(wire) > 1:
                edges.update((member, index) for member in wire[-2][1])
            wire[-1][1].append(index)
    return edges


def dag_invariant_errors(dag):
    """Every structural invariant ``dag`` breaks, as messages (empty when sound)."""
    errors = []
    for node in dag.nodes:
        for predecessor in node.predecessors:
            if predecessor.index >= node.index:
                errors.append(
                    f"edge {predecessor.index} -> {node.index} points backward: "
                    "the node order is not topological"
                )
            if node not in predecessor.successors:
                errors.append(
                    f"asymmetric edge: node {node.index} lists "
                    f"{predecessor.index} as predecessor but not vice versa"
                )
        for successor in node.successors:
            if node not in successor.predecessors:
                errors.append(
                    f"asymmetric edge: node {node.index} lists "
                    f"{successor.index} as successor but not vice versa"
                )
    for qubit in range(dag.num_qubits):
        for node in dag.wire(qubit):
            if qubit not in node.gate.qubits:
                errors.append(
                    f"node {node.index} sits on wire {qubit} but its gate "
                    "does not touch that qubit"
                )
    if errors:
        return errors  # the edge diff would repeat the same findings
    actual, expected = _edge_set(dag), _expected_edges(dag)
    errors += [f"missing dependency edge {a} -> {b}" for a, b in sorted(expected - actual)]
    errors += [f"spurious dependency edge {a} -> {b}" for a, b in sorted(actual - expected)]
    return errors
