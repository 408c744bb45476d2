"""Merge-to-Root circuit synthesis and qubit routing (Algorithm 3).

For every Pauli string the compiler *adaptively* synthesizes the CNOT
tree against the current logical-to-physical mapping instead of mapping a
pre-synthesized chain:

1. **Routing.** Compute the minimal subtree of the device spanning the
   support's current positions (unique in a tree).  While that subtree
   contains "holes" (nodes not holding support logicals), take the
   deepest hole and SWAP into it the occupied child whose logical qubit
   appears most often in the upcoming Pauli strings (the paper's
   lookahead rule).  Each swap pulls a support qubit one level toward the
   root, so the loop terminates and the support ends up occupying a
   connected subtree.
2. **Synthesis.** Emit basis changes, a leaves-to-root CNOT wave over the
   subtree, the central RZ on the subtree's root, the mirrored CNOT wave
   and the inverse basis changes.  Because the mapping is static during
   the CNOT phase, the mirror is exactly valid and every CNOT lies on a
   physical connection.

Both entry points append each gate straight to the physical
:class:`~repro.circuit.Circuit` as it is decided.

The mapping mutates across strings (swaps are never undone), which is
what the importance-ordered ansatz exploits: early, important strings
drag their qubits toward the root once and later strings reuse the
arrangement.  Overhead is therefore exactly ``3 * #SWAPs`` extra CNOTs,
matching the granularity of Table II.

Usage -- compile a UCCSD program onto an X-Tree device:

>>> from repro.ansatz import build_uccsd_program
>>> from repro.chem import build_molecule_hamiltonian
>>> from repro.compiler.merge_to_root import MergeToRootCompiler
>>> from repro.hardware.xtree import xtree
>>> problem = build_molecule_hamiltonian("H2")
>>> program = build_uccsd_program(problem).program
>>> compiled = MergeToRootCompiler(xtree(5)).compile(program)
>>> compiled.overhead_cnots == 3 * compiled.num_swaps
True
>>> sorted(compiled.initial_layout) == list(range(program.num_qubits))
True

(Prefer the registry form ``get_compiler("mtr").compile(program, device)``
inside pipelines -- see :mod:`repro.compiler.registry` -- so benchmarks
can swap in SABRE by name.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.circuit import Circuit
from repro.circuit.gates import CNOT, Gate, H, RX, RZ, SWAP, X
from repro.core.ir import PauliProgram
from repro.pauli import PauliString
from repro.hardware.coupling import CouplingGraph

_HALF_PI = math.pi / 2.0


@dataclass
class CompiledProgram:
    """Result of compiling a Pauli program onto a device."""

    circuit: Circuit                  # physical circuit (SWAPs not decomposed)
    initial_layout: dict[int, int]    # logical -> physical before the circuit
    final_layout: dict[int, int]      # logical -> physical after the circuit
    num_swaps: int
    device: str
    synthesized_cnots: int = 0        # CNOTs from the Pauli trees themselves

    @property
    def overhead_cnots(self) -> int:
        """Extra CNOTs versus the unmapped circuit (3 per SWAP)."""
        return 3 * self.num_swaps

    @property
    def total_cnots(self) -> int:
        return self.circuit.num_cnots()


class MergeToRootCompiler:
    """Compile Pauli programs onto tree-structured devices (Algorithm 3).

    On a non-tree device (e.g. a grid) the compiler operates on the
    deterministic BFS spanning tree rooted at the graph center
    (:meth:`~repro.hardware.coupling.CouplingGraph.parent`): routing
    swaps and synthesis CNOTs are restricted to spanning-tree edges,
    which are physical edges, so every emitted gate stays legal.  The
    device merely loses its non-tree shortcuts to this flow -- the
    trade SABRE exploits and Table II quantifies.
    """

    def __init__(self, graph: CouplingGraph) -> None:
        graph.require_connected()
        self.graph = graph
        self._levels = graph.levels()
        self._parents = [graph.parent(q) for q in range(graph.num_qubits)]

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def compile(
        self,
        program: PauliProgram,
        parameters: Sequence[float] | None = None,
        *,
        initial_layout: dict[int, int] | None = None,
        include_initial_state: bool = True,
    ) -> CompiledProgram:
        """Compile the program; parameters default to all-zero angles.

        Gate counts do not depend on the parameter values, so benchmarks
        may compile with defaults while the VQE driver binds real angles.
        """
        if initial_layout is None:
            from repro.compiler.layout import hierarchical_initial_layout

            initial_layout = hierarchical_initial_layout(program, self.graph)
        if parameters is None:
            parameters = [0.0] * program.num_parameters

        position = dict(initial_layout)          # logical -> physical
        occupant = {p: l for l, p in position.items()}
        if len(occupant) != len(position):
            raise ValueError("initial layout maps two logical qubits together")

        circuit = Circuit(self.graph.num_qubits)
        if include_initial_state:
            for logical in program.initial_occupations:
                circuit.append(X(position[logical]))

        # Suffix occurrence counts for the lookahead swap rule.
        future = self._future_counts(program)

        bound = program.bound_terms(parameters)
        num_swaps = 0
        synthesized = 0
        for index, (pauli, angle) in enumerate(bound):
            support = pauli.support()
            if not support:
                continue
            swaps = self._route(support, position, occupant, future, index)
            for a, b in swaps:
                circuit.append(SWAP(a, b))
            num_swaps += len(swaps)
            synthesized += self._synthesize_string(
                circuit, pauli, angle, position
            )

        final_layout = dict(position)
        return CompiledProgram(
            circuit=circuit,
            initial_layout=initial_layout,
            final_layout=final_layout,
            num_swaps=num_swaps,
            device=self.graph.name,
            synthesized_cnots=synthesized,
        )

    def compile_circuit(
        self,
        circuit: Circuit,
        *,
        initial_layout: dict[int, int] | None = None,
    ) -> CompiledProgram:
        """Route an arbitrary gate-level circuit over the coupling graph.

        The gate-stream analogue of :meth:`compile` for ingested QASM
        workloads: single-qubit gates are re-addressed through the live
        mapping; for each two-qubit gate the first operand walks a
        shortest path toward the second (deterministic min-index step)
        until they are adjacent.  As in the Pauli flow, swaps are never
        undone -- later gates reuse the migrated arrangement -- and the
        mapping's drift is reported in ``final_layout``.
        """
        if circuit.num_qubits > self.graph.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits, "
                f"device has {self.graph.num_qubits}"
            )
        if initial_layout is None:
            from repro.compiler.layout import hierarchical_circuit_layout

            initial_layout = hierarchical_circuit_layout(circuit, self.graph)
        position = dict(initial_layout)
        occupant = {p: l for l, p in position.items()}
        if len(occupant) != len(position):
            raise ValueError("initial layout maps two logical qubits together")

        distances = self.graph.distance_matrix()
        routed = Circuit(self.graph.num_qubits)
        num_swaps = 0
        synthesized = 0
        for gate in circuit.gates:
            if len(gate.qubits) != 2 or gate.name == "barrier":
                routed.append(
                    Gate(
                        gate.name,
                        tuple(position[q] for q in gate.qubits),
                        gate.params,
                    )
                )
                continue
            a, b = gate.qubits
            while distances[position[a], position[b]] > 1:
                here, there = position[a], position[b]
                step = min(
                    node
                    for node in self.graph.neighbors(here)
                    if distances[node, there] == distances[here, there] - 1
                )
                routed.append(SWAP(here, step))
                self._apply_swap(here, step, position, occupant)
                num_swaps += 1
            routed.append(
                Gate(gate.name, (position[a], position[b]), gate.params)
            )
            if gate.name == "cx":
                synthesized += 1
            elif gate.name == "swap":
                synthesized += 3
        return CompiledProgram(
            circuit=routed,
            initial_layout=initial_layout,
            final_layout=dict(position),
            num_swaps=num_swaps,
            device=self.graph.name,
            synthesized_cnots=synthesized,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _future_counts(self, program: PauliProgram) -> list[dict[int, int]]:
        """future[i][q] = occurrences of logical q in strings i+1, i+2, ..."""
        terms = program.terms
        suffix: list[dict[int, int]] = [dict() for _ in range(len(terms) + 1)]
        for i in range(len(terms) - 1, -1, -1):
            counts = dict(suffix[i + 1])
            for qubit in terms[i].pauli.support():
                counts[qubit] = counts.get(qubit, 0) + 1
            suffix[i] = counts
        return suffix

    def _steiner_nodes(self, positions: list[int]) -> set[int]:
        """Nodes of the minimal subtree spanning ``positions``.

        In a tree this is the union of root-ward paths up to the deepest
        common ancestor: climb every position to the root, keep the nodes
        that lie below (or at) the shallowest meeting point.
        """
        if len(positions) == 1:
            return set(positions)
        paths: list[list[int]] = []
        for node in positions:
            path = [node]
            while self._parents[path[-1]] is not None:
                path.append(self._parents[path[-1]])
            paths.append(path[::-1])  # root first
        # Longest common prefix of all root-paths = path to the LCA.
        lca_depth = 0
        while all(len(p) > lca_depth for p in paths) and len(
            {p[lca_depth] for p in paths}
        ) == 1:
            lca_depth += 1
        lca_depth -= 1  # index of the last common node
        nodes: set[int] = set()
        for path in paths:
            nodes.update(path[lca_depth:])
        return nodes

    def _route(
        self,
        support: list[int],
        position: dict[int, int],
        occupant: dict[int, int],
        future: list[dict[int, int]],
        term_index: int,
    ) -> list[tuple[int, int]]:
        """Make the support occupy a connected subtree; returns the SWAPs."""
        swaps: list[tuple[int, int]] = []
        lookahead = future[term_index + 1] if term_index + 1 < len(future) else {}
        support_set = set(support)
        while True:
            positions = [position[q] for q in support]
            steiner = self._steiner_nodes(positions)
            holes = [
                node
                for node in steiner
                if occupant.get(node) not in support_set
            ]
            if not holes:
                return swaps
            hole = max(holes, key=lambda node: (self._levels[node], node))
            children = [
                node
                for node in self.graph.neighbors(hole)
                if node in steiner
                and self._parents[node] == hole
                and occupant.get(node) in support_set
            ]
            if not children:
                raise RuntimeError(
                    "deepest Steiner hole without occupied child; "
                    "routing invariant violated"
                )
            # Paper's rule: move the qubit that appears most in follow-up
            # strings (it will likely be needed near the root again).
            chosen = max(
                children,
                key=lambda node: (lookahead.get(occupant[node], 0), -node),
            )
            swaps.append((chosen, hole))
            self._apply_swap(chosen, hole, position, occupant)

    def _apply_swap(
        self,
        a: int,
        b: int,
        position: dict[int, int],
        occupant: dict[int, int],
    ) -> None:
        logical_a = occupant.get(a)
        logical_b = occupant.get(b)
        if logical_a is not None:
            position[logical_a] = b
        if logical_b is not None:
            position[logical_b] = a
        if logical_a is not None:
            occupant[b] = logical_a
        else:
            occupant.pop(b, None)
        if logical_b is not None:
            occupant[a] = logical_b
        else:
            occupant.pop(a, None)

    # ------------------------------------------------------------------
    # Per-string synthesis on a static mapping
    # ------------------------------------------------------------------
    def _synthesize_string(
        self,
        circuit: Circuit,
        pauli: PauliString,
        angle: float,
        position: dict[int, int],
    ) -> int:
        """Emit the string's circuit; returns the number of CNOTs used."""
        support = pauli.support()
        basis_pre: list[Gate] = []
        basis_post: list[Gate] = []
        for logical in support:
            physical = position[logical]
            op = pauli.op_on(logical)
            if op == "X":
                basis_pre.append(H(physical))
                basis_post.append(H(physical))
            elif op == "Y":
                basis_pre.append(RX(_HALF_PI, physical))
                basis_post.append(RX(-_HALF_PI, physical))
        circuit.extend(basis_pre)

        nodes = sorted(
            (position[logical] for logical in support),
            key=lambda node: -self._levels[node],
        )
        root = nodes[-1]
        cnots: list[Gate] = []
        for node in nodes[:-1]:
            parent = self._parents[node]
            if parent is None or not self._in_nodes(parent, nodes):
                raise RuntimeError("support subtree not connected after routing")
            cnots.append(CNOT(node, parent))
        circuit.extend(cnots)
        circuit.append(RZ(-2.0 * angle, root))
        circuit.extend(reversed(cnots))
        circuit.extend(basis_post)
        return 2 * len(cnots)

    @staticmethod
    def _in_nodes(node: int, nodes: list[int]) -> bool:
        return node in nodes
