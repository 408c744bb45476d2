"""String-keyed problem registry for the non-molecular workload path.

Mirrors the device/compiler registries: a spec string in
``PipelineConfig.problem`` resolves to a problem object here, so
benchmarks sweep workloads by name exactly the way they sweep devices.

Spec grammar (all instances deterministic in the spec string):

``maxcut:er-<n>-<seed>``
    MaxCut on a seeded Erdos-Renyi G(n, 0.5) graph.
``maxcut:reg3-<n>-<seed>``
    MaxCut on a seeded random 3-regular graph.
``maxcut:ring-<n>`` / ``ising:ring-<n>``
    MaxCut / antiferromagnetic Ising cost on the n-cycle.
``hubbard:<sites>``
    The 1D Hubbard Hamiltonian (:mod:`repro.chem.hubbard`) as a QAOA
    cost function (2 qubits per site, blocked spin ordering).
``qasm:<path>``
    An arbitrary OpenQASM 2.0 circuit; flows through the pipeline as a
    :class:`CircuitProblem` and is routed gate-by-gate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.circuit.circuit import Circuit
from repro.pauli import PauliSum
from repro.problems.graphs import (
    Graph,
    erdos_renyi_graph,
    ising_hamiltonian,
    maxcut_hamiltonian,
    random_regular_graph,
    ring_graph,
)

#: Edge probability of the Erdos-Renyi family (fixed so the spec string
#: stays a complete description of the instance).
ER_EDGE_PROBABILITY = 0.5


@dataclass(frozen=True)
class GraphProblem:
    """A diagonal-cost optimization problem for the QAOA ansatz."""

    name: str
    hamiltonian: PauliSum
    num_qubits: int
    graph: Graph | None = None


@dataclass(frozen=True)
class CircuitProblem:
    """An arbitrary gate-level circuit ingested from OpenQASM."""

    name: str
    circuit: Circuit
    num_qubits: int
    source: str | None = None


_SEEDED_RE = re.compile(r"^(er|reg3)-(\d+)-(\d+)$")
_RING_RE = re.compile(r"^ring-(\d+)$")


def _parse_graph(instance: str) -> Graph:
    seeded = _SEEDED_RE.match(instance)
    if seeded:
        family, n, seed = seeded.group(1), int(seeded.group(2)), int(seeded.group(3))
        if family == "er":
            return erdos_renyi_graph(n, ER_EDGE_PROBABILITY, seed)
        return random_regular_graph(n, 3, seed=seed)
    ring = _RING_RE.match(instance)
    if ring:
        return ring_graph(int(ring.group(1)))
    raise ValueError(
        f"unknown graph instance {instance!r}; expected "
        "'er-<n>-<seed>', 'reg3-<n>-<seed>' or 'ring-<n>'"
    )


def _split_spec(spec: str) -> tuple[str, str]:
    """``"<kind>:<instance>"`` -> (lower-cased kind, instance)."""
    kind, _, instance = spec.partition(":")
    instance = instance.strip()
    if not instance:
        raise ValueError(f"problem spec {spec!r} is missing its instance part")
    return kind.strip().lower(), instance


def qasm_file(spec: str) -> Path | None:
    """The QASM file a ``qasm:<path>`` spec names (None for other kinds).

    Raises ``FileNotFoundError`` unless the path is an existing regular
    file (a directory is not one).
    """
    kind, instance = _split_spec(spec)
    if kind != "qasm":
        return None
    path = Path(instance)
    if not path.is_file():
        raise FileNotFoundError(f"QASM file not found: {path}")
    return path


def circuit_problem(path: Path, text: str) -> CircuitProblem:
    """The :class:`CircuitProblem` for QASM ``text`` read from ``path``."""
    from repro.circuit.qasm import from_qasm

    circuit = from_qasm(text)
    return CircuitProblem(
        name=path.stem,
        circuit=circuit,
        num_qubits=circuit.num_qubits,
        source=str(path),
    )


def get_problem(spec: str) -> GraphProblem | CircuitProblem:
    """Resolve a problem spec string (see module docstring for grammar)."""
    path = qasm_file(spec)
    if path is not None:
        return circuit_problem(path, path.read_bytes().decode())
    kind, instance = _split_spec(spec)
    if kind == "maxcut":
        graph = _parse_graph(instance)
        return GraphProblem(
            name=f"maxcut-{graph.name}",
            hamiltonian=maxcut_hamiltonian(graph),
            num_qubits=graph.num_nodes,
            graph=graph,
        )
    if kind == "ising":
        graph = _parse_graph(instance)
        return GraphProblem(
            name=f"ising-{graph.name}",
            hamiltonian=ising_hamiltonian(graph),
            num_qubits=graph.num_nodes,
            graph=graph,
        )
    if kind == "hubbard":
        from repro.chem.hubbard import hubbard_hamiltonian

        if not instance.isdigit():
            raise ValueError(f"hubbard spec needs a site count, got {instance!r}")
        sites = int(instance)
        hamiltonian = hubbard_hamiltonian(sites)
        return GraphProblem(
            name=f"hubbard-{sites}",
            hamiltonian=hamiltonian,
            num_qubits=hamiltonian.num_qubits,
        )
    raise ValueError(
        f"unknown problem kind {kind!r}; "
        "expected maxcut:, ising:, hubbard: or qasm:"
    )
