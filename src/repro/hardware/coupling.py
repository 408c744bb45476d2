"""Coupling-graph abstraction for superconducting processors.

A :class:`CouplingGraph` is an undirected graph over physical qubits plus
the derived structure the rest of the stack queries constantly: adjacency
sets, all-pairs shortest-path distances (SABRE's heuristic), BFS levels
from a designated center (the hierarchical initial layout), and parent
pointers when the graph is a tree (Merge-to-Root).

A graph is immutable: the registry hands one shared instance per device
name to every caller (:func:`repro.hardware.get_device`), so the derived
tables and the content key are computed once per instance and kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CouplingGraph:
    """An undirected physical coupling graph (frozen).

    ``edges`` may be given as any iterable of pairs; it is stored as a
    tuple of normalized ``(low, high)`` pairs.  Derive a variant with
    :func:`dataclasses.replace`.
    """

    num_qubits: int
    edges: tuple[tuple[int, int], ...]
    name: str = "device"
    center: int | None = None
    #: Optional declared native basis (lowercase gate mnemonics).  When
    #: set, the static ``gate-set`` check (repro.analysis) flags compiled
    #: circuits using gates outside it; None means "any known gate".
    gate_set: frozenset[str] | None = None
    # Derived tables, filled in on first use; they take no part in
    # equality, hashing or the repr.  They are immutable types too
    # (frozensets, tuples, a read-only array): every caller shares them.
    _adjacency: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )
    _levels: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _distances: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _content_key: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        normalized = []
        seen = set()
        adjacency: list[set[int]] = [set() for _ in range(self.num_qubits)]
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a}, {b}) out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            normalized.append(key)
            adjacency[a].add(b)
            adjacency[b].add(a)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(
            self, "_adjacency", tuple(frozenset(nodes) for nodes in adjacency)
        )
        if self.center is None:
            object.__setattr__(self, "center", self._graph_center())

    @property
    def content_key(self) -> str:
        """The graph's content hash (:func:`repro.core.cache.coupling_key`).

        Computed on first use and kept: the graph is immutable, so the
        compile cache keys a shared registry device without hashing it
        again.
        """
        if self._content_key is None:
            from repro.core import cache

            object.__setattr__(self, "_content_key", cache.coupling_key(self))
        return self._content_key

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def neighbors(self, qubit: int) -> frozenset[int]:
        return self._adjacency[qubit]

    def degree(self, qubit: int) -> int:
        return len(self._adjacency[qubit])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def are_connected(self, a: int, b: int) -> bool:
        return b in self._adjacency[a]

    def is_tree(self) -> bool:
        return self.num_edges == self.num_qubits - 1 and self.is_connected()

    def is_connected(self) -> bool:
        if self.num_qubits == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return len(seen) == self.num_qubits

    def require_connected(self) -> None:
        """Raise ValueError naming the device unless the graph is connected.

        Both compilers and the hierarchical layouts route only on a
        connected graph; they call this before any placement or routing.
        """
        if not self.is_connected():
            raise ValueError(
                f"device {self.name!r} has a disconnected coupling graph; "
                "the compilers route only on connected devices"
            )

    def _graph_center(self) -> int:
        """A qubit minimizing eccentricity (the root for level purposes)."""
        if self.num_qubits == 0:
            return 0
        if not self.is_connected():
            return 0
        distances = self.distance_matrix()
        eccentricity = distances.max(axis=1)
        return int(np.argmin(eccentricity))

    # ------------------------------------------------------------------
    # Derived structure for the compiler
    # ------------------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path hop counts (BFS per node)."""
        if self._distances is not None:
            return self._distances
        n = self.num_qubits
        distances = np.full((n, n), n + 1, dtype=np.int64)
        for source in range(n):
            distances[source, source] = 0
            queue = deque([source])
            while queue:
                node = queue.popleft()
                for neighbor in self._adjacency[node]:
                    if distances[source, neighbor] > distances[source, node] + 1:
                        distances[source, neighbor] = distances[source, node] + 1
                        queue.append(neighbor)
        distances.setflags(write=False)  # shared by every caller
        object.__setattr__(self, "_distances", distances)
        return distances

    def levels(self) -> tuple[int, ...]:
        """BFS depth of every qubit from the center.

        For X-Tree devices this is the paper's level structure (root =
        level 0, its neighbors level 1, ...).
        """
        if self._levels is None:
            distances = self.distance_matrix()
            levels = tuple(int(d) for d in distances[self.center])
            object.__setattr__(self, "_levels", levels)
        return self._levels

    def parent(self, qubit: int) -> int | None:
        """Parent toward the center (None for the center itself).

        Well-defined on trees; on general graphs an arbitrary minimal-
        level neighbor is chosen.
        """
        if qubit == self.center:
            return None
        levels = self.levels()
        candidates = [n for n in self._adjacency[qubit] if levels[n] == levels[qubit] - 1]
        if not candidates:
            return None
        return min(candidates)

    def children(self, qubit: int) -> list[int]:
        levels = self.levels()
        return sorted(
            n for n in self._adjacency[qubit] if levels[n] == levels[qubit] + 1
        )

    def max_level(self) -> int:
        return max(self.levels())

    def __repr__(self) -> str:
        return (
            f"CouplingGraph({self.name}: {self.num_qubits} qubits, "
            f"{self.num_edges} edges)"
        )
