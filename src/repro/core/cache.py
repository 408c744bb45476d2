"""Content-addressed compile cache: canonical hashes + LRU memo store.

The co-optimization loop recompiles the same artifacts hundreds of times:
a bond scan rebuilds the UCCSD ansatz, the importance compression and
the routed circuit for every point and every optimizer restart, even
though most of that work depends only on the *content* of its inputs.
This module provides the two halves of the caching subsystem:

* **Canonical hashes** -- deterministic SHA-256 digests over the content
  that actually determines an artifact: gate kinds, qubits, and
  parameters for circuits (:func:`circuit_key`), Pauli terms +
  coefficients + parameter wiring for programs (:func:`program_key`),
  Hamiltonian terms (:func:`pauli_sum_key`), and coupling-graph edges
  (:func:`coupling_key`).  Two objects with the same content hash to the
  same key regardless of identity, which is what lets ``run_batch``
  workers and repeated ``Pipeline`` runs share artifacts.
* :class:`ContentAddressedCache` -- a thread-safe LRU store with
  hit/miss/eviction counters, used through :func:`compile_cache` (the
  process-global instance the pipeline passes share) or as private
  instances (the importance-score memo).  Each entry has a side slot
  (:meth:`~ContentAddressedCache.attach`) for facts about the cached
  value, such as a sanitizer verdict, that live and die with the entry.

Full content hashes are for ingress artifacts that no name fixes: a
hand-built or replaced problem's Hamiltonian, a device (once per
immutable instance, which keeps the key), ``qasm:`` file bytes.  A
molecule built by name is keyed on its spec (name, bond length), and a
registry device is one shared instance per name, so a warm run hashes
neither.  Pipeline stages key what they derive from their inputs on the
*entry keys* of those inputs (:func:`canonical_hash` over the upstream
keys plus the config fields the stage reads), so a warm run never
re-hashes an artifact the cache already produced.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.circuit.circuit import Circuit
    from repro.core.ir import PauliProgram
    from repro.hardware.coupling import CouplingGraph
    from repro.pauli import PauliSum


# ----------------------------------------------------------------------
# Canonical hashing
# ----------------------------------------------------------------------
def _feed(hasher: "hashlib._Hash", part: Any) -> None:
    """Feed one key part into the hasher with an unambiguous encoding.

    Each part is prefixed by a type tag and (for variable-length parts)
    its byte length, so distinct structures can never collide by
    concatenation (e.g. ``("ab", "c")`` vs ``("a", "bc")``).
    """
    if part is None:
        hasher.update(b"N")
    elif isinstance(part, bool):
        hasher.update(b"B1" if part else b"B0")
    elif isinstance(part, int):
        encoded = str(part).encode()
        hasher.update(b"I%d:" % len(encoded) + encoded)
    elif isinstance(part, float):
        hasher.update(b"F" + np.float64(part).tobytes())
    elif isinstance(part, str):
        encoded = part.encode()
        hasher.update(b"S%d:" % len(encoded) + encoded)
    elif isinstance(part, bytes):
        hasher.update(b"Y%d:" % len(part) + part)
    elif isinstance(part, np.ndarray):
        data = np.ascontiguousarray(part)
        hasher.update(b"A" + str(data.dtype).encode() + b":")
        _feed(hasher, data.shape)
        hasher.update(data.tobytes())
    elif isinstance(part, (tuple, list)):
        hasher.update(b"T%d:" % len(part))
        for item in part:
            _feed(hasher, item)
    else:
        raise TypeError(f"unhashable cache-key part of type {type(part).__name__}")


def canonical_hash(*parts: Any) -> str:
    """SHA-256 hex digest of a canonical encoding of ``parts``."""
    hasher = hashlib.sha256()
    for part in parts:
        _feed(hasher, part)
    return hasher.hexdigest()


def circuit_key(circuit: "Circuit") -> str:
    """Canonical hash of a circuit: gate kinds, qubits, parameters.

    The gates go in as a few packed buffers, not per-gate parts; the
    per-gate name lengths, qubit counts and parameter counts make the
    concatenated names, qubits and angles unambiguous.
    """
    names: list[str] = []
    qubits: list[int] = []
    params: list[float] = []
    shape: list[int] = []
    for gate in circuit.gates:
        names.append(gate.name)
        qubits.extend(gate.qubits)
        shape += (len(gate.name), len(gate.qubits), len(gate.params))
        params.extend(gate.params)
    hasher = hashlib.sha256()
    _feed(hasher, ("circuit", circuit.num_qubits))
    _feed(hasher, "".join(names))
    _feed(hasher, np.array(shape, dtype=np.int64))
    _feed(hasher, np.array(qubits, dtype=np.int64))
    _feed(hasher, np.array(params, dtype=np.float64))
    return hasher.hexdigest()


def program_key(program: "PauliProgram") -> str:
    """Canonical hash of a Pauli program (terms, coefficients, wiring)."""
    terms = program.terms
    hasher = hashlib.sha256()
    _feed(
        hasher,
        (
            "program",
            program.num_qubits,
            program.num_parameters,
            tuple(program.initial_occupations),
            len(terms),
        ),
    )
    masks = (term.pauli.key() for term in terms)
    _feed(hasher, ",".join(f"{x}:{z}" for x, z in masks))
    _feed(hasher, np.array([term.coefficient for term in terms], dtype=np.float64))
    _feed(hasher, np.array([term.parameter_index for term in terms], dtype=np.int64))
    return hasher.hexdigest()


def pauli_sum_key(pauli_sum: "PauliSum") -> str:
    """Canonical hash of a Pauli sum (e.g. a Hamiltonian)."""
    terms = list(pauli_sum.items())
    hasher = hashlib.sha256()
    _feed(hasher, ("pauli_sum", pauli_sum.num_qubits, len(terms)))
    # Masks may exceed 64 bits, so they go in as decimal text.
    _feed(hasher, ",".join(f"{x}:{z}" for (x, z), _ in terms))
    _feed(hasher, np.array([c for _, c in terms], dtype=np.complex128))
    return hasher.hexdigest()


def coupling_key(device: "CouplingGraph") -> str:
    """Canonical hash of a coupling graph.

    Covers everything compiled artifacts and their checks read off a
    device: name, size, edge set, the layout root (``center``) and the
    declared gate set.  A graph is immutable and keeps this digest as
    :attr:`~repro.hardware.coupling.CouplingGraph.content_key`, the key
    the pipeline reads, so it is computed once per instance.
    """
    return canonical_hash(
        "coupling",
        device.name,
        device.num_qubits,
        tuple(tuple(edge) for edge in sorted(device.edges)),
        device.center,
        None if device.gate_set is None else tuple(sorted(device.gate_set)),
    )


# ----------------------------------------------------------------------
# The LRU store
# ----------------------------------------------------------------------
#: Sentinel for "no entry": a cached value may itself be None.
_ABSENT = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, hit_rate={self.hit_rate:.2%})"
        )


class ContentAddressedCache:
    """Thread-safe LRU memo keyed by canonical content hashes.

    Values are treated as immutable shared artifacts: a hit returns the
    same object every caller sees, which is safe for the compiled /
    scheduled records stored here (none are mutated after
    construction).  ``max_entries`` bounds memory; the least recently
    used entry is evicted (and counted) on overflow.

    :meth:`attach` hangs side data off an entry (the pipeline records
    sanitizer verdicts and derived metrics there).  Side data takes no LRU slot, counts no
    hit or miss, and is dropped whenever its entry is evicted, replaced
    or cleared.
    """

    def __init__(self, max_entries: int = 512, name: str = "compile-cache") -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._side: dict[Any, dict[Any, Any]] = {}
        self._lock = threading.Lock()

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing on a miss.

        ``compute`` runs outside the lock so caller threads never
        serialize on a slow compile; two threads racing the same
        cold key may both compute, and the later result wins -- wasted
        work, never a wrong answer (values are content-determined).
        """
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stats.misses += 1
        value = compute()
        self._store(key, value)
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stats.misses += 1
            return default

    def put(self, key: Any, value: Any) -> None:
        self._store(key, value)

    def _store(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._side.pop(key, None)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._side.pop(evicted, None)
                self.stats.evictions += 1

    def attach(self, key: Any, value: Any, tag: Any, data: Any) -> None:
        """Record ``data`` under ``tag`` on entry ``key`` while it holds ``value``.

        A no-op when ``key`` is absent or now maps to another object, so
        a fact established about one value never transfers to another.
        """
        with self._lock:
            if self._entries.get(key, _ABSENT) is value:
                self._side.setdefault(key, {})[tag] = data

    def attached(self, key: Any, value: Any, tag: Any) -> Any:
        """The data recorded under ``tag`` on entry ``key`` for ``value``, or None."""
        with self._lock:
            if self._entries.get(key, _ABSENT) is not value:
                return None
            return self._side.get(key, {}).get(tag)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._side.clear()
            self.stats = CacheStats()

    def __repr__(self) -> str:
        return (
            f"ContentAddressedCache({self.name!r}, {len(self._entries)}"
            f"/{self.max_entries} entries, {self.stats!r})"
        )


_COMPILE_CACHE = ContentAddressedCache(max_entries=512, name="compile-cache")


def compile_cache() -> ContentAddressedCache:
    """The process-global compile cache (pipeline stage artifacts)."""
    return _COMPILE_CACHE


def clear_compile_cache() -> None:
    """Drop all globally cached compile artifacts and reset counters."""
    _COMPILE_CACHE.clear()
