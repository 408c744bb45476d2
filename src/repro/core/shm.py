"""Shared-memory array slabs for the trajectory engine's process pool.

``executor="process"`` in :mod:`repro.sim.trajectory` hands every chunk
worker the observable's grouped expectation diagonals (``(G, 2**n)``
complex128, 65 MB for BH3) and the optional initial state.  Pickling
them through the pool's pipes copies every byte per task; this module
places them in one POSIX shared-memory segment instead, so workers
*map* the arrays (zero-copy views) and only a tiny :class:`SlabHandle`
(segment name + array specs) travels through the pickle channel.  The
trajectory engine is the only owner of a segment: ``run_batch`` and
``bond_scan`` ship their small inputs by plain pickling.

Usage -- parent creates, workers attach::

    slabs = SharedSlabs.create({"coefficients": coeffs, "masks": masks})
    pool.submit(worker, slabs.handle)     # handle is tiny and picklable
    ...
    slabs.close(); slabs.unlink()         # parent owns the lifetime

    def worker(handle):
        slabs = SharedSlabs.attach(handle)
        coeffs = slabs["coefficients"]    # zero-copy ndarray view
        ...
        slabs.close()                     # detach; never unlink

Ownership is explicit: exactly one process (usually the creator) calls
:meth:`SharedSlabs.unlink`; everyone else only ever detaches with
:meth:`SharedSlabs.close`.  Workers that attach are unregistered from
the :mod:`multiprocessing.resource_tracker` so the tracker does not
destroy the segment out from under its owner when the worker exits (the
well-known CPython gotcha for cross-process ``SharedMemory`` use).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator, Mapping

import numpy as np

#: Byte alignment of each array inside the segment; keeps every slab on
#: its own cache line so concurrent readers never false-share.
_ALIGNMENT = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside a shared segment (picklable)."""

    key: str
    shape: tuple[int, ...]
    dtype: str
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class SlabHandle:
    """Everything a worker needs to attach: segment name + array specs.

    A few hundred bytes regardless of how many gigabytes the slabs
    hold -- this is what crosses the process boundary.
    """

    segment: str
    specs: tuple[ArraySpec, ...]


def _unregister_from_tracker(name: str) -> None:
    """Stop the resource tracker from owning this attachment.

    Attaching registers the segment with the resource tracker, which
    unlinks it when the registering process exits -- destroying a
    segment some other process still owns.  Lifetime here is managed
    explicitly by the creator, so attachments opt out -- but only under
    *spawn*-style start methods, where each child runs its own tracker.
    Fork children share the parent's tracker process, where repeated
    registrations of one name dedupe harmlessly and an unregister here
    would instead cancel the *parent's* registration (turning the
    owner's eventual ``unlink`` into a tracker KeyError).
    """
    if multiprocessing.get_start_method(allow_none=True) == "fork":
        return
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary per platform
        pass


class SharedSlabs:
    """A named bundle of NumPy arrays in one shared-memory segment."""

    def __init__(
        self,
        memory: shared_memory.SharedMemory,
        specs: tuple[ArraySpec, ...],
        *,
        owner: bool,
    ) -> None:
        self._memory = memory
        self._specs = {spec.key: spec for spec in specs}
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedSlabs":
        """Copy ``arrays`` into a fresh shared segment (creator owns it)."""
        if not arrays:
            raise ValueError("SharedSlabs.create needs at least one array")
        specs: list[ArraySpec] = []
        offset = 0
        staged: dict[str, np.ndarray] = {}
        for key, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            staged[key] = contiguous
            offset = _aligned(offset)
            specs.append(
                ArraySpec(
                    key=key,
                    shape=tuple(int(s) for s in contiguous.shape),
                    dtype=str(contiguous.dtype),
                    offset=offset,
                )
            )
            offset += contiguous.nbytes
        memory = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        slabs = cls(memory, tuple(specs), owner=True)
        for spec in specs:
            slabs[spec.key][...] = staged[spec.key]
        return slabs

    @classmethod
    def attach(cls, handle: SlabHandle) -> "SharedSlabs":
        """Map an existing segment (zero-copy; never owns the lifetime)."""
        memory = shared_memory.SharedMemory(name=handle.segment)
        _unregister_from_tracker(memory.name)
        return cls(memory, handle.specs, owner=False)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def handle(self) -> SlabHandle:
        return SlabHandle(
            segment=self._memory.name,
            specs=tuple(self._specs.values()),
        )

    def __getitem__(self, key: str) -> np.ndarray:
        if self._closed:
            raise ValueError("SharedSlabs is closed")
        spec = self._specs[key]
        view: np.ndarray = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=self._memory.buf,
            offset=spec.offset,
        )
        return view

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (views become invalid)."""
        if not self._closed:
            self._closed = True
            self._memory.close()

    def unlink(self) -> None:
        """Destroy the segment; only the owner should call this."""
        self.close()
        try:
            self._memory.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            pass

    def __enter__(self) -> "SharedSlabs":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        keys = ", ".join(self._specs)
        return (
            f"SharedSlabs({self._memory.name!r}, owner={self._owner}, "
            f"arrays=[{keys}])"
        )
