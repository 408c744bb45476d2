"""String-keyed device registry.

Every layer that needs a target architecture resolves it here by name
instead of hand-wiring constructors: ``get_device("xtree17")``,
``get_device("grid17")``.  Parameterized families are recognized on the
fly (``"xtree33"``, ``"grid4x5"``), and new devices can be registered at
runtime with :func:`register_device` (e.g. for yield studies over exotic
tree shapes).

Names are normalized case-insensitively with ``-``/``_`` and a trailing
``q`` stripped, so ``"XTree17Q"``, ``"xtree-17"`` and ``"xtree17"`` all
resolve to the same device.

Each normalized name resolves to one shared, immutable graph per process:
the first lookup builds it, later lookups return the same instance with
its distance tables and content key already computed.
:func:`register_device` drops the built instances, so a name it
overwrites builds afresh.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable

from repro.hardware.coupling import CouplingGraph
from repro.hardware.grid import grid, grid17q
from repro.hardware.xtree import XTREE_SIZES, xtree

DeviceFactory = Callable[[], CouplingGraph]

_DEVICES: dict[str, DeviceFactory] = {}

_XTREE_PATTERN = re.compile(r"xtree(\d+)")
_GRID_PATTERN = re.compile(r"grid(\d+)x(\d+)")


def _normalize(name: str) -> str:
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key.endswith("q") and key[:-1] and key[:-1][-1].isdigit():
        key = key[:-1]
    return key


def register_device(
    name: str, factory: DeviceFactory, *, overwrite: bool = False
) -> None:
    """Register a device factory under ``name`` (normalized)."""
    key = _normalize(name)
    if not key:
        raise ValueError("device name must be non-empty")
    if key in _DEVICES and not overwrite:
        raise ValueError(f"device {name!r} already registered")
    _DEVICES[key] = factory
    _build_device.cache_clear()


def list_devices() -> list[str]:
    """Registered device names (parameterized families not enumerated)."""
    return sorted(_DEVICES)


def get_device(name: str | CouplingGraph) -> CouplingGraph:
    """Resolve a device name to its shared :class:`CouplingGraph`.

    Every spelling of one name (``"xtree17"``, ``"XTree17Q"``) returns
    the same immutable instance, built on first use.  A
    :class:`CouplingGraph` instance passes through unchanged so call
    sites can accept either form.  Besides the registered names, two
    parameterized families are understood: ``"xtree<N>"`` (arbitrary-size
    X-Tree) and ``"grid<R>x<C>"`` (plain R x C lattice).
    """
    if isinstance(name, CouplingGraph):
        return name
    device = _build_device(_normalize(str(name)))
    if device is None:
        raise ValueError(
            f"unknown device {name!r}; registered devices: {', '.join(list_devices())} "
            "(parameterized: 'xtree<N>', 'grid<R>x<C>')"
        )
    return device


@lru_cache(maxsize=128)
def _build_device(key: str) -> CouplingGraph | None:
    """Build the device of normalized name ``key``; None if it names none."""
    if key in _DEVICES:
        return _DEVICES[key]()
    match = _XTREE_PATTERN.fullmatch(key)
    if match:
        return xtree(int(match.group(1)))
    match = _GRID_PATTERN.fullmatch(key)
    if match:
        return grid(int(match.group(1)), int(match.group(2)))
    return None


def _register_builtin_devices() -> None:
    for size in XTREE_SIZES:
        register_device(f"xtree{size}", lambda size=size: xtree(size))
    register_device("grid17", grid17q)


_register_builtin_devices()
