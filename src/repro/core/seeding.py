"""The determinism contract's seeding discipline, in one audited place.

Every random draw in the library must be a pure function of an explicit
seed, or the determinism guarantees (``run_batch``: serial == process,
any worker count; a trajectory energy's error draw: a function of
``(seed, trajectories)`` alone) silently die.  The
discipline (see docs/analysis.md):

1. normalize whatever the caller passed -- int, ``SeedSequence``, or
   ``None`` -- into a :class:`numpy.random.SeedSequence` root;
2. give parallel unit ``i`` child ``i`` of that root via
   :meth:`~numpy.random.SeedSequence.spawn`, so each unit's stream is
   independent of which executor runs it and of how units are packed
   onto workers or chunks;
3. build generators only from those roots/children.

``default_rng(int)`` internally wraps the seed in ``SeedSequence(int)``,
so :func:`seeded_rng` is *bit-identical* to a direct ``default_rng``
call for int seeds -- converting call sites changes no results.

This module is the one sanctioned home of seed normalization: the RR112
analyzer (:mod:`repro.analysis.static`) flags ``default_rng`` calls
elsewhere whose seed is not provably an int or SeedSequence-flow, and
the fix is to route them through here.  ``None`` still means fresh OS
entropy -- explicitly, at this audited boundary, instead of implicitly
at scattered call sites.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed: int | np.random.SeedSequence | None) -> np.random.SeedSequence:
    """Normalize a seed knob into a :class:`~numpy.random.SeedSequence` root.

    An existing ``SeedSequence`` passes through untouched (so spawned
    children keep their spawn-tree position); ints seed deterministically;
    ``None`` draws fresh OS entropy -- the one place that choice is made.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn_seeds(
    seed: int | np.random.SeedSequence | None, count: int
) -> list[np.random.SeedSequence]:
    """``count`` independent children of one root: unit ``i`` gets child ``i``.

    The spawn discipline is what makes block/task randomness independent
    of executor choice and worker count: the stream of unit ``i`` is a
    function of ``(seed, i)`` alone.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return seed_sequence(seed).spawn(count)


def seeded_rng(seed: int | np.random.SeedSequence | None) -> np.random.Generator:
    """A :class:`~numpy.random.Generator` from a normalized seed.

    Bit-identical to ``np.random.default_rng(seed)`` for every legal
    ``seed`` (``default_rng`` wraps ints in ``SeedSequence`` itself);
    exists so call sites route through the audited normalization above.
    """
    return np.random.default_rng(seed_sequence(seed))
