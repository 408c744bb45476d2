"""Concurrency-safety & determinism static analyzer (RR1xx rules).

A lightweight AST dataflow layer over ``src/repro``: per-function effect
summaries (:mod:`.model`), a conservatively-resolved call graph with
transitive effect propagation (:mod:`.callgraph`), and the analyzer
families built on them (:mod:`.rules`) --

* **concurrency-safety** (RR101-RR103): executor-reachable module-state
  mutation, non-picklable process-pool tasks, SharedSlabs lifecycle;
* **determinism** (RR111-RR112): hidden-global randomness / wall-clock
  reads, and ``default_rng`` seeds that do not provably flow from a
  SeedSequence or plain-int source.

Surfaced two ways: ``tools/lint_repro.py`` formats the findings as lint
lines / GitHub annotations / JSON and gates CI; importing this package
registers the same rules as :class:`~repro.analysis.Check` families, so
``repro.analysis.check(load_project(root))`` yields diagnostics.

>>> from pathlib import Path
>>> from repro.analysis.static import analyze, load_project
>>> findings = analyze(load_project(Path(".")))  # doctest: +SKIP
"""

from __future__ import annotations

from repro.analysis.static import checks as _checks  # registers Check families
from repro.analysis.static.callgraph import CallGraph, Node, ReachedWrite
from repro.analysis.static.checks import (
    ConcurrencySafetyCheck,
    DeterminismCheck,
    suppressed,
)
from repro.analysis.static.model import (
    FunctionInfo,
    GlobalWrite,
    ModuleModel,
    ProjectModel,
    Submission,
    build_project_model,
    load_project,
)
from repro.analysis.static.rules import (
    RuleFinding,
    analyze_project,
    rr101_executor_reachable_writes,
    rr102_unpicklable_submissions,
    rr103_slab_lifecycle,
    rr111_nondeterministic_sources,
    rr112_unseeded_default_rng,
)
from repro.analysis.static.suppress import IGNORE_PRAGMA, SuppressionIndex

del _checks


def analyze(project: ProjectModel) -> list[RuleFinding]:
    """All unsuppressed RR1xx findings of a modeled project."""
    return suppressed(project, analyze_project(project))


__all__ = [
    "CallGraph",
    "ConcurrencySafetyCheck",
    "DeterminismCheck",
    "FunctionInfo",
    "GlobalWrite",
    "IGNORE_PRAGMA",
    "ModuleModel",
    "Node",
    "ProjectModel",
    "ReachedWrite",
    "RuleFinding",
    "Submission",
    "SuppressionIndex",
    "analyze",
    "analyze_project",
    "build_project_model",
    "load_project",
    "rr101_executor_reachable_writes",
    "rr102_unpicklable_submissions",
    "rr103_slab_lifecycle",
    "rr111_nondeterministic_sources",
    "rr112_unseeded_default_rng",
    "suppressed",
]
