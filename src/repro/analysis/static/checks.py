"""RR1xx rules surfaced through the :class:`repro.analysis.Check` registry.

``repro.analysis.check(model)`` on a :class:`ProjectModel` runs the same
analyzers ``tools/lint_repro.py`` gates CI with, packaged as two check
families so programmatic consumers (tests, notebooks, the pipeline's
``validate=`` knob someday) get :class:`Diagnostic` records instead of
lint lines.  Suppression pragmas are honored identically: a finding
covered by a ``# lint: ignore[RRxxx]`` span never becomes a diagnostic.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.analysis.diagnostics import Check, Diagnostic, register_check
from repro.analysis.static.model import ProjectModel
from repro.analysis.static.rules import (
    RuleFinding,
    rr101_executor_reachable_writes,
    rr102_unpicklable_submissions,
    rr103_slab_lifecycle,
    rr111_nondeterministic_sources,
    rr112_unseeded_default_rng,
)
from repro.analysis.static.suppress import SuppressionIndex


def suppressed(
    project: ProjectModel, findings: Iterable[RuleFinding]
) -> list[RuleFinding]:
    """Drop findings covered by a pragma span in their module."""
    indexes: dict[str, SuppressionIndex] = {}
    kept: list[RuleFinding] = []
    for finding in findings:
        model = project.modules.get(finding.rel)
        if model is not None:
            index = indexes.get(finding.rel)
            if index is None:
                index = indexes[finding.rel] = SuppressionIndex(
                    model.source, model.tree
                )
            if index.is_suppressed(finding.code, finding.line):
                continue
        kept.append(finding)
    return kept


class _ProjectRuleCheck(Check):
    """Base: applicability on ProjectModel + finding -> diagnostic glue."""

    codes: tuple[str, ...] = ()

    def applies_to(self, obj: Any) -> bool:
        return isinstance(obj, ProjectModel)

    def _findings(self, project: ProjectModel) -> list[RuleFinding]:
        raise NotImplementedError

    def run(self, obj: Any, device: Any = None) -> Iterable[Diagnostic]:
        for finding in suppressed(obj, self._findings(obj)):
            yield self.error(
                f"{finding.code} {finding.message}",
                location=f"{finding.rel}:{finding.line}",
                fix_hint=(
                    "fix the flagged site, or suppress a reviewed-safe one "
                    f"with '# lint: ignore[{finding.code}] - <reason>'"
                ),
            )


class ConcurrencySafetyCheck(_ProjectRuleCheck):
    """RR101/RR102/RR103: executor-reachable mutation, pickling, slabs."""

    name = "concurrency-safety"
    codes = ("RR101", "RR102", "RR103")

    def _findings(self, project: ProjectModel) -> list[RuleFinding]:
        from repro.analysis.static.callgraph import CallGraph

        graph = CallGraph(project)
        return [
            *rr101_executor_reachable_writes(project, graph),
            *rr102_unpicklable_submissions(project, graph),
            *rr103_slab_lifecycle(project),
        ]


class DeterminismCheck(_ProjectRuleCheck):
    """RR111/RR112: nondeterministic sources and unproven seeds."""

    name = "determinism"
    codes = ("RR111", "RR112")

    def _findings(self, project: ProjectModel) -> list[RuleFinding]:
        return [
            *rr111_nondeterministic_sources(project),
            *rr112_unseeded_default_rng(project),
        ]


def _register_builtin_checks() -> None:
    for check_type in (ConcurrencySafetyCheck, DeterminismCheck):
        register_check(check_type(), overwrite=True)


_register_builtin_checks()
