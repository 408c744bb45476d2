"""Static verification layer: diagnostics core + circuit sanitizer.

The dynamic equivalence checker simulates circuits and is exponential in
qubit count; this package validates every compiled artifact *statically*
in milliseconds.  One entry point covers all artifact families:

>>> import repro.analysis as analysis
>>> from repro.core import Pipeline, PipelineConfig
>>> result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()
>>> report = analysis.check(result.compiled, device=result.device)
>>> report.ok
True
>>> sorted(report.checks_run)[:3]
['coupling-legality', 'gate-parameters', 'gate-set']

``check`` dispatches on the artifact: circuits get bounds / gate-set /
parameter checks (plus coupling legality when a device is given),
compiled results add layout-permutation and SWAP-accounting checks, and
Pauli programs get IR sanity checks.  :func:`assert_clean`
is the raising form the pipeline's ``validate=`` knob uses.  Custom
invariants plug in through
:func:`repro.analysis.diagnostics.register_check`.

The same registry also hosts *source-level* checks: the
:mod:`repro.analysis.static` subpackage models the whole ``src/repro``
tree (call graph + per-function effect summaries) and dispatches the
RR1xx concurrency-safety / determinism analyzers on
:class:`~repro.analysis.static.ProjectModel` objects -- see
``docs/analysis.md`` for the rule catalog.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.analysis.diagnostics import (
    AnalysisError,
    Check,
    CheckReport,
    CheckRunner,
    Diagnostic,
    Severity,
    default_checks,
    get_check,
    list_checks,
    register_check,
)
from repro.analysis.circuit_checks import (
    KNOWN_GATES,
    CouplingLegalityCheck,
    GateParameterCheck,
    GateSetCheck,
    LayoutPermutationCheck,
    PauliProgramCheck,
    QubitBoundsCheck,
    is_compiled_result,
)
from repro.analysis.static import (
    ConcurrencySafetyCheck,
    DeterminismCheck,
    ProjectModel,
    analyze,
    load_project,
)


def check(
    obj: Any,
    *,
    device: Any = None,
    checks: Iterable[Check | str] | None = None,
    subject: str | None = None,
) -> CheckReport:
    """Run every applicable static check over ``obj``.

    ``device`` enables the device-dependent checks (coupling legality,
    declared-gate-set conformance, layout bounds); pass it whenever the
    artifact is physical.  ``checks`` restricts the run to a subset of
    registered checks (names or instances).
    """
    return CheckRunner(checks).run(obj, device=device, subject=subject)


def assert_clean(
    obj: Any,
    *,
    device: Any = None,
    checks: Iterable[Check | str] | None = None,
    context: str = "",
) -> CheckReport:
    """:func:`check`, raising :class:`AnalysisError` on any ERROR finding."""
    return check(obj, device=device, checks=checks).raise_if_errors(context)


__all__ = [
    "AnalysisError",
    "Check",
    "CheckReport",
    "CheckRunner",
    "Diagnostic",
    "Severity",
    "KNOWN_GATES",
    "check",
    "assert_clean",
    "default_checks",
    "get_check",
    "list_checks",
    "register_check",
    "is_compiled_result",
    "QubitBoundsCheck",
    "GateSetCheck",
    "GateParameterCheck",
    "CouplingLegalityCheck",
    "LayoutPermutationCheck",
    "PauliProgramCheck",
    "ProjectModel",
    "ConcurrencySafetyCheck",
    "DeterminismCheck",
    "analyze",
    "load_project",
]
