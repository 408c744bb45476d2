"""Static verification layer: diagnostics core, sanitizer, contracts, lint.

The mutation tests are the heart: each seeds one known corruption class
into a really-routed circuit (illegal CNOT, out-of-range qubit, unbound
parameter, broken layout permutation) and asserts the sanitizer reports
*exactly* the expected diagnostic -- no cascade, no misattribution.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import repro.analysis as analysis
from repro.analysis import (
    AnalysisError,
    Check,
    CheckReport,
    CheckRunner,
    Diagnostic,
    Severity,
)
from repro.analysis.diagnostics import get_check, list_checks, register_check
from repro.circuit.circuit import Circuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gates import Gate
from repro.core import Pipeline, PipelineConfig, PipelineError
from repro.core.passes import BuildProblem, Compress, Route

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def routed():
    """One MtR-routed H2 instance (result carries circuit+layouts)."""
    return Pipeline(PipelineConfig(molecule="H2", ratio=1.0)).run()


@pytest.fixture(scope="module")
def routed_sabre():
    return Pipeline(
        PipelineConfig(molecule="H2", ratio=1.0, compiler="sabre")
    ).run()


def mutate(result, **changes):
    """A copy of the compiled result with ``changes`` applied."""
    return dataclasses.replace(result.compiled, **changes)


def sole_error_check(report: CheckReport) -> str:
    """The check name of the report's errors, asserting there is one class."""
    assert report.errors, f"expected an error, got clean report: {report.summary()}"
    names = {d.check for d in report.errors}
    assert len(names) == 1, f"expected one error class, got {names}: {report.errors}"
    return names.pop()


# ----------------------------------------------------------------------
# Diagnostics core
# ----------------------------------------------------------------------
def test_severity_ordering_and_rendering():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert str(Severity.ERROR) == "error"


def test_diagnostic_format_includes_location_and_hint():
    d = Diagnostic("demo", Severity.ERROR, "broken", "gate 3", "fix it")
    assert "[error] demo at gate 3: broken (hint: fix it)" == d.format()
    assert d.to_dict()["severity"] == "error"


def test_report_accessors_and_raise():
    report = CheckReport(subject="unit")
    assert report.ok and not len(report)
    report.extend([Diagnostic("demo", Severity.WARNING, "odd")])
    assert report.ok and len(report.warnings) == 1
    report.extend([Diagnostic("demo", Severity.ERROR, "broken")])
    assert not report.ok
    with pytest.raises(AnalysisError, match="unit: 1 static-check error"):
        report.raise_if_errors()
    snapshot = report.to_dict()
    assert snapshot["num_errors"] == 1 and snapshot["ok"] is False


def test_registry_rejects_duplicates_and_unknown_names():
    class Demo(Check):
        name = "qubit-bounds"  # collides with a builtin

    with pytest.raises(ValueError, match="already registered"):
        register_check(Demo())
    with pytest.raises(ValueError, match="unknown check"):
        get_check("no-such-check")
    assert "coupling-legality" in list_checks()


def test_runner_scopes_to_named_subset(routed):
    report = CheckRunner(["qubit-bounds"]).run(routed.compiled)
    assert report.checks_run == ["qubit-bounds"]


def test_custom_check_plugs_into_registry(routed):
    class NoBarriers(Check):
        name = "no-barriers-demo"

        def applies_to(self, obj):
            return isinstance(obj, Circuit)

        def run(self, obj, device=None):
            for i, g in enumerate(obj.gates):
                if g.name == "barrier":
                    yield self.error("barrier found", location=f"gate {i}")

    register_check(NoBarriers())
    try:
        report = analysis.check(
            Circuit(1, [Gate("barrier", (0,))]), checks=["no-barriers-demo"]
        )
        assert not report.ok
    finally:
        from repro.analysis.diagnostics import _CHECKS

        del _CHECKS["no-barriers-demo"]


# ----------------------------------------------------------------------
# Clean artifacts stay clean
# ----------------------------------------------------------------------
def test_routed_results_pass_all_checks(routed, routed_sabre):
    for result in (routed, routed_sabre):
        report = analysis.check(result.compiled, device=result.device)
        assert report.ok, report.summary()
        assert "coupling-legality" in report.checks_run
        assert "layout-permutation" in report.checks_run


def test_device_checks_skipped_without_device(routed):
    report = analysis.check(routed.compiled)
    assert "coupling-legality" not in report.checks_run
    assert report.ok


def test_pauli_program_clean(routed):
    assert analysis.check(routed.compressed.program).ok


# ----------------------------------------------------------------------
# Mutation tests: one seeded corruption -> exactly one diagnostic class
# ----------------------------------------------------------------------
def test_mutation_illegal_cnot_flagged(routed):
    device = routed.device
    # A CNOT between two non-adjacent physical qubits.
    far_pair = next(
        (a, b)
        for a in range(device.num_qubits)
        for b in range(device.num_qubits)
        if a < b and not device.are_connected(a, b)
    )
    bad_circuit = Circuit(
        routed.compiled.circuit.num_qubits,
        list(routed.compiled.circuit.gates) + [Gate("cx", far_pair)],
    )
    report = analysis.check(mutate(routed, circuit=bad_circuit), device=device)
    assert sole_error_check(report) == "coupling-legality"
    assert str(far_pair) in report.errors[0].message


def test_mutation_out_of_range_qubit_flagged(routed):
    width = routed.compiled.circuit.num_qubits
    bad_circuit = Circuit(width, routed.compiled.circuit.gates)
    # Circuit.append validates bounds, so corrupt the gate list directly
    # (modeling an in-place compiler bug the constructor never sees).
    bad_circuit.gates.append(Gate("x", (width + 3,)))
    report = analysis.check(mutate(routed, circuit=bad_circuit), device=routed.device)
    assert sole_error_check(report) == "qubit-bounds"


def test_mutation_gate_outside_declared_basis_flagged():
    from repro.hardware.coupling import CouplingGraph

    device = CouplingGraph(
        2, [(0, 1)], name="basis-demo", gate_set=frozenset({"rz", "cx"})
    )
    circuit = Circuit(2, [Gate("h", (0,)), Gate("cx", (0, 1))])
    report = analysis.check(circuit, device=device)
    assert sole_error_check(report) == "gate-set"
    assert "native gate set" in report.errors[0].message


def test_unknown_gate_always_flagged():
    circuit = Circuit(1)
    circuit.gates.append(Gate("toffoli3", (0,)))  # bypass append validation
    report = analysis.check(circuit)
    assert sole_error_check(report) == "gate-set"


def test_mutation_unbound_parameter_flagged(routed):
    bad_circuit = Circuit(
        routed.compiled.circuit.num_qubits,
        list(routed.compiled.circuit.gates)
        + [Gate("rz", (0,), (float("nan"),))],
    )
    report = analysis.check(mutate(routed, circuit=bad_circuit), device=routed.device)
    assert sole_error_check(report) == "gate-parameters"
    assert "unbound" in report.errors[0].message


def test_mutation_bad_layout_permutation_flagged(routed_sabre):
    final = dict(routed_sabre.compiled.final_layout)
    logical = sorted(final)[:2]
    if len(logical) >= 2:  # swap two images: still injective, wrong replay
        a, b = logical
        final[a], final[b] = final[b], final[a]
    report = analysis.check(
        mutate(routed_sabre, final_layout=final), device=routed_sabre.device
    )
    assert sole_error_check(report) == "layout-permutation"
    assert "SWAP replay" in report.errors[0].message


def test_mutation_noninjective_layout_flagged(routed_sabre):
    final = dict(routed_sabre.compiled.final_layout)
    keys = sorted(final)
    final[keys[0]] = final[keys[1]]
    report = analysis.check(
        mutate(routed_sabre, final_layout=final), device=routed_sabre.device
    )
    assert sole_error_check(report) == "layout-permutation"


def test_mutation_swap_count_mismatch_flagged(routed_sabre):
    report = analysis.check(
        mutate(routed_sabre, num_swaps=routed_sabre.compiled.num_swaps + 1),
        device=routed_sabre.device,
    )
    assert sole_error_check(report) == "layout-permutation"
    assert "SWAPs" in report.errors[0].message


def test_mutation_dag_asymmetric_edge_flagged(routed):
    dag = CircuitDAG.from_circuit(routed.compiled.circuit, commute=True)
    victim = next(node for node in dag.nodes if node.predecessors)
    victim.predecessors[0].successors.remove(victim)
    report = analysis.check(dag)
    assert sole_error_check(report) == "dag-invariants"
    assert "asymmetric" in report.errors[0].message


def test_mutation_dag_unsound_commute_edge_flagged(routed):
    # Claiming commute=True for a DAG built with the conservative rules
    # makes the canonical reconstruction disagree: commute-aware building
    # both drops edges (spurious here) and reroutes them past commuting
    # neighbors (missing here).  Either way it is a dag-invariants error.
    dag = CircuitDAG.from_circuit(routed.compiled.circuit, commute=False)
    dag.commute = True
    report = analysis.check(dag)
    if report.errors:  # only when the circuit has commuting neighbors
        assert sole_error_check(report) == "dag-invariants"
        assert all("dependency edge" in d.message for d in report.errors)


def test_mutation_pauli_program_bad_parameter_index_flagged(routed):
    program = routed.compressed.program
    term = program.terms[0]
    bad = dataclasses.replace(program)
    bad.terms = [
        dataclasses.replace(term, parameter_index=program.num_parameters + 5)
    ] + list(program.terms[1:])
    report = analysis.check(bad)
    assert sole_error_check(report) == "pauli-program"


# ----------------------------------------------------------------------
# Pipeline contract checker + validate= knob
# ----------------------------------------------------------------------
def test_misordered_passes_rejected_at_construction():
    with pytest.raises(PipelineError, match="context.ansatz"):
        Pipeline(PipelineConfig(), passes=[BuildProblem(), Compress()])
    with pytest.raises(PipelineError, match="context.compressed"):
        Pipeline(PipelineConfig(), passes=[BuildProblem(), Route()])


def test_contract_error_names_the_producer():
    with pytest.raises(PipelineError, match="build_ansatz"):
        Pipeline(PipelineConfig(), passes=[BuildProblem(), Compress()])


def test_run_revalidates_against_actually_injected_keys():
    pipeline = Pipeline(PipelineConfig(molecule="H2", ratio=0.5))
    trimmed = pipeline.without("build_problem")
    with pytest.raises(PipelineError, match="context.problem"):
        trimmed.run()  # constructible (problem is injectable), not runnable


def test_validate_knob_round_trips_and_can_be_disabled(routed):
    config = PipelineConfig(molecule="H2", ratio=1.0, validate=False)
    assert PipelineConfig.from_dict(config.to_dict()).validate is False
    result = Pipeline(config).run()
    assert result.metrics["num_parameters"] == routed.metrics["num_parameters"]


def test_route_validation_catches_corrupted_compiler(routed):
    class BrokenRoute(Route):
        def run(self, context):
            super().run(context)
            # Corrupt after the fact, then re-validate as Route would.
            context.compiled = dataclasses.replace(
                context.compiled,
                num_swaps=context.compiled.num_swaps + 7,
            )
            self._validate(context)

    pipeline = Pipeline(
        PipelineConfig(molecule="H2", ratio=1.0)
    ).replacing("route", BrokenRoute())
    with pytest.raises(AnalysisError, match="layout-permutation"):
        pipeline.run()


# ----------------------------------------------------------------------
# Repo-specific lint
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_repro", REPO_ROOT / "tools" / "lint_repro.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["lint_repro"] = module
    spec.loader.exec_module(module)
    return module


def lint_codes(lint, source, rel="src/repro/core/example.py"):
    return [f.code for f in lint.lint_source(source, Path("example.py"), rel)]


def test_lint_rr001_truthiness_on_cache_like_names(lint):
    assert lint_codes(lint, "def f(cache):\n    if cache:\n        pass\n") == ["RR001"]
    assert lint_codes(lint, "def f(store):\n    x = store and store.get(1)\n") == [
        "RR001"
    ]
    assert lint_codes(lint, "def f(cache):\n    if cache is not None:\n        pass\n") == []


def test_lint_rr002_silent_norm_division_scoped(lint):
    bad = "def f(p, norm):\n    return p / norm\n"
    assert lint_codes(lint, bad, "src/repro/sim/x.py") == ["RR002"]
    assert lint_codes(lint, bad, "src/repro/chem/x.py") == []
    exempt = "def checked_probabilities(p, norm):\n    return p / norm\n"
    assert lint_codes(lint, exempt, "src/repro/sim/x.py") == []


def test_lint_rr003_numpy2_api_outside_gate(lint):
    bad = "import numpy as np\ndef f(x):\n    return np.bitwise_count(x)\n"
    assert lint_codes(lint, bad) == ["RR003"]
    assert lint_codes(lint, bad, "src/repro/core/bits.py") == []


def test_lint_rr004_bare_assert_except_none_narrowing(lint):
    assert lint_codes(lint, "def f(x):\n    assert x > 0\n") == ["RR004"]
    assert lint_codes(lint, "def f(x):\n    assert x is not None\n") == []


def test_lint_rr005_registry_access_outside_home(lint):
    bad = "from repro.hardware.registry import _DEVICES\n"
    assert lint_codes(lint, bad) == ["RR005"]
    assert lint_codes(lint, "_DEVICES = {}\n", "src/repro/hardware/registry.py") == []


def test_lint_rr003_pragma_suppression(lint):
    bad = "import numpy as np\ncounts = np.bitwise_count(7)\n"
    assert lint_codes(lint, bad, "src/repro/sim/x.py") == ["RR003"]
    assert lint_codes(lint, bad, "src/repro/vqe/x.py") == ["RR003"]
    # numpy imports are plain imports everywhere, sim/ included
    assert lint_codes(lint, "import numpy as np\n", "src/repro/sim/x.py") == []
    inline = (
        "import numpy as np\n"
        "counts = np.bitwise_count(7)  # lint: ignore[RR003] - version-gated caller\n"
    )
    assert lint_codes(lint, inline, "src/repro/sim/x.py") == []
    above = (
        "import numpy as np\n"
        "# lint: ignore[RR003] - version-gated caller\n"
        "counts = np.bitwise_count(7)\n"
    )
    assert lint_codes(lint, above, "src/repro/sim/x.py") == []


def test_lint_pragma_suppression(lint):
    src = "def f(cache):\n    if cache:  # lint: ignore[RR001]\n        pass\n"
    assert lint_codes(lint, src) == []


def test_lint_live_tree_is_clean(lint):
    findings = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        findings.extend(lint.lint_file(path))
    assert not findings, "\n".join(f.format() for f in findings)
