"""Tests for the RR1xx static analyzers (repro.analysis.static).

Three layers, mirroring the package:

* the dataflow framework itself -- project model, call graph, and
  transitive effect propagation over a fixture package;
* one seeded-mutation test per RR1xx rule, asserting the exact
  diagnostic (code, line, and message) the mutation must produce;
* the span-aware suppression mechanics and the lint_repro front end
  (formats, baseline, RR007), plus a live-tree-clean gate per rule.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import check as run_checks
from repro.analysis.static import (
    CallGraph,
    SuppressionIndex,
    analyze,
    build_project_model,
    load_project,
)
from repro.analysis.static.rules import (
    analyze_project,
    rr101_executor_reachable_writes,
    rr102_unpicklable_submissions,
    rr103_slab_lifecycle,
    rr111_nondeterministic_sources,
    rr112_unseeded_default_rng,
)
from repro.core.seeding import seed_sequence, seeded_rng, spawn_seeds

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_repro_static_tests", REPO_ROOT / "tools" / "lint_repro.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["lint_repro_static_tests"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def live_project():
    return load_project(REPO_ROOT)


# ----------------------------------------------------------------------
# Dataflow framework: model + call graph + effect propagation
# ----------------------------------------------------------------------
FIXTURE_PACKAGE = {
    "src/repro/alpha.py": (
        "STATE = {}\n"
        "\n"
        "def write(key):\n"
        "    STATE[key] = 1\n"
        "\n"
        "def relay(key):\n"
        "    write(key)\n"
    ),
    "src/repro/beta.py": (
        "from repro.alpha import relay\n"
        "\n"
        "def entry(key):\n"
        "    relay(key)\n"
    ),
}


def test_call_graph_resolves_across_modules():
    project = build_project_model(FIXTURE_PACKAGE)
    graph = CallGraph(project)
    reachable = graph.reachable(("src/repro/beta.py", "entry"))
    assert ("src/repro/alpha.py", "relay") in reachable
    assert ("src/repro/alpha.py", "write") in reachable


def test_effect_propagation_through_two_hops():
    project = build_project_model(FIXTURE_PACKAGE)
    graph = CallGraph(project)
    writes = graph.reached_writes(("src/repro/beta.py", "entry"))
    assert len(writes) == 1
    reached = writes[0]
    assert reached.rel == "src/repro/alpha.py"
    assert reached.write.name == "STATE"
    assert reached.write.line == 4
    # entry -> relay -> write: the mutation is two call hops away.
    assert reached.chain == ("entry", "relay", "write")


def test_model_skips_syntax_errors():
    project = build_project_model({"src/repro/broken.py": "def oops(:\n"})
    assert "src/repro/broken.py" not in project.modules


# ----------------------------------------------------------------------
# Seeded mutations: one per rule, exact diagnostic
# ----------------------------------------------------------------------
def _one_finding(findings, code):
    matching = [f for f in findings if f.code == code]
    assert len(matching) == 1, f"expected one {code}, got {findings}"
    return matching[0]


def test_rr101_executor_reachable_module_write():
    project = build_project_model({
        "src/repro/vqe/fake_scan.py": (
            "from concurrent.futures import ThreadPoolExecutor\n"  # 1
            "\n"                                                   # 2
            "_CACHE = {}\n"                                        # 3
            "\n"                                                   # 4
            "def _record(key):\n"                                  # 5
            "    _CACHE[key] = 1\n"                                # 6
            "\n"                                                   # 7
            "def _task(key):\n"                                    # 8
            "    _record(key)\n"                                   # 9
            "\n"                                                   # 10
            "def run(items):\n"                                    # 11
            "    with ThreadPoolExecutor() as pool:\n"             # 12
            "        for item in items:\n"                         # 13
            "            pool.submit(_task, item)\n"               # 14
        ),
    })
    finding = _one_finding(
        rr101_executor_reachable_writes(project, CallGraph(project)), "RR101"
    )
    assert finding.rel == "src/repro/vqe/fake_scan.py"
    assert finding.line == 6
    assert finding.message == (
        "module-level state '_CACHE' is mutated here and reachable from "
        "the thread-pool task '_task' submitted at "
        "src/repro/vqe/fake_scan.py:14 via _task -> _record; make the "
        "task self-contained or document why the shared write is safe "
        "with '# lint: ignore[RR101] - <reason>'"
    )


def test_rr102_unpicklable_process_submissions():
    project = build_project_model({
        "src/repro/core/fake_pool.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"  # 1
            "\n"                                                    # 2
            "def run(items):\n"                                     # 3
            "    def _inner(x):\n"                                  # 4
            "        return x + 1\n"                                # 5
            "    with ProcessPoolExecutor() as pool:\n"             # 6
            "        pool.submit(_inner, 1)\n"                      # 7
            "        pool.map(lambda x: x, items)\n"                # 8
        ),
    })
    findings = rr102_unpicklable_submissions(project, CallGraph(project))
    assert [(f.code, f.line) for f in findings] == [("RR102", 7), ("RR102", 8)]
    tail = (
        " is submitted to a process pool but cannot be pickled; "
        "process-pool tasks must be module-level functions (see "
        "_batch_item_task in repro.core.pipeline for the idiom)"
    )
    assert findings[0].message == "the nested function '_inner'" + tail
    assert findings[1].message == "a lambda" + tail


def test_pool_initializer_is_worker_code():
    # initializer= runs in every worker, so RR101/RR102 treat it like a
    # submitted task.
    project = build_project_model({
        "src/repro/core/fake_init.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"   # 1
            "\n"                                                      # 2
            "_SHARED = {}\n"                                          # 3
            "\n"                                                      # 4
            "def _init(items):\n"                                     # 5
            "    _SHARED.update(items)\n"                             # 6
            "\n"                                                      # 7
            "def _task(key):\n"                                       # 8
            "    return key\n"                                        # 9
            "\n"                                                      # 10
            "def run(items):\n"                                       # 11
            "    with ProcessPoolExecutor(\n"                         # 12
            "        initializer=_init, initargs=(items,)\n"          # 13
            "    ) as pool:\n"                                        # 14
            "        return list(pool.map(_task, items))\n"           # 15
            "\n"                                                      # 16
            "def run_lambda(items):\n"                                # 17
            "    with ProcessPoolExecutor(initializer=lambda: None) as pool:\n"  # 18
            "        return list(pool.map(_task, items))\n"           # 19
        ),
    })
    graph = CallGraph(project)
    finding = _one_finding(rr101_executor_reachable_writes(project, graph), "RR101")
    assert (finding.rel, finding.line) == ("src/repro/core/fake_init.py", 6)
    assert finding.message == (
        "module-level state '_SHARED' is mutated here and reachable from "
        "the process-pool task '_init' submitted at "
        "src/repro/core/fake_init.py:13; make the task self-contained or "
        "document why the shared write is safe with "
        "'# lint: ignore[RR101] - <reason>'"
    )
    unpicklable = rr102_unpicklable_submissions(project, graph)
    assert [(f.code, f.line) for f in unpicklable] == [("RR102", 18)]
    assert unpicklable[0].message.startswith("a lambda is submitted to a process pool")


def test_rr103_owner_leak_and_worker_unlink():
    project = build_project_model({
        "src/repro/core/fake_shm.py": (
            "from repro.core.shm import SharedSlabs\n"       # 1
            "\n"                                             # 2
            "def leak(tables):\n"                            # 3
            "    slabs = SharedSlabs.create(tables)\n"       # 4
            "    return None\n"                              # 5
            "\n"                                             # 6
            "def worker(handle):\n"                          # 7
            "    slabs = SharedSlabs.attach(handle)\n"       # 8
            "    slabs.unlink()\n"                           # 9
        ),
    })
    findings = rr103_slab_lifecycle(project)
    assert [(f.code, f.line) for f in findings] == [("RR103", 4), ("RR103", 9)]
    assert findings[0].message == (
        "SharedSlabs segment 'slabs' is created here but never unlink()ed "
        "and the handle does not leave leak(); the shared-memory segment "
        "leaks"
    )
    assert findings[1].message == (
        "attached SharedSlabs handle 'slabs' calls unlink(): the creating "
        "parent owns segment teardown; workers must only close() "
        "(see repro.core.shm)"
    )


def test_rr111_wall_clock_read():
    project = build_project_model({
        "src/repro/core/fake_timing.py": (
            "import time\n"                 # 1
            "\n"                            # 2
            "def stamp():\n"                # 3
            "    return time.time()\n"      # 4
        ),
    })
    finding = _one_finding(rr111_nondeterministic_sources(project), "RR111")
    assert (finding.rel, finding.line) == ("src/repro/core/fake_timing.py", 4)
    assert finding.message == (
        "wall-clock read time.time() in library code: results must be "
        "functions of their inputs and seeds (timing belongs in "
        "benchmarks/)"
    )


def test_rr111_exempt_in_benchmarks():
    project = build_project_model({
        "src/repro/bench/fake_timing.py": (
            "import time\n\ndef stamp():\n    return time.time()\n"
        ),
    })
    assert rr111_nondeterministic_sources(project) == []


def test_rr112_unseeded_default_rng():
    project = build_project_model({
        "src/repro/core/fake_rng.py": (
            "import numpy as np\n"                  # 1
            "\n"                                    # 2
            "def make():\n"                         # 3
            "    return np.random.default_rng()\n"  # 4
        ),
    })
    finding = _one_finding(rr112_unseeded_default_rng(project), "RR112")
    assert (finding.rel, finding.line) == ("src/repro/core/fake_rng.py", 4)
    assert finding.message == (
        "default_rng() with no seed draws fresh OS entropy; normalize it "
        "through repro.core.seeding (seeded_rng / seed_sequence) so the "
        "determinism contract holds (docs/analysis.md)"
    )


def test_rr112_accepts_proven_seed_sources():
    project = build_project_model({
        "src/repro/core/fake_rng_ok.py": (
            "import numpy as np\n"
            "\n"
            "_SEED = 11\n"
            "\n"
            "def literal():\n"
            "    return np.random.default_rng(7)\n"
            "\n"
            "def constant():\n"
            "    return np.random.default_rng(_SEED)\n"
            "\n"
            "def annotated(seed: int):\n"
            "    return np.random.default_rng(seed)\n"
            "\n"
            "def spawned(seed: int):\n"
            "    child = np.random.SeedSequence(seed).spawn(1)[0]\n"
            "    return np.random.default_rng(child)\n"
        ),
    })
    assert rr112_unseeded_default_rng(project) == []


# ----------------------------------------------------------------------
# Suppression mechanics
# ----------------------------------------------------------------------
def test_pragma_covers_full_multiline_statement():
    source = (
        "def f():\n"
        "    value = compute(\n"
        "        1,\n"
        "        2,\n"
        "    )  # lint: ignore[RR999]\n"
        "    return value\n"
    )
    index = SuppressionIndex(source)
    # The statement spans lines 2-5; the pragma sits on line 5 but must
    # suppress a finding anchored to the statement's first line.
    assert index.is_suppressed("RR999", 2)
    assert not index.is_suppressed("RR999", 6)


def test_standalone_pragma_governs_next_statement():
    source = (
        "CACHE = {}\n"
        "\n"
        "def f(key, value):\n"
        "    if key not in CACHE:\n"
        "        # lint: ignore[RR999] - reasoned\n"
        "        CACHE[key] = value\n"
        "    return CACHE[key]\n"
    )
    index = SuppressionIndex(source)
    # The comment sits between the if-header and its first body
    # statement; it must attach to the statement below it, not to the
    # header.
    assert index.is_suppressed("RR999", 6)
    assert index.unused() == []


def test_pragma_on_decorator_does_not_blanket_body():
    source = (
        "@decorated  # lint: ignore[RR999]\n"
        "def f():\n"
        "    return 1\n"
    )
    index = SuppressionIndex(source)
    assert index.is_suppressed("RR999", 1)
    assert not index.is_suppressed("RR999", 3)


def test_pragma_inside_string_literal_is_inert():
    source = 'MESSAGE = "use # lint: ignore[RR999] to suppress"\n'
    index = SuppressionIndex(source)
    assert index.pragmas == []


def test_unused_pragmas_reported():
    source = "x = 1  # lint: ignore[RR001, RR002]\n"
    index = SuppressionIndex(source)
    assert index.is_suppressed("RR001", 1)
    assert index.unused() == [(1, "RR002")]


# ----------------------------------------------------------------------
# lint_repro front end: formats, baseline, RR007
# ----------------------------------------------------------------------
def test_lint_source_still_suppresses_per_file_rules(lint):
    source = "def f(cache):\n    if cache:  # lint: ignore[RR001]\n        pass\n"
    assert lint.lint_source(source, Path("example.py"), "src/repro/core/x.py") == []


def test_format_github_annotations(lint, tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("def f(x):\n    assert x > 0\n")
    code = lint.main(["--format=github", str(target)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"::error file={target.as_posix()},line=2::RR004 ")


def test_format_json_and_output_report(lint, tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("def f(x):\n    assert x > 0\n")
    report_path = tmp_path / "lint.json"
    code = lint.main(
        ["--format=json", "--output", str(report_path), str(target)]
    )
    assert code == 1
    stdout_report = json.loads(capsys.readouterr().out)
    file_report = json.loads(report_path.read_text())
    assert stdout_report == file_report
    assert stdout_report["tool"] == "lint_repro"
    assert stdout_report["errors"] == 1
    (finding,) = stdout_report["findings"]
    assert finding["code"] == "RR004"
    assert finding["line"] == 2
    assert finding["severity"] == "error"


def test_rr007_stale_pragma_is_warning_only(lint, tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("x = 1  # lint: ignore[RR001]\n")
    code = lint.main([str(target)])
    out = capsys.readouterr().out
    assert code == 0  # warnings never gate
    assert "RR007 stale pragma" in out


def test_baseline_accepts_known_findings(lint, tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("def f(x):\n    assert x > 0\n")
    baseline = tmp_path / "baseline.json"
    assert lint.main(["--update-baseline", "--baseline", str(baseline), str(target)]) == 0
    capsys.readouterr()
    assert lint.main(["--baseline", str(baseline), str(target)]) == 0
    assert json.loads(baseline.read_text())["findings"][0]["code"] == "RR004"
    # A new finding is not masked by the old baseline.
    target.write_text("def f(x):\n    assert x > 0\n    assert x < 9\n")
    capsys.readouterr()
    assert lint.main(["--baseline", str(baseline), str(target)]) == 1


def test_repo_baseline_is_empty():
    data = json.loads((REPO_ROOT / "tools" / "lint_baseline.json").read_text())
    assert data == {"findings": []}


# ----------------------------------------------------------------------
# Check-registry integration and the live-tree gate
# ----------------------------------------------------------------------
def test_project_model_dispatches_through_check_registry():
    project = build_project_model({
        "src/repro/core/fake_timing.py": (
            "import time\n\ndef stamp():\n    return time.time()\n"
        ),
    })
    report = run_checks(project)
    assert "determinism" in report.checks_run
    assert "concurrency-safety" in report.checks_run
    assert not report.ok
    assert any("RR111" in d.message for d in report.diagnostics)


@pytest.mark.parametrize(
    "code", ["RR101", "RR102", "RR103", "RR111", "RR112"]
)
def test_live_tree_is_clean_per_rule(live_project, code):
    findings = [f for f in analyze(live_project) if f.code == code]
    assert findings == [], (
        f"{code} fired on the live tree; fix the finding or justify a "
        f"'# lint: ignore[{code}] - <reason>' pragma: {findings}"
    )


def test_live_tree_raw_findings_all_carry_reasoned_pragmas(live_project):
    # Every raw finding must be answered by an explicit pragma (none are
    # baselined away), and every pragma must carry a reason text.
    raw = analyze_project(live_project)
    assert len(raw) > 0  # the analyzers do find the known shared-memo writes
    for finding in raw:
        module = live_project.modules[finding.rel]
        index = SuppressionIndex(module.source, module.tree)
        assert index.is_suppressed(finding.code, finding.line), finding
        covering = [
            p for p in index.pragmas
            if finding.code in p.codes and p.start <= finding.line <= p.end
        ]
        for pragma in covering:
            comment = module.source.splitlines()[pragma.line - 1]
            assert "-" in comment.split("]", 1)[1], (
                f"pragma at {finding.rel}:{pragma.line} carries no reason"
            )


# ----------------------------------------------------------------------
# Determinism contract: seeding helpers
# ----------------------------------------------------------------------
def test_seeded_rng_bit_identical_to_default_rng():
    ours = seeded_rng(2021).random(16)
    reference = np.random.default_rng(2021).random(16)
    assert np.array_equal(ours, reference)


def test_spawn_seeds_matches_seed_sequence_spawn():
    children = spawn_seeds(7, 3)
    reference = np.random.SeedSequence(7).spawn(3)
    for child, ref in zip(children, reference):
        assert np.array_equal(
            np.random.default_rng(child).random(8),
            np.random.default_rng(ref).random(8),
        )


def test_seed_sequence_passthrough_and_validation():
    root = np.random.SeedSequence(3)
    assert seed_sequence(root) is root
    with pytest.raises(ValueError):
        spawn_seeds(0, -1)
