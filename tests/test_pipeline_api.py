"""Tests for the composable Pipeline API, registries and batch execution."""

import json
import math
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.ansatz.uccsd import build_uccsd_program
from repro.chem.hamiltonian import build_molecule_hamiltonian
from repro.compiler.layout import (
    hierarchical_circuit_layout,
    hierarchical_initial_layout,
)
from repro.compiler.merge_to_root import MergeToRootCompiler
from repro.compiler.registry import (
    CompilerAdapter,
    get_compiler,
    list_compilers,
)
from repro.core import (
    BatchItemError,
    CoOptimizationResult,
    Energy,
    Pipeline,
    PipelineConfig,
    PipelineError,
    clear_compile_cache,
    co_optimize,
    compress_ansatz,
    load_batch,
    run_batch,
    save_batch,
)
from repro.core.passes import BuildAnsatz, BuildProblem, Compress
from repro.hardware.coupling import CouplingGraph
from repro.hardware.registry import get_device, list_devices, register_device
from repro.hardware.xtree import xtree
from repro.vqe.runner import VQE, VQEResult


def _legacy_flow(molecule: str, ratio: float):
    """The pre-pipeline hand-wired flow, for equivalence checking."""
    problem = build_molecule_hamiltonian(molecule)
    ansatz = build_uccsd_program(problem)
    compressed = compress_ansatz(ansatz.program, problem.hamiltonian, ratio)
    device = xtree(17)
    layout = hierarchical_initial_layout(compressed.program, device)
    compiled = MergeToRootCompiler(device).compile(
        compressed.program, initial_layout=layout
    )
    return compressed.program.cnot_count(), compiled.overhead_cnots


class TestPipelineEquivalence:
    @pytest.mark.parametrize("molecule,ratio", [("H2", 0.5), ("LiH", 0.5)])
    def test_matches_legacy_co_optimize(self, molecule, ratio):
        result = Pipeline(PipelineConfig(molecule=molecule, ratio=ratio)).run()
        legacy = co_optimize(molecule, ratio=ratio)
        assert result.original_cnots == legacy.original_cnots
        assert result.overhead_cnots == legacy.overhead_cnots

    @pytest.mark.parametrize("molecule,ratio", [("H2", 0.5), ("LiH", 0.5)])
    def test_matches_hand_wired_flow(self, molecule, ratio):
        original, overhead = _legacy_flow(molecule, ratio)
        result = Pipeline(PipelineConfig(molecule=molecule, ratio=ratio)).run()
        assert result.original_cnots == original
        assert result.overhead_cnots == overhead

    def test_sabre_on_grid_completes(self):
        result = Pipeline(
            PipelineConfig(molecule="H2", ratio=0.5, compiler="sabre", device="grid17")
        ).run()
        assert result.device_name == "Grid17Q"
        assert result.overhead_cnots == 3 * result.num_swaps
        assert result.metrics["compiler"] == "sabre"

    def test_sabre_pipeline_matches_table2_methodology(self):
        # With layout="auto" the SABRE baseline must pick its own initial
        # mapping (reverse-traversal refinement), exactly as the paper's
        # Table II flow in compiler.metrics does -- not inherit MtR's
        # hierarchical layout.
        from repro.compiler.metrics import mapping_overhead

        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        compressed = compress_ansatz(program, problem.hamiltonian, 0.5)
        reports = mapping_overhead(
            compressed.program, get_device("xtree17"), get_device("grid17")
        )
        for compiler, device, key in [
            ("sabre", "xtree17", "sabre_xtree"),
            ("sabre", "grid17", "sabre_grid"),
            ("mtr", "xtree17", "mtr_xtree"),
        ]:
            result = Pipeline(
                PipelineConfig(
                    molecule="LiH", ratio=0.5, compiler=compiler, device=device
                )
            ).run()
            assert result.overhead_cnots == reports[key].overhead_cnots, key

    def test_explicit_layout_overrides_auto(self):
        config = PipelineConfig(
            molecule="H2", ratio=0.5, compiler="sabre", layout="hierarchical"
        )
        result = Pipeline(config).run()
        # SABRE seeded with the hierarchical layout, not its own choice.
        assert result.compiled.initial_layout is not None

    def test_default_stage_order(self):
        pipeline = Pipeline(PipelineConfig())
        assert pipeline.pass_names() == [
            "build_problem",
            "build_ansatz",
            "compress",
            "initial_layout",
            "route",
            "metrics",
        ]

    def test_metrics_recorded(self):
        result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()
        m = result.metrics
        assert m["molecule"] == "H2"
        assert m["device"] == "XTree17Q"
        assert m["original_cnots"] == result.original_cnots
        assert m["num_parameters"] == 2 and m["total_parameters"] == 3


class TestPipelineComposition:
    def test_trivial_layout_via_config(self):
        base = PipelineConfig(molecule="LiH", ratio=0.5)
        hierarchical = Pipeline(base).run()
        trivial = Pipeline(base.replace(layout="trivial")).run()
        # Same program either way; only the mapping overhead may differ.
        assert trivial.original_cnots == hierarchical.original_cnots

    def test_unknown_layout_scheme(self):
        with pytest.raises(ValueError, match="layout scheme"):
            Pipeline(PipelineConfig(molecule="H2", layout="bogus")).run()

    def test_replacing_and_without(self):
        pipeline = Pipeline(PipelineConfig())
        swapped = pipeline.replacing("compress", Compress())
        assert swapped.pass_names() == pipeline.pass_names()
        shorter = pipeline.without("metrics")
        assert "metrics" not in shorter.pass_names()
        with pytest.raises(ValueError, match="no pass named"):
            pipeline.without("nonexistent")

    def test_missing_stage_raises_pipeline_error(self):
        with pytest.raises(PipelineError, match="context.ansatz"):
            Pipeline(PipelineConfig(), passes=[BuildProblem(), Compress()]).run()

    def test_energy_pass_records_vqe_metrics(self):
        pipeline = Pipeline(
            PipelineConfig(molecule="H2", ratio=1.0),
            passes=[BuildProblem(), BuildAnsatz(), Compress(), Energy()],
        )
        result = pipeline.run()
        assert result.vqe_result is not None
        assert result.metrics["energy"] == pytest.approx(
            result.metrics["exact_energy"], abs=1e-4
        )

    def test_run_accepts_prebuilt_problem_and_device(self):
        problem = build_molecule_hamiltonian("H2", 0.7)
        tree = xtree(8)
        result = Pipeline(PipelineConfig(molecule="H2", ratio=0.3)).run(
            problem=problem, device=tree
        )
        assert result.problem is problem
        assert result.device is tree


class TestCoOptimizeWrapper:
    def test_device_by_name(self):
        result = co_optimize("H2", ratio=0.5, device="xtree8")
        assert result.device.name == "XTree8Q"

    def test_compiler_by_name(self):
        result = co_optimize("H2", ratio=0.5, compiler="sabre")
        assert result.config.compiler == "sabre"


class TestDeviceRegistry:
    def test_builtin_names(self):
        assert get_device("xtree17").name == "XTree17Q"
        assert get_device("grid17").name == "Grid17Q"

    def test_name_normalization(self):
        assert get_device("XTree17Q").name == "XTree17Q"
        assert get_device("xtree-17").name == "XTree17Q"

    def test_parameterized_families(self):
        assert get_device("xtree33").num_qubits == 33
        grid = get_device("grid3x4")
        assert grid.num_qubits == 12

    def test_graph_passthrough(self):
        tree = xtree(5)
        assert get_device(tree) is tree

    def test_unknown_device_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_device("hexagon99")
        message = str(excinfo.value)
        assert "hexagon99" in message
        for name in list_devices():
            assert name in message

    def test_register_device(self):
        register_device(
            "test-line3",
            lambda: CouplingGraph(3, [(0, 1), (1, 2)], name="Line3"),
            overwrite=True,
        )
        assert get_device("test_line3").name == "Line3"
        with pytest.raises(ValueError, match="already registered"):
            register_device("test-line3", lambda: None)


#: Two 6-qubit paths with no edge between them.
SPLIT12_EDGES = [(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 11)]
ADDER = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus" / "adder_cuccaro_3bit.qasm"


class TestDisconnectedDevice:
    @pytest.fixture(scope="class", autouse=True)
    def split12(self):
        register_device(
            "test-split12",
            lambda: CouplingGraph(12, SPLIT12_EDGES, name="split12"),
            overwrite=True,
        )

    @pytest.mark.parametrize("compiler", ["mtr", "sabre"])
    @pytest.mark.parametrize("warm", [True, False])
    def test_raises_value_error_naming_device(self, compiler, warm):
        config = PipelineConfig(
            problem=f"qasm:{ADDER}", device="test-split12", compiler=compiler
        )
        clear_compile_cache()
        if warm:  # problem, ansatz and compression come from the cache
            Pipeline(config.replace(device="xtree17")).run()
        for _ in range(2):  # a failed build caches nothing
            with pytest.raises(ValueError, match="'split12'.*disconnected"):
                Pipeline(config).run()

    @pytest.mark.parametrize(
        "layout", [hierarchical_initial_layout, hierarchical_circuit_layout]
    )
    def test_hierarchical_layout_raises_value_error(self, layout):
        kind = "circuit" if layout is hierarchical_circuit_layout else "program"
        with pytest.raises(ValueError, match="'split12'.*disconnected"):
            layout(_split12_workload(kind), get_device("test-split12"))

    @pytest.mark.parametrize("method", ["compile", "compile_circuit"])
    @pytest.mark.parametrize("compiler", ["mtr", "sabre"])
    @pytest.mark.parametrize("with_layout", [False, True])
    def test_direct_call_raises_value_error(self, method, compiler, with_layout):
        workload = _split12_workload("circuit" if method == "compile_circuit" else "program")
        layout = {q: q for q in range(workload.num_qubits)} if with_layout else None
        call = getattr(get_compiler(compiler), method)
        with pytest.raises(ValueError, match="'split12'.*disconnected"):
            call(workload, get_device("test-split12"), initial_layout=layout)


def _split12_workload(kind):
    """The corpus adder circuit, or the H2 UCCSD program; both fit split12."""
    if kind == "circuit":
        from repro.circuit.qasm import from_qasm

        return from_qasm(ADDER.read_text())
    return build_uccsd_program(build_molecule_hamiltonian("H2")).program


class TestCompilerRegistry:
    def test_names_and_aliases(self):
        assert isinstance(get_compiler("mtr"), CompilerAdapter)
        assert get_compiler("merge_to_root").name == "mtr"
        assert get_compiler("merge-to-root").name == "mtr"
        assert get_compiler("SABRE").name == "sabre"

    def test_adapter_passthrough(self):
        adapter = get_compiler("mtr")
        assert get_compiler(adapter) is adapter

    def test_unknown_compiler_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_compiler("tket")
        message = str(excinfo.value)
        assert "tket" in message
        for name in list_compilers():
            assert name in message

    def test_adapters_agree_with_direct_calls(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        device = xtree(17)
        direct = MergeToRootCompiler(device).compile(program)
        via_registry = get_compiler("mtr").compile(program, device)
        assert via_registry.num_swaps == direct.num_swaps
        assert via_registry.overhead_cnots == direct.overhead_cnots


def _crashing_factory(config: PipelineConfig) -> Pipeline:
    """Kill the worker outright (no exception) on the 0.7 A config."""
    if config.bond_length == 0.7:
        os._exit(3)
    return Pipeline(config)


class TestRunBatch:
    def test_batch_matches_individual_runs(self):
        configs = [
            PipelineConfig(molecule="H2", ratio=0.3),
            PipelineConfig(molecule="H2", ratio=0.5),
            PipelineConfig(molecule="H2", ratio=1.0),
        ]
        batch = run_batch(configs, workers=3)
        assert len(batch) == 3
        for config, result in zip(configs, batch):
            single = Pipeline(config).run()
            assert result.original_cnots == single.original_cnots
            assert result.overhead_cnots == single.overhead_cnots

    def test_serial_fallback(self):
        configs = [PipelineConfig(molecule="H2", ratio=r) for r in (0.3, 1.0)]
        assert len(run_batch(configs, workers=1)) == 2

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_executors_agree_item_for_item(self):
        # Repeated molecules share one problem the workers get through the
        # pool initializer; spec items and failing items build in the task.
        configs = [
            PipelineConfig(molecule="H2", bond_length=b) for b in (0.7, 0.735)
        ]
        configs += [
            PipelineConfig(molecule="H2", ratio=ratio, compiler=compiler)
            for ratio in (0.5, 1.0)
            for compiler in ("mtr", "sabre")
        ]
        configs += [
            PipelineConfig(problem="maxcut:er-8-5"),
            PipelineConfig(molecule="NOT_A_MOLECULE"),
        ]

        def snapshot(item):
            return item if isinstance(item, BatchItemError) else item.to_dict()

        serial = run_batch(configs, executor="serial")
        process = run_batch(configs, executor="process", workers=2)
        assert [snapshot(r) for r in process] == [snapshot(r) for r in serial]
        assert isinstance(process[-1], BatchItemError) and process[-1].index == 7
        assert not any(isinstance(r, BatchItemError) for r in process[:-1])

    def test_worker_runs_on_the_initializer_problem(self, monkeypatch):
        import repro.core.passes as passes
        import repro.core.pipeline as pipeline

        problem = build_molecule_hamiltonian("H2")
        monkeypatch.setattr(pipeline, "_WORKER_PROBLEMS", {})
        pipeline._init_batch_worker({("H2", None): problem})

        def no_chemistry(*args):
            raise AssertionError("the worker rebuilt the problem")

        monkeypatch.setattr(passes, "build_molecule_hamiltonian", no_chemistry)
        config = PipelineConfig(molecule="H2", ratio=0.5)
        record = pipeline._batch_item_task((0, config, Pipeline))
        assert record["metrics"]["num_qubits"] == problem.num_qubits

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            run_batch([PipelineConfig(molecule="H2")], executor="fork-bomb")

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="needs a /dev/shm listing"
    )
    def test_crashed_worker_breaks_pool_and_leaks_no_segment(self):
        configs = [
            PipelineConfig(molecule="H2", bond_length=b) for b in (0.7, 0.735)
        ]
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(BrokenProcessPool):
            run_batch(
                configs,
                executor="process",
                workers=2,
                pipeline_factory=_crashing_factory,
            )
        assert set(os.listdir("/dev/shm")) - before == set()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_failed_item_aggregated_not_fatal(self, executor):
        configs = [
            PipelineConfig(molecule="H2", ratio=0.5),
            PipelineConfig(molecule="NOT_A_MOLECULE"),
            PipelineConfig(molecule="H2", ratio=1.0),
        ]
        results = run_batch(configs, executor=executor, workers=2)
        assert len(results) == 3
        assert isinstance(results[1], BatchItemError)
        assert results[1].index == 1
        assert results[1].config.molecule == "NOT_A_MOLECULE"
        assert "NOT_A_MOLECULE" in str(results[1])
        # completed siblings keep their results
        assert not isinstance(results[0], BatchItemError)
        assert not isinstance(results[2], BatchItemError)
        assert results[0].original_cnots > 0

    def test_save_and_load_batch(self, tmp_path):
        configs = [PipelineConfig(molecule="H2", ratio=r) for r in (0.5, 1.0)]
        results = run_batch(configs, workers=2)
        path = save_batch(results, tmp_path / "batch.json")
        loaded = load_batch(path)
        assert len(loaded) == 2
        for original, restored in zip(results, loaded):
            assert restored.original_cnots == original.original_cnots
            assert restored.overhead_cnots == original.overhead_cnots
            assert restored.config == original.config


class TestResultSerialization:
    def test_json_round_trip_is_stable(self):
        result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()
        snapshot = result.to_dict()
        wire = json.loads(json.dumps(snapshot))
        assert wire == snapshot
        restored = CoOptimizationResult.from_dict(wire)
        assert restored.to_dict() == snapshot

    def test_restored_result_scalars(self):
        result = Pipeline(PipelineConfig(molecule="LiH", ratio=0.5)).run()
        restored = CoOptimizationResult.from_dict(result.to_dict())
        assert restored.original_cnots == result.original_cnots
        assert restored.overhead_cnots == result.overhead_cnots
        assert restored.num_swaps == result.num_swaps
        assert restored.device_name == result.device_name
        assert restored.config == result.config
        assert "LiH" in restored.summary()

    def test_to_json_from_json(self):
        result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()
        restored = CoOptimizationResult.from_json(result.to_json())
        assert restored.metrics == result.to_dict()["metrics"]

    def test_manual_result_without_metrics_pass(self):
        # A pipeline without the Metrics stage still serializes fully.
        pipeline = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).without(
            "metrics"
        )
        result = pipeline.run()
        assert result.metrics == {}
        snapshot = result.to_dict()
        assert snapshot["metrics"]["original_cnots"] == result.original_cnots

    def test_config_round_trip(self):
        config = PipelineConfig(molecule="NaH", ratio=0.7, compiler="sabre", seed=3)
        assert PipelineConfig.from_dict(config.to_dict()) == config
        # Unknown keys from newer schema versions are ignored.
        assert (
            PipelineConfig.from_dict({**config.to_dict(), "future_field": 1}) == config
        )

    def test_retired_array_backend_key_still_loads(self, tmp_path):
        # Payloads written while PipelineConfig had array_backend, engine,
        # fusion and cache fields keep loading: the keys are ignored and the
        # record is kept verbatim.
        retired = {
            "array_backend": "numpy", "engine": "legacy", "fusion": "1q", "cache": False,
        }
        config = PipelineConfig(molecule="H2", ratio=0.5)
        for key, value in retired.items():
            assert PipelineConfig.from_dict({**config.to_dict(), key: value}) == config
        assert PipelineConfig.from_dict({**config.to_dict(), **retired}) == config

        result = Pipeline(config).run()
        path = save_batch([result], tmp_path / "batch.json")
        payload = json.loads(path.read_text())
        payload[0]["config"].update(retired)
        path.write_text(json.dumps(payload))
        (restored,) = load_batch(path)
        assert restored.config == config
        assert restored.original_cnots == result.original_cnots
        assert restored.to_dict() == payload[0]


class TestVQEBackendRegistry:
    def test_unknown_backend_lists_valid_names(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        with pytest.raises(ValueError) as excinfo:
            VQE(program, problem.hamiltonian, backend="statevectr")
        message = str(excinfo.value)
        assert "statevectr" in message
        for name in ("statevector", "density_matrix", "trajectory", "sampling"):
            assert name in message

    def test_hartree_fock_energy_empty_history(self):
        result = VQEResult(
            energy=0.0,
            parameters=[],
            iterations=0,
            function_evaluations=0,
            success=False,
            history=[],
            backend="statevector",
        )
        assert math.isnan(result.hartree_fock_energy)

    def test_vqe_result_json_round_trip(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        result = VQE(program, problem.hamiltonian).run()
        wire = json.loads(json.dumps(result.to_dict()))
        restored = VQEResult.from_dict(wire)
        assert restored.energy == result.energy
        assert restored.iterations == result.iterations
        assert list(restored.parameters) == list(result.parameters)
        assert restored.to_dict() == result.to_dict()


class TestDagCommuteKnobs:
    """The shared-DAG pipeline knob ``commute`` (commutation-aware
    frontier + cancellation reporting) and the always-on schedule metrics."""

    def test_defaults(self):
        config = PipelineConfig()
        assert config.commute is False

    def test_dag_metrics_reported(self):
        result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()
        assert result.metrics["scheduled_depth"] > 0
        assert result.metrics["duration_ns"] > 0.0
        assert result.metrics["depth"] <= result.metrics["scheduled_depth"]

    def test_saved_record_with_retired_dag_key_reports_schedule(self):
        saved = {**PipelineConfig(molecule="H2", ratio=0.5).to_dict(), "dag": False}
        config = PipelineConfig.from_dict(saved)
        assert "dag" not in config.to_dict()
        metrics = Pipeline(config).run().metrics
        assert metrics["scheduled_depth"] >= metrics["depth"] > 0
        assert metrics["duration_ns"] > 0.0

    def test_commute_records_cancellation_columns(self):
        result = Pipeline(
            PipelineConfig(molecule="H2", ratio=0.5, commute=True)
        ).run()
        metrics = result.metrics
        assert metrics["chain_cnots_commute"] <= metrics["chain_cnots_adjacency"]
        assert metrics["chain_cnots_adjacency"] <= metrics["chain_cnots"]

    def test_commute_threads_to_sabre(self):
        base = PipelineConfig(molecule="LiH", ratio=0.5, compiler="sabre")
        plain = Pipeline(base).run()
        commuting = Pipeline(base.replace(commute=True)).run()
        # Same program, both routings legal; counts may differ but both
        # must report full Table II metrics.
        for result in (plain, commuting):
            assert result.metrics["total_cnots"] >= result.original_cnots

    def test_knobs_round_trip_config(self):
        config = PipelineConfig(commute=True)
        restored = PipelineConfig.from_dict(config.to_dict())
        assert restored == config
