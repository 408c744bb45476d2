"""Warm compile path: derived cache keys and once-per-entry sanitizing.

A warm ``Pipeline.run`` must not re-hash or re-check any artifact the
compile cache already produced and checked, while every entry key still
covers each config field its pass reads.
"""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.circuit.qasm as qasm_module
import repro.core.cache as cache_module
from repro.analysis import AnalysisError
from repro.analysis.diagnostics import CheckRunner
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, RZ, H
from repro.circuit.qasm import QasmError, to_qasm
from repro.core import compress_ansatz
from repro.core.cache import ContentAddressedCache, clear_compile_cache, compile_cache
from repro.core.passes import (
    Pass,
    PipelineConfig,
    PipelineContext,
    entry_key,
)
from repro.core.pipeline import Pipeline, default_passes
from repro.hardware import get_device
from repro.hardware.coupling import CouplingGraph

#: Context attributes that cached passes stage, in pipeline order.
STAGED = ("ansatz", "compressed", "initial_layout", "compiled")


#: The committed QASM corpus.
CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"


@pytest.fixture
def counters(monkeypatch):
    """Count content hashes, QASM parses and sanitizer runs from here on."""
    counts = Counter()
    for module, name in (
        (cache_module, "circuit_key"),
        (cache_module, "program_key"),
        (cache_module, "pauli_sum_key"),
        (qasm_module, "from_qasm"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run = CheckRunner.run

    def counted_run(self, *args, **kwargs):
        counts["checks"] += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(CheckRunner, "run", counted_run)
    return counts


def staged_keys(config, problem=None):
    """Run the default passes; return each staged artifact's entry key."""
    context = PipelineContext(config=config, problem=problem)
    for stage in default_passes():
        stage.run(context)
    return {attribute: entry_key(context, attribute) for attribute in STAGED}


# ----------------------------------------------------------------------
# The warm path
# ----------------------------------------------------------------------
def test_warm_rerun_hashes_nothing_and_checks_nothing(counters):
    clear_compile_cache()
    config = PipelineConfig(molecule="HF")
    cold = Pipeline(config).run()
    assert counters["checks"] > 0
    cold_entries = len(compile_cache())
    counters.clear()

    warm = Pipeline(config).run()
    assert counters["circuit_key"] == counters["program_key"] == 0
    assert counters["checks"] == 0
    assert counters["pauli_sum_key"] == 1  # ingress: once per run
    assert len(compile_cache()) == cold_entries
    assert warm.metrics == cold.metrics


CHAIN = Circuit(4, [H(0), CNOT(0, 1), RZ(0.3, 1), CNOT(1, 2), CNOT(2, 3)])


def write_qasm(path, circuit=CHAIN):
    path.write_text(to_qasm(circuit))
    return f"qasm:{path}"


def test_warm_gate_level_run_hashes_the_circuit_once(counters, tmp_path):
    clear_compile_cache()
    config = PipelineConfig(problem=write_qasm(tmp_path / "chain.qasm"), device="xtree5")
    cold = Pipeline(config).run()
    assert counters["from_qasm"] == 1
    counters.clear()
    warm = Pipeline(config).run()
    # The problem comes from its entry, keyed on the file's bytes: the
    # warm run neither parses the file nor hashes the circuit.
    assert counters["from_qasm"] == 0
    assert counters["circuit_key"] == 0
    assert counters["program_key"] == 0
    assert counters["checks"] == 0
    assert warm.metrics == cold.metrics


def test_one_parse_per_file_across_configs(counters, tmp_path):
    clear_compile_cache()
    spec = write_qasm(tmp_path / "chain.qasm")
    for compiler in ("mtr", "sabre"):
        for commute in (False, True):
            config = PipelineConfig(
                problem=spec, device="xtree5", compiler=compiler, commute=commute
            )
            Pipeline(config).run()
    assert counters["from_qasm"] == 1
    assert counters["circuit_key"] == 0


def test_rewritten_qasm_file_is_parsed_again(counters, tmp_path):
    clear_compile_cache()
    path = tmp_path / "chain.qasm"
    config = PipelineConfig(problem=write_qasm(path), device="xtree5")
    first = Pipeline(config).run()
    longer = Circuit(4, [*CHAIN.gates, CNOT(3, 0), CNOT(0, 2)])
    write_qasm(path, longer)
    second = Pipeline(config).run()
    assert counters["from_qasm"] == 2
    clear_compile_cache()
    fresh = Pipeline(config).run()
    assert second.metrics == fresh.metrics
    assert second.metrics["original_cnots"] == first.metrics["original_cnots"] + 2


def test_same_bytes_at_two_paths_are_two_problems(tmp_path):
    # The spec is in the key: it fixes the problem's name and source.
    clear_compile_cache()
    first = PipelineConfig(problem=write_qasm(tmp_path / "a.qasm"), device="xtree5")
    second = first.replace(problem=write_qasm(tmp_path / "b.qasm"))
    assert Pipeline(first).run().problem.name == "a"
    assert Pipeline(second).run().problem.name == "b"


def test_uncached_qasm_run_parses_every_run(counters, tmp_path):
    config = PipelineConfig(
        problem=write_qasm(tmp_path / "chain.qasm"), device="xtree5"
    )
    for _ in range(3):
        clear_compile_cache()
        Pipeline(config).run()
    assert counters["from_qasm"] == 3


def test_malformed_qasm_file_raises_on_every_run(counters, tmp_path):
    clear_compile_cache()
    path = tmp_path / "bad.qasm"
    path.write_text(to_qasm(CHAIN) + "rz(1e999) q[0];\n")
    config = PipelineConfig(problem=f"qasm:{path}", device="xtree5")
    for _ in range(3):
        with pytest.raises(QasmError, match="non-finite angle"):
            Pipeline(config).run()
    assert counters["from_qasm"] == 3
    assert len(compile_cache()) == 0


def test_side_slot_metrics_survive_the_warm_run():
    clear_compile_cache()
    config = PipelineConfig(molecule="H2", ratio=0.5, commute=True)
    cold = Pipeline(config).run()
    entries = len(compile_cache())
    warm = Pipeline(config).run()
    assert "chain_cnots_commute" in warm.metrics and "duration_ns" in warm.metrics
    assert warm.metrics == cold.metrics
    assert len(compile_cache()) == entries


def test_unvalidated_run_leaves_the_next_validated_run_checking(counters):
    clear_compile_cache()
    config = PipelineConfig(molecule="H2", ratio=0.5, validate=False)
    Pipeline(config).run()
    assert counters["checks"] == 0
    Pipeline(config.replace(validate=True)).run()
    validated = counters["checks"]
    assert validated > 0
    Pipeline(config.replace(validate=True)).run()
    assert counters["checks"] == validated


def test_uncached_pipeline_checks_every_run(counters):
    config = PipelineConfig(molecule="H2", ratio=0.5)
    clear_compile_cache()
    Pipeline(config).run()
    first = counters["checks"]
    assert first > 0
    clear_compile_cache()
    Pipeline(config).run()
    assert counters["checks"] == 2 * first


def restricted(device: CouplingGraph) -> CouplingGraph:
    """The same coupling graph declaring only CNOT as native."""
    return CouplingGraph(
        device.num_qubits,
        list(device.edges),
        name=device.name,
        center=device.center,
        gate_set=frozenset({"cx"}),
    )


def test_failing_cached_artifact_raises_on_every_run():
    clear_compile_cache()
    config = PipelineConfig(molecule="H2", ratio=0.5)
    # A clean run first: its verdict must not carry over to a device
    # whose declared gate set the same routed circuit violates.
    Pipeline(config).run()
    device = restricted(get_device("xtree17"))
    for _ in range(3):
        with pytest.raises(AnalysisError, match="gate-set"):
            Pipeline(config).run(device=device)
    assert compile_cache().stats.hits > 0


def test_eviction_drops_the_verdict(counters, monkeypatch):
    monkeypatch.setattr(
        cache_module, "_COMPILE_CACHE", ContentAddressedCache(max_entries=1)
    )
    config = PipelineConfig(molecule="H2", ratio=0.5)
    Pipeline(config).run()
    cold = counters["checks"]
    assert compile_cache().stats.evictions > 0
    Pipeline(config).run()
    assert counters["checks"] == 2 * cold


def test_swapped_artifact_is_rekeyed():
    """A custom pass that restages ``compressed`` must not inherit its key."""

    class Recompress(Pass):
        name = "recompress"
        requires = ("problem", "ansatz")
        produces = ("compressed",)

        def run(self, context):
            context.compressed = compress_ansatz(
                context.ansatz.program, context.problem.hamiltonian, 1.0
            )

    clear_compile_cache()
    config = PipelineConfig(molecule="H2", ratio=0.5)
    plain = Pipeline(config).run()  # fills every entry keyed for ratio 0.5
    passes = default_passes()
    passes.insert(3, Recompress())
    swapped = Pipeline(config, passes).run()
    direct = Pipeline(config.replace(ratio=1.0)).run()
    assert direct.metrics["total_cnots"] != plain.metrics["total_cnots"]
    assert swapped.metrics["total_cnots"] == direct.metrics["total_cnots"]
    assert swapped.metrics["overhead_cnots"] == direct.metrics["overhead_cnots"]


# ----------------------------------------------------------------------
# Side slot of the cache
# ----------------------------------------------------------------------
class TestSideSlot:
    def test_attach_takes_no_slot_and_counts_nothing(self):
        cache = ContentAddressedCache(max_entries=2)
        value = object()
        cache.put("a", value)
        cache.attach("a", value, "route", ("qubit-bounds",))
        assert cache.attached("a", value, "route") == ("qubit-bounds",)
        assert len(cache) == 1 and cache.stats.lookups == 0

    def test_attach_needs_the_same_value(self):
        cache = ContentAddressedCache(max_entries=2)
        cache.put("a", object())
        other = object()
        cache.attach("a", other, "route", ("qubit-bounds",))
        cache.attach("missing", other, "route", ("qubit-bounds",))
        assert cache.attached("a", other, "route") is None
        assert cache.attached("missing", other, "route") is None

    def test_eviction_replacement_and_clear_drop_side_data(self):
        cache = ContentAddressedCache(max_entries=1)
        value = object()
        cache.put("a", value)
        cache.attach("a", value, "route", ())
        cache.put("b", 2)  # evicts "a"
        cache.put("a", value)
        assert cache.attached("a", value, "route") is None
        cache.attach("a", value, "route", ())
        cache.put("a", value)  # replaced, even by the same object
        assert cache.attached("a", value, "route") is None
        cache.attach("a", value, "route", ())
        cache.clear()
        cache.put("a", value)
        assert cache.attached("a", value, "route") is None


    def test_concurrent_attach_never_mislabels_a_value(self):
        # More threads than cores churning a tiny cache: a verdict read
        # back must always be the one recorded for that very value.
        cache = ContentAddressedCache(max_entries=3)
        keys = [f"k{i}" for i in range(6)]

        def churn(worker):
            wrong = 0
            for step in range(2000):
                key = keys[(worker + step) % len(keys)]
                value = cache.get_or_compute(key, object)
                cache.attach(key, value, "verdict", id(value))
                seen = cache.attached(key, value, "verdict")
                wrong += seen is not None and seen != id(value)
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(churn, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [0] * 8
        assert set(cache._side) <= set(cache._entries)
        assert cache.stats.evictions > 0


# ----------------------------------------------------------------------
# Key completeness: every config field a cached pass reads is in its key
# ----------------------------------------------------------------------
BASE = PipelineConfig(molecule="H2", ratio=0.5, layout="hierarchical")
QAOA = PipelineConfig(problem="maxcut:reg3-6-2", device="grid17")
GHZ = PipelineConfig(problem=f"qasm:{CORPUS / 'ghz_n06.qasm'}", device="grid17")


@pytest.mark.parametrize(
    "base, field, value, changed",
    [
        (BASE, "ratio", 1.0, "compressed"),
        (BASE, "decay_base", 3.0, "compressed"),
        (BASE, "layout", "trivial", "initial_layout"),
        (BASE, "device", "grid17", "initial_layout"),
        (BASE, "compiler", "sabre", "compiled"),
        (BASE.replace(compiler="sabre"), "seed", 5, "compiled"),
        (BASE, "commute", True, "compiled"),
        (QAOA, "qaoa_layers", 2, "ansatz"),
        (GHZ, "problem", f"qasm:{CORPUS / 'ghz_n10.qasm'}", "ansatz"),
    ],
)
def test_entry_key_covers_config_field(base, field, value, changed):
    clear_compile_cache()
    before = staged_keys(base)
    after = staged_keys(base.replace(**{field: value}))
    assert None not in before.values()
    position = STAGED.index(changed)
    for attribute in STAGED[:position]:
        assert after[attribute] == before[attribute], attribute
    for attribute in STAGED[position:]:
        assert after[attribute] != before[attribute], attribute


def test_same_config_on_another_hamiltonian_misses():
    clear_compile_cache()
    first = staged_keys(BASE, build_molecule_hamiltonian("H2", 0.735))
    hits = compile_cache().stats.hits
    second = staged_keys(BASE, build_molecule_hamiltonian("H2", 0.9))
    assert compile_cache().stats.hits == hits
    for attribute in STAGED:
        assert first[attribute] != second[attribute], attribute
