"""Differential testing of both compiler flows over the QASM corpus.

Every committed corpus circuit is compiled by both flows (Merge-to-Root
spanning-tree mode and SABRE) under every knob combination the issue
names -- ``commute`` on and off -- and each configuration must
reproduce the logical circuit's statevector exactly (up to global
phase) through the final layout.  The two flows are thereby checked
against each other *and* against the gate-level reference simulator.

Compilation results are memoized per (circuit, compiler, commute) so
the sanitizer / cancellation variants reuse one routed
circuit instead of recompiling.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

import repro.analysis as analysis
from repro.bench.corpus import CORPUS_COMPILERS, corpus_devices, load_corpus
from repro.compiler import (
    assert_circuit_routed_equivalent,
    cancel_gates,
    get_compiler,
)
from repro.core import Pipeline, PipelineConfig
from repro.hardware import get_device
from repro.sim import apply_circuit, apply_circuit_inplace, basis_state

CORPUS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
ENTRIES = load_corpus(CORPUS_DIR)
NAMES = [name for name, _ in ENTRIES]
CIRCUITS = dict(ENTRIES)

COMMUTE_MODES = (False, True)
FUSION_LEVELS = ("off",)


def test_corpus_is_present_and_large_enough():
    assert len(ENTRIES) >= 24, f"corpus too small: {len(ENTRIES)} circuits"


@functools.lru_cache(maxsize=None)
def compiled(name: str, compiler: str, commute: bool):
    """Route one corpus circuit on its exact-fit XTree device."""
    circuit = CIRCUITS[name]
    device_name = corpus_devices(circuit.num_qubits)[0]
    device = get_device(device_name)
    result = get_compiler(compiler).compile_circuit(
        circuit, device, commute=commute
    )
    return result, device


@pytest.mark.parametrize("commute", COMMUTE_MODES, ids=["commute0", "commute1"])
@pytest.mark.parametrize("compiler", CORPUS_COMPILERS)
@pytest.mark.parametrize("name", NAMES)
def test_routed_equivalence(name, compiler, commute):
    """Both flows must preserve the logical unitary on every circuit."""
    result, _ = compiled(name, compiler, commute)
    assert_circuit_routed_equivalent(CIRCUITS[name], result)


@pytest.mark.parametrize("level", FUSION_LEVELS)
@pytest.mark.parametrize("compiler", CORPUS_COMPILERS)
@pytest.mark.parametrize("name", NAMES)
def test_fusion_preserves_routed_state(name, compiler, level):
    """The routed circuit run unfused (``off``: one kernel call per gate)
    on a two-row batch must match :func:`apply_circuit` on every row."""
    result, _ = compiled(name, compiler, False)
    routed = result.circuit.decompose_swaps()
    batch = np.stack([basis_state(routed.num_qubits, 0)] * 2)
    reference = apply_circuit(routed)
    for state in apply_circuit_inplace(routed, batch):
        assert abs(abs(np.vdot(reference, state)) - 1.0) < 1e-8


@pytest.mark.parametrize("compiler", CORPUS_COMPILERS)
@pytest.mark.parametrize("name", NAMES)
def test_sanitizer_clean(name, compiler):
    """Every routed result passes the full static check registry."""
    result, device = compiled(name, compiler, False)
    report = analysis.check(result, device=device, subject=f"{name}/{compiler}")
    assert report.ok, report.to_dict()


@pytest.mark.parametrize("compiler", CORPUS_COMPILERS)
@pytest.mark.parametrize("name", NAMES)
def test_commute_cancellation_stays_equivalent(name, compiler):
    """Commutation-aware cancellation of the routed circuit is safe."""
    result, _ = compiled(name, compiler, False)
    routed = result.circuit.decompose_swaps()
    optimized = cancel_gates(routed, commute=True, max_passes=routed.num_gates() + 2)
    assert optimized.num_cnots() <= routed.num_cnots()
    assert_circuit_routed_equivalent(CIRCUITS[name], result, circuit=optimized)


@pytest.mark.parametrize("compiler", CORPUS_COMPILERS)
@pytest.mark.parametrize(
    "name", [n for n in NAMES if "_n06" in n or "2bit" in n]
)
def test_compile_cache_hit_determinism(name, compiler):
    """Warm pipeline runs must hit the compile cache and agree exactly."""
    from repro.core.cache import clear_compile_cache, compile_cache

    config = PipelineConfig(
        problem=f"qasm:{CORPUS_DIR / f'{name}.qasm'}",
        device=corpus_devices(CIRCUITS[name].num_qubits)[0],
        compiler=compiler,
    )
    clear_compile_cache()
    cold = Pipeline(config).run()
    cold_hits = compile_cache().stats.hits
    cold_misses = compile_cache().stats.misses
    warm = Pipeline(config).run()
    assert compile_cache().stats.hits > cold_hits
    assert compile_cache().stats.misses == cold_misses
    assert cold.metrics == warm.metrics
