"""Tests for the content-addressed compile cache, the dense-unitary
kernel and chain-synthesis exactness on the Table II molecules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import embed
import importance_oracle
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, H, RZ, Gate, X
from repro.compiler import synthesize_program_chain
from repro.core import compress_ansatz
from repro.core.cache import (
    CacheStats,
    ContentAddressedCache,
    circuit_key,
    clear_compile_cache,
    compile_cache,
    coupling_key,
    pauli_sum_key,
    program_key,
)
from repro.ansatz import build_uccsd_program
from repro.sim.statevector import apply_circuit, apply_unitary_inplace
from repro.vqe.energy import StatevectorEnergy

TABLE2_MOLECULES = ("H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3", "NH3", "CH4")


class TestDenseUnitaryKernel:
    @settings(max_examples=30, deadline=None)
    @given(
        qubits=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda ab: ab[0] != ab[1]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_legacy_two_qubit_contraction(self, qubits, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = embed(matrix, qubits, 4) @ state
        actual = apply_unitary_inplace(state.copy(), matrix, qubits, 4)
        assert np.max(np.abs(actual - expected)) < 1e-12

    def test_rejects_non_contiguous_buffers(self):
        state = np.zeros((4, 4), dtype=complex)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            apply_unitary_inplace(state, np.eye(2, dtype=complex), (0,), 1)


@pytest.mark.parametrize("molecule", TABLE2_MOLECULES)
def test_chain_synthesis_exact_on_table2_molecule(molecule):
    """The chain-synthesized circuit, run gate by gate, reproduces the
    Pauli-level state and energy (the chain includes the Hartree-Fock X
    gates)."""
    problem = build_molecule_hamiltonian(molecule)
    program = compress_ansatz(
        build_uccsd_program(problem).program, problem.hamiltonian, 0.15
    ).program
    rng = np.random.default_rng(7)
    theta = rng.normal(scale=0.1, size=program.num_parameters)
    exact = StatevectorEnergy(program, problem.hamiltonian)
    state = apply_circuit(synthesize_program_chain(program, theta))
    assert np.max(np.abs(state - exact.state(theta))) < 1e-10
    assert abs(exact.engine.value(state) - exact(theta)) < 1e-10


class TestCanonicalHashes:
    def test_same_content_same_key(self):
        a = Circuit(2, [H(0), RZ(0.5, 1), CNOT(0, 1)])
        b = Circuit(2, [H(0), RZ(0.5, 1), CNOT(0, 1)])
        assert a is not b
        assert circuit_key(a) == circuit_key(b)

    def test_gate_kind_change_misses(self):
        base = Circuit(2, [H(0), CNOT(0, 1)])
        assert circuit_key(base) != circuit_key(Circuit(2, [X(0), CNOT(0, 1)]))

    def test_qubit_change_misses(self):
        base = Circuit(3, [H(0), CNOT(0, 1)])
        assert circuit_key(base) != circuit_key(Circuit(3, [H(0), CNOT(0, 2)]))
        # reversed qubit listing is a different circuit, not the same key
        assert circuit_key(base) != circuit_key(Circuit(3, [H(0), CNOT(1, 0)]))

    def test_angle_change_misses(self):
        a = Circuit(1, [RZ(0.1, 0)])
        b = Circuit(1, [RZ(0.2, 0)])
        assert circuit_key(a) != circuit_key(b)

    def test_packed_gate_buffers_keep_gate_boundaries(self):
        # Names, qubits and angles are hashed as concatenated buffers;
        # moving a boundary between gates must still change the key.
        def key_pair(a, b, num_qubits=3):
            return circuit_key(Circuit(num_qubits, a)), circuit_key(Circuit(num_qubits, b))

        qubits = key_pair(
            [Gate("barrier", (0, 1)), Gate("barrier", (2,))],
            [Gate("barrier", (0,)), Gate("barrier", (1, 2))],
        )
        names = key_pair([Gate("s", (0,)), Gate("x", (0,))], [Gate("sx", (0,)), Gate("", (0,))])
        angles = key_pair(
            [Gate("u", (0,), (0.1, 0.2)), Gate("u", (0,), ())],
            [Gate("u", (0,), (0.1,)), Gate("u", (0,), (0.2,))],
        )
        for first, second in (qubits, names, angles):
            assert first != second

    def test_program_and_pauli_sum_keys_deterministic(self):
        problem_a = build_molecule_hamiltonian("H2")
        program_a = build_uccsd_program(problem_a).program
        problem_b = build_molecule_hamiltonian("H2")
        program_b = build_uccsd_program(problem_b).program
        assert pauli_sum_key(problem_a.hamiltonian) == pauli_sum_key(
            problem_b.hamiltonian
        )
        assert program_key(program_a) == program_key(program_b)
        lih = build_molecule_hamiltonian("LiH")
        assert pauli_sum_key(problem_a.hamiltonian) != pauli_sum_key(lih.hamiltonian)

    def test_coupling_key_tracks_edges(self):
        from repro.hardware import xtree

        assert coupling_key(xtree(9)) == coupling_key(xtree(9))
        assert coupling_key(xtree(9)) != coupling_key(xtree(13))


class TestContentAddressedCache:
    def test_get_or_compute_hits_after_miss(self):
        cache = ContentAddressedCache(max_entries=4, name="test")
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert value == "v" and cache.stats.misses == 1
        assert cache.get_or_compute("k", lambda: calls.append(1) or "w") == "v"
        assert cache.stats.hits == 1 and len(calls) == 1

    def test_lru_eviction_counts(self):
        cache = ContentAddressedCache(max_entries=2, name="test")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_clear_resets_stats(self):
        cache = ContentAddressedCache(max_entries=2, name="test")
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.stats == CacheStats()

    def test_stats_dict_shape(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.to_dict() == {
            "hits": 3,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.75,
        }


class TestPipelineCaching:
    def test_warm_rerun_hits_and_matches(self):
        from repro.core import Pipeline, PipelineConfig

        clear_compile_cache()
        config = PipelineConfig(molecule="H2", ratio=0.5)
        cold = Pipeline(config).run()
        assert compile_cache().stats.hits == 0
        warm = Pipeline(config).run()
        assert compile_cache().stats.hits > 0
        assert cold.metrics == warm.metrics

    def test_config_from_dict_accepts_new_knobs(self):
        from repro.core import PipelineConfig

        # ``fusion`` and ``cache`` are retired fields: the keys are
        # dropped on load.
        config = PipelineConfig.from_dict(
            {"molecule": "H2", "fusion": "1q", "cache": False}
        )
        assert config == PipelineConfig(molecule="H2")


class TestImportanceMemo:
    def test_scores_memoized_across_calls(self):
        import repro.core.importance as importance

        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        first = importance.parameter_importance(program, problem.hamiltonian)
        memo = importance._SCORE_MEMOS
        hits_before = memo.stats.hits
        second = importance.parameter_importance(program, problem.hamiltonian)
        assert memo.stats.hits > hits_before  # the per-Hamiltonian memo hit
        np.testing.assert_allclose(first, second, rtol=0, atol=0)
        want = importance_oracle.parameter_importance(program, problem.hamiltonian)
        assert np.array_equal(second, want)

    def test_only_missing_strings_are_scored(self, monkeypatch):
        import repro.core.importance as importance

        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        scored = []
        real = importance._string_scores

        def recording(keys, *args):
            scored.append(sorted(keys))
            return real(keys, *args)

        monkeypatch.setattr(importance, "_string_scores", recording)
        monkeypatch.setattr(importance, "_SCORE_MEMOS", None)
        half = program.restricted_to(list(range(4)))
        importance.parameter_importance(half, problem.hamiltonian, decay_base=3.0)
        full = importance.parameter_importance(program, problem.hamiltonian, decay_base=3.0)
        importance.parameter_importance(program, problem.hamiltonian, decay_base=3.0)
        all_keys = {term.pauli.key() for term in program}
        half_keys = {term.pauli.key() for term in half}
        # One batch per call with misses; the warm call scores nothing.
        assert scored == [sorted(half_keys), sorted(all_keys - half_keys)]
        want = importance_oracle.parameter_importance(
            program, problem.hamiltonian, decay_base=3.0
        )
        assert np.array_equal(full, want)

    def test_decay_base_keys_are_isolated(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        from repro.core.importance import parameter_importance

        default = parameter_importance(program, problem.hamiltonian)
        steeper = parameter_importance(program, problem.hamiltonian, decay_base=4.0)
        assert not np.allclose(default, steeper)
