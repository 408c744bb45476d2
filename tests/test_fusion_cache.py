"""Tests for gate fusion and the content-addressed compile cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_apply, embed
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, CZ, H, RX, RY, RZ, SWAP, Barrier, Gate, S, X, Y, Z
from repro.compiler import synthesize_program_chain
from repro.compiler.fusion import (
    FUSION_LEVELS,
    build_fusion_plan,
    check_fusion_level,
    fuse_circuit,
    fusion_plan,
)
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
from repro.sim import BatchedStatevector, StatevectorSimulator
from repro.sim.statevector import apply_circuit, apply_unitary_inplace, basis_state

TABLE2_MOLECULES = ("H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3", "NH3", "CH4")


# ----------------------------------------------------------------------
# Random-circuit strategies
# ----------------------------------------------------------------------
def _gate(num_qubits: int):
    angles = st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    )
    qubit = st.integers(0, num_qubits - 1)
    one_q = st.one_of(
        st.builds(H, qubit),
        st.builds(X, qubit),
        st.builds(Y, qubit),
        st.builds(Z, qubit),
        st.builds(S, qubit),
        st.builds(RX, angles, qubit),
        st.builds(RY, angles, qubit),
        st.builds(RZ, angles, qubit),
    )
    pair = st.tuples(qubit, qubit).filter(lambda ab: ab[0] != ab[1])
    two_q = pair.flatmap(
        lambda ab: st.sampled_from(
            [CNOT(ab[0], ab[1]), CZ(ab[0], ab[1]), SWAP(ab[0], ab[1])]
        )
    )
    return st.one_of(one_q, one_q, two_q, st.just(Barrier()))


def circuits(num_qubits: int, max_gates: int = 30):
    return st.builds(
        lambda gates: Circuit(num_qubits, gates),
        st.lists(_gate(num_qubits), min_size=0, max_size=max_gates),
    )


class TestFusionEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(circuit=circuits(4))
    def test_fusion_preserves_statevector(self, circuit):
        reference = dense_apply(circuit)
        for level in FUSION_LEVELS:
            program = fuse_circuit(circuit, level=level, cache=False)
            state = program.apply(basis_state(circuit.num_qubits))
            assert np.max(np.abs(state - reference)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(circuit=circuits(3), data=st.data())
    def test_bind_sweep_matches_per_row_binding(self, circuit, data):
        rotations = [
            i for i, g in enumerate(circuit.gates) if g.name in ("rx", "ry", "rz")
        ]
        rows = 3
        overridden = data.draw(
            st.lists(st.sampled_from(rotations), unique=True)
            if rotations
            else st.just([])
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        overrides = {i: rng.normal(size=rows) for i in overridden}
        plan = build_fusion_plan(circuit, "2q")
        stack = np.zeros((rows, 1 << circuit.num_qubits), dtype=complex)
        stack[:, 0] = 1.0
        plan.bind_sweep(circuit, overrides).apply(stack)
        for k in range(rows):
            gates = [
                g if i not in overrides
                else type(g)(g.name, g.qubits, (float(overrides[i][k]),))
                for i, g in enumerate(circuit.gates)
            ]
            reference = dense_apply(Circuit(circuit.num_qubits, gates))
            assert np.max(np.abs(stack[k] - reference)) < 1e-10

    def test_single_gate_blocks_stay_passthrough(self):
        circuit = Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2), CNOT(0, 1)])
        plan = build_fusion_plan(circuit, "2q")
        # H(0) and the first CNOT fuse; the ladder CNOTs conflict and
        # must remain passthrough single gates.
        assert plan.source_gates == 4
        passthrough = [op for op in plan.ops if not op.dense]
        assert all(len(op.indices) == 1 for op in passthrough)

    def test_same_pair_run_fuses_to_one_block(self):
        circuit = Circuit(2, [CNOT(0, 1), RZ(0.7, 1), CNOT(0, 1), H(0)])
        plan = build_fusion_plan(circuit, "2q")
        assert len(plan.ops) == 1 and plan.ops[0].dense
        program = plan.bind(circuit)
        state = program.apply(basis_state(2))
        assert np.max(np.abs(state - dense_apply(circuit))) < 1e-12

    def test_level_1q_merges_only_single_qubit_runs(self):
        circuit = Circuit(2, [H(0), S(0), RZ(0.3, 0), CNOT(0, 1), H(1), H(1)])
        plan = build_fusion_plan(circuit, "1q")
        dense = [op for op in plan.ops if op.dense]
        assert all(len(op.qubits) == 1 for op in dense)
        assert len(dense) == 2  # the 3-gate run on q0 and the HH run on q1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="fusion level"):
            check_fusion_level("3q")
        with pytest.raises(ValueError, match="fusion level"):
            build_fusion_plan(Circuit(1, [H(0)]), "everything")


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

    def test_per_row_matrices_require_matching_stack(self):
        stack = np.zeros((3, 4), dtype=complex)
        matrices = np.tile(np.eye(2, dtype=complex), (2, 1, 1))
        with pytest.raises(ValueError, match="matching"):
            apply_unitary_inplace(stack, matrices, (0,), 2)

    def test_rejects_non_contiguous_buffers(self):
        state = np.zeros((4, 4), dtype=complex)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            apply_unitary_inplace(state, np.eye(2, dtype=complex), (0,), 1)


@pytest.mark.parametrize("molecule", TABLE2_MOLECULES)
def test_fusion_exact_on_table2_molecule(molecule):
    """The fused synthesized circuit reproduces the Pauli-level state
    unitary-exactly (the chain includes the Hartree-Fock X gates)."""
    problem = build_molecule_hamiltonian(molecule)
    program = compress_ansatz(
        build_uccsd_program(problem).program, problem.hamiltonian, 0.15
    ).program
    rng = np.random.default_rng(7)
    theta = rng.normal(scale=0.1, size=program.num_parameters)
    from repro.vqe.energy import StatevectorEnergy

    exact = StatevectorEnergy(program, problem.hamiltonian)
    fused = fuse_circuit(synthesize_program_chain(program, theta))
    state_fused = fused.apply(basis_state(program.num_qubits))
    assert np.max(np.abs(state_fused - exact.state(theta))) < 1e-10
    assert abs(exact.engine.value(state_fused) - exact(theta)) < 1e-10


class TestFusedEngineRegistration:
    """``fuse_circuit(circuit).apply(state)`` is the explicit fusion call
    on each circuit entry point; it must match the gate-by-gate run."""

    def test_simulator_fused_engine_matches_legacy(self):
        circuit = Circuit(3, [H(0), CNOT(0, 1), RZ(0.4, 1), CNOT(1, 2), RX(0.9, 2)])
        simulator = StatevectorSimulator(3)
        actual = fuse_circuit(circuit).apply(simulator.state)
        assert np.max(np.abs(actual - dense_apply(circuit))) < 1e-12
        assert np.max(np.abs(actual - StatevectorSimulator(3).run(circuit))) < 1e-12

    def test_batched_fused_engine_matches_inplace(self):
        circuit = Circuit(2, [H(0), CNOT(0, 1), RZ(0.3, 1)])
        plain = BatchedStatevector(2, 3).apply_circuit(circuit)
        fused = BatchedStatevector(2, 3)
        fuse_circuit(circuit).apply(fused.states)
        assert np.max(np.abs(plain.states - fused.states)) < 1e-12

    def test_apply_circuit_fused_engine(self):
        circuit = Circuit(2, [H(0), CNOT(0, 1)])
        expected = apply_circuit(circuit)
        actual = fuse_circuit(circuit).apply(basis_state(2))
        assert np.max(np.abs(actual - expected)) < 1e-12


class TestCanonicalHashes:
    def test_same_content_same_key(self):
        a = Circuit(2, [H(0), RZ(0.5, 1), CNOT(0, 1)])
        b = Circuit(2, [H(0), RZ(0.5, 1), CNOT(0, 1)])
        assert a is not b
        assert circuit_key(a) == circuit_key(b)
        assert circuit_key(a, values=False) == circuit_key(b, values=False)

    def test_gate_kind_change_misses(self):
        base = Circuit(2, [H(0), CNOT(0, 1)])
        assert circuit_key(base) != circuit_key(Circuit(2, [X(0), CNOT(0, 1)]))

    def test_qubit_change_misses(self):
        base = Circuit(3, [H(0), CNOT(0, 1)])
        assert circuit_key(base) != circuit_key(Circuit(3, [H(0), CNOT(0, 2)]))
        # reversed qubit listing is a different circuit, not the same key
        assert circuit_key(base) != circuit_key(Circuit(3, [H(0), CNOT(1, 0)]))

    def test_value_key_sees_angles_structural_key_does_not(self):
        a = Circuit(1, [RZ(0.1, 0)])
        b = Circuit(1, [RZ(0.2, 0)])
        assert circuit_key(a) != circuit_key(b)
        assert circuit_key(a, values=False) == circuit_key(b, values=False)

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


class TestFusionCaching:
    def test_same_circuit_hits_plan_and_program(self):
        cache = ContentAddressedCache(max_entries=8, name="test")
        circuit = Circuit(2, [H(0), RZ(0.5, 0), CNOT(0, 1)])
        fuse_circuit(circuit, cache=cache)
        assert cache.stats.misses == 2  # plan miss + bound-program miss
        fuse_circuit(Circuit(2, [H(0), RZ(0.5, 0), CNOT(0, 1)]), cache=cache)
        assert cache.stats.hits == 2  # plan hit + bound-program hit
        assert cache.stats.misses == 2

    def test_value_change_reuses_plan_but_rebinds(self):
        cache = ContentAddressedCache(max_entries=8, name="test")
        plan_a = fusion_plan(Circuit(1, [RZ(0.1, 0)]), cache=cache)
        plan_b = fusion_plan(Circuit(1, [RZ(0.2, 0)]), cache=cache)
        assert plan_a is plan_b  # structural key ignores the angle
        fuse_circuit(Circuit(1, [RZ(0.1, 0)]), cache=cache)
        misses = cache.stats.misses
        fuse_circuit(Circuit(1, [RZ(0.2, 0)]), cache=cache)
        assert cache.stats.misses == misses + 1  # new angle -> program miss

    def test_structure_change_misses_plan(self):
        cache = ContentAddressedCache(max_entries=8, name="test")
        fusion_plan(Circuit(2, [H(0), CNOT(0, 1)]), cache=cache)
        fusion_plan(Circuit(2, [H(1), CNOT(0, 1)]), cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 2

    def test_cached_plans_isolated_by_level(self):
        cache = ContentAddressedCache(max_entries=8, name="test")
        circuit = Circuit(2, [H(0), H(0), CNOT(0, 1)])
        plan_1q = fusion_plan(circuit, level="1q", cache=cache)
        plan_2q = fusion_plan(circuit, level="2q", cache=cache)
        assert plan_1q is not plan_2q


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

    def test_cache_off_still_runs(self):
        from repro.core import Pipeline, PipelineConfig

        clear_compile_cache()
        config = PipelineConfig(molecule="H2", ratio=0.5, cache=False)
        result = Pipeline(config).run()
        assert compile_cache().stats.lookups == 0
        assert "total_cnots" in result.metrics

    def test_config_from_dict_accepts_new_knobs(self):
        from repro.core import PipelineConfig

        # ``fusion`` is a retired field: the key is dropped on load.
        config = PipelineConfig.from_dict(
            {"molecule": "H2", "fusion": "1q", "cache": False}
        )
        assert config == PipelineConfig(molecule="H2", cache=False)


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

    def test_decay_base_keys_are_isolated(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        from repro.core.importance import parameter_importance

        default = parameter_importance(program, problem.hamiltonian)
        steeper = parameter_importance(program, problem.hamiltonian, decay_base=4.0)
        assert not np.allclose(default, steeper)


class TestFusedVQE:
    def test_sweep_energies_fused_matches_batched(self):
        """A fused gate-level sweep (one chain template, per-row RZ
        overrides) matches the Pauli-level blocked sweep."""
        from repro.compiler.synthesis import synthesize_program_chain_with_positions
        from repro.sim import ExpectationEngine
        from repro.vqe import sweep_energies

        problem = build_molecule_hamiltonian("LiH")
        program = compress_ansatz(
            build_uccsd_program(problem).program, problem.hamiltonian, 0.3
        ).program
        rng = np.random.default_rng(11)
        thetas = rng.normal(scale=0.1, size=(6, program.num_parameters))
        template, positions = synthesize_program_chain_with_positions(
            program, np.zeros(program.num_parameters)
        )
        bound = program.bound_angles(thetas)
        # Chain synthesis realizes exp(i a P) with RZ(-2a) on the root.
        overrides = {
            position: -2.0 * bound[:, term]
            for term, position in enumerate(positions)
            if position is not None
        }
        stack = np.zeros((len(thetas), 1 << program.num_qubits), dtype=complex)
        stack[:, 0] = 1.0
        fusion_plan(template).bind_sweep(template, overrides).apply(stack)
        fused = ExpectationEngine(problem.hamiltonian).values(stack)
        batched = sweep_energies(program, problem.hamiltonian, thetas)
        np.testing.assert_allclose(fused, batched, atol=1e-10)
