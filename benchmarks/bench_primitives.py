"""Micro-benchmarks of the performance-critical primitives.

These are classic pytest-benchmark timings (many rounds) for the kernels
the experiment harness leans on: Pauli algebra, statevector evolution,
grouped expectation, Merge-to-Root compilation and SABRE routing --
plus the Pauli-program comparison (blocked sweep vs. single-point calls,
adjoint vs. finite-difference gradients) that writes the
``BENCH_sim.json`` artifact -- including the compile-cache cold-vs-warm
row -- the compiler-optimization comparison (adjacency-only vs.
commutation-aware cancellation, ASAP-scheduled depth) that writes
``BENCH_compiler.json``, and the noisy-backend comparison (exact density
matrix vs. stochastic Pauli trajectories, including the first noisy
14-qubit BH3 point) that writes ``BENCH_noise.json``.  Regenerate the
artifacts without pytest via::

    PYTHONPATH=src python benchmarks/bench_primitives.py
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.compiler import (
    MergeToRootCompiler,
    SabreRouter,
    cancel_gates,
    schedule_report,
    synthesize_program_chain,
)
from repro.core import compress_ansatz
from repro.hardware import xtree
from repro.pauli import PauliString
from repro.sim import ExpectationEngine, basis_state
from repro.sim.pauli_evolution import evolve_pauli_sequence
from repro.vqe import AdjointGradient, StatevectorEnergy

BENCH_SIM_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
BENCH_COMPILER_PATH = Path(__file__).resolve().parent.parent / "BENCH_compiler.json"
BENCH_NOISE_PATH = Path(__file__).resolve().parent.parent / "BENCH_noise.json"

#: Every molecule of the paper's Table II.
TABLE2_MOLECULES = ("H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3", "NH3", "CH4")


def test_pauli_compose_speed(benchmark):
    a = PauliString.from_label("XIYZXZIYXIYZXZIY")
    b = PauliString.from_label("ZZXYIIXYZZXYIIXY")
    benchmark(a.compose, b)


def test_ansatz_evolution_speed(benchmark):
    problem = build_molecule_hamiltonian("H2O")
    program = build_uccsd_program(problem).program
    terms = program.bound_terms(np.full(program.num_parameters, 0.05))
    state = basis_state(program.num_qubits, problem.hartree_fock_state_index())
    benchmark(evolve_pauli_sequence, terms, state)


def test_expectation_engine_speed(benchmark):
    problem = build_molecule_hamiltonian("H2O")
    engine = ExpectationEngine(problem.hamiltonian)
    state = basis_state(problem.num_qubits, problem.hartree_fock_state_index())
    benchmark(engine.value, state)


def test_merge_to_root_compile_speed(benchmark):
    problem = build_molecule_hamiltonian("H2O")
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, 0.5).program
    compiler = MergeToRootCompiler(xtree(17))
    benchmark(compiler.compile, compressed)


def test_sabre_routing_speed(benchmark):
    problem = build_molecule_hamiltonian("NaH")
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, 0.5).program
    chain = synthesize_program_chain(compressed, [0.0] * compressed.num_parameters)
    router = SabreRouter(xtree(17))
    benchmark.pedantic(router.run, args=(chain,), iterations=1, rounds=3)


# ----------------------------------------------------------------------
# Pauli-program paths: blocked sweep vs. single-point -> BENCH_sim.json
# ----------------------------------------------------------------------
def _best_of(repeats: int, fn) -> float:
    """Best wall-clock of ``repeats`` runs (cold-cache noise suppressor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _term_by_term_energies(program, hamiltonian, parameter_sets) -> np.ndarray:
    """Reference energies: each point evolved by :func:`evolve_pauli_sequence`."""
    engine = ExpectationEngine(hamiltonian)
    reference = basis_state(
        program.num_qubits, sum(1 << q for q in program.initial_occupations)
    )
    return np.array(
        [
            engine.value(evolve_pauli_sequence(program.bound_terms(theta), reference))
            for theta in parameter_sets
        ]
    )


def collect_sim_engine_timings(
    molecule: str = "H2O", batch_size: int = 24, repeats: int = 3
) -> dict:
    """Time the two Pauli-program paths on the paper-table inner loop.

    The workload is a UCCSD energy sweep over ``batch_size`` parameter
    sets of the 12-qubit ``molecule`` (H2O), evaluated by the blocked
    sweep (:meth:`StatevectorEnergy.values`, cache-sized ``(K, 2**n)``
    blocks) and by K single-point :meth:`StatevectorEnergy.__call__`
    calls.  Also times one full gradient by the adjoint sweep against
    the forward differences (p+1 energy calls) SLSQP builds without it.
    """
    problem = build_molecule_hamiltonian(molecule)
    program = build_uccsd_program(problem).program
    rng = np.random.default_rng(5)
    parameter_sets = rng.normal(0.0, 0.1, (batch_size, program.num_parameters))
    energy = StatevectorEnergy(program, problem.hamiltonian)

    def single_point() -> np.ndarray:
        return np.array([energy(theta) for theta in parameter_sets])

    seconds = {
        "blocked": _best_of(repeats, lambda: energy.values(parameter_sets)),
        "single_point": _best_of(repeats, single_point),
    }
    # Agreement guard: a fast-but-wrong path must not produce a
    # plausible-looking artifact.
    reference = _term_by_term_energies(program, problem.hamiltonian, parameter_sets)
    np.testing.assert_allclose(energy.values(parameter_sets), reference, atol=1e-10)
    np.testing.assert_allclose(single_point(), reference, atol=1e-10)

    theta = parameter_sets[0]
    adjoint = AdjointGradient(program, problem.hamiltonian, energy=energy)
    step = np.sqrt(np.finfo(float).eps)

    def finite_difference() -> np.ndarray:
        base = energy(theta)
        return np.array(
            [(energy(theta + step * unit) - base) / step for unit in np.eye(len(theta))]
        )

    adjoint_seconds = _best_of(1, lambda: adjoint.gradient(theta))
    difference_seconds = _best_of(1, finite_difference)

    return {
        "workload": (
            f"{molecule} UCCSD energy sweep, {batch_size} parameter sets"
        ),
        "molecule": molecule,
        "num_qubits": program.num_qubits,
        "num_parameters": program.num_parameters,
        "num_pauli_strings": len(program.terms),
        "batch_size": batch_size,
        "sweep_seconds": {k: round(v, 6) for k, v in seconds.items()},
        "speedup_blocked_vs_single_point": round(
            seconds["single_point"] / seconds["blocked"], 2
        ),
        "gradient": {
            "finite_difference_seconds": round(difference_seconds, 6),
            "adjoint_seconds": round(adjoint_seconds, 6),
            "speedup_adjoint_vs_finite_difference": round(
                difference_seconds / adjoint_seconds, 2
            ),
        },
    }


def write_bench_sim_artifact(timings: dict, path: Path = BENCH_SIM_PATH) -> Path:
    path.write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return path


def test_sim_engine_speedup_and_artifact():
    """>=2x for the blocked sweep over K single-point calls on the
    12-qubit sweep.

    Plain wall-clock timing (not pytest-benchmark) because the artifact
    records one comparable number per path; writes ``BENCH_sim.json``
    at the repo root for the CI workflow to upload.

    ``BENCH_SIM_MIN_SPEEDUP`` relaxes the gate where wall-clock ratios
    are noisy (shared CI runners set 1.5 -- enough to catch a real
    blocked-sweep regression without flaking on scheduler jitter); the
    local default is 2.0.
    """
    import os

    minimum = float(os.environ.get("BENCH_SIM_MIN_SPEEDUP", "2.0"))
    timings = collect_sim_engine_timings()
    path = write_bench_sim_artifact(timings)
    print()
    print(json.dumps(timings, indent=2, sort_keys=True))
    print(f"wrote {path}")
    assert timings["num_qubits"] == 12
    assert timings["speedup_blocked_vs_single_point"] >= minimum
    assert timings["gradient"]["speedup_adjoint_vs_finite_difference"] > 1.0


# ----------------------------------------------------------------------
# Compile cache -> merged into BENCH_sim.json
# ----------------------------------------------------------------------
#: Least warm-over-cold speedup of one pipeline rerun.
CACHE_MIN_SPEEDUP = 5.0


def collect_compile_cache_timings(molecule: str = "H2O", ratio: float = 0.3) -> dict:
    """Compile-cache timings, merged into ``BENCH_sim.json``.

    ``compile_cache`` -- one co-optimization ``Pipeline`` run cold
    (empty cache) vs. rerun warm, with the cache counters split per
    phase (``cold_hit_rate`` vs. ``warm_hit_rate``) next to the
    aggregate totals.
    """
    from repro.core import Pipeline, PipelineConfig, clear_compile_cache, compile_cache

    clear_compile_cache()
    config = PipelineConfig(molecule=molecule, ratio=ratio)
    cold_seconds = _best_of(1, lambda: Pipeline(config).run())
    cold_stats = compile_cache().stats.to_dict()
    warm_seconds = _best_of(1, lambda: Pipeline(config).run())
    cache_stats = compile_cache().stats.to_dict()
    # Split the counters per phase: totals conflate the cold run's
    # guaranteed misses with the warm rerun's hits, so the aggregate
    # hit_rate under-reports how well the warm path actually caches.
    warm_hits = cache_stats["hits"] - cold_stats["hits"]
    warm_misses = cache_stats["misses"] - cold_stats["misses"]
    warm_lookups = warm_hits + warm_misses
    cache_stats["cold_hit_rate"] = cold_stats["hit_rate"]
    cache_stats["warm_hit_rate"] = (
        round(warm_hits / warm_lookups, 4) if warm_lookups else 0.0
    )
    return {
        "compile_cache": {
            "workload": (
                f"Pipeline({molecule}, ratio={ratio}) cold run vs. warm rerun"
            ),
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "speedup_warm_vs_cold": round(cold_seconds / warm_seconds, 2),
            **cache_stats,
        },
    }


def test_compile_cache_speedup_and_artifact():
    """Warm pipeline rerun >= ``CACHE_MIN_SPEEDUP`` over cold; the row is
    merged into ``BENCH_sim.json``.
    """
    rows = collect_compile_cache_timings()
    merged = json.loads(BENCH_SIM_PATH.read_text()) if BENCH_SIM_PATH.exists() else {}
    merged.update(rows)
    path = write_bench_sim_artifact(merged)
    print()
    print(json.dumps(rows, indent=2, sort_keys=True))
    print(f"wrote {path}")
    assert rows["compile_cache"]["speedup_warm_vs_cold"] >= CACHE_MIN_SPEEDUP
    assert rows["compile_cache"]["hits"] > 0
    assert (
        rows["compile_cache"]["warm_hit_rate"]
        > rows["compile_cache"]["cold_hit_rate"]
    )


# ----------------------------------------------------------------------
# Compiler-optimization comparison -> BENCH_compiler.json
# ----------------------------------------------------------------------
def collect_compiler_optimization_stats(
    molecules: tuple[str, ...] = TABLE2_MOLECULES, ratio: float = 0.3
) -> dict:
    """Adjacency vs. commutation cancellation and scheduled depth per molecule.

    For each Table II molecule: chain-synthesize and Merge-to-Root-compile
    the ratio-compressed UCCSD ansatz on XTree17Q, then record the CNOT
    count after the adjacency-only and the commutation-aware peephole
    passes (on the SWAP-decomposed physical circuit) plus the MtR
    circuit's ASAP-scheduled depth and critical-path duration.
    """
    per_molecule: dict[str, dict] = {}
    for molecule in molecules:
        problem = build_molecule_hamiltonian(molecule)
        program = build_uccsd_program(problem).program
        compressed = compress_ansatz(program, problem.hamiltonian, ratio).program
        chain = synthesize_program_chain(
            compressed, [0.0] * compressed.num_parameters
        )
        compiled = MergeToRootCompiler(xtree(17)).compile(compressed)
        physical = compiled.circuit.decompose_swaps()
        schedule = schedule_report(compiled.circuit)
        per_molecule[molecule] = {
            "num_qubits": compressed.num_qubits,
            "chain_cnots": chain.num_cnots(),
            "chain_cnots_adjacency": cancel_gates(chain).num_cnots(),
            "chain_cnots_commute": cancel_gates(chain, commute=True).num_cnots(),
            "mtr_cnots": physical.num_cnots(),
            "mtr_cnots_adjacency": cancel_gates(physical).num_cnots(),
            "mtr_cnots_commute": cancel_gates(physical, commute=True).num_cnots(),
            "mtr_scheduled_depth": schedule.scheduled_depth,
            "mtr_duration_ns": schedule.duration_ns,
        }
    strict_wins = sorted(
        molecule
        for molecule, row in per_molecule.items()
        if row["mtr_cnots_commute"] < row["mtr_cnots_adjacency"]
        or row["chain_cnots_commute"] < row["chain_cnots_adjacency"]
    )
    return {
        "workload": (
            f"Table II molecules, ratio-{ratio} compressed UCCSD on XTree17Q"
        ),
        "ratio": ratio,
        "device": "XTree17Q",
        "molecules": per_molecule,
        "commute_strict_win_molecules": strict_wins,
    }


def write_bench_compiler_artifact(stats: dict, path: Path = BENCH_COMPILER_PATH) -> Path:
    path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return path


def test_commutation_cancellation_dominates_adjacency():
    """ISSUE-4 acceptance: the commutation-aware pass removes at least as
    many CNOTs as the adjacency pass on every Table II molecule, and
    strictly more on at least one; writes ``BENCH_compiler.json``.
    """
    stats = collect_compiler_optimization_stats(TABLE2_MOLECULES)
    path = write_bench_compiler_artifact(stats)
    print()
    print(json.dumps(stats, indent=2, sort_keys=True))
    print(f"wrote {path}")
    for molecule, row in stats["molecules"].items():
        assert row["chain_cnots_commute"] <= row["chain_cnots_adjacency"], molecule
        assert row["mtr_cnots_commute"] <= row["mtr_cnots_adjacency"], molecule
        assert row["mtr_scheduled_depth"] > 0, molecule
    assert stats["commute_strict_win_molecules"], "no molecule improved"


# ----------------------------------------------------------------------
# Noisy-backend comparison -> BENCH_noise.json
# ----------------------------------------------------------------------
def collect_noise_backend_stats(
    trajectories: int = 512,
    seed: int = 29,
    ratio: float = 0.3,
    cnot_error: float = 1e-4,
    bh3_trajectories: int = 128,
    bh3_ratio: float = 0.1,
) -> dict:
    """Density-matrix vs. Pauli-trajectory noisy energies (ISSUE-5).

    On LiH and NaH (where the exact O(4^n) density matrix still runs)
    the trajectory engine must agree within 3 standard errors at
    ``trajectories`` samples, and the artifact records the wall-clock
    ratio.  BH3 (14 qubits) exceeds the density-matrix simulator's
    12-qubit cap, so its noisy bond point -- noiseless-optimized
    parameters evaluated under the paper's depolarizing channel -- is
    recorded by the trajectory engine alone: the first noisy >12-qubit
    number this repo can produce.
    """
    from repro.sim.noise import DepolarizingNoiseModel
    from repro.vqe import VQE
    from repro.vqe.energy import DensityMatrixEnergy, TrajectoryEnergy

    noise = DepolarizingNoiseModel(two_qubit_error=cnot_error)
    per_molecule: dict[str, dict] = {}
    for molecule in ("LiH", "NaH"):
        problem = build_molecule_hamiltonian(molecule)
        program = build_uccsd_program(problem).program
        compressed = compress_ansatz(program, problem.hamiltonian, ratio).program
        theta = np.random.default_rng(seed).normal(0.0, 0.05, compressed.num_parameters)
        dm = DensityMatrixEnergy(compressed, problem.hamiltonian, noise)
        start = time.perf_counter()
        dm_energy = dm(theta)
        dm_seconds = time.perf_counter() - start
        trajectory = TrajectoryEnergy(
            compressed, problem.hamiltonian, noise,
            trajectories=trajectories, seed=seed,
        )
        start = time.perf_counter()
        trajectory_energy = trajectory(theta)
        trajectory_seconds = time.perf_counter() - start
        standard_error = trajectory.last_standard_error
        per_molecule[molecule] = {
            "num_qubits": compressed.num_qubits,
            "num_parameters": compressed.num_parameters,
            "chain_cnots": compressed.cnot_count(),
            "density_matrix_energy": dm_energy,
            "density_matrix_seconds": round(dm_seconds, 6),
            "trajectory_energy": trajectory_energy,
            "trajectory_standard_error": standard_error,
            "trajectory_error_events": trajectory.last_error_events,
            "trajectory_seconds": round(trajectory_seconds, 6),
            "speedup_trajectory_vs_density_matrix": round(
                dm_seconds / trajectory_seconds, 2
            ),
            "sigmas_off": round(
                abs(trajectory_energy - dm_energy) / standard_error, 3
            ),
            "agrees_within_3_sigma": bool(
                abs(trajectory_energy - dm_energy) <= 3.0 * standard_error
            ),
        }

    # BH3: 14 qubits -- impossible on the density-matrix backend.  The
    # bond point is the noiseless VQE optimum (statevector, so adjoint
    # gradients) re-evaluated under the depolarizing channel.
    problem = build_molecule_hamiltonian("BH3")
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, bh3_ratio).program
    start = time.perf_counter()
    noiseless = VQE(compressed, problem.hamiltonian, max_iterations=30).run()
    optimize_seconds = time.perf_counter() - start
    trajectory = TrajectoryEnergy(
        compressed, problem.hamiltonian, noise,
        trajectories=bh3_trajectories, seed=seed,
    )
    start = time.perf_counter()
    noisy_energy = trajectory(noiseless.parameters)
    trajectory_seconds = time.perf_counter() - start
    bh3 = {
        "num_qubits": compressed.num_qubits,
        "num_parameters": compressed.num_parameters,
        "chain_cnots": compressed.cnot_count(),
        "bond_length": float(problem.molecule.bond_length),
        "trajectories": bh3_trajectories,
        "noiseless_energy": float(noiseless.energy),
        "noiseless_optimize_seconds": round(optimize_seconds, 6),
        "trajectory_energy": noisy_energy,
        "trajectory_standard_error": trajectory.last_standard_error,
        "trajectory_error_events": trajectory.last_error_events,
        "trajectory_seconds": round(trajectory_seconds, 6),
        "noise_penalty": noisy_energy - float(noiseless.energy),
        "density_matrix": (
            "impossible: O(4^n) propagation, simulator capped at 12 qubits"
        ),
    }

    return {
        "workload": (
            f"noisy energy, ratio-{ratio} compressed UCCSD, depolarizing "
            f"CNOT error {cnot_error}, {trajectories} trajectories"
        ),
        "cnot_error": cnot_error,
        "trajectories": trajectories,
        "seed": seed,
        "molecules": per_molecule,
        "BH3": bh3,
    }


def write_bench_noise_artifact(stats: dict, path: Path = BENCH_NOISE_PATH) -> Path:
    path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return path


def test_noise_backend_agreement_and_artifact():
    """ISSUE-5 acceptance: the trajectory engine matches the exact
    density matrix within 3 standard errors at K=512 on LiH (and NaH),
    and completes a noisy 14-qubit BH3 bond point the density-matrix
    backend cannot; writes ``BENCH_noise.json``.
    """
    stats = collect_noise_backend_stats()
    path = write_bench_noise_artifact(stats)
    print()
    print(json.dumps(stats, indent=2, sort_keys=True))
    print(f"wrote {path}")
    for molecule, row in stats["molecules"].items():
        assert row["trajectory_standard_error"] > 0.0, molecule
        assert row["agrees_within_3_sigma"], (molecule, row["sigmas_off"])
    bh3 = stats["BH3"]
    assert bh3["num_qubits"] == 14
    assert np.isfinite(bh3["trajectory_energy"])
    assert bh3["trajectory_standard_error"] > 0.0
    assert bh3["trajectory_error_events"] > 0


def test_hamiltonian_construction_speed(benchmark):
    """Full substrate pipeline timing (integrals + SCF + JW), uncached."""
    from repro.chem.hamiltonian import _build_cached

    def build():
        _build_cached.cache_clear()
        return _build_cached("LiH", 15950)

    benchmark.pedantic(build, iterations=1, rounds=3)


if __name__ == "__main__":
    sim_rows = collect_sim_engine_timings()
    sim_rows.update(collect_compile_cache_timings())
    artifact = write_bench_sim_artifact(sim_rows)
    print(json.dumps(json.loads(artifact.read_text()), indent=2, sort_keys=True))
    print(f"wrote {artifact}")
    compiler_artifact = write_bench_compiler_artifact(
        collect_compiler_optimization_stats()
    )
    print(json.dumps(json.loads(compiler_artifact.read_text()), indent=2, sort_keys=True))
    print(f"wrote {compiler_artifact}")
    noise_artifact = write_bench_noise_artifact(collect_noise_backend_stats())
    print(json.dumps(json.loads(noise_artifact.read_text()), indent=2, sort_keys=True))
    print(f"wrote {noise_artifact}")
