"""Warm bond scans: each point runs through the pipeline's cached stages.

A repeated ``bond_scan`` must return the same points bit for bit while
building no ansatz, no compression and no sector block: those, the
statevector plan and the exact energy are compile-cache entries, and
only the optimizer runs again.
"""

from collections import Counter

import numpy as np
import pytest

import repro.ansatz.uccsd as uccsd_module
import repro.core.passes as passes_module
import repro.sim.exact as exact_module
import repro.vqe.energy as energy_module
import repro.vqe.scan as scan_module
from repro.ansatz.uccsd import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.core.cache import clear_compile_cache, compile_cache, program_key
from repro.core.compression import random_ansatz
from repro.core.passes import (
    BuildAnsatz,
    BuildProblem,
    Compress,
    Energy,
    PipelineConfig,
)
from repro.core.pipeline import Pipeline
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.energy import StatevectorEnergy, statevector_plan
from repro.vqe.runner import VQE
from repro.vqe.scan import bond_scan, exact_energy

NOISE = DepolarizingNoiseModel(two_qubit_error=1e-2)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


@pytest.fixture
def calls(monkeypatch):
    """Count the builds a warm scan point must not repeat."""
    counts = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        uccsd_module,
        "build_uccsd_program",
        counting("ansatz", uccsd_module.build_uccsd_program),
    )
    monkeypatch.setattr(
        passes_module,
        "compress_ansatz",
        counting("compress", passes_module.compress_ansatz),
    )
    for module in (exact_module, energy_module, scan_module):
        monkeypatch.setattr(
            module,
            "restricted_matrix",
            counting("block", module.restricted_matrix),
        )
    return counts


@pytest.mark.parametrize(
    "options",
    [{}, {"backend": "density_matrix", "noise": NOISE}],
    ids=["statevector", "density_matrix"],
)
def test_second_scan_is_bit_identical(options):
    def scan():
        return bond_scan(
            "H2", [0.6, 0.735], ["full", "50%", "rand50%"], max_iterations=30, **options
        )

    first = scan()
    assert scan() == first
    assert len(first) == 6


def test_warm_scan_builds_nothing(calls):
    bond_scan("H2O", [0.958], ["10%"], max_iterations=5)
    # One sector block serves the exact energy and the statevector plan.
    assert calls == Counter(ansatz=1, compress=1, block=1)
    stats = compile_cache().stats
    misses, size = stats.misses, len(compile_cache())
    bond_scan("H2O", [0.958], ["10%"], max_iterations=5)
    assert calls == Counter(ansatz=1, compress=1, block=1)
    assert (stats.misses, len(compile_cache())) == (misses, size)


def test_full_configuration_is_the_uccsd_program():
    problem = build_molecule_hamiltonian("LiH", 1.6)
    program = build_uccsd_program(problem).program
    [point] = bond_scan("LiH", [1.6], ["full"], max_iterations=40)
    expected = VQE(program, problem.hamiltonian, max_iterations=40).run()
    assert point.energy == expected.energy
    assert point.iterations == expected.iterations
    assert point.num_parameters == program.num_parameters


def test_random_configuration_is_a_seeded_compress_entry():
    problem = build_molecule_hamiltonian("LiH")
    program = build_uccsd_program(problem).program

    def compressed(seed):
        config = PipelineConfig(
            molecule="LiH", ratio=0.5, compression="random", seed=seed
        )
        stages = [BuildProblem(), BuildAnsatz(), Compress()]
        return Pipeline(config, stages).run().compressed

    two = compressed(2)
    size = len(compile_cache())
    three = compressed(3)
    assert len(compile_cache()) == size + 1  # a second entry, not a hit
    for seed, staged in ((2, two), (3, three)):
        expected = random_ansatz(program, 0.5, seed=seed)
        assert staged.kept_parameters == expected.kept_parameters
        assert program_key(staged.program) == program_key(expected.program)
    assert two.kept_parameters != three.kept_parameters
    assert compressed(2) is two


def test_sampling_energy_stage_matches_fresh_vqe_runs():
    problem = build_molecule_hamiltonian("H2")
    program = build_uccsd_program(problem).program
    config = PipelineConfig(molecule="H2", compression="none")
    stages = [BuildProblem(), BuildAnsatz(), Energy(backend="sampling", max_iterations=3)]
    pipeline = Pipeline(config, stages)
    runs = [pipeline.run().metrics["energy"] for _ in range(2)]
    fresh = [
        VQE(program, problem.hamiltonian, backend="sampling", max_iterations=3)
        .run()
        .energy
        for _ in range(2)
    ]
    assert runs == fresh


def test_plan_shells_do_not_share_state():
    problem = build_molecule_hamiltonian("H2O")
    program = build_uccsd_program(problem).program.restricted_to([0, 1, 2])
    plan = statevector_plan(program, problem.hamiltonian)
    theta = np.full(program.num_parameters, 0.1)
    first = StatevectorEnergy(program, problem.hamiltonian, plan)
    second = StatevectorEnergy(program, problem.hamiltonian, plan)
    reference = StatevectorEnergy(program, problem.hamiltonian)(theta)
    assert first(theta) == reference
    assert second(theta) == reference
    assert first._buffer is not second._buffer
    assert (first.evaluations, second.evaluations) == (1, 1)
    assert not plan.reference.flags.writeable


def test_exact_energy_is_a_cache_entry(calls):
    problem = build_molecule_hamiltonian("H2O")
    value = exact_energy(problem)
    assert exact_energy(problem) == value
    assert calls["block"] == 1
    clear_compile_cache()
    assert exact_energy(problem) == value
    assert calls["block"] == 2


def test_plan_rejected_off_the_statevector_backend():
    problem = build_molecule_hamiltonian("H2")
    program = build_uccsd_program(problem).program
    plan = statevector_plan(program, problem.hamiltonian)
    with pytest.raises(ValueError, match="statevector plan"):
        VQE(program, problem.hamiltonian, backend="density_matrix", plan=plan)


def test_unknown_compression_rejected():
    config = PipelineConfig(molecule="H2", compression="greedy")
    with pytest.raises(ValueError, match="importance, random, none"):
        Pipeline(config).run()


def test_failed_point_raises_its_error_type():
    with pytest.raises(ValueError, match="cannot apply a noise model"):
        bond_scan("H2", [0.735], ["full"], noise=NOISE)
