"""Golden simulator values on LiH, pinned to 1e-12 relative.

The numbers below are recorded outputs of the NumPy kernels, not
physics references: any refactor of the statevector, batched,
expectation or trajectory engines must reproduce them to rounding.
Each case names the code path it pins.
"""

import numpy as np
import pytest

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString
from repro.sim.batched import real_evolution_compatible
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.energy import StatevectorEnergy, TrajectoryEnergy
from repro.vqe.scan import sweep_energies

RTOL = 1e-12

SWEEP = [
    -7.7749305254312535, -7.785791490261357, -7.762769703503081,
    -7.845074276595679, -7.788714289924766, -7.686674391151081,
    -7.748840470085976, -7.813766210319076, -7.817185052546525,
    -7.774418984520526, -7.813442595701294,
]
EVEN_Y_SWEEP = [
    -7.774888035525063, -7.78570762950404, -7.762888519223669,
    -7.845093814477661, -7.788719136305865,
]
SINGLE_POINT = -7.77493052543125
APPLY_WEIGHTED = 0.6066621640477721 - 7.648255897295122j
APPLY_QUADRATIC = -7.262501538370457
VALUES = [-7.26250153837046, -7.245627667399368, -7.196075441758968]
TRAJECTORY = -7.438059378576359
TRAJECTORY_STDERR = 0.03938804331970263
TRAJECTORY_EVENTS = 208


@pytest.fixture(scope="module")
def lih():
    problem = build_molecule_hamiltonian("LiH")
    program = build_uccsd_program(problem).program
    thetas = np.random.default_rng(2024).normal(0.0, 0.2, (11, program.num_parameters))
    return program, problem.hamiltonian, thetas


def test_batched_sweep_real_orthogonal_path(lih):
    program, hamiltonian, thetas = lih
    assert real_evolution_compatible(program.paulis())
    energies = sweep_energies(program, hamiltonian, thetas, engine="batched")
    np.testing.assert_allclose(energies, SWEEP, rtol=RTOL, atol=0)


def test_batched_sweep_complex_path(lih):
    program, hamiltonian, thetas = lih
    even_y = IRTerm(
        PauliString.from_label("ZZ" + "I" * (program.num_qubits - 2)), 0.5, 0
    )
    mixed = PauliProgram(
        program.num_qubits,
        program.num_parameters,
        list(program.terms) + [even_y],
        list(program.initial_occupations),
    )
    assert not real_evolution_compatible(mixed.paulis())
    energies = sweep_energies(mixed, hamiltonian, thetas[:5], engine="batched")
    np.testing.assert_allclose(energies, EVEN_Y_SWEEP, rtol=RTOL, atol=0)


def test_statevector_energy_single_point(lih):
    program, hamiltonian, thetas = lih
    energy = StatevectorEnergy(program, hamiltonian)(thetas[0])
    assert energy == pytest.approx(SINGLE_POINT, rel=RTOL, abs=0)


def test_expectation_engine_apply_and_values(lih):
    program, hamiltonian, _ = lih
    engine = ExpectationEngine(hamiltonian)
    rng = np.random.default_rng(7)
    dim = 1 << program.num_qubits
    states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    weights = rng.normal(size=dim)
    applied = engine.apply(states[0])
    assert complex(weights @ applied) == pytest.approx(APPLY_WEIGHTED, rel=RTOL, abs=0)
    quadratic = np.vdot(states[0], applied).real
    assert quadratic == pytest.approx(APPLY_QUADRATIC, rel=RTOL, abs=0)
    np.testing.assert_allclose(engine.values(states), VALUES, rtol=RTOL, atol=0)


def test_trajectory_energy_seeded(lih):
    program, hamiltonian, thetas = lih
    noise = DepolarizingNoiseModel(one_qubit_error=1e-3, two_qubit_error=1e-2)
    energy = TrajectoryEnergy(program, hamiltonian, noise, trajectories=64, seed=5)
    value = energy(thetas[0] * 0.5)
    assert value == pytest.approx(TRAJECTORY, rel=RTOL, abs=0)
    assert energy.last_standard_error == pytest.approx(
        TRAJECTORY_STDERR, rel=RTOL, abs=0
    )
    assert energy.last_error_events == TRAJECTORY_EVENTS
