"""Golden simulator values on LiH, pinned to 1e-12 relative.

The numbers below are recorded outputs of the NumPy kernels, not
physics references: any refactor of the statevector, expectation,
trajectory or density-matrix engines must reproduce them to rounding.
Each case names the code path it pins.  The ``test_batched_sweep_*``
values were recorded from an earlier blocked sweep engine; the one
remaining Pauli-program path (single-point evaluation, looped by
``sweep_energies``) reproduces them to rounding.

The converged VQE energies are pinned to 1e-9 Ha absolute instead,
with exact iteration counts: how SLSQP gets its gradient (finite
differences or the adjoint sweep) moves its path at rounding level,
so the converged point agrees only to about 1e-11 Ha.
"""

import numpy as np
import pytest

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.core.compression import compress_ansatz
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString
from repro.sim.expectation import ExpectationEngine
from repro.sim.noise import DepolarizingNoiseModel
from repro.bench.fig9 import default_bond_lengths
from repro.vqe import VQE
from repro.vqe.energy import DensityMatrixEnergy, StatevectorEnergy, TrajectoryEnergy
from repro.vqe.scan import bond_scan, exact_energy, sweep_energies

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
DENSITY_MATRIX = {
    # (compression ratio, one-qubit error, two-qubit error): energy
    (0.1, 0.0, 1e-4): -7.8226815470733255,
    (0.3, 0.0, 1e-4): -7.7249224812657555,
    (0.1, 1e-3, 1e-2): -7.645814619457139,
}
VQE_ATOL = 1e-9
FIG9_H2O_10PCT = (-74.98643798026482, 8)  # (energy, SLSQP iterations)
#: Recorded from the full-space Lanczos solve, before the solver moved
#: to the Hartree-Fock particle-number sector.
H2O_EXACT = -75.01257399462139
LIH_FULL_UCCSD = (-7.863077440833648, 6)
# (energy, SLSQP iterations, error events of the last call)
FIG10_LIH_TRAJECTORY = (-7.8521728097613135, 3, 5)


@pytest.fixture(scope="module")
def lih():
    problem = build_molecule_hamiltonian("LiH")
    program = build_uccsd_program(problem).program
    thetas = np.random.default_rng(2024).normal(0.0, 0.2, (11, program.num_parameters))
    return program, problem.hamiltonian, thetas


def test_batched_sweep_real_orthogonal_path(lih):
    """UCCSD, every string with an odd Y count, through sweep_energies."""
    program, hamiltonian, thetas = lih
    energies = sweep_energies(program, hamiltonian, thetas)
    np.testing.assert_allclose(energies, SWEEP, rtol=RTOL, atol=0)


def test_batched_sweep_complex_path(lih):
    """The same sweep with one even-Y string appended."""
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
    energies = sweep_energies(mixed, hamiltonian, thetas[:5])
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


@pytest.mark.parametrize("ratio, one_qubit_error, two_qubit_error", DENSITY_MATRIX)
def test_density_matrix_energy_seeded(lih, ratio, one_qubit_error, two_qubit_error):
    full, hamiltonian, _ = lih
    program = compress_ansatz(full, hamiltonian, ratio).program
    theta = np.random.default_rng(2024).normal(0.0, 0.2, program.num_parameters)
    noise = DepolarizingNoiseModel(
        one_qubit_error=one_qubit_error, two_qubit_error=two_qubit_error
    )
    energy = DensityMatrixEnergy(program, hamiltonian, noise)(theta)
    expected = DENSITY_MATRIX[ratio, one_qubit_error, two_qubit_error]
    assert energy == pytest.approx(expected, rel=RTOL, abs=0)


def test_fig9_h2o_bond_scan_point():
    """The ``fig9_vqe`` workload: H2O at its middle bond length, 10%."""
    [point] = bond_scan("H2O", [default_bond_lengths("H2O", 3)[1]], ["10%"])
    energy, iterations = FIG9_H2O_10PCT
    assert point.energy == pytest.approx(energy, rel=0, abs=VQE_ATOL)
    assert point.iterations == iterations


def test_h2o_exact_energy():
    """The Fig. 9 "Ground State" reference of H2O at equilibrium."""
    problem = build_molecule_hamiltonian("H2O")
    assert exact_energy(problem) == pytest.approx(H2O_EXACT, rel=RTOL, abs=0)


def test_lih_full_uccsd_vqe(lih):
    program, hamiltonian, _ = lih
    result = VQE(program, hamiltonian).run()
    energy, iterations = LIH_FULL_UCCSD
    assert result.energy == pytest.approx(energy, rel=0, abs=VQE_ATOL)
    assert result.iterations == iterations


def test_fig10_lih_trajectory_vqe():
    """The ``fig10_noisy`` trajectory point: LiH at equilibrium, 30%."""
    problem = build_molecule_hamiltonian("LiH", default_bond_lengths("LiH", 1)[0])
    program = compress_ansatz(
        build_uccsd_program(problem).program, problem.hamiltonian, 0.3
    ).program
    vqe = VQE(
        program,
        problem.hamiltonian,
        backend="trajectory",
        noise=DepolarizingNoiseModel(two_qubit_error=1e-4),
        trajectories=256,
        seed=17,
        max_iterations=60,
    )
    result = vqe.run()
    energy, iterations, events = FIG10_LIH_TRAJECTORY
    assert result.energy == pytest.approx(energy, rel=0, abs=VQE_ATOL)
    assert result.iterations == iterations
    assert vqe.energy.last_error_events == events
