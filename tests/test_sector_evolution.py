"""Oracle tests for the statevector VQE in the Hartree-Fock sector.

:class:`StatevectorEnergy` evolves only the amplitudes of the reference
state's particle-number sector when every fused run keeps that sector
for all parameter values, and applies the Hamiltonian's block over it.
These tests generate number-conserving programs over small sectors
(2 to 4 spatial orbitals) from ``generate_excitations`` and
``jordan_wigner``, with

* random subsets and orders of the excitations;
* parameters shared across excitations;
* inserted diagonal even-Y strings, such as the ``EVEN_Y_SWEEP`` pin's ZZ,

and check the sector path against the per-term
:func:`evolve_pauli_sequence` embedded in ``2**n``: the state and the
energy to 1e-12, the adjoint gradient to 1e-8 against the parameter-shift
rule.  Programs that leave the sector (a lone X string, an odd number of
qubits) must fall back to all ``2**n`` amplitudes and still match, and a
Hamiltonian with a number-breaking X term under a conserving program
keeps the sector path and the full-space energy.  Plan pins: the
Fig. 9 H2O 10 % plan runs in 225 states, a QAOA program in ``2**n``, and
the full CH4 UCCSD plan's arrays stay within 16 bytes per (run, sector
state) plus scratch.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fused_evolution import reference_state, shift_rule_gradient
from repro.ansatz import build_qaoa_ansatz, build_uccsd_program
from repro.ansatz.excitations import generate_excitations
from repro.bench.fig9 import default_bond_lengths
from repro.chem import build_molecule_hamiltonian
from repro.chem.jordan_wigner import jordan_wigner
from repro.core.compression import compress_ansatz
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.problems.graphs import erdos_renyi_graph, maxcut_hamiltonian
from repro.sim.expectation import ExpectationEngine
from repro.sim.pauli_evolution import FusedPauliEvolution, evolve_pauli_sequence
from repro.vqe import AdjointGradient
from repro.vqe.energy import StatevectorEnergy


def conserving_hamiltonian(draw, orbitals: int) -> PauliSum:
    """Same-spin hoppings plus density-density terms: conserves N_alpha, N_beta."""
    n = 2 * orbitals
    weight = st.floats(-1.0, 1.0)
    ladders = []
    for spin in range(2):
        block = range(spin * orbitals, (spin + 1) * orbitals)
        for p in block:
            for q in block:
                if p < q and draw(st.booleans()):
                    h = draw(weight)
                    ladders += [(h, ((p, True), (q, False))), (h, ((q, True), (p, False)))]
    for p in range(n):
        for q in range(p, n):
            if draw(st.booleans()):
                ladders.append(
                    (draw(weight), ((p, True), (p, False), (q, True), (q, False)))
                )
    hamiltonian = jordan_wigner(ladders, n) if ladders else PauliSum.zero(n)
    hamiltonian.add_term(draw(weight), PauliString.identity(n))
    return hamiltonian


@st.composite
def sector_programs(draw):
    """``(program, hamiltonian, theta, sector size)`` conserving the sector."""
    orbitals = draw(st.integers(2, 4))
    alpha = draw(st.integers(1, orbitals - 1))  # so there are excitations
    beta = draw(st.integers(0, orbitals))
    n = 2 * orbitals
    excitations = generate_excitations(orbitals, alpha, beta)
    chosen = draw(st.lists(st.sampled_from(excitations), min_size=1, max_size=6))
    num_parameters = draw(st.integers(1, 3))
    terms = []
    for excitation in chosen:
        parameter = draw(st.integers(0, num_parameters - 1))
        for coefficient, pauli in jordan_wigner(excitation.generator(), n):
            terms.append(IRTerm(pauli, float(coefficient.imag), parameter))
        if draw(st.booleans()):
            # A diagonal even-Y string (such as the EVEN_Y_SWEEP pin's ZZ).
            z = draw(st.integers(0, (1 << n) - 1))
            terms.append(IRTerm(PauliString(n, 0, z), draw(st.floats(-1.0, 1.0)),
                                draw(st.integers(0, num_parameters - 1))))
    occupations = list(range(alpha)) + [orbitals + i for i in range(beta)]
    program = PauliProgram(n, num_parameters, terms, occupations)
    theta = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=num_parameters,
                                   max_size=num_parameters)))
    hamiltonian = conserving_hamiltonian(draw, orbitals)
    return program, hamiltonian, theta, comb(orbitals, alpha) * comb(orbitals, beta)


def assert_matches_oracles(program, hamiltonian, theta, dimension) -> StatevectorEnergy:
    """The plan's size, then state, energy and gradient against the per-term oracles."""
    energy = StatevectorEnergy(program, hamiltonian)
    assert energy.evolution.dimension == dimension
    expected = evolve_pauli_sequence(program.bound_terms(theta), reference_state(program))
    np.testing.assert_allclose(energy.state(theta), expected, rtol=0, atol=1e-12)
    exact = ExpectationEngine(hamiltonian).value(expected)
    value, gradient = AdjointGradient(program, hamiltonian, energy=energy).value_and_gradient(theta)
    assert value == pytest.approx(exact, abs=1e-12)
    assert energy(theta) == pytest.approx(exact, abs=1e-12)
    np.testing.assert_allclose(
        gradient, shift_rule_gradient(program, hamiltonian, theta), rtol=0, atol=1e-8
    )
    return energy


def assert_term_brackets_match_full_space(program, hamiltonian, theta, energy):
    """Each term's ``dE/da_k`` equals the full-space plan's.

    Only for a conserving Hamiltonian: a single term's angle moves the
    state out of the sector, so the sector plan's brackets are those of
    the Hamiltonian's block.
    """
    full = FusedPauliEvolution(program.num_qubits, program.paulis())
    tables = full.rotation_tables(energy.angles(theta))
    phi = full.apply(tables, reference_state(program))
    brackets = full.adjoint(tables, phi, ExpectationEngine(hamiltonian).apply(phi))
    tables = energy.evolution.rotation_tables(energy.angles(theta))
    phi = energy.evolution.apply(tables, energy.reference.copy())
    np.testing.assert_allclose(
        energy.evolution.adjoint(tables, phi, energy.engine.apply(phi)), brackets,
        rtol=0, atol=1e-8,
    )


class TestSectorOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=sector_programs())
    def test_conserving_programs_run_in_the_sector(self, case):
        program, hamiltonian, theta, dimension = case
        energy = assert_matches_oracles(program, hamiltonian, theta, dimension)
        assert_term_brackets_match_full_space(program, hamiltonian, theta, energy)

    @settings(max_examples=30, deadline=None)
    @given(case=sector_programs(), data=st.data())
    def test_a_lone_x_string_falls_back_to_full_space(self, case, data):
        program, hamiltonian, theta, _ = case
        n = program.num_qubits
        lone = IRTerm(
            PauliString.single(n, data.draw(st.integers(0, n - 1)), "X"),
            data.draw(st.sampled_from([1.0, -1.0, 0.5])),
            data.draw(st.integers(0, program.num_parameters - 1)),
        )
        terms = list(program.terms)
        terms.insert(data.draw(st.integers(0, len(terms))), lone)
        leaving = PauliProgram(n, program.num_parameters, terms, program.initial_occupations)
        assert_matches_oracles(leaving, hamiltonian, theta, 1 << n)

    @settings(max_examples=30, deadline=None)
    @given(case=sector_programs())
    def test_an_odd_number_of_qubits_falls_back_to_full_space(self, case):
        """An idle top qubit leaves no alpha/beta halves to split the reference by."""
        program, hamiltonian, theta, _ = case
        n = program.num_qubits + 1
        widened = PauliProgram(
            n,
            program.num_parameters,
            [IRTerm(PauliString(n, t.pauli.x, t.pauli.z), t.coefficient, t.parameter_index)
             for t in program.terms],
            program.initial_occupations,
        )
        wide_hamiltonian = PauliSum(n)
        for (x, z), coefficient in hamiltonian.items():
            wide_hamiltonian.add_term(coefficient, PauliString(n, x, z))
        assert_matches_oracles(widened, wide_hamiltonian, theta, 1 << n)

    @settings(max_examples=30, deadline=None)
    @given(case=sector_programs(), data=st.data())
    def test_a_number_breaking_hamiltonian_keeps_the_sector(self, case, data):
        """H leaks, the state does not: the block still gives the full-space energy."""
        program, hamiltonian, theta, dimension = case
        n = program.num_qubits
        breaking = PauliSum(n)
        for (x, z), coefficient in hamiltonian.items():
            breaking.add_term(coefficient, PauliString(n, x, z))
        breaking.add_term(
            data.draw(st.floats(0.1, 1.0)),
            PauliString.single(n, data.draw(st.integers(0, n - 1)), "X"),
        )
        assert_matches_oracles(program, breaking, theta, dimension)


def test_unsorted_basis_raises():
    with pytest.raises(ValueError, match="strictly ascending"):
        FusedPauliEvolution(2, [PauliString.from_label("XY")], basis=[2, 1])


class TestPlanPins:
    def test_h2o_fig9_plan_runs_in_225_states(self):
        bond_length = default_bond_lengths("H2O", 3)[1]
        problem = build_molecule_hamiltonian("H2O", bond_length)
        full = build_uccsd_program(problem).program
        program = compress_ansatz(full, problem.hamiltonian, 0.1).program
        energy = StatevectorEnergy(program, problem.hamiltonian)
        assert problem.num_qubits == 12
        assert energy.evolution.dimension == 225

    def test_qaoa_program_runs_in_full_space(self):
        ansatz = build_qaoa_ansatz(maxcut_hamiltonian(erdos_renyi_graph(6, 0.5, seed=3)), 2)
        energy = StatevectorEnergy(ansatz.program, ansatz.cost_hamiltonian)
        assert energy.evolution.dimension == 1 << 6
        assert energy.evolution.basis is None

    def test_ch4_full_uccsd_plan_memory(self):
        """16 bytes per (run, sector state), plus per-term arrays and scratch."""
        problem = build_molecule_hamiltonian("CH4")
        program = build_uccsd_program(problem).program
        energy = StatevectorEnergy(program, problem.hamiltonian)
        evolution = energy.evolution
        states, runs = evolution.dimension, len(evolution.run_bounds)
        assert (problem.num_qubits, states, runs) == (16, 4900, 360)
        energy(np.full(program.num_parameters, 0.01))  # allocates the scratch
        scratch = 2 * 8 * states + 2 * 16 * states
        per_term = 8 * (2 * len(program) + evolution.num_slots)
        assert evolution.nbytes <= 16 * runs * states + scratch + per_term
        for positions, codes, parity in evolution._restricted:
            assert positions is None or positions.dtype == np.int32
            assert codes.dtype == np.uint8 and parity.dtype == np.int8
