"""UCCSD ansatz tests, including the exact Table I reproduction."""

import numpy as np
import pytest

from chem_oracle import FermionOperator
from repro.ansatz import build_uccsd_program, generate_excitations
from repro.ansatz.excitations import count_uccsd_parameters
from repro.chem import build_molecule_hamiltonian

# (qubits, #Pauli, #params, #CNOTs) -- Table I of the paper; gate totals
# are checked separately because two rows differ by the X-gate convention.
TABLE1 = {
    "H2": (4, 12, 3, 56),
    "LiH": (6, 40, 8, 280),
    "NaH": (8, 84, 15, 768),
    "HF": (10, 144, 24, 1616),
    "BeH2": (12, 640, 92, 8064),
    "H2O": (12, 640, 92, 8064),
}

TABLE1_GATES = {"H2": 150, "LiH": 610, "HF": 2856, "H2O": 13704}


class TestExcitationEnumeration:
    def test_h2_counts(self):
        excitations = generate_excitations(2, 1, 1)
        singles = [e for e in excitations if e.is_single]
        doubles = [e for e in excitations if e.is_double]
        assert len(singles) == 2
        assert len(doubles) == 1

    @pytest.mark.parametrize(
        "spatial,alpha,beta,expected",
        [
            (2, 1, 1, 3),      # H2
            (3, 1, 1, 8),      # LiH
            (4, 1, 1, 15),     # NaH
            (5, 4, 4, 24),     # HF
            (6, 2, 2, 92),     # BeH2
            (6, 4, 4, 92),     # H2O
            (7, 3, 3, 204),    # BH3
            (7, 4, 4, 204),    # NH3
            (8, 4, 4, 360),    # CH4
        ],
    )
    def test_closed_form_matches_table1(self, spatial, alpha, beta, expected):
        assert count_uccsd_parameters(spatial, alpha, beta) == expected
        assert len(generate_excitations(spatial, alpha, beta)) == expected

    def test_generators_are_anti_hermitian(self):
        for excitation in generate_excitations(3, 1, 1):
            terms = {ladder: c for c, ladder in excitation.generator()}
            assert FermionOperator(terms).is_anti_hermitian()

    def test_spin_preservation(self):
        """Singles never mix the alpha and beta blocks."""
        spatial = 4
        for excitation in generate_excitations(spatial, 2, 2):
            if excitation.is_single:
                occ, virt = excitation.occupied[0], excitation.virtual[0]
                assert (occ < spatial) == (virt < spatial)

    def test_too_many_electrons_rejected(self):
        with pytest.raises(ValueError):
            generate_excitations(2, 3, 1)


class TestUCCSDProgram:
    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_table1_reproduction(self, name):
        qubits, num_pauli, num_params, num_cnots = TABLE1[name]
        problem = build_molecule_hamiltonian(name)
        ansatz = build_uccsd_program(problem)
        assert problem.num_qubits == qubits
        assert len(ansatz.program) == num_pauli
        assert ansatz.program.num_parameters == num_params
        assert ansatz.program.cnot_count() == num_cnots

    @pytest.mark.parametrize("name", sorted(TABLE1_GATES))
    def test_table1_gate_totals(self, name):
        problem = build_molecule_hamiltonian(name)
        ansatz = build_uccsd_program(problem)
        assert ansatz.program.gate_count() == TABLE1_GATES[name]

    def test_strings_per_excitation(self):
        problem = build_molecule_hamiltonian("LiH")
        ansatz = build_uccsd_program(problem)
        per_parameter = ansatz.program.parameters_of_terms()
        for excitation, parameter in zip(
            ansatz.excitations, range(ansatz.num_parameters)
        ):
            expected = 2 if excitation.is_single else 8
            assert len(per_parameter[parameter]) == expected

    def test_coefficients_are_real(self):
        problem = build_molecule_hamiltonian("H2")
        ansatz = build_uccsd_program(problem)
        for term in ansatz.program:
            assert isinstance(term.coefficient, float)
            assert abs(term.coefficient) > 0

    def test_full_uccsd_reaches_fci_h2(self):
        """One-parameter-family check: the UCCSD state at the optimum of a
        coarse grid already drops well below Hartree-Fock."""
        from repro.sim import ground_state_energy
        from repro.vqe import VQE

        problem = build_molecule_hamiltonian("H2")
        ansatz = build_uccsd_program(problem)
        exact = ground_state_energy(problem.hamiltonian)
        result = VQE(ansatz.program, problem.hamiltonian).run()
        assert result.energy == pytest.approx(exact, abs=1e-6)

    def test_initial_occupations_recorded(self):
        problem = build_molecule_hamiltonian("LiH")
        ansatz = build_uccsd_program(problem)
        assert ansatz.program.initial_occupations == [0, 3]


class TestPauliProgramMechanics:
    def test_bound_terms_shape_check(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        with pytest.raises(ValueError):
            program.bound_terms([0.0])

    def test_restricted_to_renumbers(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        sub = program.restricted_to([5, 2])
        assert sub.num_parameters == 2
        # Parameter 5's strings must come first (new index 0).
        first_param_terms = [t for t in sub if t.parameter_index == 0]
        original = [t for t in program if t.parameter_index == 5]
        assert [t.pauli for t in first_param_terms] == [t.pauli for t in original]

    def test_cooccurrence_symmetry(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        matrix = program.qubit_cooccurrence()
        np.testing.assert_array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)
