"""Second quantization and Jordan-Wigner encoding tests.

The ladder-operator algebra is checked on the oracle in
``tests/chem_oracle.py``; the shipped mask-arithmetic map must then
reproduce the oracle's Pauli sums exactly, dict order included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chem_oracle
from chem_oracle import FermionOperator, ladder_operator
from repro.ansatz import generate_excitations
from repro.chem import build_molecule_hamiltonian
from repro.chem.hamiltonian import fermion_terms
from repro.chem.hubbard import hubbard_hamiltonian
from repro.chem.jordan_wigner import jordan_wigner
from repro.pauli import PauliSum


class TestFermionOperator:
    def test_identity(self):
        op = FermionOperator.identity(2.5)
        assert op.coefficient(()) == 2.5

    def test_addition_merges(self):
        a = FermionOperator.creation(0)
        total = a + a
        assert total.coefficient(((0, True),)) == 2.0

    def test_multiplication_concatenates(self):
        product = FermionOperator.creation(1) * FermionOperator.annihilation(0)
        assert product.coefficient(((1, True), (0, False))) == 1.0

    def test_dagger_reverses(self):
        op = FermionOperator.from_term([(1, True), (0, False)], 2.0 + 1.0j)
        dagger = op.dagger()
        assert dagger.coefficient(((0, True), (1, False))) == 2.0 - 1.0j

    def test_generator_is_anti_hermitian(self):
        t = FermionOperator.from_term([(2, True), (0, False)])
        generator = t - t.dagger()
        assert generator.is_anti_hermitian()

    def test_max_orbital(self):
        op = FermionOperator.from_term([(5, True), (2, False)])
        assert op.max_orbital() == 5
        assert FermionOperator.identity().max_orbital() == -1

    def test_number_operator(self):
        op = FermionOperator.number(1)
        assert op.coefficient(((1, True), (1, False))) == 1.0


class TestJordanWigner:
    def test_ladder_operator_matrices(self):
        # a_0 on one qubit = [[0, 1], [0, 0]].
        a0 = ladder_operator(1, 0, creation=False).to_matrix()
        np.testing.assert_allclose(a0, [[0, 1], [0, 0]], atol=1e-12)
        adag0 = ladder_operator(1, 0, creation=True).to_matrix()
        np.testing.assert_allclose(adag0, [[0, 0], [1, 0]], atol=1e-12)

    def test_z_string_on_higher_orbital(self):
        # a_1 = (X1 + iY1)/2 * Z0: acting on |01> (q0=1) gives -|... sign.
        a1 = ladder_operator(2, 1, creation=False).to_matrix()
        state = np.zeros(4)
        state[3] = 1.0  # |q1=1, q0=1>
        result = a1 @ state
        # a_1 |11> = -|01> with the Z-chain sign convention.
        assert result[1] == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_canonical_anticommutation(self, p, q):
        n = 4
        a_p = ladder_operator(n, p, creation=False)
        adag_q = ladder_operator(n, q, creation=True)
        anticommutator = (a_p @ adag_q) + (adag_q @ a_p)
        expected = PauliSum.identity(n, 1.0 if p == q else 0.0)
        assert anticommutator.chop() == expected.chop()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_annihilators_anticommute(self, p, q):
        n = 4
        a_p = ladder_operator(n, p, creation=False)
        a_q = ladder_operator(n, q, creation=False)
        assert len(((a_p @ a_q) + (a_q @ a_p)).chop()) == 0

    def test_number_operator_spectrum(self):
        n_op = jordan_wigner(FermionOperator.number(0), 1)
        np.testing.assert_allclose(n_op.to_matrix(), [[0, 0], [0, 1]], atol=1e-12)

    def test_single_excitation_string_count(self):
        # a_2+ a_0 - h.c. -> 2 Pauli strings.
        t = FermionOperator.from_term([(2, True), (0, False)])
        generator = jordan_wigner(t - t.dagger(), 3)
        assert len(generator) == 2

    def test_double_excitation_string_count(self):
        t = FermionOperator.from_term([(2, True), (3, True), (1, False), (0, False)])
        generator = jordan_wigner(t - t.dagger(), 4)
        assert len(generator) == 8

    def test_scalar_operator_needs_explicit_size(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionOperator.identity(1.0))

    def test_hermitian_operator_maps_to_hermitian_sum(self):
        t = FermionOperator.from_term([(1, True), (0, False)], 0.7)
        hermitian = t + t.dagger()
        qubit_op = jordan_wigner(hermitian, 2)
        assert qubit_op.is_hermitian()


class TestHubbard:
    def test_two_site_dimensions(self):
        h = hubbard_hamiltonian(2, tunneling=1.0, interaction=4.0)
        assert h.num_qubits == 4
        assert h.is_hermitian()

    @staticmethod
    def _half_filled_ground_energy(h):
        """Lowest eigenvalue within the 2-electron sector."""
        matrix = h.to_matrix()
        values, vectors = np.linalg.eigh(matrix)
        dim = matrix.shape[0]
        particle_number = np.array([bin(i).count("1") for i in range(dim)])
        for value, vector in zip(values, vectors.T):
            weights = np.abs(vector) ** 2
            if abs(np.dot(weights, particle_number) - 2.0) < 1e-8:
                return value
        raise AssertionError("no 2-electron eigenstate found")

    def test_two_site_ground_state_energy(self):
        # Half-filled 2-site Hubbard: E0 = U/2 - sqrt((U/2)^2 + 4 t^2).
        t, u = 1.0, 4.0
        h = hubbard_hamiltonian(2, tunneling=t, interaction=u)
        expected = u / 2.0 - np.sqrt((u / 2.0) ** 2 + 4.0 * t**2)
        assert self._half_filled_ground_energy(h) == pytest.approx(expected, abs=1e-8)

    def test_interaction_free_limit(self):
        from exact_oracle import spectrum

        h = hubbard_hamiltonian(2, tunneling=1.0, interaction=0.0)
        # Free fermions on 2 sites: single-particle energies -t, +t;
        # the global many-body ground state fills both spins of -t.
        assert spectrum(h)[0] == pytest.approx(-2.0, abs=1e-8)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            hubbard_hamiltonian(1)


def assert_same_terms(shipped, oracle):
    """Same keys in the same order, same coefficient types and bits."""
    assert shipped.num_qubits == oracle.num_qubits
    assert list(shipped._terms) == list(oracle._terms)

    def bits(value):
        value_type = type(value).__name__
        value = complex(value)
        return value_type, value.real.hex(), value.imag.hex()

    assert [bits(v) for v in shipped._terms.values()] == [
        bits(v) for v in oracle._terms.values()
    ]


@st.composite
def integrals(draw):
    """Random (h1, h2, constant) over 1-6 spin orbitals, with exact zeros
    and sub-threshold entries so the 1e-12 filters are exercised."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(shape):
        values = rng.normal(size=shape)
        values[rng.random(shape) < 0.3] = 0.0
        values[rng.random(shape) < 0.1] = 3e-13
        return values

    return sample((n, n)), sample((n, n, n, n)), float(rng.normal())


class TestOracleEquality:
    @settings(max_examples=40, deadline=None)
    @given(integrals())
    def test_random_hamiltonians(self, drawn):
        h1, h2, constant = drawn
        n = h1.shape[0]
        assert_same_terms(
            jordan_wigner(fermion_terms(h1, h2, constant), n),
            chem_oracle.jordan_wigner(chem_oracle.fermionic_hamiltonian(h1, h2, constant), n),
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 4),
        st.floats(-3.0, 3.0),
        st.floats(-6.0, 6.0),
        st.booleans(),
    )
    def test_hubbard_chains(self, sites, tunneling, interaction, periodic):
        assert_same_terms(
            hubbard_hamiltonian(sites, tunneling, interaction, periodic=periodic),
            chem_oracle.hubbard_hamiltonian(
                sites, tunneling, interaction, periodic=periodic
            ),
        )

    @pytest.mark.parametrize("molecule", ["LiH", "H2O"])
    def test_uccsd_generators(self, molecule):
        problem = build_molecule_hamiltonian(molecule)
        n = problem.num_qubits
        excitations = generate_excitations(
            problem.num_spatial_orbitals, problem.num_alpha, problem.num_beta
        )
        for excitation in excitations:
            assert_same_terms(
                jordan_wigner(excitation.generator(), n),
                chem_oracle.jordan_wigner(chem_oracle.excitation_generator(excitation), n),
            )
