"""Tests for the grouped expectation engine and exact eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chem_oracle
from exact_oracle import sector_block, sector_indices, spectrum
from repro.chem import build_molecule_hamiltonian
from repro.pauli import PauliString, PauliSum
from repro.sim import ExpectationEngine, expectation, ground_state_energy
from repro.sim import exact
from repro.sim.exact import ground_state, sector_basis, sector_matrix


def random_hermitian_sum(num_qubits: int, num_terms: int, seed: int) -> PauliSum:
    rng = np.random.default_rng(seed)
    result = PauliSum.zero(num_qubits)
    for _ in range(num_terms):
        label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        result.add_term(float(rng.normal()), PauliString.from_label(label))
    return result


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


class TestExpectationEngine:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40))
    def test_grouped_matches_term_by_term(self, seed_h, seed_psi):
        observable = random_hermitian_sum(4, 8, seed_h)
        if len(observable) == 0:
            return
        state = random_state(4, seed_psi)
        engine = ExpectationEngine(observable)
        assert engine.value(state) == pytest.approx(
            expectation(observable, state), abs=1e-9
        )

    def test_apply_matches_dense(self):
        observable = random_hermitian_sum(3, 6, seed=7)
        state = random_state(3, 11)
        engine = ExpectationEngine(observable)
        np.testing.assert_allclose(
            engine.apply(state), observable.to_matrix() @ state, atol=1e-9
        )

    def test_group_count_not_larger_than_terms(self):
        observable = random_hermitian_sum(4, 12, seed=3)
        engine = ExpectationEngine(observable)
        assert engine.num_groups <= engine.num_terms

    def test_memory_guard(self):
        observable = random_hermitian_sum(10, 40, seed=1)
        with pytest.raises(MemoryError):
            ExpectationEngine(observable, max_bytes=1024)


class TestExactSolver:
    def test_single_qubit_z(self):
        h = PauliSum.from_label_dict({"Z": 1.0})
        assert ground_state_energy(h) == pytest.approx(-1.0)

    def test_transverse_field_pair(self):
        # H = -X0 X1 - 0.5 (Z0 + Z1): ground energy = -sqrt(1 + ...) check
        # against dense diagonalization.
        h = PauliSum.from_label_dict({"XX": -1.0, "ZI": -0.5, "IZ": -0.5})
        dense = np.linalg.eigvalsh(h.to_matrix())[0]
        assert ground_state_energy(h) == pytest.approx(dense, abs=1e-10)

    def test_eigenvector_satisfies_eigen_equation(self):
        h = random_hermitian_sum(3, 5, seed=13)
        # Hermitize: add the dagger to kill imaginary parts.
        h = (h + h.dagger()) * 0.5
        energy, vector = ground_state(h)
        residual = h.to_matrix() @ vector - energy * vector
        assert np.linalg.norm(residual) < 1e-8

    def test_lanczos_path_matches_dense(self):
        """Above the dense cutoff the LinearOperator path must agree."""
        h = random_hermitian_sum(7, 10, seed=21)
        h = (h + h.dagger()) * 0.5
        lanczos = ground_state_energy(h)
        dense = float(np.linalg.eigvalsh(_dense(h))[0])
        assert lanczos == pytest.approx(dense, abs=1e-7)

    def test_lowest_of_spectrum(self):
        h = random_hermitian_sum(3, 6, seed=5)
        h = (h + h.dagger()) * 0.5
        assert ground_state_energy(h) == pytest.approx(spectrum(h)[0], abs=1e-10)


def _sector(problem):
    return (problem.num_spatial_orbitals, problem.num_alpha, problem.num_beta)


@st.composite
def number_conserving_hamiltonians(draw):
    """A random Hermitian Hamiltonian over 1-3 spatial orbitals that
    conserves N_alpha and N_beta (blocked spin ordering), with a sector.

    One-body terms couple same-spin orbitals only; two-body terms
    ``a+_p a+_q a_s a_r`` pair the spins of p with r and q with s.
    """
    m = draw(st.integers(1, 3))
    n = 2 * m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_valued = draw(st.booleans())
    spin = np.arange(n) >= m

    def sample(shape):
        values = rng.normal(size=shape)
        if complex_valued:
            values = values + 1j * rng.normal(size=shape)
        values[rng.random(shape) < 0.5] = 0.0
        return values

    h1 = sample((n, n)) * (spin[:, None] == spin[None, :])
    h1 = (h1 + h1.conj().T) / 2
    p, q, r, s = np.ix_(*(np.arange(n),) * 4)
    h2 = sample((n,) * 4) * ((spin[p] == spin[r]) & (spin[q] == spin[s]))
    h2 = (h2 + h2.conj().transpose(2, 3, 0, 1)) / 2
    operator = chem_oracle.fermionic_hamiltonian(h1, h2, float(rng.normal()))
    hamiltonian = chem_oracle.jordan_wigner(operator, n)
    return hamiltonian, (m, draw(st.integers(0, m)), draw(st.integers(0, m)))


class TestSectorSolver:
    @pytest.mark.parametrize("molecule", ["H2", "LiH", "NaH", "HF", "BeH2", "H2O"])
    def test_matches_full_space(self, molecule):
        """The Hartree-Fock sector holds the global ground state."""
        problem = build_molecule_hamiltonian(molecule)
        sector = ground_state_energy(problem.hamiltonian, sector=_sector(problem))
        full = ground_state_energy(problem.hamiltonian)
        assert sector == pytest.approx(full, rel=0, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(number_conserving_hamiltonians())
    def test_matches_dense_sector_block(self, drawn):
        hamiltonian, sector = drawn
        block = sector_block(hamiltonian, sector)
        np.testing.assert_allclose(
            sector_matrix(hamiltonian, sector).toarray(), block, rtol=0, atol=1e-12
        )
        assert ground_state_energy(hamiltonian, sector=sector) == pytest.approx(
            np.linalg.eigvalsh(block)[0], rel=0, abs=1e-10
        )

    @pytest.mark.parametrize("sector", [(1, 0, 1), (2, 1, 1), (3, 2, 0), (4, 2, 3)])
    def test_basis_matches_oracle(self, sector):
        assert sector_basis(*sector).tolist() == sector_indices(*sector)

    @pytest.mark.parametrize("molecule", ["BeH2", "H2O"])
    def test_sparse_branch_matches_dense(self, molecule, monkeypatch):
        problem = build_molecule_hamiltonian(molecule)
        dense = ground_state_energy(problem.hamiltonian, sector=_sector(problem))
        monkeypatch.setattr(exact, "_DENSE_SECTOR_LIMIT", 0)
        sparse = ground_state_energy(problem.hamiltonian, sector=_sector(problem))
        assert sparse == pytest.approx(dense, rel=0, abs=1e-10)

    def test_real_hamiltonian_gives_real_matrix(self):
        problem = build_molecule_hamiltonian("LiH")
        assert sector_matrix(problem.hamiltonian, _sector(problem)).dtype == np.float64

    def test_empty_hamiltonian(self):
        assert ground_state_energy(PauliSum.zero(4), sector=(2, 1, 1)) == 0.0

    @pytest.mark.parametrize(
        "sector", [(3, 1, 1), (1, 1, 1), (2, 3, 1), (2, 1, 3), (2, -1, 1), (2, 1, -1)]
    )
    def test_sector_must_fit(self, sector):
        h = PauliSum.from_label_dict({"ZZII": 1.0, "IIZZ": 0.5})
        with pytest.raises(ValueError):
            ground_state_energy(h, sector=sector)

    def test_non_conserving_hamiltonian_rejected(self):
        """A bare X flips one spin orbital: every state leaves the sector."""
        h = PauliSum.from_label_dict({"ZIII": 1.0, "XIII": 0.5})
        with pytest.raises(ValueError, match="does not conserve"):
            ground_state_energy(h, sector=(2, 1, 1))

    def test_tiny_leak_tolerated(self):
        """Rounding-level leaks (~1e-17 on real molecules) pass."""
        h = PauliSum.from_label_dict({"ZIII": 1.0, "XIII": 1e-12})
        assert ground_state_energy(h, sector=(2, 1, 1)) == pytest.approx(-1.0)


def _dense(pauli_sum: PauliSum) -> np.ndarray:
    matrix = np.zeros((1 << pauli_sum.num_qubits,) * 2, dtype=complex)
    for coefficient, pauli in pauli_sum:
        matrix += coefficient * pauli.to_matrix()
    return matrix
