"""Tests for the Gaussian integral engine against analytic references."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import chem_oracle
from chem_oracle import primitive_eri
from repro.chem.basis_data import shells_for_element, num_basis_functions
from repro.chem.integrals import (
    BasisFunction,
    boys,
    build_basis,
    compute_integrals,
    nuclear_repulsion,
    _hermite_coefficients,
    _overlap_contracted,
    _primitive_kinetic,
    _primitive_nuclear,
)
from repro.chem.molecules import molecule_by_name


def s_function(alpha: float, center=(0.0, 0.0, 0.0)) -> BasisFunction:
    """A single normalized s primitive as a contracted function."""
    norm = (2.0 * alpha / math.pi) ** 0.75
    return BasisFunction(
        center=center,
        powers=(0, 0, 0),
        exponents=(alpha,),
        coefficients=(norm,),
        atom_index=0,
        label="test",
    )


class TestBasisData:
    def test_hydrogen_exponents_match_published(self):
        shell = shells_for_element("H")[0]
        np.testing.assert_allclose(
            shell.exponents, (3.425250914, 0.6239137298, 0.168855404), rtol=1e-4
        )

    def test_carbon_2sp_exponents_match_published(self):
        shells = shells_for_element("C")
        np.testing.assert_allclose(
            shells[1].exponents, (2.9412494, 0.6834831, 0.2222899), rtol=1e-4
        )

    def test_basis_function_counts(self):
        assert num_basis_functions("H") == 1
        assert num_basis_functions("C") == 5
        assert num_basis_functions("Na") == 9

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            shells_for_element("Xx")


class TestBoys:
    def test_zero_argument(self):
        assert boys(0, 0.0) == pytest.approx(1.0)
        assert boys(2, 0.0) == pytest.approx(1.0 / 5.0)

    def test_f0_closed_form(self):
        # F0(x) = sqrt(pi/(4x)) erf(sqrt(x)).
        from scipy.special import erf

        for x in (0.1, 1.0, 5.0, 20.0):
            expected = 0.5 * math.sqrt(math.pi / x) * erf(math.sqrt(x))
            assert boys(0, x) == pytest.approx(expected, rel=1e-10)

    def test_downward_consistency(self):
        # Recurrence: F_{n+1}(x) = ((2n+1) F_n(x) - exp(-x)) / (2x).
        x = 2.7
        for n in range(4):
            expected = ((2 * n + 1) * boys(n, x) - math.exp(-x)) / (2 * x)
            assert boys(n + 1, x) == pytest.approx(expected, rel=1e-9)


class TestHermiteCoefficients:
    def test_ss_is_one(self):
        e = _hermite_coefficients(0, 0, 0.3, -0.2, 1.7)
        assert e[0] == pytest.approx(1.0)

    def test_total_weight_p(self):
        # E for (l1=1, l2=0): E0 = PA, E1 = 1/(2p).
        pa, p = 0.4, 2.0
        e = _hermite_coefficients(1, 0, pa, 0.0, p)
        assert e[0] == pytest.approx(pa)
        assert e[1] == pytest.approx(1.0 / (2 * p))


class TestPrimitiveIntegrals:
    def test_normalized_s_overlap(self):
        f = s_function(0.8)
        assert _overlap_contracted(f, f) == pytest.approx(1.0)

    def test_s_overlap_distance_decay(self):
        alpha = 1.1
        a = s_function(alpha)
        b = s_function(alpha, center=(0.0, 0.0, 1.0))
        # <a|b> = exp(-alpha/2 * R^2) for equal-exponent normalized s.
        expected = math.exp(-alpha / 2.0)
        assert _overlap_contracted(a, b) == pytest.approx(expected, rel=1e-10)

    def test_kinetic_single_gaussian(self):
        # <T> of a normalized s Gaussian = 3 alpha / 2.
        alpha = 0.9
        norm = (2.0 * alpha / math.pi) ** 0.75
        value = norm**2 * _primitive_kinetic(
            alpha, (0, 0, 0), (0, 0, 0, ), alpha, (0, 0, 0), (0.0, 0.0, 0.0)
        )
        assert value == pytest.approx(1.5 * alpha, rel=1e-10)

    def test_nuclear_attraction_on_center(self):
        # <V> for s Gaussian at the nucleus = -2 sqrt(2 alpha / pi) * Z.
        alpha = 1.3
        norm = (2.0 * alpha / math.pi) ** 0.75
        value = norm**2 * _primitive_nuclear(
            alpha, (0, 0, 0), (0.0, 0.0, 0.0),
            alpha, (0, 0, 0), (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        )
        expected = 2.0 * math.sqrt(2.0 * alpha / math.pi)
        assert value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.3])
    def test_eri_self_repulsion(self, alpha):
        # Closed form for a normalized s Gaussian: (aa|aa) = 2 sqrt(alpha/pi).
        norm = (2.0 * alpha / math.pi) ** 0.75
        value = norm**4 * primitive_eri(
            alpha, (0, 0, 0), (0.0, 0.0, 0.0),
            alpha, (0, 0, 0), (0.0, 0.0, 0.0),
            alpha, (0, 0, 0), (0.0, 0.0, 0.0),
            alpha, (0, 0, 0), (0.0, 0.0, 0.0),
        )
        assert value == pytest.approx(2.0 * math.sqrt(alpha / math.pi), rel=1e-8)

    def test_eri_symmetry(self):
        a = s_function(0.7)
        b = s_function(1.3, center=(0.0, 0.0, 0.9))
        args_ab = (0.7, (0, 0, 0), a.center, 1.3, (0, 0, 0), b.center)
        value_abab = primitive_eri(*args_ab, *args_ab)
        args_ba = (1.3, (0, 0, 0), b.center, 0.7, (0, 0, 0), a.center)
        value_baba = primitive_eri(*args_ba, *args_ba)
        assert value_abab == pytest.approx(value_baba, rel=1e-10)


class TestMoleculeIntegrals:
    def test_nuclear_repulsion_h2(self):
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
        assert nuclear_repulsion([1, 1], coords) == pytest.approx(1.0 / 1.4)

    def test_h2_overlap_matrix(self):
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
        basis = build_basis(["H", "H"], coords)
        tables = compute_integrals(basis, [1, 1], coords)
        assert tables.overlap[0, 0] == pytest.approx(1.0, abs=1e-8)
        # Textbook STO-3G H2 overlap at R = 1.4 bohr.
        assert tables.overlap[0, 1] == pytest.approx(0.6593, abs=2e-3)

    def test_h2_hcore_values(self):
        # Szabo & Ostlund Table 3.5 values (R = 1.4 bohr).
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
        basis = build_basis(["H", "H"], coords)
        tables = compute_integrals(basis, [1, 1], coords)
        assert tables.kinetic[0, 0] == pytest.approx(0.7600, abs=2e-3)
        assert tables.kinetic[0, 1] == pytest.approx(0.2365, abs=2e-3)
        hcore = tables.kinetic + tables.nuclear
        assert hcore[0, 0] == pytest.approx(-1.1204, abs=3e-3)

    def test_eri_eightfold_symmetry(self):
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]])
        basis = build_basis(["H", "H"], coords)
        tables = compute_integrals(basis, [1, 1], coords)
        eri = tables.eri
        assert eri[0, 1, 0, 1] == pytest.approx(eri[1, 0, 1, 0], rel=1e-10)
        assert eri[0, 1, 0, 0] == pytest.approx(eri[0, 0, 0, 1], rel=1e-10)


class TestOracleEquality:
    """The hoisted ERI must equal the per-quartet oracle bit for bit."""

    @pytest.mark.parametrize("name", ["H2", "LiH", "HF"])
    @settings(max_examples=2, deadline=None)
    @given(scale=st.floats(0.6, 2.0))
    def test_eri_tensor_matches_oracle(self, name, scale):
        molecule = molecule_by_name(name, molecule_by_name(name).bond_length * scale)
        basis = build_basis(molecule.symbols, molecule.coordinates_bohr)
        tables = compute_integrals(basis, molecule.charges, molecule.coordinates_bohr)
        assert np.array_equal(tables.eri, chem_oracle.eri_tensor(basis))
