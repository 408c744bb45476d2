"""Tests for the VQE gradients, variable-degree trees and the
end-to-end co-optimization pipeline.

All gradient tests live here.  :class:`ParameterShiftGradient` is the
library's former shift-rule evaluator, kept only as the independent
oracle the adjoint gradient is checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.core import co_optimize
from repro.core.ir import IRTerm, PauliProgram
from repro.hardware.xtree import xtree, xtree_with_degrees
from repro.pauli import PauliString, PauliSum
from repro.sim import basis_state
from repro.sim.expectation import ExpectationEngine
from repro.sim.pauli_evolution import evolve_pauli_sequence
from repro.vqe import VQE, AdjointGradient, minimize_energy
from repro.vqe.energy import StatevectorEnergy


def reference_energy(engine, program, hamiltonian):
    """``E(theta)`` through one of the evaluation paths.

    ``inplace``: :class:`StatevectorEnergy`'s fused evolution;
    ``legacy``: out-of-place term-by-term :func:`evolve_pauli_sequence`.
    """
    statevector = StatevectorEnergy(program, hamiltonian)
    if engine == "inplace":
        return statevector
    expectation = ExpectationEngine(hamiltonian)
    reference = basis_state(
        program.num_qubits, sum(1 << q for q in program.initial_occupations)
    )
    return lambda theta: expectation.value(
        evolve_pauli_sequence(program.bound_terms(theta), reference)
    )


class ParameterShiftGradient:
    """Exact gradient of the statevector energy by the shift rule.

    Each string contributes ``c * [E(a + pi/4) - E(a - pi/4)]`` at its
    bound angle ``a = c * theta`` (exact since ``P**2 = I``): two
    out-of-place simulations per (parameter, string) pair, sharing no
    code with the adjoint's in-place backward sweep.
    """

    def __init__(self, program: PauliProgram, hamiltonian: PauliSum):
        self.program = program
        self.value = StatevectorEnergy(program, hamiltonian)
        self._engine = ExpectationEngine(hamiltonian)
        self._reference = basis_state(
            program.num_qubits, sum(1 << q for q in program.initial_occupations)
        )

    def gradient(self, parameters) -> np.ndarray:
        bound = self.program.bound_terms(parameters)
        gradient = np.zeros(self.program.num_parameters)
        for position, term in enumerate(self.program.terms):
            shifted = []
            for shift in (math.pi / 4, -math.pi / 4):
                terms = list(bound)
                terms[position] = (term.pauli, bound[position][1] + shift)
                state = evolve_pauli_sequence(terms, self._reference)
                shifted.append(self._engine.value(state))
            gradient[term.parameter_index] += term.coefficient * (
                shifted[0] - shifted[1]
            )
        return gradient


def central_difference(energy, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    gradient = np.zeros_like(theta)
    for k in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        gradient[k] = (energy(plus) - energy(minus)) / (2 * step)
    return gradient


@st.composite
def pauli_programs(draw):
    """A random Hermitian problem: (program, Hamiltonian, theta).

    Strings are drawn over IXYZ, so odd- and even-Y strings and the
    identity all occur; parameter indices repeat (shared parameters)
    and coefficients may be exactly zero.
    """
    num_qubits = draw(st.integers(1, 5))
    num_parameters = draw(st.integers(1, 3))
    label = st.text("IXYZ", min_size=num_qubits, max_size=num_qubits)
    coefficient = st.one_of(st.just(0.0), st.floats(-1.5, 1.5))
    terms = draw(
        st.lists(
            st.tuples(label, coefficient, st.integers(0, num_parameters - 1)),
            min_size=1,
            max_size=8,
        )
    )
    occupations = draw(st.sets(st.integers(0, num_qubits - 1)))
    observable = draw(
        st.lists(st.tuples(label, st.floats(-2.0, 2.0)), min_size=1, max_size=6)
    )
    theta = draw(
        st.lists(
            st.floats(-math.pi, math.pi),
            min_size=num_parameters,
            max_size=num_parameters,
        )
    )
    return build_problem(num_qubits, num_parameters, terms, occupations, observable, theta)


def build_problem(num_qubits, num_parameters, terms, occupations, observable, theta):
    program = PauliProgram(
        num_qubits,
        num_parameters,
        [IRTerm(PauliString.from_label(p), c, k) for p, c, k in terms],
        sorted(occupations),
    )
    hamiltonian = PauliSum.zero(num_qubits)
    for p, c in observable:
        hamiltonian.add_term(c, PauliString.from_label(p))
    return program, hamiltonian, np.array(theta, dtype=float)


class TestAdjointOracle:
    @settings(max_examples=60, deadline=None)
    @given(pauli_programs())
    @example(
        build_problem(
            3,
            2,
            # odd Y, even Y, identity, a shared parameter, a zero coefficient
            [("XYZ", 0.7, 0), ("YYX", -0.4, 1), ("III", 0.9, 0),
             ("ZIY", 1.1, 1), ("XXI", 0.0, 0)],
            {0, 2},
            [("ZZI", 0.8), ("XIX", -0.5), ("IYY", 0.3), ("III", -1.2)],
            [0.37, -1.2],
        )
    )
    def test_matches_central_differences_and_parameter_shift(self, problem):
        program, hamiltonian, theta = problem
        adjoint = AdjointGradient(program, hamiltonian)
        gradient = adjoint.gradient(theta)
        np.testing.assert_allclose(
            gradient, central_difference(adjoint.value, theta), rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            gradient,
            ParameterShiftGradient(program, hamiltonian).gradient(theta),
            rtol=0,
            atol=1e-9,
        )


class TestAdjointGradient:
    @pytest.fixture(scope="class")
    def h2(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        return program, problem.hamiltonian

    def test_agrees_with_parameter_shift_h2(self, h2):
        program, hamiltonian = h2
        theta = np.random.default_rng(4).normal(0, 0.5, program.num_parameters)
        adjoint = AdjointGradient(program, hamiltonian).gradient(theta)
        shift = ParameterShiftGradient(program, hamiltonian).gradient(theta)
        np.testing.assert_allclose(adjoint, shift, atol=1e-8)

    def test_agrees_with_parameter_shift_lih(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        theta = np.random.default_rng(8).normal(0, 0.3, program.num_parameters)
        adjoint = AdjointGradient(program, problem.hamiltonian).gradient(theta)
        shift = ParameterShiftGradient(program, problem.hamiltonian).gradient(theta)
        np.testing.assert_allclose(adjoint, shift, atol=1e-8)

    def test_value_and_gradient_consistent(self, h2):
        program, hamiltonian = h2
        evaluator = AdjointGradient(program, hamiltonian)
        theta = [0.2] * program.num_parameters
        value, gradient = evaluator.value_and_gradient(theta)
        assert value == pytest.approx(evaluator.value(theta), abs=1e-12)
        np.testing.assert_allclose(gradient, evaluator.gradient(theta), atol=1e-12)

    def test_wrong_length_rejected(self, h2):
        program, hamiltonian = h2
        with pytest.raises(ValueError):
            AdjointGradient(program, hamiltonian).gradient([0.0])

    @pytest.mark.parametrize("engine", ["inplace", "legacy"])
    def test_vqe_default_matches_finite_difference_run(self, engine):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        hamiltonian = problem.hamiltonian
        # The same energy, from each evaluation path, under SLSQP's own
        # finite-difference Jacobian.
        energy = reference_energy(engine, program, hamiltonian)
        theta = np.random.default_rng(4).normal(0, 0.3, program.num_parameters)
        assert energy(theta) == pytest.approx(
            StatevectorEnergy(program, hamiltonian)(theta), abs=1e-10
        )
        plain = minimize_energy(energy, program.num_parameters)
        adjoint = VQE(program, hamiltonian).run()
        assert adjoint.energy == pytest.approx(plain.energy, abs=1e-6)
        assert adjoint.function_evaluations < plain.function_evaluations

    def test_adjoint_follows_the_statevector_evaluator(self, h2):
        program, hamiltonian = h2
        assert isinstance(VQE(program, hamiltonian).gradient, AdjointGradient)
        for backend in ("density_matrix", "trajectory", "sampling"):
            assert VQE(program, hamiltonian, backend=backend).gradient is None


class TestParameterShiftGradient:
    @pytest.fixture(scope="class")
    def h2_setup(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        return program, problem.hamiltonian

    def test_matches_finite_differences(self, h2_setup):
        program, hamiltonian = h2_setup
        evaluator = ParameterShiftGradient(program, hamiltonian)
        rng = np.random.default_rng(4)
        theta = rng.normal(0, 0.3, program.num_parameters)
        analytic = evaluator.gradient(theta)
        step = 1e-6
        for k in range(program.num_parameters):
            plus, minus = theta.copy(), theta.copy()
            plus[k] += step
            minus[k] -= step
            numeric = (evaluator.value(plus) - evaluator.value(minus)) / (2 * step)
            assert analytic[k] == pytest.approx(numeric, abs=1e-5), k

    def test_zero_gradient_at_optimum(self, h2_setup):
        from repro.vqe import VQE

        program, hamiltonian = h2_setup
        result = VQE(program, hamiltonian).run()
        gradient = ParameterShiftGradient(program, hamiltonian).gradient(
            result.parameters
        )
        assert np.max(np.abs(gradient)) < 1e-4

    def test_wrong_length_rejected(self, h2_setup):
        program, hamiltonian = h2_setup
        evaluator = ParameterShiftGradient(program, hamiltonian)
        with pytest.raises(ValueError):
            evaluator.gradient([0.0])

    def test_lih_gradient_spot_check(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        evaluator = ParameterShiftGradient(program, problem.hamiltonian)
        theta = np.full(program.num_parameters, 0.05)
        analytic = evaluator.gradient(theta)
        step = 1e-6
        k = 3
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        numeric = (evaluator.value(plus) - evaluator.value(minus)) / (2 * step)
        assert analytic[k] == pytest.approx(numeric, abs=1e-5)


class TestDegreeTrees:
    def test_binary_tree_profile(self):
        tree = xtree_with_degrees(7, [2, 2])
        assert tree.is_tree()
        assert tree.degree(0) == 2

    def test_default_profile_matches_xtree(self):
        standard = xtree(17)
        custom = xtree_with_degrees(17, [4, 3])
        assert sorted(custom.edges) == sorted(standard.edges)

    def test_capacity_exhaustion(self):
        # A root allowed one child and chain profile of one child each can
        # host arbitrarily many qubits (a path); degree-0 is rejected.
        with pytest.raises(ValueError):
            xtree_with_degrees(5, [2, 0])

    def test_path_profile(self):
        path = xtree_with_degrees(6, [1, 1])
        assert path.is_tree()
        assert max(path.degree(q) for q in range(6)) == 2

    def test_levels_respect_profile(self):
        tree = xtree_with_degrees(13, [4, 2])
        levels = tree.levels()
        assert levels.count(1) == 4
        assert levels.count(2) == 8

    def test_merge_to_root_works_on_variants(self):
        """Alternate trees remain valid compile targets (Section VII)."""
        from repro.compiler import MergeToRootCompiler
        from repro.compiler.verify import assert_equivalent

        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        params = np.random.default_rng(0).normal(size=program.num_parameters)
        tree = xtree_with_degrees(6, [2, 2])
        compiled = MergeToRootCompiler(tree).compile(program, params)
        assert_equivalent(program, params, compiled.circuit, compiled.final_layout)


class TestPipeline:
    def test_co_optimize_h2(self):
        result = co_optimize("H2", ratio=0.5)
        assert result.compressed.num_parameters == 2
        assert result.device.name == "XTree17Q"
        assert result.compiled.overhead_cnots == 3 * result.compiled.num_swaps
        assert "H2" in result.summary()

    def test_co_optimize_accepts_problem_object(self):
        problem = build_molecule_hamiltonian("H2", 0.7)
        result = co_optimize(problem, ratio=1.0)
        assert result.problem is problem

    def test_co_optimize_custom_device(self):
        tree = xtree(8)
        result = co_optimize("H2", ratio=0.3, device=tree)
        assert result.device is tree
        assert result.compiled.circuit.num_qubits == 8

    def test_compiled_circuit_is_semantically_correct(self):
        from repro.compiler.verify import assert_equivalent

        result = co_optimize("H2", ratio=1.0, device=xtree(5))
        program = result.compressed.program
        assert_equivalent(
            program,
            [0.0] * program.num_parameters,
            result.compiled.circuit,
            result.compiled.final_layout,
        )
