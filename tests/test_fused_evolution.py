"""Oracle tests for the fused same-X-mask evolution.

:class:`FusedPauliEvolution` turns each maximal run of adjacent strings
that share an X mask and a Y-count parity into one rotation.  These
tests check it on generated programs built to stress the run split:

* same-X neighbours of mixed Y parity (they anticommute and must split);
* runs interrupted by a string of another X mask;
* one X mask repeated after an interruption (a new run);
* X = 0 diagonal runs and identity terms;
* Z differences outside the X support;
* parameters shared across runs.

The fused state must equal the out-of-place per-term
:func:`evolve_pauli_sequence` to 1e-12, and the adjoint gradient must
equal the exact parameter-shift rule, evaluated on that per-term path,
to 1e-8.  The H2O plan of the ``fig9_vqe`` workload is pinned at 10 runs
of 8 strings, and the plan's own memory is bounded on a 16-qubit
program of 300 runs.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ansatz import build_uccsd_program
from repro.bench.fig9 import default_bond_lengths
from repro.chem import build_molecule_hamiltonian
from repro.core.compression import compress_ansatz
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.sim import basis_state, pauli_evolution
from repro.sim.expectation import ExpectationEngine
from repro.sim.pauli_evolution import FusedPauliEvolution, evolve_pauli_sequence
from repro.vqe import AdjointGradient, sweep_energies
from repro.vqe.energy import StatevectorEnergy


def reference_state(program: PauliProgram) -> np.ndarray:
    return basis_state(
        program.num_qubits, sum(1 << q for q in program.initial_occupations)
    )


def shift_rule_gradient(program, hamiltonian, theta) -> np.ndarray:
    """``c_j [E(a_j + pi/4) - E(a_j - pi/4)]`` per string, per-term evolution."""
    engine = ExpectationEngine(hamiltonian)
    reference = reference_state(program)
    bound = program.bound_terms(theta)
    gradient = np.zeros(program.num_parameters)
    for position, term in enumerate(program.terms):
        shifted = []
        for shift in (math.pi / 4, -math.pi / 4):
            terms = list(bound)
            terms[position] = (term.pauli, bound[position][1] + shift)
            shifted.append(engine.value(evolve_pauli_sequence(terms, reference)))
        gradient[term.parameter_index] += term.coefficient * (shifted[0] - shifted[1])
    return gradient


@st.composite
def run_programs(draw):
    """``(program, hamiltonian, theta)`` whose strings come in runs.

    Each next string either keeps the previous X mask (its Z mask moved
    by random bit flips inside or outside the X support, so the Y
    parity may or may not change), reuses an earlier X mask, is
    diagonal or the identity, or is drawn afresh.
    """
    n = draw(st.integers(1, 5))
    full = (1 << n) - 1
    masks = st.integers(0, full)
    num_parameters = draw(st.integers(1, 3))
    strings: list[PauliString] = []
    for _ in range(draw(st.integers(1, 12))):
        move = draw(st.sampled_from(["keep", "keep", "keep", "reuse", "diagonal",
                                     "identity", "fresh"]))
        if move == "keep" and strings:
            x, z = strings[-1].x, strings[-1].z ^ draw(masks)
        elif move == "reuse" and strings:
            x, z = draw(st.sampled_from(strings)).x, draw(masks)
        elif move == "diagonal":
            x, z = 0, draw(masks)
        elif move == "identity":
            x, z = 0, 0
        else:
            x, z = draw(masks), draw(masks)
        strings.append(PauliString(n, x, z))
    terms = [
        IRTerm(
            pauli,
            draw(st.one_of(st.sampled_from([1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))),
            draw(st.integers(0, num_parameters - 1)),
        )
        for pauli in strings
    ]
    occupations = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    program = PauliProgram(n, num_parameters, terms, occupations)
    labels = st.text("IXYZ", min_size=n, max_size=n)
    hamiltonian = PauliSum.from_label_dict(
        draw(st.dictionaries(labels, st.floats(-2.0, 2.0), min_size=1, max_size=6))
    )
    angle = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2]),
                      st.floats(-math.pi, math.pi))
    theta = draw(st.lists(angle, min_size=num_parameters, max_size=num_parameters))
    return program, hamiltonian, np.array(theta)


def labelled(labels, parameters, occupations=(), observable=None):
    """A hand-built problem: strings by label, unit coefficients."""
    n = len(labels[0])
    program = PauliProgram(
        n,
        max(parameters) + 1,
        [IRTerm(PauliString.from_label(p), 1.0, k) for p, k in zip(labels, parameters)],
        list(occupations),
    )
    hamiltonian = PauliSum.from_label_dict(observable or {"Z" * n: 0.7, "X" * n: -0.4})
    theta = np.linspace(-1.1, 0.9, program.num_parameters)
    return program, hamiltonian, theta


def assert_maximal_commuting_runs(paulis, bounds):
    """Runs tile the program, commute inside and cannot be merged."""
    assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
    assert (bounds[-1][1] if bounds else 0) == len(paulis)
    for start, stop in bounds:
        first = paulis[start]
        for pauli in paulis[start:stop]:
            assert pauli.x == first.x and pauli.commutes_with(first)
    for (start, _), (following, _) in zip(bounds, bounds[1:]):
        previous, pauli = paulis[following - 1], paulis[following]
        assert pauli.x != previous.x or not pauli.commutes_with(paulis[start])


HAND_BUILT = [
    # XY and YX fuse; XX has even #Y and starts a new run.
    labelled(["XY", "YX", "XX", "YY"], [0, 0, 1, 1], [0]),
    # A non-commuting Z string interrupts one X mask, which then recurs.
    labelled(["XYI", "IZI", "YXI", "XXZ"], [0, 1, 0, 1], [1]),
    # Diagonal run with the identity inside it.
    labelled(["ZZ", "ZI", "II", "IZ"], [0, 1, 0, 1], [1]),
    # Z differences outside the X support (qubit 1), one run.
    labelled(["XZY", "XIY", "YZX", "YIX"], [0, 0, 1, 0], [0, 1]),
]


class TestRunSplit:
    @pytest.mark.parametrize(
        "case, bounds",
        zip(HAND_BUILT, [[(0, 2), (2, 4)], [(0, 1), (1, 2), (2, 3), (3, 4)],
                         [(0, 4)], [(0, 4)]]),
    )
    def test_hand_built_bounds(self, case, bounds):
        program, _, _ = case
        evolution = FusedPauliEvolution(program.num_qubits, program.paulis())
        assert evolution.run_bounds == bounds

    def test_h2o_fig9_plan_is_ten_runs_of_eight(self):
        bond_length = default_bond_lengths("H2O", 3)[1]
        problem = build_molecule_hamiltonian("H2O", bond_length)
        full = build_uccsd_program(problem).program
        program = compress_ansatz(full, problem.hamiltonian, 0.1).program
        evolution = StatevectorEnergy(program, problem.hamiltonian).evolution
        assert len(program) == 80
        assert [stop - start for start, stop in evolution.run_bounds] == [8] * 10


class TestOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=run_programs())
    @example(case=HAND_BUILT[0])
    @example(case=HAND_BUILT[1])
    @example(case=HAND_BUILT[2])
    @example(case=HAND_BUILT[3])
    def test_state_and_gradient_match_per_term_oracles(self, case):
        program, hamiltonian, theta = case
        paulis = program.paulis()
        energy = StatevectorEnergy(program, hamiltonian)
        assert_maximal_commuting_runs(paulis, energy.evolution.run_bounds)

        expected = evolve_pauli_sequence(program.bound_terms(theta), reference_state(program))
        np.testing.assert_allclose(energy.state(theta), expected, rtol=0, atol=1e-12)

        adjoint = AdjointGradient(program, hamiltonian, energy=energy)
        value, gradient = adjoint.value_and_gradient(theta)
        assert value == pytest.approx(ExpectationEngine(hamiltonian).value(expected), abs=1e-12)
        np.testing.assert_allclose(
            gradient, shift_rule_gradient(program, hamiltonian, theta), rtol=0, atol=1e-8
        )


class TestParameterValidation:
    @pytest.fixture(scope="class")
    def problem(self):
        program, hamiltonian, _ = HAND_BUILT[0]
        return program, hamiltonian

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda p, h, t: StatevectorEnergy(p, h).state(t),
            lambda p, h, t: StatevectorEnergy(p, h)(t),
            lambda p, h, t: AdjointGradient(p, h).value_and_gradient(t),
            lambda p, h, t: sweep_energies(p, h, [t]),
        ],
        ids=["state", "call", "value_and_gradient", "sweep_energies"],
    )
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_raises(self, problem, evaluate, length):
        program, hamiltonian = problem
        assert program.num_parameters == 2
        with pytest.raises(ValueError, match="expected 2 parameters"):
            evaluate(program, hamiltonian, np.zeros(length))

    def test_program_without_terms(self):
        program = PauliProgram(2, 2, [], [0])
        hamiltonian = PauliSum.from_label_dict({"ZZ": 1.0})
        value, gradient = AdjointGradient(program, hamiltonian).value_and_gradient([0.1, 0.2])
        assert value == -1.0
        assert gradient.dtype == np.float64
        np.testing.assert_array_equal(gradient, [0.0, 0.0])

    def test_evolution_checks_angles_and_state(self):
        evolution = FusedPauliEvolution(2, [PauliString.from_label("XY")])
        with pytest.raises(ValueError, match="expected 1 angles"):
            evolution.evolve([0.1, 0.2], basis_state(2))
        with pytest.raises(ValueError, match="does not match 2 qubits"):
            evolution.evolve([0.1], basis_state(3))
        with pytest.raises(ValueError, match="act on 3 qubits"):
            FusedPauliEvolution(3, [PauliString.from_label("XY")])


def excitation_runs(num_qubits: int, count: int, seed: int) -> list[PauliString]:
    """UCCSD-like runs: 8 odd-Y strings on 4 qubits, Z chains between pairs.

    Each run draws its own 4 qubits, so no two runs share an X mask.
    """
    quads = list(itertools.combinations(range(num_qubits), 4))
    strings = []
    for pick in np.random.default_rng(seed).choice(len(quads), count, replace=False):
        i, j, a, b = quads[pick]
        x = (1 << i) | (1 << j) | (1 << a) | (1 << b)
        chain = sum(1 << q for q in (*range(i + 1, j), *range(a + 1, b)))
        for ys in range(16):
            y_mask = sum(1 << q for bit, q in enumerate((i, j, a, b)) if ys >> bit & 1)
            if y_mask.bit_count() % 2:
                strings.append(PauliString(num_qubits, x, y_mask | chain))
    return strings


class TestMemoryBound:
    def test_plan_bytes_and_memos_stay_bounded(self, monkeypatch):
        """300 runs on 16 qubits: no O(terms * 2**n) storage anywhere."""
        limit = 4 << 20
        monkeypatch.setattr(pauli_evolution, "_CACHE_BYTE_LIMIT", limit)
        caches = ("_SIGNS_CACHE", "_XOR_INDEX_CACHE", "_CODE_CACHE")
        for name in caches:
            monkeypatch.setattr(pauli_evolution, name, {})
        n, runs = 16, 300
        paulis = excitation_runs(n, runs, seed=5)
        evolution = FusedPauliEvolution(n, paulis)
        assert len(evolution.run_bounds) == runs and len(paulis) == 8 * runs
        angles = np.random.default_rng(6).normal(0, 0.1, len(paulis))
        state = evolution.evolve(angles, basis_state(n, 0b11))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

        dim = 1 << n
        scratch = 2 * 8 * dim + 2 * 16 * dim
        # One slot and one sign per term, 2**4 table slots per run.
        plan = 8 * (2 * len(paulis) + 16 * runs)
        assert evolution.nbytes <= scratch + plan
        assert evolution.nbytes < 4 << 20  # a dense sign stack: 1.26 GB
        for name in caches:
            assert sum(a.nbytes for a in getattr(pauli_evolution, name).values()) <= limit
        assert all(
            codes.dtype == np.uint8 for codes in pauli_evolution._CODE_CACHE.values()
        )
