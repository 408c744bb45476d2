"""Tests for Algorithm 1 (importance estimation) and ansatz compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from importance_oracle import decay_factor, string_score
from importance_oracle import parameter_importance as oracle_importance

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.core import IRTerm, PauliProgram, compress_ansatz, parameter_importance, random_ansatz
from repro.pauli import PauliString, PauliSum


class TestDecayFactor:
    def test_paper_figure4_example(self):
        # Pa = I Y X Z (q3..q0), PH = Y X X I: d = 3 (q3: Pa has I,
        # q0: PH has I, q1: equal X; q2 differs -> active).
        pa = PauliString.from_label("IYXZ")
        ph = PauliString.from_label("YXXI")
        assert decay_factor(pa, ph) == 3

    def test_all_identity_ansatz_string(self):
        pa = PauliString.identity(4)
        ph = PauliString.from_label("XYZX")
        assert decay_factor(pa, ph) == 4

    def test_fully_conflicting(self):
        pa = PauliString.from_label("XXXX")
        ph = PauliString.from_label("ZZZZ")
        assert decay_factor(pa, ph) == 0

    def test_equal_strings_decay_fully(self):
        pa = PauliString.from_label("XYZX")
        assert decay_factor(pa, pa) == 4

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            decay_factor(PauliString.from_label("X"), PauliString.from_label("XX"))

    @settings(max_examples=100, deadline=None)
    @given(
        st.text(alphabet="IXYZ", min_size=4, max_size=4),
        st.text(alphabet="IXYZ", min_size=4, max_size=4),
    )
    def test_matches_per_qubit_definition(self, a, b):
        pa, ph = PauliString.from_label(a), PauliString.from_label(b)
        expected = sum(
            1
            for q in range(4)
            if pa.op_on(q) == "I" or ph.op_on(q) == "I" or pa.op_on(q) == ph.op_on(q)
        )
        assert decay_factor(pa, ph) == expected


def shipped_score(pauli, hamiltonian, **kwargs):
    """The shipped scorer's score of one string (a one-term program)."""
    program = PauliProgram(pauli.num_qubits, 1, [IRTerm(pauli, 0.5, 0)])
    return parameter_importance(program, hamiltonian, **kwargs)[0]


class TestStringScore:
    def test_weighted_sum(self):
        hamiltonian = PauliSum.from_label_dict({"XX": 0.5, "ZZ": -0.25})
        pa = PauliString.from_label("XX")
        # d(XX, XX) = 2 -> 0.5/4; d(XX, ZZ) = 0 -> 0.25.
        assert string_score(pa, hamiltonian) == pytest.approx(0.5 / 4 + 0.25)
        assert shipped_score(pa, hamiltonian) == string_score(pa, hamiltonian)

    def test_identity_term_ignored(self):
        # The II term contributes nothing regardless of its weight.
        hamiltonian = PauliSum.from_label_dict({"II": 10.0, "XX": 0.5})
        without = PauliSum.from_label_dict({"XX": 0.5})
        pa = PauliString.from_label("YY")
        assert string_score(pa, hamiltonian) == string_score(pa, without)
        assert shipped_score(pa, hamiltonian) == shipped_score(pa, without)

    def test_decay_base_validation(self):
        hamiltonian = PauliSum.from_label_dict({"XX": 0.5})
        with pytest.raises(ValueError):
            shipped_score(PauliString.from_label("YY"), hamiltonian, decay_base=1.0)


class TestParameterImportance:
    def test_importance_shared_across_strings(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        importance = parameter_importance(program, problem.hamiltonian)
        assert importance.shape == (8,)
        assert np.all(importance > 0)

    def test_size_mismatch_rejected(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        other = PauliSum.from_label_dict({"XX": 1.0})
        with pytest.raises(ValueError):
            parameter_importance(program, other)


@st.composite
def scoring_cases(draw):
    """A random Pauli program, Hamiltonian and decay base.

    ``n`` crosses the 64-qubit word boundary; programs are drawn with
    and without Y; Hamiltonians may carry an identity term and draw
    weights from a small pool so that scores tie.
    """
    n = draw(st.integers(1, 70) | st.sampled_from([63, 64, 65, 70]))
    ansatz_label = st.text(
        alphabet=draw(st.sampled_from(["IXYZ", "IXZ"])), min_size=n, max_size=n
    )
    num_parameters = draw(st.integers(1, 6))
    terms = [
        IRTerm(PauliString.from_label(label), 0.5, draw(st.integers(0, num_parameters - 1)))
        for label in draw(st.lists(ansatz_label, max_size=12))
    ]
    weight = (
        st.sampled_from([0.5, -0.25, 0.125, 1.0])
        | st.floats(-2.0, 2.0)
        | st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    )
    labels = draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), max_size=24))
    if draw(st.booleans()):
        labels.append("I" * n)
    hamiltonian = PauliSum(
        n, {PauliString.from_label(label).key(): draw(weight) for label in labels}
    )
    program = PauliProgram(n, num_parameters, terms)
    return program, hamiltonian, draw(st.sampled_from([2.0, 4.0, 1.5]))


def assert_matches_oracle(program, hamiltonian, decay_base):
    got = parameter_importance(program, hamiltonian, decay_base=decay_base)
    want = oracle_importance(program, hamiltonian, decay_base=decay_base)
    assert np.array_equal(got, want)
    # The ranking compress_ansatz keeps follows, ties included.
    assert np.array_equal(
        np.argsort(-got, kind="stable"), np.argsort(-want, kind="stable")
    )


class TestOracleEquality:
    """The vectorized scorer is bit-identical to the per-pair loop."""

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_random_programs(self, case):
        assert_matches_oracle(*case)

    @pytest.mark.parametrize("molecule", ["H2", "LiH", "NaH", "HF", "H2O", "BeH2"])
    def test_molecules(self, molecule):
        problem = build_molecule_hamiltonian(molecule)
        program = build_uccsd_program(problem).program
        assert_matches_oracle(program, problem.hamiltonian, 2.0)


class TestImportanceValidation:
    @pytest.fixture(scope="class")
    def lih(self):
        problem = build_molecule_hamiltonian("LiH")
        return problem.hamiltonian, build_uccsd_program(problem).program

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_weight_rejected(self, lih, bad):
        hamiltonian, program = lih
        broken = PauliSum(hamiltonian.num_qubits, dict(hamiltonian.items()))
        broken.add_key(bad, (1, 0))
        for candidate in (program, PauliProgram(program.num_qubits, 0)):
            with pytest.raises(ValueError, match="finite"):
                parameter_importance(candidate, broken)
        with pytest.raises(ValueError, match="finite"):
            compress_ansatz(program, broken, 0.5)

    @pytest.mark.parametrize("base", [1.0, 0.5, -2.0, np.nan])
    def test_decay_base_rejected_even_for_empty_program(self, lih, base):
        hamiltonian, program = lih
        for candidate in (program, PauliProgram(program.num_qubits, 0)):
            with pytest.raises(ValueError, match="decay base"):
                parameter_importance(candidate, hamiltonian, decay_base=base)


class TestCompression:
    @pytest.fixture(scope="class")
    def lih(self):
        problem = build_molecule_hamiltonian("LiH")
        return problem, build_uccsd_program(problem).program

    def test_keep_counts_ceiling(self, lih):
        problem, program = lih
        for ratio, expected in [(0.1, 1), (0.3, 3), (0.5, 4), (0.7, 6), (0.9, 8)]:
            compressed = compress_ansatz(program, problem.hamiltonian, ratio)
            assert compressed.num_parameters == expected

    def test_full_ratio_keeps_everything(self, lih):
        problem, program = lih
        compressed = compress_ansatz(program, problem.hamiltonian, 1.0)
        assert compressed.num_parameters == program.num_parameters

    def test_invalid_ratio(self, lih):
        problem, program = lih
        with pytest.raises(ValueError):
            compress_ansatz(program, problem.hamiltonian, 0.0)
        with pytest.raises(ValueError):
            compress_ansatz(program, problem.hamiltonian, 1.5)

    def test_importance_ordering(self, lih):
        """Kept parameters appear in decreasing-importance order."""
        problem, program = lih
        compressed = compress_ansatz(program, problem.hamiltonian, 0.9)
        kept_importance = compressed.importance[compressed.kept_parameters]
        assert np.all(np.diff(kept_importance) <= 1e-12)

    def test_program_order_follows_kept_order(self, lih):
        problem, program = lih
        compressed = compress_ansatz(program, problem.hamiltonian, 0.5)
        seen_parameters = []
        for term in compressed.program:
            if term.parameter_index not in seen_parameters:
                seen_parameters.append(term.parameter_index)
        assert seen_parameters == sorted(seen_parameters)

    def test_compression_beats_random_on_lih(self, lih):
        """The paper's effectiveness claim: importance-selected 50% is at
        least as accurate as random 50% (averaged over seeds)."""
        from repro.sim import ground_state_energy
        from repro.vqe import VQE

        problem, program = lih
        exact = ground_state_energy(problem.hamiltonian)
        compressed = compress_ansatz(program, problem.hamiltonian, 0.5)
        smart = VQE(compressed.program, problem.hamiltonian).run()
        random_errors = []
        for seed in range(4):
            randomized = random_ansatz(program, 0.5, seed=seed)
            outcome = VQE(randomized.program, problem.hamiltonian).run()
            random_errors.append(abs(outcome.energy - exact))
        assert abs(smart.energy - exact) <= np.mean(random_errors) + 1e-10

    def test_random_ansatz_is_reproducible(self, lih):
        _, program = lih
        a = random_ansatz(program, 0.5, seed=3)
        b = random_ansatz(program, 0.5, seed=3)
        assert a.kept_parameters == b.kept_parameters
