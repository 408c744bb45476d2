"""Oracle tests for the noisy engines at the Pauli-string level.

:class:`~repro.sim.channel_plan.ChannelPlan` pushes every depolarizing
channel of a chain-synthesized program to a string boundary.  Both noisy
energies built on it are checked against the dense oracles of
:mod:`dense_oracle`, which run ``synthesize_program_chain(program, theta)``
gate by gate:

* ``DensityMatrixEnergy`` (Pauli-transfer coefficients) against
  ``Tr(H rho)`` of :func:`dense_density_matrix`;
* ``TrajectoryEnergy.values`` (Pauli-level rows) against
  :func:`dense_trajectories` with the same seed, row by row, and the
  energy's drawn errors against the oracle's, event by event;

both to 1e-12, on generated programs of 1-5 qubits with Y strings, long
Z chains, identity terms, shared parameters, Hartree-Fock occupations,
random one- and two-qubit rates and a noise model that leaves CNOTs
noiseless.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_density_matrix, dense_trajectories
from repro.circuit.gates import RZ
from repro.compiler.synthesis import synthesize_program_chain
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.sim import DepolarizingNoiseModel, channel_plan
from repro.sim.channel_plan import ChannelPlan, _conjugate
from repro.sim.trajectory import _noisy_gates
from repro.vqe.energy import DensityMatrixEnergy, TrajectoryEnergy

_RATES = (0.0, 1e-3, 0.05, 0.3, 1.0)


@st.composite
def _strings(draw, n):
    kind = draw(st.sampled_from(["random", "y", "z-chain", "identity"]))
    if kind == "identity":
        return "I" * n
    if kind == "z-chain":
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n - 1))
        ends = draw(st.sampled_from("XY")), draw(st.sampled_from("XY"))
        label = ["I"] * n
        for q in range(lo, hi + 1):
            label[q] = "Z"
        label[lo], label[hi] = ends[0], ends[1] if hi > lo else ends[0]
        return "".join(label)
    alphabet = "IY" if kind == "y" else "IXYZ"
    return draw(st.text(alphabet, min_size=n, max_size=n))


@st.composite
def _noisy_cases(draw):
    """A noisy program, Hamiltonian, parameters, trajectory draw."""
    n = draw(st.integers(1, 5))
    parameters = draw(st.integers(1, 3))
    terms = [
        IRTerm(
            PauliString.from_label(draw(_strings(n))),
            draw(st.floats(-1.5, 1.5)),
            draw(st.integers(0, parameters - 1)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    occupations = sorted(draw(st.sets(st.integers(0, n - 1))))
    program = PauliProgram(n, parameters, terms, occupations)
    labels = st.text("IXYZ", min_size=n, max_size=n)
    observable = PauliSum.from_label_dict(
        draw(st.dictionaries(labels, st.floats(-1.0, 1.0), min_size=1, max_size=5))
    )
    noisy_gates = draw(st.sampled_from([None, frozenset({"cz", "swap"})]))
    noise = DepolarizingNoiseModel(
        two_qubit_error=draw(st.sampled_from(_RATES)),
        one_qubit_error=draw(st.sampled_from(_RATES)),
        **({} if noisy_gates is None else {"noisy_gates": noisy_gates}),
    )
    theta = np.array(
        draw(st.lists(st.floats(-np.pi, np.pi), min_size=parameters, max_size=parameters))
    )
    draw_options = {
        "trajectories": draw(st.integers(1, 139)),
        "seed": draw(st.integers(0, 2**16)),
    }
    return program, observable, noise, theta, draw_options


def _case(labels, occupations, observable, noise, theta, parameter_indices=None):
    n = len(labels[0])
    indices = parameter_indices or [0] * len(labels)
    terms = [
        IRTerm(PauliString.from_label(label), 0.5 + 0.25 * k, index)
        for k, (label, index) in enumerate(zip(labels, indices))
    ]
    program = PauliProgram(n, max(indices) + 1, terms, occupations)
    options = {"trajectories": 16, "seed": 3}
    return program, PauliSum.from_label_dict(observable), noise, np.array(theta), options


_LONG_CHAIN = _case(
    ["XZZZY", "IIIII", "YZZXI", "ZIIIZ"],
    [0, 2],
    {"ZZIII": 0.7, "XXYYI": -0.4, "IIIII": 1.2, "YZZZY": 0.3},
    DepolarizingNoiseModel(two_qubit_error=0.2, one_qubit_error=0.05),
    [0.4, -0.9],
    [0, 0, 1, 1],
)
_NOISELESS_CNOTS = _case(
    ["XY", "YX", "ZZ"],
    [1],
    {"ZI": 1.0, "XY": 0.5},
    DepolarizingNoiseModel(
        two_qubit_error=0.5, one_qubit_error=0.1, noisy_gates=frozenset({"cz"})
    ),
    [0.3],
)


#: Three 64-row blocks, the last one ragged.
_RAGGED_BLOCKS = _LONG_CHAIN[:4] + ({"trajectories": 130, "seed": 8},)


def _gate_level_density_matrix(program, observable, noise, theta):
    rho = dense_density_matrix(synthesize_program_chain(program, theta), noise)
    return np.trace(observable.to_matrix() @ rho).real


class TestDensityMatrixOracle:
    @settings(max_examples=120, deadline=None)
    @given(_noisy_cases())
    @example(_LONG_CHAIN)
    @example(_NOISELESS_CNOTS)
    def test_matches_gate_level_density_matrix(self, case):
        program, observable, noise, theta, _ = case
        energy = DensityMatrixEnergy(program, observable, noise)
        expected = _gate_level_density_matrix(program, observable, noise, theta)
        assert energy(theta) == pytest.approx(expected, rel=0, abs=1e-12)
        # A second call reuses the kept tables and buffers.
        assert energy(theta) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_tables_rebuilt_past_the_byte_limit(self, monkeypatch):
        program, observable, noise, theta, _ = _LONG_CHAIN
        kept = DensityMatrixEnergy(program, observable, noise)
        value = kept(theta)
        assert kept.evolution._tables
        monkeypatch.setattr(channel_plan, "_TABLE_BYTE_LIMIT", 0)
        rebuilt = DensityMatrixEnergy(program, observable, noise)
        assert rebuilt(theta) == pytest.approx(value, rel=0, abs=1e-14)
        assert rebuilt.evolution._tables == {}

    def test_qubit_cap(self):
        program = PauliProgram(13, 0)
        observable = PauliSum.from_label_dict({"Z" * 13: 1.0})
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            DensityMatrixEnergy(program, observable)


class TestTrajectoryOracle:
    @settings(max_examples=120, deadline=None)
    @given(_noisy_cases())
    @example(_LONG_CHAIN)
    @example(_NOISELESS_CNOTS)
    @example(_RAGGED_BLOCKS)
    def test_rows_match_gate_level_trajectories(self, case):
        program, observable, noise, theta, options = case
        circuit = synthesize_program_chain(program, theta)
        energy = TrajectoryEnergy(program, observable, noise, **options)
        expected, events = dense_trajectories(circuit, observable, noise, **options)
        np.testing.assert_allclose(energy.values(theta), expected, rtol=0, atol=1e-12)
        assert energy(theta) == pytest.approx(expected.mean(), rel=0, abs=1e-12)
        assert energy.last_error_events == len(events)
        # The kept draw is the oracle's, error by error, in draw order.
        drawn = zip(*(column.tolist() for column in energy._events))
        assert list(drawn) == events

    @settings(max_examples=40, deadline=None)
    @given(_noisy_cases())
    def test_signature_is_angle_independent(self, case):
        program, _, noise, theta, _ = case
        circuit = synthesize_program_chain(program, theta)
        assert ChannelPlan(program, noise).signature == _noisy_gates(circuit, noise)[1]


class TestChannelPlan:
    def test_rejects_a_non_clifford_gate(self):
        with pytest.raises(ValueError, match="rz"):
            _conjugate(RZ(0.3, 0), 1, 0)

    def test_every_error_lands_at_a_string_boundary(self):
        program, _, noise, _, _ = _LONG_CHAIN
        plan = ChannelPlan(program, noise)
        # Errors before a string's RZ precede that string, errors from it
        # on precede the next term (the identity term 1 has no block), and
        # the Hartree-Fock prefix's errors precede term 0.
        firsts = set()
        for ordinal, (qubits, _) in enumerate(plan.signature):
            error = PauliString.from_ops(program.num_qubits, {qubits[0]: "X"})
            first, _, _ = plan.boundary_pauli(ordinal, error)
            firsts.add(first)
        assert firsts == {0, 1, 2, 3, 4}
