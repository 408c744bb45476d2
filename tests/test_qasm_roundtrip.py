"""Property-based QASM round-trip and located parse diagnostics."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.circuit.qasm import QasmError, from_qasm, to_qasm

_ONE_QUBIT = ("x", "y", "z", "h", "s", "sdg")
_ROTATIONS = ("rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz", "swap")

NUM_QUBITS = 5


@st.composite
def gates(draw):
    """One random gate over the full serializable gate set."""
    kind = draw(st.sampled_from(("one", "rotation", "two", "barrier", "measure")))
    qubit = draw(st.integers(0, NUM_QUBITS - 1))
    if kind == "one":
        return Gate(draw(st.sampled_from(_ONE_QUBIT)), (qubit,))
    if kind == "rotation":
        angle = draw(
            st.floats(
                -4.0 * math.pi,
                4.0 * math.pi,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        return Gate(draw(st.sampled_from(_ROTATIONS)), (qubit,), (angle,))
    if kind == "two":
        other = draw(
            st.integers(0, NUM_QUBITS - 1).filter(lambda q: q != qubit)
        )
        return Gate(draw(st.sampled_from(_TWO_QUBIT)), (qubit, other))
    if kind == "barrier":
        return Gate("barrier", ())
    return Gate("measure", (qubit,))


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(gates(), min_size=0, max_size=30))
    def test_round_trip_preserves_every_gate(self, gate_list):
        circuit = Circuit(NUM_QUBITS, gate_list)
        parsed = from_qasm(to_qasm(circuit))
        assert parsed.num_qubits == circuit.num_qubits
        assert len(parsed.gates) == len(circuit.gates)
        for original, recovered in zip(circuit.gates, parsed.gates):
            assert recovered.name == original.name
            assert recovered.qubits == original.qubits
            assert len(recovered.params) == len(original.params)
            for a, b in zip(original.params, recovered.params):
                assert abs(a - b) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(gates(), min_size=0, max_size=30))
    @example([Gate("rx", (0,), (-0.0,))])
    def test_round_trip_is_idempotent(self, gate_list):
        # Serializing the parsed circuit again is byte-identical: the
        # printer is a fixed point, which is what makes the corpus
        # regeneration byte-deterministic.
        text = to_qasm(Circuit(NUM_QUBITS, gate_list))
        assert to_qasm(from_qasm(text)) == text

    def test_pi_expressions_parse(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[1];\nrz(pi/4) q[0];\nrx(-3*pi/2) q[0];\n"
        )
        circuit = from_qasm(text)
        assert circuit.gates[0].params[0] == pytest.approx(math.pi / 4)
        assert circuit.gates[1].params[0] == pytest.approx(-1.5 * math.pi)


def _qasm(body: str, *, qubits: int = 3) -> str:
    return (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
        f"qreg q[{qubits}];\n{body}\n"
    )


class TestDiagnostics:
    def _error(self, text: str) -> QasmError:
        with pytest.raises(QasmError) as excinfo:
            from_qasm(text)
        return excinfo.value

    def test_unsupported_gate_located(self):
        error = self._error(_qasm("ccx q[0],q[1],q[2];"))
        assert error.line_number == 4
        assert "ccx" in str(error)
        assert "ccx q[0],q[1],q[2];" in str(error)

    def test_index_out_of_range_located(self):
        error = self._error(_qasm("h q[7];"))
        assert error.line_number == 4
        assert "7" in str(error)

    def test_missing_angle_located(self):
        error = self._error(_qasm("rz q[0];"))
        assert error.line_number == 4

    def test_unevaluable_angle_located(self):
        error = self._error(_qasm("rz(1/0) q[0];"))
        assert error.line_number == 4

    @pytest.mark.parametrize("angle", ["1e999", "-1e999", "1e999*0"])
    def test_non_finite_angle_rejected(self, angle):
        error = self._error(_qasm(f"rz({angle}) q[0];"))
        assert error.line_number == 4
        assert "non-finite angle" in str(error)

    def test_overflowing_angle_is_a_qasm_error(self):
        # A 401-digit integer has no float: int -> float raises
        # OverflowError, which must surface as a located QasmError.
        huge = "1" + "0" * 400
        for angle in (huge, f"{huge}/1", f"{huge}*1.0"):
            error = self._error(_qasm(f"rz({angle}) q[0];"))
            assert error.line_number == 4
            assert "cannot evaluate angle" in str(error)

    @pytest.mark.parametrize("angle", ["2**3", "10.0**400", "pi**2"])
    def test_power_operator_rejected(self, angle):
        # "**" never reaches eval: "9**9**9" would run for a very long time.
        error = self._error(_qasm(f"rz({angle}) q[0];"))
        assert error.line_number == 4
        assert "cannot parse angle" in str(error)

    def test_wrong_operand_count_located(self):
        error = self._error(_qasm("cx q[0];"))
        assert error.line_number == 4
        assert "operand" in str(error)

    def test_repeated_operand_rejected(self):
        error = self._error(_qasm("cx q[1],q[1];"))
        assert error.line_number == 4

    def test_statement_before_qreg(self):
        error = self._error(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nh q[0];\nqreg q[2];\n'
        )
        assert error.line_number == 3

    def test_duplicate_qreg(self):
        error = self._error(_qasm("qreg r[2];"))
        assert error.line_number == 4

    def test_malformed_operand(self):
        error = self._error(_qasm("h q0;"))
        assert error.line_number == 4
        assert "q0" in str(error)

    def test_unparseable_statement(self):
        error = self._error(_qasm("this is not qasm"))
        assert error.line_number == 4

    def test_qasm_error_is_value_error(self):
        # Callers that predate the located diagnostics catch ValueError.
        with pytest.raises(ValueError):
            from_qasm(_qasm("ccx q[0],q[1],q[2];"))
