"""OpenQASM 2.0 export / import for the circuit IR.

Lets compiled circuits leave the library (e.g. toward a hardware provider
or Qiskit for cross-checking) and supports a round-trip subset: the gate
vocabulary the compilers emit (x, y, z, h, s, sdg, rx, ry, rz, cx, cz,
swap, barrier, measure).

Parse failures raise :class:`QasmError`, a diagnostic-style error that
carries the 1-based line number and the offending source line, so a bad
corpus file points at its own defect instead of at the parser.
"""

from __future__ import annotations

import math
import re
from typing import Callable

from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_ONE_QUBIT = {"x", "y", "z", "h", "s", "sdg"}
_ROTATION = {"rx", "ry", "rz"}
_TWO_QUBIT = {"cx", "cz", "swap"}

#: Operand arity of every parseable gate mnemonic.
_ARITY = {name: 1 for name in _ONE_QUBIT | _ROTATION}
_ARITY.update({name: 2 for name in _TWO_QUBIT})


class QasmError(ValueError):
    """A malformed OpenQASM input, located at its source line."""

    def __init__(
        self,
        message: str,
        *,
        line_number: int | None = None,
        line: str | None = None,
    ) -> None:
        self.line_number = line_number
        self.line = line
        located = message
        if line_number is not None:
            located = f"line {line_number}: {message}"
        if line is not None:
            located = f"{located}\n    {line.strip()}"
        super().__init__(located)


def to_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 2.0 text."""
    lines = [_HEADER + f"qreg q[{circuit.num_qubits}];"]
    has_measure = any(g.name == "measure" for g in circuit.gates)
    if has_measure:
        lines.append(f"creg c[{circuit.num_qubits}];")
    for gate in circuit.gates:
        lines.append(_gate_to_qasm(gate))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate) -> str:
    operands = ",".join(f"q[{q}]" for q in gate.qubits)
    if gate.name in _ONE_QUBIT or gate.name in _TWO_QUBIT:
        return f"{gate.name} {operands};"
    if gate.name in _ROTATION:
        # Adding +0.0 turns -0.0 into 0.0: the parser reads "-0" back
        # as 0.0, so printing the sign would break the round trip.
        return f"{gate.name}({gate.params[0] + 0.0:.17g}) {operands};"
    if gate.name == "barrier":
        # An operand-free barrier is QASM's whole-register form.
        return f"barrier {operands};" if operands else "barrier q;"
    if gate.name == "measure":
        qubit = gate.qubits[0]
        return f"measure q[{qubit}] -> c[{qubit}];"
    raise ValueError(f"gate {gate.name!r} has no QASM form")


_QREG_RE = re.compile(r"^qreg\s+(\w+)\s*\[\s*(\d+)\s*\]\s*;$")
_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)\s*(?:\((?P<angle>[^)]*)\))?\s+(?P<operands>[^;]+);$"
)
_OPERAND_RE = re.compile(r"^\w+\s*\[\s*(\d+)\s*\]$")
_MEASURE_RE = re.compile(
    r"^measure\s+(\w+\s*\[\s*\d+\s*\])\s*->\s*\w+\s*\[\s*\d+\s*\]\s*;$"
)


def from_qasm(text: str) -> Circuit:
    """Parse the supported OpenQASM 2.0 subset back into a circuit.

    Raises :class:`QasmError` (with the 1-based line number and source
    line) on malformed input: missing/duplicate ``qreg``, unknown gate
    mnemonics, wrong operand counts, repeated operands on two-qubit
    gates, out-of-range qubit indices, and missing, unparseable or
    non-finite rotation angles.
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//")[0].strip()
        if not line or line.startswith(("OPENQASM", "include", "creg")):
            continue

        def fail(message: str) -> QasmError:
            return QasmError(message, line_number=line_number, line=raw_line)

        if line.startswith("qreg"):
            qreg = _QREG_RE.match(line)
            if not qreg:
                raise fail("malformed qreg declaration")
            if num_qubits is not None:
                raise fail("duplicate qreg declaration (one register supported)")
            num_qubits = int(qreg.group(2))
            continue
        if num_qubits is None:
            raise fail("statement before the qreg declaration")
        if line.startswith("measure"):
            measure = _MEASURE_RE.match(line)
            if not measure:
                raise fail("malformed measure (expected 'measure q[i] -> c[j];')")
            qubit = _parse_operand(measure.group(1), num_qubits, fail)
            gates.append(Gate("measure", (qubit,)))
            continue
        match = _GATE_RE.match(line)
        if not match:
            raise fail("unparseable statement (expected '<gate> <operands>;')")
        name = match.group("name")
        operand_text = [
            part.strip() for part in match.group("operands").split(",")
        ]
        if name == "barrier":
            if operand_text == ["q"]:
                gates.append(Gate("barrier", ()))
            else:
                qubits = tuple(
                    _parse_operand(part, num_qubits, fail) for part in operand_text
                )
                gates.append(Gate("barrier", qubits))
            continue
        if name not in _ARITY:
            raise fail(f"unsupported QASM gate {name!r}")
        operands = tuple(
            _parse_operand(part, num_qubits, fail) for part in operand_text
        )
        if len(operands) != _ARITY[name]:
            raise fail(
                f"gate {name!r} takes {_ARITY[name]} operand(s), "
                f"got {len(operands)}"
            )
        if len(operands) == 2 and operands[0] == operands[1]:
            raise fail(f"gate {name!r} repeats operand q[{operands[0]}]")
        if name in _ROTATION:
            angle = _parse_angle(match.group("angle"), fail)
            gates.append(Gate(name, operands, (angle,)))
        else:
            if match.group("angle") is not None:
                raise fail(f"gate {name!r} takes no parameter")
            gates.append(Gate(name, operands))
    if num_qubits is None:
        raise QasmError("missing qreg declaration")
    return Circuit(num_qubits, gates)


_Fail = Callable[[str], QasmError]


def _parse_operand(text: str, num_qubits: int, fail: _Fail) -> int:
    match = _OPERAND_RE.match(text.strip())
    if not match:
        raise fail(f"malformed operand {text.strip()!r} (expected 'q[<index>]')")
    index = int(match.group(1))
    if index >= num_qubits:
        raise fail(
            f"qubit index {index} out of range for qreg of size {num_qubits}"
        )
    return index


def _parse_angle(text: str | None, fail: _Fail) -> float:
    if text is None:
        raise fail("rotation gate missing its angle")
    value = text.strip().replace("pi", repr(math.pi))
    # Allow simple arithmetic like "pi/2" or "-3*pi/4", but no power:
    # "9**9**9" would keep eval busy for a very long time.
    if not value or not re.fullmatch(r"[-+*/(). 0-9e]+", value) or "**" in value:
        raise fail(f"cannot parse angle {text.strip()!r}")
    try:
        angle = float(eval(value, {"__builtins__": {}}, {}))  # noqa: S307 - sanitized
    except (SyntaxError, ZeroDivisionError, TypeError, NameError, OverflowError) as error:
        raise fail(f"cannot evaluate angle {text.strip()!r}: {error}") from error
    if not math.isfinite(angle):
        raise fail(f"non-finite angle {text.strip()!r}")
    return angle
