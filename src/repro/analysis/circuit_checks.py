"""The circuit sanitizer: static checks over every compiled artifact.

Each check here validates one structural invariant of the co-optimization
flow in linear time -- the complement of the exponential dynamic verifier
(:func:`repro.compiler.verify.assert_routed_equivalent`), which is
skipped on big circuits.  The checks walk three artifact families:

* **Circuits** (:class:`~repro.circuit.circuit.Circuit`): qubit-index
  bounds, gate-set conformance, unbound/NaN parameters, and -- when a
  device is supplied -- coupling-graph legality of every two-qubit gate;
* **Compiled results** (:class:`~repro.compiler.merge_to_root.CompiledProgram`,
  :class:`~repro.compiler.sabre.SabreResult`, anything satisfying the
  compiled-result protocol): everything above on the physical circuit,
  plus layout permutation consistency -- injectivity, bounds, and that
  replaying the circuit's SWAPs transforms ``initial_layout`` into
  exactly ``final_layout`` -- plus SWAP accounting;
* **Pauli programs** (:class:`~repro.core.ir.PauliProgram`): support
  bounds, parameter wiring, finite coefficients, occupation sanity.

All checks are registered into the :mod:`repro.analysis.diagnostics`
registry at import; :func:`repro.analysis.check` runs the applicable
subset over any artifact.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator

from repro.analysis.diagnostics import Check, Diagnostic, register_check
from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate, _MATRIX_BUILDERS
from repro.core.ir import PauliProgram
from repro.hardware.coupling import CouplingGraph

#: Gate names the simulators and synthesis layers understand.  A gate
#: outside this vocabulary has no matrix, no kernel, and no QASM export.
KNOWN_GATES = frozenset(_MATRIX_BUILDERS) | {"barrier", "measure"}

#: Gates that carry no semantics for coupling legality.
_NON_INTERACTING = frozenset({"barrier", "measure"})

#: Expected parameter arity per known gate (rotations take one angle).
_PARAM_ARITY = {name: (1 if name in ("rx", "ry", "rz") else 0) for name in KNOWN_GATES}


def is_compiled_result(obj: Any) -> bool:
    """True for objects satisfying the compiled-result protocol."""
    return all(
        hasattr(obj, attribute)
        for attribute in ("circuit", "initial_layout", "final_layout", "num_swaps")
    )


def _circuit_of(obj: Any) -> Circuit | None:
    """The gate container behind an artifact (None when there is none)."""
    if isinstance(obj, Circuit):
        return obj
    if is_compiled_result(obj):
        circuit = obj.circuit
        return circuit if isinstance(circuit, Circuit) else None
    return None


def _gate_location(index: int, gate: Gate) -> str:
    return f"gate {index} ({gate!r})"


class CircuitLevelCheck(Check):
    """Base for checks that walk the gate list of circuit-like artifacts."""

    def applies_to(self, obj: Any) -> bool:
        return _circuit_of(obj) is not None

    def run(self, obj: Any, device: Any = None) -> Iterable[Diagnostic]:
        circuit = _circuit_of(obj)
        assert circuit is not None  # applies_to guarantees it
        return self.run_circuit(circuit, device)

    def run_circuit(
        self, circuit: Circuit, device: CouplingGraph | None
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError


class QubitBoundsCheck(CircuitLevelCheck):
    """Every gate's qubits are in-range, distinct, and fit the device."""

    name = "qubit-bounds"

    def run_circuit(
        self, circuit: Circuit, device: CouplingGraph | None
    ) -> Iterator[Diagnostic]:
        width = circuit.num_qubits
        if device is not None and width > device.num_qubits:
            yield self.error(
                f"circuit spans {width} qubits but device "
                f"{device.name} has only {device.num_qubits}",
                location="circuit header",
                fix_hint="route onto a larger device or shrink the program",
            )
        for index, gate in enumerate(circuit.gates):
            for qubit in gate.qubits:
                if not 0 <= qubit < width:
                    yield self.error(
                        f"qubit {qubit} out of range for a {width}-qubit circuit",
                        location=_gate_location(index, gate),
                        fix_hint="qubit indices must satisfy 0 <= q < num_qubits",
                    )
            if gate.name not in _NON_INTERACTING and len(set(gate.qubits)) != len(
                gate.qubits
            ):
                yield self.error(
                    "gate lists the same qubit twice",
                    location=_gate_location(index, gate),
                    fix_hint="two-qubit gates need two distinct qubits",
                )


class GateSetCheck(CircuitLevelCheck):
    """Gates are drawn from the known vocabulary and the device's basis."""

    name = "gate-set"

    def run_circuit(
        self, circuit: Circuit, device: CouplingGraph | None
    ) -> Iterator[Diagnostic]:
        native = getattr(device, "gate_set", None) if device is not None else None
        for index, gate in enumerate(circuit.gates):
            if gate.name not in KNOWN_GATES:
                yield self.error(
                    f"unknown gate {gate.name!r}: no matrix, kernel, or QASM "
                    "export exists for it",
                    location=_gate_location(index, gate),
                    fix_hint=f"use one of: {', '.join(sorted(KNOWN_GATES))}",
                )
            elif (
                native is not None
                and gate.name not in native
                and gate.name not in _NON_INTERACTING
            ):
                yield self.error(
                    f"gate {gate.name!r} is outside the native gate set of "
                    f"device {device.name}",
                    location=_gate_location(index, gate),
                    fix_hint=f"decompose into: {', '.join(sorted(native))}",
                )


class GateParameterCheck(CircuitLevelCheck):
    """Rotation angles are bound, finite, and of the right arity."""

    name = "gate-parameters"

    def run_circuit(
        self, circuit: Circuit, device: CouplingGraph | None
    ) -> Iterator[Diagnostic]:
        for index, gate in enumerate(circuit.gates):
            for value in gate.params:
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    yield self.error(
                        f"unbound or non-finite parameter {value!r}",
                        location=_gate_location(index, gate),
                        fix_hint="bind concrete finite angles before compiling "
                        "(NaN usually means an unbound template parameter)",
                    )
            expected = _PARAM_ARITY.get(gate.name)
            if expected is not None and len(gate.params) != expected:
                yield self.error(
                    f"gate {gate.name!r} carries {len(gate.params)} parameter(s), "
                    f"expected {expected}",
                    location=_gate_location(index, gate),
                    fix_hint="rotations take exactly one angle; other gates none",
                )


class CouplingLegalityCheck(CircuitLevelCheck):
    """Every two-qubit gate of a physical circuit lies on a device edge.

    Only meaningful for *physical* circuits (routed results, or circuits
    the caller asserts are laid out on the device); it is skipped when no
    device is supplied.  Out-of-range gates are left to ``qubit-bounds``.
    """

    name = "coupling-legality"
    requires_device = True

    def run_circuit(
        self, circuit: Circuit, device: CouplingGraph | None
    ) -> Iterator[Diagnostic]:
        assert device is not None  # requires_device guarantees it
        for index, gate in enumerate(circuit.gates):
            if not gate.is_two_qubit() or gate.name in _NON_INTERACTING:
                continue
            a, b = gate.qubits
            if not (
                0 <= a < device.num_qubits
                and 0 <= b < device.num_qubits
                and a != b
            ):
                continue  # qubit-bounds reports these
            if not device.are_connected(a, b):
                yield self.error(
                    f"two-qubit gate on ({a}, {b}): not an edge of "
                    f"{device.name}",
                    location=_gate_location(index, gate),
                    fix_hint="insert routing SWAPs or fix the layout; "
                    "physical 2q gates must act on coupled qubits",
                )


def _replay_swaps(
    circuit: Circuit, initial_layout: dict[int, int]
) -> dict[int, int]:
    """The final layout implied by the circuit's SWAPs."""
    position = dict(initial_layout)
    occupant = {p: l for l, p in position.items()}
    for gate in circuit.gates:
        if gate.name != "swap":
            continue
        a, b = gate.qubits
        logical_a = occupant.pop(a, None)
        logical_b = occupant.pop(b, None)
        if logical_a is not None:
            position[logical_a] = b
            occupant[b] = logical_a
        if logical_b is not None:
            position[logical_b] = a
            occupant[a] = logical_b
    return position


class LayoutPermutationCheck(Check):
    """Layouts are injective, in-bounds, and consistent with the SWAPs.

    The strongest static statement about a routed artifact short of
    simulation: ``final_layout`` must be exactly the permutation obtained
    by pushing ``initial_layout`` through the circuit's SWAP gates, and
    ``num_swaps`` must match the circuit's SWAP count (the paper's
    ``3 * #SWAPs`` overhead accounting depends on it).
    """

    name = "layout-permutation"

    def applies_to(self, obj: Any) -> bool:
        return is_compiled_result(obj)

    def run(self, obj: Any, device: Any = None) -> Iterator[Diagnostic]:
        circuit: Circuit = obj.circuit
        width = device.num_qubits if device is not None else circuit.num_qubits
        layouts_sane = True
        for label in ("initial_layout", "final_layout"):
            layout: dict[int, int] = getattr(obj, label)
            values = list(layout.values())
            if len(set(values)) != len(values):
                layouts_sane = False
                yield self.error(
                    f"{label} maps two logical qubits to one physical qubit",
                    location=label,
                    fix_hint="layouts must be injective logical -> physical maps",
                )
            out_of_range = [p for p in values if not 0 <= p < width]
            if out_of_range:
                layouts_sane = False
                yield self.error(
                    f"{label} targets physical qubit(s) {out_of_range} outside "
                    f"the {width}-qubit device",
                    location=label,
                    fix_hint="physical indices must satisfy 0 <= p < num_qubits",
                )
        if set(obj.initial_layout) != set(obj.final_layout):
            layouts_sane = False
            yield self.error(
                "initial and final layouts cover different logical qubits",
                location="final_layout",
                fix_hint="routing permutes logical qubits; it never adds or "
                "drops them",
            )
        swap_count = circuit.num_swaps()
        if int(obj.num_swaps) != swap_count:
            yield self.error(
                f"result claims {obj.num_swaps} SWAPs but the circuit "
                f"contains {swap_count}",
                location="num_swaps",
                fix_hint="overhead accounting (3 CNOTs per SWAP) relies on "
                "this counter matching the circuit",
            )
        if not layouts_sane:
            return  # replay would only cascade noise
        replayed = _replay_swaps(circuit, obj.initial_layout)
        if replayed != dict(obj.final_layout):
            moved = sorted(
                l
                for l in obj.final_layout
                if replayed.get(l) != obj.final_layout[l]
            )
            yield self.error(
                f"final_layout disagrees with the SWAP replay of "
                f"initial_layout for logical qubit(s) {moved}",
                location="final_layout",
                fix_hint="the final layout must equal the initial layout "
                "pushed through the circuit's SWAP gates in order",
            )


class PauliProgramCheck(Check):
    """Structural sanity of the Pauli-string IR feeding the compilers."""

    name = "pauli-program"

    def applies_to(self, obj: Any) -> bool:
        return isinstance(obj, PauliProgram)

    def run(self, obj: PauliProgram, device: Any = None) -> Iterator[Diagnostic]:
        for index, term in enumerate(obj.terms):
            location = f"term {index}"
            if term.pauli.num_qubits != obj.num_qubits:
                yield self.error(
                    f"Pauli string spans {term.pauli.num_qubits} qubits, "
                    f"program {obj.num_qubits}",
                    location=location,
                    fix_hint="every term must live on the program's register",
                )
            if not 0 <= term.parameter_index < obj.num_parameters:
                yield self.error(
                    f"parameter index {term.parameter_index} out of range for "
                    f"{obj.num_parameters} parameters",
                    location=location,
                    fix_hint="binding would read past the parameter vector",
                )
            if not math.isfinite(term.coefficient):
                yield self.error(
                    f"non-finite Jordan-Wigner coefficient {term.coefficient!r}",
                    location=location,
                    fix_hint="coefficients feed rotation angles; NaN poisons "
                    "the whole statevector",
                )
        occupations = list(obj.initial_occupations)
        if len(set(occupations)) != len(occupations):
            yield self.error(
                "duplicate qubit in initial occupations",
                location="initial_occupations",
                fix_hint="each Hartree-Fock X gate targets a distinct qubit",
            )
        for qubit in occupations:
            if not 0 <= qubit < obj.num_qubits:
                yield self.error(
                    f"initial occupation on qubit {qubit}, program has "
                    f"{obj.num_qubits}",
                    location="initial_occupations",
                    fix_hint="occupations must index the program register",
                )


def _register_builtin_checks() -> None:
    for check in (
        QubitBoundsCheck(),
        GateSetCheck(),
        GateParameterCheck(),
        CouplingLegalityCheck(),
        LayoutPermutationCheck(),
        PauliProgramCheck(),
    ):
        register_check(check)


_register_builtin_checks()
