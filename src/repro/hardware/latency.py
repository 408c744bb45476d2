"""Per-gate latency model for scheduled-depth metrics.

The paper's compiler comparison counts CNOTs because on cross-resonance
hardware the two-qubit gate dominates: a CR CNOT takes an order of
magnitude longer than single-qubit rotations.  The default numbers here
are representative fixed-frequency transmon values (~35 ns single-qubit
pulses, ~300 ns echoed cross-resonance CNOT); routing SWAPs decompose
into three CNOTs.  The model feeds
:meth:`repro.circuit.Circuit.asap_schedule`, turning a routed circuit
into critical-path durations for Table II-style reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import Gate

#: Gate names that take no schedule time (structural markers).
_ZERO_DURATION = ("barrier",)


@dataclass(frozen=True)
class GateLatencyModel:
    """Name-keyed gate durations in nanoseconds."""

    single_qubit_ns: float = 35.0
    cx_ns: float = 300.0
    cz_ns: float = 300.0
    measure_ns: float = 0.0  # excluded from depth conventions by default

    def duration(self, gate: Gate) -> float:
        """Duration of one gate in nanoseconds."""
        name = gate.name
        if name in _ZERO_DURATION:
            return 0.0
        if name == "measure":
            return self.measure_ns
        if name == "cx":
            return self.cx_ns
        if name == "cz":
            return self.cz_ns
        if name == "swap":
            return 3.0 * self.cx_ns  # three CNOTs on CR hardware
        return self.single_qubit_ns


#: Shared default instance used by the metrics layer.
DEFAULT_LATENCY = GateLatencyModel()
