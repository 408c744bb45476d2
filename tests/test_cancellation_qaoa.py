"""Gate cancellation on QAOA-shaped circuits.

Chain-synthesized ZZ cost layers keep their rotation pinned between the
ladder CNOTs, so *unrouted* QAOA circuits cancel nothing -- the wins
appear when routing SWAPs interleave the layers' ladders.  These tests
pin both facts: the commute-aware pass must beat the adjacency-only
pass on a routed QAOA instance, and the fixed-point loop must terminate
within its theoretical pass bound (``num_gates + 2``).
"""

import numpy as np
import pytest

from repro.bench.corpus import qaoa_ising_ring_circuit, qaoa_maxcut_er_circuit
from repro.circuit import Circuit
from repro.circuit.gates import CNOT, H, RZ
from repro.compiler import (
    assert_circuit_routed_equivalent,
    cancel_gates,
    get_compiler,
)
from repro.hardware import get_device
from repro.sim import apply_circuit


def _same_unitary_on_zero(a: Circuit, b: Circuit) -> bool:
    overlap = np.vdot(apply_circuit(a), apply_circuit(b))
    return abs(abs(overlap) - 1.0) < 1e-8


class TestCommuteAwareWins:
    def test_interleaved_ladder_tails_cancel(self):
        # Two ZZ-ladder tails onto a shared root: the waves cancel
        # across each other only with commutation analysis.
        circuit = Circuit(3, [CNOT(0, 2), CNOT(1, 2), CNOT(0, 2), CNOT(1, 2)])
        assert cancel_gates(circuit).num_gates() == 4
        assert cancel_gates(circuit, commute=True).num_gates() == 0

    def test_rz_slides_through_control(self):
        # A cost rotation on the control wire does not block the ladder.
        circuit = Circuit(2, [CNOT(0, 1), RZ(0.3, 0), CNOT(0, 1)])
        optimized = cancel_gates(circuit, commute=True)
        assert optimized.num_gates() == 1
        assert optimized.gates[0].name == "rz"
        assert _same_unitary_on_zero(circuit, optimized)

    def test_routed_qaoa_commute_beats_adjacent(self):
        # Empirically pinned instance: ER n=8 p=2 MaxCut routed by SABRE
        # onto a 2x4 grid.  Routing SWAP decomposition interleaves the
        # ZZ-rotation layers' CNOT ladders, and only the commute-aware
        # pass recovers CNOTs from them.
        circuit = qaoa_maxcut_er_circuit(8, 2, seed=8)
        result = get_compiler("sabre").compile_circuit(
            circuit, get_device("grid2x4")
        )
        routed = result.circuit.decompose_swaps()
        adjacent = cancel_gates(routed)
        commuting = cancel_gates(routed, commute=True)
        assert commuting.num_cnots() < adjacent.num_cnots() <= routed.num_cnots()
        assert_circuit_routed_equivalent(circuit, result, circuit=commuting)

    def test_commuting_ring_layers_survive_cancellation(self):
        # Ising-ring cost layers fully commute; cancellation must
        # preserve the state whatever it removes.
        circuit = qaoa_ising_ring_circuit(6, 2, seed=5)
        optimized = cancel_gates(circuit, commute=True)
        assert _same_unitary_on_zero(circuit, optimized)


class TestFixedPointTermination:
    @pytest.mark.parametrize("layers", [1, 2])
    def test_terminates_within_pass_bound(self, layers):
        # Every productive sweep removes or merges at least one gate, so
        # num_gates + 2 sweeps (worst case + the confirming sweep) is a
        # hard bound; exceeding it means the peephole loops.
        circuit = qaoa_maxcut_er_circuit(6, layers, seed=6)
        result = get_compiler("sabre").compile_circuit(
            circuit, get_device("xtree6")
        )
        routed = result.circuit.decompose_swaps()
        for commute in (False, True):
            cancel_gates(
                routed, commute=commute, max_passes=routed.num_gates() + 2
            )

    def test_max_passes_budget_enforced(self):
        # A circuit with work to do needs its productive sweep plus the
        # confirming sweep; a 1-pass budget must trip the guard.
        circuit = Circuit(1, [H(0), H(0)])
        with pytest.raises(RuntimeError):
            cancel_gates(circuit, max_passes=1)
        assert cancel_gates(circuit, max_passes=2).num_gates() == 0

    def test_no_op_circuit_fits_single_pass(self):
        circuit = Circuit(2, [CNOT(0, 1), RZ(0.4, 1)])
        assert cancel_gates(circuit, max_passes=1).num_gates() == 2

    def test_cancellation_is_idempotent(self):
        circuit = qaoa_maxcut_er_circuit(6, 2, seed=9)
        routed = (
            get_compiler("mtr")
            .compile_circuit(circuit, get_device("xtree6"))
            .circuit.decompose_swaps()
        )
        once = cancel_gates(routed, commute=True)
        twice = cancel_gates(once, commute=True, max_passes=1)
        assert twice.gates == once.gates
