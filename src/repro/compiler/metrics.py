"""Compiler evaluation metrics (Table II conventions).

"Mapping overhead" = CNOTs added on top of the unmapped chain-synthesized
circuit.  Every SWAP contributes three CNOTs.  The module also provides a
one-call comparison of the three flows the paper tabulates, plus the
scheduling dimension: ASAP-scheduled depth and latency-weighted
critical-path duration (:func:`schedule_report`, per-gate latencies from
:mod:`repro.hardware.latency`), computed in one per-wire pass over the
gate list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.circuit import Circuit
from repro.compiler.merge_to_root import MergeToRootCompiler
from repro.compiler.sabre import SabreRouter
from repro.compiler.synthesis import synthesize_program_chain
from repro.core.ir import PauliProgram
from repro.hardware.coupling import CouplingGraph
from repro.hardware.latency import DEFAULT_LATENCY, GateLatencyModel


@dataclass
class ScheduleReport:
    """ASAP-schedule metrics of one physical circuit.

    ``depth`` counts the listed circuit as-is (SWAPs one level each);
    ``scheduled_depth`` and ``duration_ns`` count each routing SWAP as
    its three-CNOT chain (three levels, three CNOT latencies), matching
    the paper's CNOT accounting.
    """

    depth: int
    scheduled_depth: int
    duration_ns: float


def schedule_report(
    circuit: Circuit, latency: GateLatencyModel = DEFAULT_LATENCY
) -> ScheduleReport:
    """Depth / critical-path metrics of a compiled circuit, in one pass."""
    return ScheduleReport(*circuit.asap_schedule(latency.duration))


@dataclass
class OverheadReport:
    """Mapping overhead of one flow on one program/device pair."""

    flow: str
    device: str
    original_cnots: int
    overhead_cnots: int
    num_swaps: int
    schedule: ScheduleReport
    circuit: Circuit | None = None

    @property
    def total_cnots(self) -> int:
        return self.original_cnots + self.overhead_cnots

    @property
    def overhead_ratio(self) -> float:
        if self.original_cnots == 0:
            return 0.0
        return self.overhead_cnots / self.original_cnots


def mapping_overhead(
    program: PauliProgram,
    xtree_graph: CouplingGraph,
    grid_graph: CouplingGraph | None = None,
    *,
    parameters: Sequence[float] | None = None,
    sabre_seed: int = 11,
    commute: bool = False,
    keep_circuits: bool = False,
) -> dict[str, OverheadReport]:
    """Compare MtR-on-XTree, SABRE-on-XTree and SABRE-on-Grid.

    Returns a dict keyed "mtr_xtree", "sabre_xtree" and (when a grid is
    given) "sabre_grid" -- the three columns of Table II.  Each
    report also carries the ASAP schedule metrics of its physical
    circuit; ``commute=True`` lets SABRE route over the
    commutation-aware DAG frontier; ``keep_circuits=True`` attaches each
    flow's physical circuit (for downstream peephole studies).
    """
    if parameters is None:
        parameters = [0.0] * program.num_parameters
    original = program.cnot_count()
    reports: dict[str, OverheadReport] = {}

    compiled = MergeToRootCompiler(xtree_graph).compile(program, parameters)
    reports["mtr_xtree"] = OverheadReport(
        flow="MtR",
        device=xtree_graph.name,
        original_cnots=original,
        overhead_cnots=compiled.overhead_cnots,
        num_swaps=compiled.num_swaps,
        schedule=schedule_report(compiled.circuit),
        circuit=compiled.circuit if keep_circuits else None,
    )

    chain = synthesize_program_chain(program, parameters)
    for key, graph in [("sabre_xtree", xtree_graph), ("sabre_grid", grid_graph)]:
        if graph is None:
            continue
        routed = SabreRouter(graph, seed=sabre_seed, commute=commute).run(chain)
        reports[key] = OverheadReport(
            flow="SABRE",
            device=graph.name,
            original_cnots=original,
            overhead_cnots=routed.overhead_cnots,
            num_swaps=routed.num_swaps,
            schedule=schedule_report(routed.circuit),
            circuit=routed.circuit if keep_circuits else None,
        )
    return reports
