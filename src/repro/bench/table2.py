"""Table II: mapping overhead of MtR vs SABRE on XTree17Q / Grid17Q."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ansatz.uccsd import build_uccsd_program
from repro.chem.hamiltonian import build_molecule_hamiltonian
from repro.compiler.metrics import mapping_overhead
from repro.core.compression import compress_ansatz
from repro.hardware.registry import get_device

#: The compression ratios tabulated by the paper.
PAPER_RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: The paper's Table II, for side-by-side comparison in reports:
#: molecule -> ratio -> (original, mtr_xtree, sabre_xtree, sabre_grid).
TABLE2_PAPER: dict[str, dict[float, tuple[int, int, int, int]]] = {
    "H2": {
        0.1: (48, 0, 0, 0), 0.3: (48, 0, 0, 0), 0.5: (52, 0, 0, 0),
        0.7: (56, 6, 0, 0), 0.9: (56, 6, 0, 0),
    },
    "LiH": {
        0.1: (80, 0, 48, 0), 0.3: (208, 6, 126, 6), 0.5: (256, 6, 132, 9),
        0.7: (272, 12, 150, 15), 0.9: (280, 18, 168, 18),
    },
    "NaH": {
        0.1: (176, 0, 162, 12), 0.3: (448, 0, 777, 12), 0.5: (672, 0, 1002, 87),
        0.7: (736, 3, 1197, 120), 0.9: (764, 21, 1470, 123),
    },
    "HF": {
        0.1: (400, 0, 633, 87), 0.3: (912, 0, 1863, 126), 0.5: (1264, 0, 2034, 267),
        0.7: (1552, 6, 2163, 372), 0.9: (1608, 36, 2502, 612),
    },
    "BeH2": {
        0.1: (1504, 3, 3315, 621), 0.3: (3808, 6, 6513, 1395),
        0.5: (5696, 24, 13416, 4005), 0.7: (7248, 51, 14268, 5253),
        0.9: (7984, 228, 17862, 8091),
    },
    "H2O": {
        0.1: (1536, 0, 3132, 1110), 0.3: (3840, 12, 7764, 1725),
        0.5: (5712, 18, 12495, 2034), 0.7: (7280, 75, 13266, 2514),
        0.9: (7988, 135, 15618, 3156),
    },
    "BH3": {
        0.1: (3664, 0, 9489, 2163), 0.3: (9632, 39, 23811, 7632),
        0.5: (14560, 108, 35289, 9654), 0.7: (18368, 237, 45603, 17010),
        0.9: (20824, 606, 46395, 21165),
    },
    "NH3": {
        0.1: (3680, 0, 11646, 1959), 0.3: (9696, 30, 20622, 5844),
        0.5: (14592, 72, 35523, 8568), 0.7: (18480, 183, 42348, 12375),
        0.9: (20824, 522, 48447, 13668),
    },
    "CH4": {
        0.1: (7136, 0, 23796, 4788), 0.3: (19040, 45, 56799, 18939),
        0.5: (28992, 120, 79821, 25173), 0.7: (36656, 366, 99831, 33792),
        0.9: (41632, 1005, 111876, 39729),
    },
}


@dataclass
class Table2Row:
    molecule: str
    ratio: float
    original_cnots: int
    mtr_xtree_overhead: int
    sabre_xtree_overhead: int
    sabre_grid_overhead: int | None
    # ASAP-scheduled depth / critical-path duration of the MtR circuit,
    # and SABRE's scheduled depth on the tree.
    mtr_scheduled_depth: int
    mtr_duration_ns: float
    sabre_xtree_scheduled_depth: int
    # Filled when ``commute=`` is on: total MtR CNOTs after the
    # adjacency-only vs. commutation-aware peephole cancellation.
    mtr_cnots_adjacency: int | None = None
    mtr_cnots_commute: int | None = None

    @property
    def mtr_vs_sabre_xtree(self) -> float:
        if self.sabre_xtree_overhead == 0:
            return 0.0
        return self.mtr_xtree_overhead / self.sabre_xtree_overhead


def table2_row(
    molecule: str,
    ratio: float,
    *,
    include_grid: bool = True,
    sabre_seed: int = 11,
    tree_device: str = "xtree17",
    grid_device: str = "grid17",
    commute: bool = False,
) -> Table2Row:
    """One Table II row, scheduled-depth columns included; ``commute``
    routes SABRE over the commutation-aware frontier while filling the
    adjacency-vs-commutation cancellation columns (the same semantics as
    the ``PipelineConfig`` knob)."""
    problem = build_molecule_hamiltonian(molecule)
    program = build_uccsd_program(problem).program
    compressed = compress_ansatz(program, problem.hamiltonian, ratio)
    reports = mapping_overhead(
        compressed.program,
        get_device(tree_device),
        get_device(grid_device) if include_grid else None,
        sabre_seed=sabre_seed,
        commute=commute,
        keep_circuits=commute,
    )
    grid_overhead = (
        reports["sabre_grid"].overhead_cnots if "sabre_grid" in reports else None
    )
    row = Table2Row(
        molecule=molecule,
        ratio=ratio,
        original_cnots=compressed.program.cnot_count(),
        mtr_xtree_overhead=reports["mtr_xtree"].overhead_cnots,
        sabre_xtree_overhead=reports["sabre_xtree"].overhead_cnots,
        sabre_grid_overhead=grid_overhead,
        mtr_scheduled_depth=reports["mtr_xtree"].schedule.scheduled_depth,
        mtr_duration_ns=reports["mtr_xtree"].schedule.duration_ns,
        sabre_xtree_scheduled_depth=reports["sabre_xtree"].schedule.scheduled_depth,
    )
    if commute:
        from repro.compiler.cancellation import cancel_gates

        physical = reports["mtr_xtree"].circuit.decompose_swaps()
        row.mtr_cnots_adjacency = cancel_gates(physical).num_cnots()
        row.mtr_cnots_commute = cancel_gates(physical, commute=True).num_cnots()
    return row


def table2_rows(
    molecules: list[str],
    ratios: tuple[float, ...] = PAPER_RATIOS,
    *,
    include_grid: bool = True,
    commute: bool = False,
) -> list[Table2Row]:
    return [
        table2_row(molecule, ratio, include_grid=include_grid, commute=commute)
        for molecule in molecules
        for ratio in ratios
    ]
