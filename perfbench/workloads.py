"""The benchmark's four workloads, scaled to fit a repeated, timed run.

``setup(seed)`` builds the inputs, chemistry included, and counts toward
``setup_s``.  ``run(state)`` is one pass and returns a list of outputs;
the worker times it twice, cold and then warm.  ``quality(cold)`` sums
the figures a user reads off the results, and ``check(state, cold, warm,
outcome)`` compares the outputs with oracles that do not share the code
under test; both run outside the timed region.

The seed derives every random choice the library is handed (SABRE seeds,
the trajectory seed), so a claim can be rechecked on an unseen seed.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Any

import numpy as np

import repro
import repro.core.pipeline as pipeline
from repro.analysis import check as static_check
from repro.ansatz.uccsd import build_uccsd_program
from repro.bench.corpus import corpus_devices
from repro.bench.fig9 import default_bond_lengths
from repro.chem.hamiltonian import build_molecule_hamiltonian
from repro.circuit.qasm import from_qasm
from repro.compiler.verify import (
    assert_circuit_routed_equivalent,
    assert_routed_equivalent,
)
from repro.core.compression import compress_ansatz
from repro.sim.noise import DepolarizingNoiseModel
from repro.vqe.energy import DensityMatrixEnergy
from repro.vqe.scan import bond_scan

from tracing import PASS_TIMES_KEY

#: Root of the checkout (the benchmark directory's parent).
ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path("benchmarks") / "corpus"

#: Items up to this many logical qubits are also simulated and compared
#: with their logical reference through the final layout.
EQUIVALENCE_MAX_QUBITS = 10
TOLERANCE = 1e-9

def derive_seed(seed: int, label: str) -> int:
    """A library seed drawn from the workload seed and a fixed label."""
    return random.Random(f"{seed}/{label}").randrange(1, 2**31)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    """Holds what differs between a traced and an untraced repetition."""

    def __init__(self, tracer: Any, factory: Any) -> None:
        self.tracer = tracer
        self.factory = factory

    def build_problem(self, molecule: str, bond_length: float | None = None) -> Any:
        self.tracer.count("chem.calls")
        with self.tracer.span("chem"):
            return build_molecule_hamiltonian(molecule, bond_length)


class Outcome:
    """Output checks made, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def item(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


# ----------------------------------------------------------------------
# Compile workloads
# ----------------------------------------------------------------------
def _raised(result: Any) -> bool:
    return isinstance(result, (Exception, pipeline.BatchItemError))


def _compiled_ok(result: Any) -> bool:
    """Static check against the device, and CNOT accounting."""
    metrics = result.metrics
    return static_check(result.compiled, device=result.device).ok and (
        metrics["total_cnots"]
        == metrics["original_cnots"] + metrics["overhead_cnots"]
    )


def _same_metrics(warm: Any, cold: Any) -> bool:
    strip = lambda m: {k: v for k, v in m.items() if k != PASS_TIMES_KEY}
    return strip(warm.metrics) == strip(cold.metrics)


def _simulates(verify: Any, *args: Any) -> bool:
    """Simulate the routed circuit against its logical reference."""
    try:
        verify(*args)
    except AssertionError:
        return False
    return True


class CompileWorkload(Workload):
    """Checks and quality figures shared by the two compile workloads.

    ``results(outputs)`` flattens a pass's outputs to one result per
    config, in config order.
    """

    def check(self, state: dict[str, Any], cold: list[Any], warm: list[Any],
              outcome: Outcome) -> None:
        pairs = zip(state["configs"], self.results(cold), self.results(warm))
        for config, first, second in pairs:
            label = config.describe()
            if _raised(first) or _raised(second):
                outcome.item(False, f"{label}: {first} / {second}")
                continue
            outcome.item(
                _compiled_ok(first) and self.equivalent(state, config, first),
                label,
            )
            outcome.item(
                _compiled_ok(second) and _same_metrics(second, first),
                label + " warm",
            )

    def quality(self, cold: list[Any]) -> dict[str, float]:
        done = [r for r in self.results(cold) if not _raised(r)]
        return {
            "routed_cnots": sum(r.metrics["total_cnots"] for r in done),
            "duration_us": sum(r.metrics["duration_ns"] for r in done) / 1e3,
        }


class Table2Compile(CompileWorkload):
    """Default pipeline at ratio 0.3 on xtree17, mtr and sabre per molecule.

    LiH, NaH, BeH2 and BH3 are left out to fit the run: their chemistry
    and cold compression add 1-13 s per repetition.
    """

    molecules = ("HF", "H2O")
    compilers = ("mtr", "sabre")

    def setup(self, seed: int) -> dict[str, Any]:
        problems = {m: self.build_problem(m) for m in self.molecules}
        configs = [
            repro.PipelineConfig(
                molecule=molecule,
                ratio=0.3,
                compiler=compiler,
                **({"seed": derive_seed(seed, f"sabre/{molecule}")}
                   if compiler == "sabre" else {}),
            )
            for molecule in self.molecules
            for compiler in self.compilers
        ]
        return {"problems": problems, "configs": configs}

    def run(self, state: dict[str, Any]) -> list[Any]:
        return [
            self.compile(config, state["problems"][config.molecule])
            for config in state["configs"]
        ]

    def compile(self, config: Any, problem: Any) -> Any:
        """Like ``run_batch``: an item that raises leaves its error."""
        try:
            return self.factory(config).run(problem=problem)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            return exc

    def results(self, outputs: list[Any]) -> list[Any]:
        return outputs

    def equivalent(self, state: dict[str, Any], config: Any, result: Any) -> bool:
        program = result.compressed.program
        if program.num_qubits > EQUIVALENCE_MAX_QUBITS:
            return True
        # The pipeline routes at all-zero angles.
        zeros = [0.0] * program.num_parameters
        return _simulates(assert_routed_equivalent, program, zeros, result.compiled)


class CorpusBatch(CompileWorkload):
    """All committed QASM circuits, both devices, two compilers.

    Each circuit runs on its two ``corpus_devices``, with mtr and with
    sabre at a derived seed, and with commutation off and on: 200 configs
    in one ``run_batch`` call, about 400 cache entries.  Three SABRE seeds
    (400 configs, about 600 entries) would overflow the 512-entry compile
    cache, but then each pass takes 5-7 s, which the run cannot afford.
    """

    sabre_seeds = 1

    def setup(self, seed: int) -> dict[str, Any]:
        paths = sorted((ROOT / CORPUS).glob("*.qasm"))
        if not paths:
            raise FileNotFoundError(f"no QASM corpus under {ROOT / CORPUS}")
        circuits = {}
        for path in paths:
            with self.tracer.span("problem"):
                circuits[path.name] = from_qasm(path.read_text())
        variants = [("mtr", None)] + [
            ("sabre", derive_seed(seed, f"corpus/{i}"))
            for i in range(self.sabre_seeds)
        ]
        configs = []
        for name, circuit in circuits.items():
            for device in corpus_devices(circuit.num_qubits):
                for compiler, sabre_seed in variants:
                    for commute in (False, True):
                        configs.append(repro.PipelineConfig(
                            problem=f"qasm:{CORPUS / name}",
                            device=device,
                            compiler=compiler,
                            commute=commute,
                            **({"seed": sabre_seed} if sabre_seed else {}),
                        ))
        return {"circuits": circuits, "configs": configs}

    def run(self, state: dict[str, Any]) -> list[Any]:
        return [pipeline.run_batch(
            state["configs"], workers=nproc(), pipeline_factory=self.factory
        )]

    def results(self, outputs: list[Any]) -> list[Any]:
        return outputs[0]

    def equivalent(self, state: dict[str, Any], config: Any, result: Any) -> bool:
        logical = state["circuits"][Path(config.problem.partition(":")[2]).name]
        if logical.num_qubits > EQUIVALENCE_MAX_QUBITS:
            return True
        return _simulates(assert_circuit_routed_equivalent, logical, result.compiled)


# ----------------------------------------------------------------------
# VQE workloads
# ----------------------------------------------------------------------
def _check_energy(outcome: Outcome, label: str, energy: float, exact: float,
                  upper: float) -> None:
    outcome.item(exact - TOLERANCE <= energy <= upper + TOLERANCE, label)


def _check_exact(outcome: Outcome, problem: Any, exact: float) -> None:
    """Cross-check the library's exact energy by dense diagonalisation."""
    if problem.num_qubits <= EQUIVALENCE_MAX_QUBITS:
        dense = float(np.linalg.eigvalsh(problem.hamiltonian.to_matrix())[0])
        outcome.item(abs(dense - exact) < 1e-8, f"{problem.molecule.name} exact")


def _vqe_quality(errors: list[float], iterations: list[int]) -> dict[str, float]:
    return {
        "energy_error_mha": max(abs(e) for e in errors) * 1e3,
        "vqe_iterations": sum(iterations),
    }


class Fig9VQE(Workload):
    """Noiseless H2O bond-scan point with the library's VQE defaults.

    One bond length (equilibrium) and one ratio (10%) of the paper's
    3 x 3 grid: the full grid is about 22 s per pass, and short samples
    measure steadier than long ones.
    """

    molecule = "H2O"
    configuration = "10%"

    def setup(self, seed: int) -> dict[str, Any]:
        bond_length = default_bond_lengths(self.molecule, 3)[1]
        problem = self.build_problem(self.molecule, bond_length)
        return {"bond_length": bond_length, "problem": problem}

    def run(self, state: dict[str, Any]) -> list[Any]:
        return bond_scan(self.molecule, [state["bond_length"]], [self.configuration])

    def check(self, state: dict[str, Any], cold: list[Any], warm: list[Any],
              outcome: Outcome) -> None:
        [point], [again] = cold, warm
        label = f"{point.molecule}@{point.bond_length} {point.configuration}"
        _check_energy(outcome, label, point.energy, point.exact_energy,
                      point.hf_energy)
        outcome.item(again == point, label + " warm")
        _check_exact(outcome, state["problem"], point.exact_energy)

    def quality(self, cold: list[Any]) -> dict[str, float]:
        [point] = cold
        return _vqe_quality([point.error], [point.iterations])


class Fig10Noisy(Workload):
    """The Fig. 10 setting: CNOT depolarising error 1e-4, 60 iterations.

    LiH at equilibrium runs on the density-matrix backend at 10% through
    ``bond_scan``, and on the trajectory backend (K=256) at 30% through
    ``VQE``, because ``bond_scan`` takes no trajectory seed.  NaH's
    chemistry alone costs 5 s per repetition, and LiH at 30%/50% on the
    density matrix 8-15 s, so they are left out.
    """

    molecule = "LiH"
    noise = DepolarizingNoiseModel(two_qubit_error=1e-4)
    max_iterations = 60
    density_ratio = 0.1
    trajectory_ratio = 0.3

    def setup(self, seed: int) -> dict[str, Any]:
        bond_length = default_bond_lengths(self.molecule, 1)[0]
        problem = self.build_problem(self.molecule, bond_length)
        return {
            "bond_length": bond_length,
            "problem": problem,
            "trajectory_seed": derive_seed(seed, "trajectory"),
        }

    def run(self, state: dict[str, Any]) -> list[Any]:
        [point] = bond_scan(
            self.molecule, [state["bond_length"]], [f"{self.density_ratio:.0%}"],
            backend="density_matrix", noise=self.noise,
            max_iterations=self.max_iterations,
        )
        return [point, self.trajectory_point(state)]

    def trajectory_point(self, state: dict[str, Any]) -> Any:
        tracer, problem = self.tracer, state["problem"]
        with tracer.span("ansatz"):
            program = build_uccsd_program(problem).program
        with tracer.span("compress"):
            program = compress_ansatz(
                program, problem.hamiltonian, self.trajectory_ratio
            ).program
        with tracer.span("energy.trajectory"):
            vqe = repro.VQE(
                program, problem.hamiltonian, backend="trajectory",
                noise=self.noise, trajectories=256,
                seed=state["trajectory_seed"],
                max_iterations=self.max_iterations,
            )
        return vqe.run()

    def check(self, state: dict[str, Any], cold: list[Any], warm: list[Any],
              outcome: Outcome) -> None:
        # Noise on the CNOTs lifts even the all-zero start above E_HF, so
        # a noisy point is bounded above by the energy it started from.
        point, trajectory = cold
        problem, exact = state["problem"], point.exact_energy
        program = compress_ansatz(
            build_uccsd_program(problem).program, problem.hamiltonian,
            self.density_ratio,
        ).program
        start = DensityMatrixEnergy(program, problem.hamiltonian, self.noise)(
            np.zeros(program.num_parameters)
        )
        _check_energy(outcome, "LiH density_matrix", point.energy, exact, start)
        _check_energy(outcome, "LiH trajectory", trajectory.energy, exact,
                      trajectory.hartree_fock_energy)
        outcome.item(warm[0] == point, "LiH density_matrix warm")
        outcome.item(warm[1].energy == trajectory.energy, "LiH trajectory warm")
        _check_exact(outcome, problem, exact)

    def quality(self, cold: list[Any]) -> dict[str, float]:
        point, trajectory = cold
        return _vqe_quality(
            [point.error, trajectory.energy - point.exact_energy],
            [point.iterations, trajectory.iterations],
        )


WORKLOADS = {
    "table2_compile": Table2Compile,
    "fig9_vqe": Fig9VQE,
    "fig10_noisy": Fig10Noisy,
    "corpus_batch": CorpusBatch,
}
