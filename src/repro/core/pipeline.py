"""End-to-end Pauli-string-centric co-optimization (Figure 1).

The flow is a :class:`Pipeline` of named, swappable passes (see
:mod:`repro.core.passes`):

    Hamiltonian of the chemical system          (BuildProblem)
      -> UCCSD Pauli strings                    (BuildAnsatz)
      -> importance compression                 (Compress)
      -> hierarchical initial layout            (InitialLayout)
      -> Merge-to-Root / SABRE routing          (Route)
      -> JSON-safe summary scalars              (Metrics)

``co_optimize`` remains as a thin compatibility wrapper that builds the
default pipeline; :func:`run_batch` runs a list of configs in a serial
loop or fans them out over a process pool that receives each built
Hamiltonian once per worker (``executor="serial" | "process"``), aggregating
per-item failures as :class:`BatchItemError` records, and results
serialize through ``to_dict``/``from_dict`` for persistence and diffing.

Usage -- run one instance, swap a stage, batch a sweep:

>>> from repro.core.pipeline import Pipeline, run_batch
>>> from repro.core.passes import PipelineConfig
>>> result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()
>>> result.metrics["num_parameters"], result.metrics["compiler"]
(2, 'mtr')
>>> baseline = Pipeline(
...     PipelineConfig(molecule="H2", ratio=0.5, compiler="sabre")
... ).run()
>>> baseline.metrics["compiler"]
'sabre'
>>> curve = run_batch(
...     [PipelineConfig(molecule="H2", bond_length=b) for b in (0.6, 0.735)]
... )
>>> [round(r.metrics["bond_length"], 3) for r in curve]
[0.6, 0.735]

Appending the optional :class:`~repro.core.passes.Energy` stage turns the
compile pipeline into the VQE accuracy workload; it evolves the staged
Pauli program term by term (see ``docs/performance.md``).
"""

from __future__ import annotations

import copy
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.chem.hamiltonian import MolecularProblem, build_molecule_hamiltonian
from repro.core.compression import CompressedAnsatz
from repro.core.passes import (
    BuildAnsatz,
    BuildProblem,
    Compress,
    InitialLayout,
    Metrics,
    Pass,
    PipelineConfig,
    PipelineContext,
    PipelineError,
    Route,
    collect_metrics,
)
from repro.hardware.coupling import CouplingGraph

if TYPE_CHECKING:  # imported lazily at runtime to avoid package cycles
    from repro.ansatz.circuit_ansatz import CircuitAnsatz
    from repro.ansatz.qaoa import QAOAAnsatz
    from repro.ansatz.uccsd import UCCSDAnsatz
    from repro.problems.registry import CircuitProblem, GraphProblem
    from repro.vqe.runner import VQEResult

#: Stage classes of the default co-optimization pipeline, in order.
DEFAULT_PASSES: tuple[type[Pass], ...] = (
    BuildProblem,
    BuildAnsatz,
    Compress,
    InitialLayout,
    Route,
    Metrics,
)

SCHEMA_VERSION = 1

#: Context keys :meth:`Pipeline.run` can pre-seed from its arguments.
#: Construction-time contract validation treats them as potentially
#: available; the run-time re-validation checks what was actually
#: injected.
INJECTABLE_CONTEXT_KEYS = ("problem", "device")


def default_passes() -> list[Pass]:
    """Fresh instances of the default stages."""
    return [cls() for cls in DEFAULT_PASSES]


def _producers_of(key: str) -> list[str]:
    """Names of known stage classes whose contract produces ``key``."""
    from repro.core.passes import Energy

    names = []
    for cls in (*DEFAULT_PASSES, Energy):
        if key in cls.produces:
            names.append(cls.name)
    return names


def _layout_pairs(layout: dict[int, int] | None) -> list[list[int]] | None:
    if layout is None:
        return None
    return [[int(l), int(p)] for l, p in sorted(layout.items())]


@dataclass
class CoOptimizationResult:
    """Artifacts of the full co-optimization flow for one instance.

    Results come in two flavors: **live** results from a pipeline run
    carry the heavy in-memory artifacts (problem, ansatz, compiled
    circuit, device), while **deserialized** results
    (:meth:`from_dict`) carry only the JSON-safe summary in ``metrics``
    and ``record``.  The scalar accessors work on both.
    """

    problem: "MolecularProblem | GraphProblem | CircuitProblem | None"
    full_ansatz: "UCCSDAnsatz | QAOAAnsatz | CircuitAnsatz | None"
    compressed: "CompressedAnsatz | CircuitAnsatz | None"
    compiled: Any
    device: CouplingGraph | None
    config: PipelineConfig | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    vqe_result: "VQEResult | None" = None
    record: dict[str, Any] = field(default_factory=dict, repr=False)

    @classmethod
    def from_context(cls, context: PipelineContext) -> "CoOptimizationResult":
        return cls(
            problem=context.problem,
            full_ansatz=context.ansatz,
            compressed=context.compressed,
            compiled=context.compiled,
            device=context.device,
            config=context.config,
            metrics=context.metrics,
            vqe_result=context.vqe_result,
        )

    # ------------------------------------------------------------------
    # Scalar accessors (live or deserialized)
    # ------------------------------------------------------------------
    @property
    def original_cnots(self) -> int:
        if isinstance(self.compressed, CompressedAnsatz):
            return self.compressed.program.cnot_count()
        if self.compressed is not None:
            return self.compressed.circuit.num_cnots()
        return int(self.metrics["original_cnots"])

    @property
    def overhead_cnots(self) -> int:
        if self.compiled is not None:
            return self.compiled.overhead_cnots
        return int(self.metrics["overhead_cnots"])

    @property
    def num_swaps(self) -> int:
        if self.compiled is not None:
            return self.compiled.num_swaps
        return int(self.metrics["num_swaps"])

    @property
    def device_name(self) -> str:
        if self.device is not None:
            return self.device.name
        return str(self.metrics.get("device", "?"))

    def summary(self) -> str:
        if (
            isinstance(self.compressed, CompressedAnsatz)
            and self.full_ansatz is not None
            and isinstance(self.problem, MolecularProblem)
        ):
            kept = self.compressed.num_parameters
            total = self.full_ansatz.num_parameters
            return (
                f"{self.problem.molecule.name}: kept {kept}/{total} parameters "
                f"({self.compressed.ratio:.0%}), {len(self.compressed.program)} "
                f"Pauli strings, {self.original_cnots} CNOTs + "
                f"{self.overhead_cnots} overhead on {self.device_name}"
            )
        if self.compressed is not None and self.config is not None:
            label = self.config.describe()
            return (
                f"{label}: {self.original_cnots} CNOTs + "
                f"{self.overhead_cnots} overhead on {self.device_name}"
            )
        m = self.metrics
        return (
            f"{m.get('molecule', '?')}: kept {m.get('num_parameters', '?')}"
            f"/{m.get('total_parameters', '?')} parameters, "
            f"{m.get('original_cnots', '?')} CNOTs + "
            f"{m.get('overhead_cnots', '?')} overhead on {self.device_name}"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot: config + scalar metrics + layouts."""
        if self.record:
            return copy.deepcopy(self.record)
        metrics = dict(self.metrics)
        if "original_cnots" not in metrics and self.compressed is not None:
            context = PipelineContext(
                config=self.config or self._fallback_config(),
                problem=self.problem,
                ansatz=self.full_ansatz,
                compressed=self.compressed,
                device=self.device,
                compiled=self.compiled,
            )
            metrics = {**collect_metrics(context), **metrics}
        kept = (
            [int(k) for k in self.compressed.kept_parameters]
            if isinstance(self.compressed, CompressedAnsatz)
            else None
        )
        initial_layout = final_layout = None
        if self.compiled is not None:
            initial_layout = _layout_pairs(self.compiled.initial_layout)
            final_layout = _layout_pairs(self.compiled.final_layout)
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict() if self.config else None,
            "metrics": metrics,
            "kept_parameters": kept,
            "initial_layout": initial_layout,
            "final_layout": final_layout,
        }

    def _fallback_config(self) -> PipelineConfig:
        molecule = (
            self.problem.molecule.name
            if isinstance(self.problem, MolecularProblem)
            else "?"
        )
        ratio = (
            self.compressed.ratio
            if isinstance(self.compressed, CompressedAnsatz)
            else 1.0
        )
        return PipelineConfig(molecule=molecule, ratio=ratio)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CoOptimizationResult":
        """Rebuild a lightweight (metrics-only) result from a snapshot."""
        config = (
            PipelineConfig.from_dict(data["config"])
            if data.get("config") is not None
            else None
        )
        return cls(
            problem=None,
            full_ansatz=None,
            compressed=None,
            compiled=None,
            device=None,
            config=config,
            metrics=dict(data.get("metrics", {})),
            record=copy.deepcopy(data),
        )

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "CoOptimizationResult":
        return cls.from_dict(json.loads(text))


class Pipeline:
    """A configured sequence of passes over one shared context.

    >>> result = Pipeline(PipelineConfig(molecule="H2", ratio=0.5)).run()

    Stages are plain objects in ``self.passes``; use :meth:`replacing`,
    :meth:`without` and :meth:`appending` to derive variant pipelines
    (ablations swap one stage, workloads append an ``Energy`` stage).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        passes: Sequence[Pass] | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = PipelineConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.passes: list[Pass] = (
            list(passes) if passes is not None else default_passes()
        )
        # Contract check at construction: a misordered pass list is a
        # configuration bug, so reject it before any chemistry runs.
        # Keys run() can inject are assumed available here; run() itself
        # re-validates against what was actually injected.
        self.validate(available=INJECTABLE_CONTEXT_KEYS)

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def _index_of(self, name: str) -> int:
        for index, p in enumerate(self.passes):
            if p.name == name:
                return index
        raise ValueError(
            f"pipeline has no pass named {name!r}; stages: {self.pass_names()}"
        )

    def replacing(self, name: str, new_pass: Pass) -> "Pipeline":
        """A new pipeline with the stage called ``name`` swapped out."""
        passes = list(self.passes)
        passes[self._index_of(name)] = new_pass
        return Pipeline(self.config, passes)

    def without(self, name: str) -> "Pipeline":
        passes = list(self.passes)
        del passes[self._index_of(name)]
        return Pipeline(self.config, passes)

    def appending(self, *new_passes: Pass) -> "Pipeline":
        return Pipeline(self.config, list(self.passes) + list(new_passes))

    def validate(self, *, available: Iterable[str] = ()) -> "Pipeline":
        """Check the passes' ``requires``/``produces`` contracts in order.

        Walks the pass list tracking which context keys have been
        produced (starting from ``available``, the keys pre-seeded by
        the caller) and raises :class:`PipelineError` naming the first
        stage whose requirements are not met -- at construction time,
        instead of a mid-run failure after minutes of chemistry.
        Custom passes that declare no contract always validate.
        """
        have = set(available)
        for stage in self.passes:
            missing = [key for key in stage.requires if key not in have]
            if missing:
                hints = []
                for key in missing:
                    producers = _producers_of(key)
                    if producers:
                        hints.append(
                            f"context.{key} is produced by "
                            f"{' / '.join(repr(p) for p in producers)}"
                        )
                    else:
                        hints.append(f"context.{key} has no known producer")
                raise PipelineError(
                    f"pass {stage.name!r} needs "
                    + ", ".join(f"context.{key}" for key in missing)
                    + "; run the stage that produces it first "
                    f"({'; '.join(hints)}); stage order: {self.pass_names()}"
                )
            have.update(stage.produces)
        return self

    def run(
        self,
        *,
        problem: MolecularProblem | None = None,
        device: CouplingGraph | None = None,
    ) -> CoOptimizationResult:
        """Execute the stages in order and package the context.

        ``problem``/``device`` pre-seed the context, letting callers
        share a built Hamiltonian or target a hand-built graph.
        """
        # Re-validate against what was actually injected: a config that
        # passed the optimistic construction-time check (which assumes
        # run() may seed any injectable key) can still be short a key.
        injected = [
            key
            for key, value in (("problem", problem), ("device", device))
            if value is not None
        ]
        self.validate(available=injected)
        context = PipelineContext(config=self.config, problem=problem, device=device)
        for stage in self.passes:
            stage.run(context)
        return CoOptimizationResult.from_context(context)

    def __repr__(self) -> str:
        return f"Pipeline({self.config.describe()}; stages={self.pass_names()})"


def co_optimize(
    molecule: str | MolecularProblem,
    *,
    ratio: float = 0.5,
    bond_length: float | None = None,
    device: CouplingGraph | str | None = None,
    compiler: str = "mtr",
) -> CoOptimizationResult:
    """Run the default co-optimization pipeline on one molecule instance.

    Compatibility wrapper over :class:`Pipeline`.

    Args:
        molecule: benchmark molecule name or a prebuilt problem.
        ratio: parameter compression ratio (Section III-B).
        bond_length: geometry parameter, equilibrium by default.
        device: target architecture -- a registry name or a prebuilt
            :class:`CouplingGraph`; XTree17Q by default.
        compiler: compiler registry name ("mtr" or "sabre").
    """
    problem: MolecularProblem | None = None
    if isinstance(molecule, MolecularProblem):
        problem = molecule
        name = problem.molecule.name
        bond_length = problem.molecule.bond_length
    else:
        name = molecule

    device_graph: CouplingGraph | None = None
    device_name = "xtree17"
    if isinstance(device, CouplingGraph):
        device_graph = device
        device_name = device.name
    elif device is not None:
        device_name = device

    config = PipelineConfig(
        molecule=name,
        bond_length=bond_length,
        ratio=ratio,
        device=device_name,
        compiler=compiler,
    )
    return Pipeline(config).run(problem=problem, device=device_graph)


@dataclass(frozen=True)
class BatchItemError:
    """Failure record for one config of a :func:`run_batch` call.

    A worker exception no longer aborts the whole batch: the failed
    item's slot in the result list holds one of these (index into the
    input configs, the config itself, and the stringified error) while
    every sibling keeps its completed result.  Filter with
    ``isinstance`` to split successes from failures.
    """

    index: int
    config: PipelineConfig | None
    error: str
    error_type: str

    def __str__(self) -> str:
        label = self.config.describe() if self.config is not None else "?"
        return f"batch item {self.index} ({label}): {self.error_type}: {self.error}"


#: Molecular problems the parent built for one process-mode batch, keyed
#: by (molecule, bond length).  Empty in the parent; each pool worker
#: fills its own copy once, through :func:`_init_batch_worker`.
_WORKER_PROBLEMS: dict[tuple[str, float | None], MolecularProblem] = {}


def _init_batch_worker(
    problems: dict[tuple[str, float | None], MolecularProblem],
) -> None:
    """Pool initializer: keep the parent's built problems for every task."""
    # lint: ignore[RR101] - per-process by design: each worker fills its own copy once
    _WORKER_PROBLEMS.update(problems)


def _batch_item_task(
    payload: tuple[int, PipelineConfig, Callable[..., Any]],
) -> dict[str, Any] | BatchItemError:
    """Run one batch config in a pool worker (module-level: picklable).

    Returns the result's JSON-safe snapshot (``to_dict``) rather than
    the live object so only a small dict crosses the process boundary,
    or a :class:`BatchItemError` when the pipeline raises.
    """
    index, config, factory = payload
    try:
        problem = None
        if config.problem is None:
            problem = _WORKER_PROBLEMS.get((config.molecule, config.bond_length))
        result = factory(config).run(problem=problem)
        return result.to_dict()
    except Exception as exc:  # noqa: BLE001 - aggregated, not swallowed
        return BatchItemError(
            index=index,
            config=config,
            error=str(exc),
            error_type=type(exc).__name__,
        )


def _run_batch_item(
    index: int,
    config: PipelineConfig,
    factory: Callable[[PipelineConfig], Pipeline],
) -> CoOptimizationResult | BatchItemError:
    """In-process (serial) batch item: live result or error record."""
    try:
        return factory(config).run()
    except Exception as exc:  # noqa: BLE001 - aggregated, not swallowed
        return BatchItemError(
            index=index,
            config=config,
            error=str(exc),
            error_type=type(exc).__name__,
        )


def _run_batch_process(
    configs: list[PipelineConfig],
    factory: Callable[[PipelineConfig], Pipeline],
    count: int,
) -> list[CoOptimizationResult | BatchItemError]:
    """Process-pool fan-out over problems the parent built once.

    The parent builds each unique (molecule, bond length) problem once
    and hands the lot to every worker once, as the pool's initializer
    arguments, so the heavyweight chemistry runs once in total and a
    task carries only its index, config and factory.
    """
    problems: dict[tuple[str, float | None], MolecularProblem] = {}
    for config in configs:
        if config.problem is not None:
            continue  # non-molecular workloads rebuild in the worker
        key = (config.molecule, config.bond_length)
        if key not in problems:
            try:
                problems[key] = build_molecule_hamiltonian(
                    config.molecule, config.bond_length
                )
            except Exception:  # noqa: BLE001 - recorded by the item's own run
                continue
    payloads = [(index, config, factory) for index, config in enumerate(configs)]
    with ProcessPoolExecutor(
        max_workers=count, initializer=_init_batch_worker, initargs=(problems,)
    ) as pool:
        raw = list(pool.map(_batch_item_task, payloads))
    return [
        item
        if isinstance(item, BatchItemError)
        else CoOptimizationResult.from_dict(item)
        for item in raw
    ]


def run_batch(
    configs: Iterable[PipelineConfig],
    *,
    executor: str = "serial",
    workers: int | str | None = None,
    pipeline_factory: Callable[[PipelineConfig], Pipeline] | None = None,
) -> list[CoOptimizationResult | BatchItemError]:
    """Run many pipeline configs (bond scans, yield studies).

    ``executor`` picks the fan-out strategy (``"serial"`` / ``"process"``);
    ``workers`` the pool width (``None``/``"auto"`` means the CPUs this
    process may run on, capped at the task count).  The serial loop
    (default) shares the in-process Hamiltonian and compile caches
    across items; the process pool sidesteps the GIL for compile-heavy
    sweeps: the parent builds each unique molecular problem once and
    hands them to every worker once, through the pool's initializer,
    so no task carries a Hamiltonian.  Every config is an independent,
    deterministic task, so both executors produce identical results
    item for item (process-mode results are metrics-only snapshots, the
    :meth:`CoOptimizationResult.from_dict` flavor, since results cross a
    process boundary).  A worker process that dies outright (rather
    than raising) breaks the pool: the call raises
    :class:`concurrent.futures.process.BrokenProcessPool`.

    A config whose pipeline raises does not abort the batch: its slot in
    the returned list carries a :class:`BatchItemError` (index, config,
    stringified error) while completed siblings keep their results.

    Results are returned in input order.

    Args:
        configs: pipeline configurations to run.
        executor: ``"serial"`` (default) or ``"process"`` (which needs a
            picklable ``pipeline_factory``).
        workers: pool width; ``None``/``"auto"`` = usable CPU count.
        pipeline_factory: builds the pipeline for one config; defaults to
            the standard ``Pipeline(config)`` (pass a custom factory to
            append stages, e.g. ``Energy`` for VQE sweeps).
    """
    from repro.sim.trajectory import check_executor, resolve_workers

    check_executor(executor)
    configs = list(configs)
    if not configs:
        return []
    factory = pipeline_factory or Pipeline
    count = resolve_workers(workers, len(configs))

    if executor == "serial" or count == 1 or len(configs) == 1:
        return [
            _run_batch_item(index, config, factory)
            for index, config in enumerate(configs)
        ]

    return _run_batch_process(configs, factory, count)


def save_batch(
    results: Iterable[CoOptimizationResult], path: str | Path
) -> Path:
    """Persist batch results as a sorted, indented (diff-able) JSON file."""
    path = Path(path)
    payload = [result.to_dict() for result in results]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_batch(path: str | Path) -> list[CoOptimizationResult]:
    """Load results saved by :func:`save_batch` (metrics-only records)."""
    payload = json.loads(Path(path).read_text())
    return [CoOptimizationResult.from_dict(entry) for entry in payload]
