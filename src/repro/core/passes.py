"""Composable pass-manager for the co-optimization flow (Figure 1).

The end-to-end flow is decomposed into named, swappable :class:`Pass`
stages operating on a shared mutable :class:`PipelineContext`:

    BuildProblem -> BuildAnsatz -> Compress -> InitialLayout -> Route -> Metrics

configured by one :class:`PipelineConfig` record (molecule, bond length,
compression ratio, device name, compiler name, ...).  Stages resolve
devices and compilers through the string-keyed registries
(:func:`repro.hardware.get_device`, :func:`repro.compiler.get_compiler`),
so a benchmark swaps Merge-to-Root for SABRE or XTree17Q for Grid17Q by
changing a config field, not by rewiring constructors.

An optional :class:`Energy` stage (not in the default pipeline) runs VQE
on the staged ansatz, turning the same pipeline into the Figure 9/10
workload driver (:func:`repro.vqe.scan.bond_scan`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.chem.hamiltonian import MolecularProblem, build_molecule_hamiltonian
from repro.core.compression import CompressedAnsatz, compress_ansatz, random_ansatz
from repro.hardware.coupling import CouplingGraph

if TYPE_CHECKING:  # imported lazily at runtime to avoid package cycles
    from repro.ansatz.circuit_ansatz import CircuitAnsatz
    from repro.ansatz.qaoa import QAOAAnsatz
    from repro.ansatz.uccsd import UCCSDAnsatz
    from repro.core.ir import PauliProgram
    from repro.problems.registry import CircuitProblem, GraphProblem
    from repro.vqe.runner import VQEResult

#: Layout schemes the ``InitialLayout`` stage understands.  "auto" defers
#: to the configured compiler's preference: hierarchical for Merge-to-Root
#: (Algorithm 2 is part of the co-designed flow), none for SABRE (the
#: baseline picks its own mapping by reverse-traversal refinement, as in
#: the paper's Table II methodology).
LAYOUT_SCHEMES = ("auto", "hierarchical", "trivial", "none")

#: Parameter selections the ``Compress`` stage understands.
COMPRESSION_SCHEMES = ("importance", "random", "none")


class PipelineError(RuntimeError):
    """A pass ran (or was ordered to run) before the stages it depends on."""


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one co-optimization instance.

    ``device`` and ``compiler`` are registry names (see
    :func:`repro.hardware.get_device` / :func:`repro.compiler.get_compiler`);
    ``layout`` is one of :data:`LAYOUT_SCHEMES` and ``compression`` one
    of :data:`COMPRESSION_SCHEMES`; ``seed`` draws the random
    compression and is handed to the compiler (both routers are
    deterministic and ignore it; it still keys the route cache);
    ``trajectories`` sizes the stochastic
    Pauli-trajectory noise engine when the :class:`Energy` stage runs
    with ``backend="trajectory"`` (the noisy path past the
    density-matrix simulator's 12-qubit cap).  The :class:`Energy` stage
    has no simulation knob: a Pauli program always evolves one fused
    rotation per same-X-mask run (``docs/performance.md``).

    ``commute`` turns on the commutation-aware edges of the circuit DAG
    IR (:class:`repro.circuit.dag.CircuitDAG`): the :class:`Route` stage
    hands the commutation-aware frontier to the compiler and the
    :class:`Compress` stage reports how many CNOTs the adjacency vs.
    commutation-aware peephole passes remove from the compressed circuit.

    ``validate`` (on by default) runs the static verification layer
    (:mod:`repro.analysis`) over the artifacts the stages produce: the
    :class:`Compress` stage sanitizes the compressed Pauli program, the
    :class:`Route` stage sanitizes the routed circuit and its layouts
    against the device.  Checks are linear-time, and a cached
    artifact is checked once per cache entry: a warm rerun finds the
    recorded verdict and runs no check.

    Every run goes through the content-addressed compile cache
    (:mod:`repro.core.cache`): the ansatz build, compression, layout,
    routing, schedule metrics and the :class:`Energy` stage's statevector
    plan are memoized, so a repeated pipeline, a ``run_batch`` item or a
    ``bond_scan`` point recompiles nothing
    (:func:`repro.core.cache.clear_compile_cache` gives a fresh run).
    Each stage keys its artifact on the entry keys of its inputs plus
    the config fields it reads (:func:`entry_key`).
    The inputs are keyed on what names them where a name fixes the
    content: a molecule built by name on its ``spec`` (name, bond
    length), a registry device on the key its shared instance computed
    once.  Only the rest is content-hashed: an injected graph (once per
    instance), a hand-built or replaced problem's Hamiltonian, and a
    ``qasm:`` file's bytes.
    """

    molecule: str = "H2"
    #: Non-molecular workload spec (:func:`repro.problems.get_problem`):
    #: ``"maxcut:er-10-3"``, ``"ising:ring-8"``, ``"hubbard:4"`` or
    #: ``"qasm:<path>"``.  When set, it overrides ``molecule`` and the
    #: ``BuildAnsatz`` stage emits a QAOA program (graph problems, with
    #: ``qaoa_layers`` repetitions) or wraps the ingested circuit
    #: (``qasm:`` problems, routed gate-by-gate).
    problem: str | None = None
    qaoa_layers: int = 1
    bond_length: float | None = None
    ratio: float = 0.5
    device: str = "xtree17"
    compiler: str = "mtr"
    layout: str = "auto"
    compression: str = "importance"
    validate: bool = True
    trajectories: int = 256
    commute: bool = False
    decay_base: float = 2.0
    seed: int = 11
    label: str | None = None

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.problem is not None:
            return f"{self.problem} {self.compiler} on {self.device}"
        bond = f"@{self.bond_length}A" if self.bond_length is not None else ""
        return (
            f"{self.molecule}{bond} ratio={self.ratio} "
            f"{self.compiler} on {self.device}"
        )

    def replace(self, **changes: Any) -> "PipelineConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineConfig":
        # Unknown keys are dropped, so payloads that still carry retired
        # fields (``engine``, ``fusion``, ``array_backend``, ``dag``,
        # ``cache``) keep loading.
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class PipelineContext:
    """Mutable state threaded through the passes of one pipeline run."""

    config: PipelineConfig
    problem: "MolecularProblem | GraphProblem | CircuitProblem | None" = None
    ansatz: "UCCSDAnsatz | QAOAAnsatz | CircuitAnsatz | None" = None
    compressed: "CompressedAnsatz | CircuitAnsatz | None" = None
    device: CouplingGraph | None = None
    initial_layout: dict[int, int] | None = None
    compiled: Any = None               # CompiledProgram or SabreResult
    vqe_result: "VQEResult | None" = None
    metrics: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict)

    def require(self, attribute: str, needed_by: str) -> Any:
        value = getattr(self, attribute)
        if value is None:
            raise PipelineError(
                f"pass {needed_by!r} needs context.{attribute}; "
                "run the stage that produces it first"
            )
        return value


def _content_key(attribute: str, artifact: Any) -> str:
    """Key of a staged artifact that no cached pass keyed.

    A molecular problem built by name is keyed on its ``spec`` and a
    device on its memoized content key; anything else is content-hashed.
    """
    from repro.core import cache

    if attribute == "device":
        return artifact.content_key
    if attribute == "initial_layout":
        return cache.canonical_hash("layout", tuple(sorted(artifact.items())))
    circuit = getattr(artifact, "circuit", None)
    if circuit is not None:  # ingested circuit problem or its wrapper
        return cache.circuit_key(circuit)
    if attribute == "problem":
        hamiltonian = getattr(artifact, "hamiltonian", None)
        if hamiltonian is None:
            raise PipelineError(
                "content-addressing needs a problem with a Hamiltonian; "
                f"got {type(artifact).__name__}"
            )
        spec = getattr(artifact, "spec", None)
        if spec is not None:  # a memoized molecule: its name fixes its content
            return cache.canonical_hash("molecule", *spec)
        return cache.pauli_sum_key(hamiltonian)
    return cache.program_key(artifact.program)


def _record_key(context: PipelineContext, attribute: str, key: str) -> None:
    """Remember that ``context.<attribute>``, as staged now, has ``key``."""
    context.artifacts.setdefault("keys", {})[attribute] = (
        getattr(context, attribute),
        key,
    )


def _recorded_key(context: PipelineContext, attribute: str) -> str | None:
    """The key recorded for the object now in ``context.<attribute>``.

    None when nothing was recorded or a later pass swapped the object,
    so a key can never outlive the artifact it describes.
    """
    recorded = context.artifacts.get("keys", {}).get(attribute)
    if recorded is None or recorded[0] is not getattr(context, attribute):
        return None
    return str(recorded[1])


def entry_key(context: PipelineContext, attribute: str) -> str | None:
    """The cache key of ``context.<attribute>`` (None when it is unset).

    Artifacts a cached pass produced carry their entry key, derived from
    the keys of their inputs (a Merkle key), so looking it up costs
    nothing.  Ingress artifacts are keyed once per run and the key is
    recorded for the passes downstream: a molecule built by name hashes
    its ``spec`` (name, bond length), a device returns the key it
    computed once per instance.  Only a hand-built or replaced problem,
    an injected circuit problem, or an artifact a custom pass staged is
    content-hashed.
    """
    artifact = getattr(context, attribute)
    if artifact is None:
        return None
    key = _recorded_key(context, attribute)
    if key is None:
        key = _content_key(attribute, artifact)
        _record_key(context, attribute, key)
    return key


def problem_key(problem: Any) -> str:
    """The cache key of a problem no cached pass produced (see :func:`entry_key`)."""
    return _content_key("problem", problem)


def cache_entry(key_parts: tuple[Any, ...], compute: Callable[[], Any]) -> tuple[str, Any]:
    """The derived key of ``key_parts`` and the compile cache's value there."""
    from repro.core.cache import canonical_hash, compile_cache

    key = canonical_hash(*key_parts)
    return key, compile_cache().get_or_compute(key, compute)


def _cached(
    context: PipelineContext,
    attribute: str,
    key_parts: tuple[Any, ...],
    compute: Callable[[], Any],
) -> None:
    """Stage ``context.<attribute>`` from the compile cache under a derived key."""
    key, value = cache_entry(key_parts, compute)
    setattr(context, attribute, value)
    _record_key(context, attribute, key)


def _once_per_entry(
    context: PipelineContext,
    attribute: str,
    tag: str,
    compute: Callable[[], Any],
) -> Any:
    """``compute()``, a fact about ``context.<attribute>``, once per cache entry.

    The result is attached under ``tag`` to the cache entry holding the
    artifact, and later runs that get the same artifact from the cache
    read it back.  An artifact with no entry (staged by a custom pass,
    or swapped after its pass ran) is computed for every run, and so is
    one whose ``compute`` raises, since a raise attaches nothing.
    """
    from repro.core.cache import compile_cache

    artifact = getattr(context, attribute)
    store = compile_cache()
    key = _recorded_key(context, attribute)
    if key is None:
        return compute()
    data = store.attached(key, artifact, tag)
    if data is None:
        data = compute()
        store.attach(key, artifact, tag, data)
    return data


def _sanitize(
    context: PipelineContext,
    attribute: str,
    stage: str,
    subject: Any,
    *,
    checks: tuple[str, ...] | None = None,
    device: CouplingGraph | None = None,
) -> None:
    """Statically check ``subject``, part of ``context.<attribute>``.

    Runs when ``config.validate`` is on, once per cache entry: the
    verdict (the names of the checks that passed) is attached to the
    artifact's entry as ``stage``'s, so a warm run checks nothing.
    """
    if not context.config.validate:
        return

    def verdict() -> tuple[str, ...]:
        from repro.analysis import assert_clean

        report = assert_clean(
            subject,
            device=device,
            checks=checks,
            context=f"{stage}({context.config.describe()})",
        )
        return tuple(report.checks_run)

    _once_per_entry(context, attribute, stage, verdict)


class Pass:
    """One named stage of the pipeline.

    ``requires`` and ``produces`` declare the stage's contract over the
    shared context: which :class:`PipelineContext` attributes must be
    staged before it runs and which it fills in.  The declarations power
    :meth:`repro.core.pipeline.Pipeline.validate`, which rejects an
    ill-ordered pass list at construction time instead of failing
    mid-run; custom passes default to an empty contract (always valid).
    """

    name: str = "pass"
    requires: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()

    def run(self, context: PipelineContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class BuildProblem(Pass):
    """Workload spec -> problem instance.

    ``config.problem`` set: resolve through the problem registry
    (:func:`repro.problems.get_problem` -- graph costs for QAOA or an
    ingested QASM circuit).  Otherwise: the molecule name through the
    chemistry substrate.  Skipped when the context already carries a
    problem (injected by ``Pipeline.run(problem=...)`` or a prior
    pipeline), which is how batch runs share one Hamiltonian across
    configs.

    A ``qasm:`` problem is content-addressed on the spec and the file's
    bytes, read once per run: the file is parsed once per content, and
    the stages downstream key on the entry instead of hashing the
    circuit.
    """

    name = "build_problem"
    produces = ("problem",)

    def run(self, context: PipelineContext) -> None:
        if context.problem is not None:
            return
        spec = context.config.problem
        if spec is None:
            context.problem = build_molecule_hamiltonian(
                context.config.molecule, context.config.bond_length
            )
            return
        from repro.problems.registry import circuit_problem, get_problem, qasm_file

        path = qasm_file(spec)
        if path is None:
            context.problem = get_problem(spec)
            return
        # Parse the bytes that were keyed, never a second read.
        data = path.read_bytes()
        parse = partial(circuit_problem, path, data.decode())
        _cached(context, "problem", ("qasm-problem", spec, data), parse)


class BuildAnsatz(Pass):
    """Problem -> ansatz: UCCSD (molecular), QAOA (graph) or raw circuit.

    The ansatz is content-addressed under the problem's key (its spec
    or Hamiltonian's hash, or the entry key of a ``qasm:`` problem): every
    pipeline, batch worker, or scan point over the same instance shares
    one built ansatz, and the stages downstream key on its entry.
    """

    name = "build_ansatz"
    requires = ("problem",)
    produces = ("ansatz",)

    def run(self, context: PipelineContext) -> None:
        from repro.problems.registry import CircuitProblem, GraphProblem

        problem = context.require("problem", self.name)
        build: Callable[[], Any]
        if isinstance(problem, CircuitProblem):
            from repro.ansatz.circuit_ansatz import CircuitAnsatz

            # Wrapping is free; the entry exists so that the stages
            # downstream get an ingress key and a verdict slot.
            kind: tuple[Any, ...] = ("circuit-ansatz", problem.name)
            build = partial(CircuitAnsatz, problem.circuit, name=problem.name)
        elif isinstance(problem, GraphProblem):
            from repro.ansatz.qaoa import build_qaoa_ansatz

            layers = int(context.config.qaoa_layers)
            kind = ("qaoa-ansatz", layers)
            build = partial(build_qaoa_ansatz, problem.hamiltonian, layers)
        else:
            from repro.ansatz.uccsd import build_uccsd_program

            kind = ("uccsd-ansatz",)
            build = partial(build_uccsd_program, problem)
        _cached(context, "ansatz", (*kind, entry_key(context, "problem")), build)


class Compress(Pass):
    """Ansatz compression (Section III-B) under ``config.compression``.

    ``"importance"`` keeps the top ``ratio`` of the parameters by
    Algorithm 1's score, ``"random"`` a random subset of the same size
    drawn with ``config.seed`` (the paper's baseline), and ``"none"``
    every parameter in program order, as QAOA programs always do.
    With ``config.commute`` on, also chain-synthesizes the compressed
    program and records how many CNOTs the adjacency-only vs. the
    commutation-aware peephole cancellation remove (the Section VII
    "deeper optimization" numbers) in the metrics.
    """

    name = "compress"
    requires = ("problem", "ansatz")
    produces = ("compressed",)

    def run(self, context: PipelineContext) -> None:
        from repro.ansatz.circuit_ansatz import CircuitAnsatz
        from repro.ansatz.qaoa import QAOAAnsatz

        problem = context.require("problem", self.name)
        ansatz = context.require("ansatz", self.name)
        config = context.config
        if config.compression not in COMPRESSION_SCHEMES:
            valid = ", ".join(COMPRESSION_SCHEMES)
            raise ValueError(f"unknown compression {config.compression!r}; valid: {valid}")
        if isinstance(ansatz, CircuitAnsatz):
            # Gate-level workloads have no parameter space to compress;
            # the circuit flows through untouched, under the same key.
            context.compressed = ansatz
            key = _recorded_key(context, "ansatz")
            if key is not None:
                _record_key(context, "compressed", key)
            _sanitize(context, "compressed", self.name, ansatz.circuit)
            return
        compress: Callable[[], CompressedAnsatz]
        if isinstance(ansatz, QAOAAnsatz) or config.compression == "none":
            # QAOA term order is semantic (layers do not commute), so
            # importance reordering would change the prepared state;
            # ``ratio`` is ignored on this path.
            from repro.core.compression import identity_compression

            kind: tuple[Any, ...] = ("identity-compress",)
            compress = partial(identity_compression, ansatz.program)
        elif config.compression == "random":
            kind = ("random-compress", float(config.ratio), int(config.seed))
            compress = partial(random_ansatz, ansatz.program, config.ratio, seed=config.seed)
        else:
            kind = (
                "compress",
                entry_key(context, "problem"),
                float(config.ratio),
                float(config.decay_base),
            )
            compress = partial(
                compress_ansatz,
                ansatz.program,
                problem.hamiltonian,
                config.ratio,
                decay_base=config.decay_base,
            )
        _cached(
            context, "compressed", (*kind, entry_key(context, "ansatz")), compress
        )
        self._commute_metrics(context)
        self._validate(context)

    def _commute_metrics(self, context: PipelineContext) -> None:
        """Record the Section VII cancellation numbers when asked to."""
        if not context.config.commute or not isinstance(
            context.compressed, CompressedAnsatz
        ):
            return
        chain = partial(_chain_cnot_metrics, context.compressed.program)
        context.metrics.update(
            _once_per_entry(context, "compressed", "chain-cnot-metrics", chain)
        )

    def _validate(self, context: PipelineContext) -> None:
        if isinstance(context.compressed, CompressedAnsatz):
            _sanitize(
                context, "compressed", self.name, context.compressed.program
            )


def _chain_cnot_metrics(program: "PauliProgram") -> dict[str, int]:
    """CNOT counts of the chain-synthesized program under the peephole
    cancellation passes (the Section VII "deeper optimization" numbers)."""
    from repro.compiler.cancellation import cancel_gates
    from repro.compiler.synthesis import synthesize_program_chain

    chain = synthesize_program_chain(program, [0.0] * program.num_parameters)
    return {
        "chain_cnots": int(chain.num_cnots()),
        "chain_cnots_adjacency": int(cancel_gates(chain).num_cnots()),
        "chain_cnots_commute": int(cancel_gates(chain, commute=True).num_cnots()),
    }


class InitialLayout(Pass):
    """Resolve the device and compute the initial mapping (Algorithm 2)."""

    name = "initial_layout"
    requires = ("compressed",)
    produces = ("device", "initial_layout")

    def run(self, context: PipelineContext) -> None:
        from repro.ansatz.circuit_ansatz import CircuitAnsatz
        from repro.compiler.registry import get_compiler
        from repro.hardware.registry import get_device

        compressed = context.require("compressed", self.name)
        if context.device is None:
            context.device = get_device(context.config.device)
        device = context.device
        scheme = context.config.layout
        if scheme == "auto":
            scheme = get_compiler(context.config.compiler).default_layout
        if scheme == "none":
            context.initial_layout = None
            return
        if scheme not in ("hierarchical", "trivial"):
            raise ValueError(
                f"unknown layout scheme {scheme!r}; "
                f"valid schemes: {', '.join(LAYOUT_SCHEMES)}"
            )

        def build_layout() -> dict[int, int]:
            if isinstance(compressed, CircuitAnsatz):
                from repro.compiler.layout import hierarchical_circuit_layout

                if scheme == "trivial":
                    return {
                        q: q for q in range(compressed.circuit.num_qubits)
                    }
                return hierarchical_circuit_layout(compressed.circuit, device)
            from repro.compiler.layout import (
                hierarchical_initial_layout,
                trivial_layout,
            )

            if scheme == "trivial":
                return trivial_layout(compressed.program, device)
            return hierarchical_initial_layout(compressed.program, device)

        key_parts = (
            "initial-layout",
            scheme,
            entry_key(context, "compressed"),
            entry_key(context, "device"),
        )
        _cached(context, "initial_layout", key_parts, build_layout)


class Route(Pass):
    """Synthesize and route through the configured compiler.

    With ``config.validate`` on (the default), the routed artifact is
    statically sanitized against the device before it leaves the stage:
    qubit bounds, gate-set conformance, bound parameters, coupling
    legality of every two-qubit gate, and layout-permutation consistency
    (see :mod:`repro.analysis`).  This is the linear-time complement of
    the exponential dynamic check
    (:func:`repro.compiler.verify.assert_routed_equivalent`), so it runs
    on every compile, not just small test circuits; a cached routed
    artifact is checked once per cache entry.
    """

    name = "route"
    requires = ("compressed",)
    produces = ("device", "compiled")

    #: Checks applied to the routed result.
    VALIDATION_CHECKS = (
        "qubit-bounds",
        "gate-set",
        "gate-parameters",
        "coupling-legality",
        "layout-permutation",
    )

    def run(self, context: PipelineContext) -> None:
        from repro.ansatz.circuit_ansatz import CircuitAnsatz
        from repro.compiler.registry import get_compiler
        from repro.hardware.registry import get_device

        compressed = context.require("compressed", self.name)
        if context.device is None:
            context.device = get_device(context.config.device)
        device = context.device
        compiler = get_compiler(context.config.compiler)

        def compile_program() -> Any:
            if isinstance(compressed, CircuitAnsatz):
                return compiler.compile_circuit(
                    compressed.circuit,
                    device,
                    initial_layout=context.initial_layout,
                    seed=context.config.seed,
                    commute=context.config.commute,
                )
            return compiler.compile(
                compressed.program,
                device,
                initial_layout=context.initial_layout,
                seed=context.config.seed,
                commute=context.config.commute,
            )

        key_parts = (
            "route",
            context.config.compiler,
            entry_key(context, "device"),
            entry_key(context, "compressed"),
            entry_key(context, "initial_layout"),
            context.config.seed,
            context.config.commute,
        )
        _cached(context, "compiled", key_parts, compile_program)
        self._validate(context)

    def _validate(self, context: PipelineContext) -> None:
        _sanitize(
            context,
            "compiled",
            self.name,
            context.compiled,
            checks=self.VALIDATION_CHECKS,
            device=context.device,
        )


@dataclass(kw_only=True, eq=False, repr=False)
class Energy(Pass):
    """Optional stage: run VQE on the staged (compressed) ansatz.

    Not part of the default pipeline; append it for accuracy/convergence
    workloads.  Records ``energy``, ``iterations``, ``hf_energy``,
    ``num_parameters`` and (when ``compute_exact``)
    ``exact_energy``/``energy_error`` in the metrics.
    The trajectory count defaults to the config's ``trajectories``
    field, so batch sweeps size the noisy trajectory backend without
    touching the stage.  ``backend="trajectory"`` with ``noise=`` runs
    the noisy stochastic-trajectory path; backends that cannot honor a
    noise model raise instead of silently ignoring it.

    The statevector backend's :class:`~repro.vqe.energy.StatevectorPlan`
    is a compile-cache entry keyed on the staged program and the problem;
    the evaluator and the optimizer run anew.  Noisy and sampling
    evaluators are not cached (``docs/performance.md``).
    """

    name = "energy"
    requires = ("problem", "ansatz")
    produces = ("vqe_result",)

    backend: str = "statevector"
    noise: Any = None
    trajectories: int | None = None
    max_iterations: int = 200
    compute_exact: bool = True

    def run(self, context: PipelineContext) -> None:
        from repro.vqe.energy import statevector_plan
        from repro.vqe.runner import VQE
        from repro.vqe.scan import exact_energy, sector_block

        problem = context.require("problem", self.name)
        if not isinstance(problem, MolecularProblem):
            raise PipelineError(
                "the Energy stage runs VQE against a molecular problem; "
                f"got {type(problem).__name__}"
            )
        attribute = "compressed" if isinstance(context.compressed, CompressedAnsatz) else "ansatz"
        staged = getattr(context.require(attribute, self.name), "program", None)
        if staged is None:
            raise PipelineError("the Energy stage needs a Pauli-program ansatz")
        key, plan = entry_key(context, "problem"), None
        if self.backend == "statevector":
            block = partial(sector_block, key, problem.hamiltonian)
            build = partial(statevector_plan, staged, problem.hamiltonian, block)
            parts = ("statevector-plan", entry_key(context, attribute), key)
            plan = cache_entry(parts, build)[1]
        result = VQE(
            staged,
            problem.hamiltonian,
            backend=self.backend,
            noise=self.noise,
            trajectories=self.trajectories or context.config.trajectories,
            max_iterations=self.max_iterations,
            plan=plan,
        ).run()
        context.vqe_result = result
        context.metrics["energy"] = float(result.energy)
        context.metrics["iterations"] = int(result.iterations)
        context.metrics["hf_energy"] = float(problem.hf_energy)
        context.metrics["num_parameters"] = int(staged.num_parameters)
        if self.compute_exact:
            exact = exact_energy(problem, key)
            context.metrics["exact_energy"] = exact
            context.metrics["energy_error"] = float(result.energy - exact)


class Metrics(Pass):
    """Summarize the run into JSON-safe scalars (Table II conventions).

    A routed artifact's CNOT accounting comes with its ASAP schedule
    (``depth``, ``scheduled_depth``, ``duration_ns``): one per-wire pass
    over the gate list (:meth:`repro.circuit.Circuit.asap_schedule`),
    computed once per cache entry.
    """

    name = "metrics"

    def run(self, context: PipelineContext) -> None:
        context.metrics.update(collect_metrics(context))


def collect_metrics(context: PipelineContext) -> dict[str, Any]:
    """The scalar summary serialized with every result.

    Tolerates partially staged contexts so custom pipelines that stop
    early still get a meaningful record.
    """
    config = context.config
    metrics: dict[str, Any] = {
        "molecule": config.molecule,
        "ratio": config.ratio,
        "compiler": config.compiler,
    }
    if config.problem is not None:
        metrics["problem"] = config.problem
        del metrics["molecule"]
    if isinstance(context.problem, MolecularProblem):
        metrics["bond_length"] = float(context.problem.molecule.bond_length)
    elif context.problem is None and config.bond_length is not None:
        metrics["bond_length"] = float(config.bond_length)
    if context.problem is not None:
        metrics["num_qubits"] = int(context.problem.num_qubits)
    if context.ansatz is not None:
        metrics["total_parameters"] = int(context.ansatz.num_parameters)
    if context.compressed is not None:
        staged = partial(_staged_metrics, context.compressed)
        metrics.update(
            _once_per_entry(context, "compressed", "staged-metrics", staged)
        )
    if context.device is not None:
        metrics["device"] = context.device.name
        metrics["device_edges"] = int(context.device.num_edges)
    else:
        metrics["device"] = config.device
    if context.compiled is not None:
        summary = partial(_routing_metrics, context.compiled)
        metrics.update(
            _once_per_entry(context, "compiled", "routing-metrics", summary)
        )
    return metrics


def _staged_metrics(compressed: "CompressedAnsatz | CircuitAnsatz") -> dict[str, int]:
    """Size and "original" CNOT cost of the artifact handed to routing."""
    if isinstance(compressed, CompressedAnsatz):
        return {
            "num_parameters": int(compressed.num_parameters),
            "num_pauli_strings": int(len(compressed.program)),
            "original_cnots": int(compressed.program.cnot_count()),
        }
    # Gate-level workload: the "original" cost is the logical circuit.
    return {
        "original_cnots": int(compressed.circuit.num_cnots()),
        "original_gates": int(compressed.circuit.num_gates()),
    }


def _routing_metrics(compiled: Any) -> dict[str, Any]:
    """CNOT accounting and ASAP schedule of a routed artifact."""
    from repro.compiler.metrics import schedule_report

    schedule = schedule_report(compiled.circuit)
    return {
        "overhead_cnots": int(compiled.overhead_cnots),
        "num_swaps": int(compiled.num_swaps),
        "total_cnots": int(compiled.total_cnots),
        "depth": int(schedule.depth),
        "scheduled_depth": int(schedule.scheduled_depth),
        "duration_ns": float(schedule.duration_ns),
    }
