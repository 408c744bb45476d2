"""RR1xx project rules: concurrency safety and determinism.

Each rule is a pure function over a :class:`~repro.analysis.static.model.ProjectModel`
(plus the :class:`~repro.analysis.static.callgraph.CallGraph` where
reachability matters) returning :class:`RuleFinding` records.  The rules
encode the two conventions the scale-out layer rests on:

RR101  module-level state mutated by code transitively reachable from a
       task submitted to a thread/process executor (or from the pool's
       ``initializer=``).  Shared memos are
       racy under threads and silently divergent under processes; every
       surviving site must either be made task-local or carry a pragma
       stating why the shared write is safe (idempotent memo, per-
       process by design, ...).
RR102  non-picklable callable submitted to a *process* pool: lambdas,
       nested functions, and bound methods of nested (unimportable)
       classes all fail inside ``ProcessPoolExecutor`` with an opaque
       ``PicklingError`` at runtime; this catches them at lint time.
RR103  ``SharedSlabs`` lifecycle violations: a worker that ``attach``-es
       a segment must never ``unlink`` it (the parent owns the segment
       -- see :mod:`repro.core.shm`), no handle may be used after its
       ``close()``, and a created segment that neither unlinks nor
       escapes the creating function is leaked shared memory.
RR111  nondeterministic sources -- ``np.random.*`` conveniences bound to
       global state, ``random.*``, wall-clock ``time`` reads -- outside
       benchmark code.  Library results must be functions of their
       seeds, or executor bit-identity dies.
RR112  ``default_rng(seed)`` where ``seed`` does not provably come from
       a deterministic source (int literal / int-typed parameter /
       module int constant / ``SeedSequence``-flow).  ``int | None``
       seeds silently switch to fresh OS entropy when ``None`` arrives;
       route them through :mod:`repro.core.seeding` so the one audited
       helper owns that decision.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.static.callgraph import CallGraph, Node
from repro.analysis.static.model import (
    FunctionInfo,
    ModuleModel,
    ProjectModel,
    root_name,
    symbol_of,
)

#: The one module allowed to implement the SharedSlabs lifecycle (RR103).
RR103_HOME = "src/repro/core/shm.py"

#: The one module allowed to normalize arbitrary seeds (RR112).
RR112_HOME = "src/repro/core/seeding.py"

#: Modules where wall-clock and convenience randomness are legitimate
#: (benchmark timing / corpus workload synthesis) -- RR111/RR112 exempt.
DETERMINISM_EXEMPT_PREFIXES = (
    "src/repro/bench/",
    "benchmarks/",
    "tools/",
    "tests/",
)

#: ``np.random`` members that are deterministic machinery rather than
#: global-state conveniences (RR111 allows, RR112 audits default_rng).
ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock readers banned by RR111 (``time.monotonic`` included: any
#: clock read folded into a result breaks run-to-run identity).
BANNED_TIME = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)

#: Call names accepted as SeedSequence-flow evidence by RR112.
SEED_HELPER_NAMES = frozenset({"seed_sequence", "spawn_seeds", "seeded_rng"})

@dataclass(frozen=True)
class RuleFinding:
    """One project-rule diagnostic, pre-suppression."""

    code: str
    rel: str
    line: int
    message: str


def _is_determinism_exempt(rel: str) -> bool:
    return rel.startswith(DETERMINISM_EXEMPT_PREFIXES)


# ----------------------------------------------------------------------
# RR101 / RR102 -- executor submissions
# ----------------------------------------------------------------------
def _submission_roots(
    graph: CallGraph, model: ModuleModel, info: FunctionInfo
) -> list[tuple["Submission", Node | None]]:
    from repro.analysis.static.model import Submission  # local: typing only

    roots: list[tuple[Submission, Node | None]] = []
    for submission in info.submissions:
        node: Node | None = None
        if submission.target is not None:
            if submission.kind == "lambda":
                qualname = f"{info.qualname}.<locals>.{submission.target}"
                if qualname in model.functions:
                    node = (model.rel, qualname)
            else:
                node = graph.resolve(model, info, submission.target)
        roots.append((submission, node))
    return roots


def rr101_executor_reachable_writes(
    project: ProjectModel, graph: CallGraph
) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    seen: set[tuple[str, int, str]] = set()
    for model in project.modules.values():
        for info in model.functions.values():
            for submission, node in _submission_roots(graph, model, info):
                if node is None:
                    continue
                target = submission.target or node[1]
                for reached in graph.reached_writes(node):
                    key = (reached.rel, reached.write.line, reached.write.name)
                    if key in seen:
                        continue
                    seen.add(key)
                    chain = ""
                    if len(reached.chain) > 1:
                        chain = " via " + " -> ".join(reached.chain)
                    findings.append(
                        RuleFinding(
                            "RR101",
                            reached.rel,
                            reached.write.line,
                            f"module-level state {reached.write.name!r} is "
                            f"mutated here and reachable from the "
                            f"{submission.executor}-pool task {target!r} "
                            f"submitted at {model.rel}:{submission.line}"
                            f"{chain}; make the task self-contained or "
                            "document why the shared write is safe with "
                            "'# lint: ignore[RR101] - <reason>'",
                        )
                    )
    findings.sort(key=lambda f: (f.rel, f.line, f.message))
    return findings


def rr102_unpicklable_submissions(
    project: ProjectModel, graph: CallGraph
) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    for model in project.modules.values():
        for info in model.functions.values():
            for submission, node in _submission_roots(graph, model, info):
                if submission.executor != "process":
                    continue
                reason: str | None = None
                if submission.kind == "lambda":
                    reason = "a lambda"
                elif node is not None:
                    target_info = graph.function(node)
                    if target_info is not None and target_info.is_lambda:
                        reason = "a lambda"
                    elif target_info is not None and target_info.is_nested:
                        reason = f"the nested function {target_info.name!r}"
                    elif (
                        target_info is not None
                        and target_info.owner_class is not None
                        and submission.kind == "bound-method"
                    ):
                        owner = project.modules[node[0]].classes.get(
                            target_info.owner_class
                        )
                        if owner is not None and owner.is_nested:
                            reason = (
                                f"a bound method of the nested class "
                                f"{target_info.owner_class!r}"
                            )
                if reason is not None:
                    findings.append(
                        RuleFinding(
                            "RR102",
                            model.rel,
                            submission.line,
                            f"{reason} is submitted to a process pool but "
                            "cannot be pickled; process-pool tasks must be "
                            "module-level functions (see _batch_item_task in "
                            "repro.core.pipeline for the idiom)",
                        )
                    )
    findings.sort(key=lambda f: (f.rel, f.line, f.message))
    return findings


# ----------------------------------------------------------------------
# RR103 -- SharedSlabs lifecycle
# ----------------------------------------------------------------------
def _slab_role_of(value: ast.expr) -> str | None:
    """``"owner"``/``"attached"`` when the expression builds a slab handle."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            symbol = symbol_of(node.func)
            if symbol is None:
                continue
            parts = symbol.split(".")
            if len(parts) >= 2 and parts[-2] == "SharedSlabs":
                if parts[-1] == "create":
                    return "owner"
                if parts[-1] == "attach":
                    return "attached"
    return None


def _ordered_nodes(body: list[ast.stmt]) -> list[ast.AST]:
    """All nodes of one scope in source order, nested scopes excluded."""
    nodes: list[ast.AST] = []

    def visit(node: ast.AST) -> None:
        nodes.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # separate scope, separate analysis
            visit(child)

    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a scope of its own even when listed at the top level
        visit(stmt)
    nodes.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
    return nodes


def rr103_slab_lifecycle(project: ProjectModel) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    for model in project.modules.values():
        if model.rel == RR103_HOME:
            continue
        for info in model.functions.values():
            if info.is_lambda:
                continue
            body = info.node.body
            if not isinstance(body, list):
                continue
            slab_vars: dict[str, tuple[str, int]] = {}
            for node in _ordered_nodes(body):
                if isinstance(node, ast.Assign):
                    role = _slab_role_of(node.value)
                    if role is not None:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                slab_vars[target.id] = (role, node.lineno)
            if not slab_vars:
                continue
            for var, (role, created_line) in slab_vars.items():
                findings.extend(
                    _check_slab_var(model, info, body, var, role, created_line)
                )
    findings.sort(key=lambda f: (f.rel, f.line, f.message))
    return findings


def _check_slab_var(
    model: ModuleModel,
    info: FunctionInfo,
    body: list[ast.stmt],
    var: str,
    role: str,
    created_line: int,
) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    lifecycle_receivers: set[int] = set()
    events: list[tuple[int, int, str, ast.AST]] = []  # (line, col, event, node)
    escapes = False
    for node in _ordered_nodes(body):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
                and node.func.attr in ("close", "unlink")
            ):
                lifecycle_receivers.add(id(node.func.value))
                events.append(
                    (node.lineno, node.col_offset, node.func.attr, node)
                )
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if isinstance(arg, ast.Name) and arg.id == var:
                    escapes = True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if isinstance(value, ast.Name) and value.id == var:
                escapes = True
            elif value is not None and any(
                isinstance(child, ast.Name) and child.id == var
                for child in ast.walk(value)
            ):
                escapes = True
    for node in _ordered_nodes(body):
        if (
            isinstance(node, ast.Name)
            and node.id == var
            and isinstance(node.ctx, ast.Load)
            and id(node) not in lifecycle_receivers
            and node.lineno > created_line
        ):
            events.append((node.lineno, node.col_offset, "use", node))
    events.sort(key=lambda e: (e[0], e[1]))

    closed_at: int | None = None
    unlinked = False
    for line, _col, event, _node in events:
        if event == "close":
            closed_at = line
        elif event == "unlink":
            unlinked = True
            if role == "attached":
                findings.append(
                    RuleFinding(
                        "RR103",
                        model.rel,
                        line,
                        f"attached SharedSlabs handle {var!r} calls unlink(): "
                        "the creating parent owns segment teardown; workers "
                        "must only close() (see repro.core.shm)",
                    )
                )
        elif event == "use" and closed_at is not None:
            findings.append(
                RuleFinding(
                    "RR103",
                    model.rel,
                    line,
                    f"SharedSlabs handle {var!r} is used after close() "
                    f"(closed at {model.rel}:{closed_at}); the mapped views "
                    "are invalid once the segment is detached",
                )
            )
    if role == "owner" and not unlinked and not escapes:
        findings.append(
            RuleFinding(
                "RR103",
                model.rel,
                created_line,
                f"SharedSlabs segment {var!r} is created here but never "
                "unlink()ed and the handle does not leave "
                f"{info.qualname}(); the shared-memory segment leaks",
            )
        )
    return findings


# ----------------------------------------------------------------------
# RR111 -- nondeterministic sources
# ----------------------------------------------------------------------
def rr111_nondeterministic_sources(project: ProjectModel) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    for model in project.modules.values():
        if _is_determinism_exempt(model.rel):
            continue
        for call in ast.walk(model.tree):
            if not isinstance(call, ast.Call):
                continue
            symbol = symbol_of(call.func)
            if symbol is None:
                continue
            verdict = _rr111_classify(model, symbol)
            if verdict is not None:
                findings.append(RuleFinding("RR111", model.rel, call.lineno, verdict))
    findings.sort(key=lambda f: (f.rel, f.line, f.message))
    return findings


def _rr111_classify(model: ModuleModel, symbol: str) -> str | None:
    parts = symbol.split(".")
    head = parts[0]
    resolved_head = model.imports.get(head)
    if resolved_head == "numpy" and len(parts) == 3 and parts[1] == "random":
        if parts[2] not in ALLOWED_NP_RANDOM:
            return (
                f"nondeterministic source {symbol}(): legacy np.random "
                "conveniences draw from hidden global state; use a "
                "Generator seeded through repro.core.seeding"
            )
    elif resolved_head == "random" and len(parts) == 2:
        if parts[1] != "Random":
            return (
                f"nondeterministic source {symbol}(): the random module's "
                "global state breaks run-to-run identity; use a seeded "
                "numpy Generator (repro.core.seeding)"
            )
    elif resolved_head == "time" and len(parts) == 2 and parts[1] in BANNED_TIME:
        return (
            f"wall-clock read {symbol}() in library code: results must be "
            "functions of their inputs and seeds (timing belongs in "
            "benchmarks/)"
        )
    elif len(parts) == 1 and head in model.from_imports:
        source_module, original = model.from_imports[head]
        if source_module == "random":
            return (
                f"nondeterministic source {original}() (from random): use a "
                "seeded numpy Generator (repro.core.seeding)"
            )
        if source_module == "time" and original in BANNED_TIME:
            return (
                f"wall-clock read {original}() (from time) in library code: "
                "results must be functions of their inputs and seeds "
                "(timing belongs in benchmarks/)"
            )
        if source_module == "numpy.random" and original not in ALLOWED_NP_RANDOM:
            return (
                f"nondeterministic source {original}() (from numpy.random): "
                "use a Generator seeded through repro.core.seeding"
            )
    return None


# ----------------------------------------------------------------------
# RR112 -- default_rng seed provenance
# ----------------------------------------------------------------------
def _is_default_rng_call(model: ModuleModel, call: ast.Call) -> bool:
    symbol = symbol_of(call.func)
    if symbol is None:
        return False
    parts = symbol.split(".")
    if len(parts) == 3 and parts[1] == "random" and parts[2] == "default_rng":
        return model.imports.get(parts[0]) == "numpy"
    if len(parts) == 1 and parts[0] == "default_rng":
        origin = model.from_imports.get("default_rng")
        return origin is not None and origin[0] in ("numpy.random", "numpy")
    return False


def _is_seedish(model: ModuleModel, expr: ast.expr) -> bool:
    """True when the expression visibly flows from a SeedSequence source."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            if node.id == "SeedSequence" or node.id in SEED_HELPER_NAMES:
                return True
            origin = model.from_imports.get(node.id)
            if origin is not None and origin[0] == "repro.core.seeding":
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr in ("SeedSequence", "spawn") or node.attr in SEED_HELPER_NAMES:
                return True
    return False


def _int_annotation(annotation: str | None) -> bool:
    return annotation is not None and annotation.strip() == "int"


def _seed_sequence_annotation(annotation: str | None) -> bool:
    return annotation is not None and "SeedSequence" in annotation


def rr112_unseeded_default_rng(project: ProjectModel) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    for model in project.modules.values():
        if model.rel == RR112_HOME or _is_determinism_exempt(model.rel):
            continue
        for info in model.functions.values():
            body = info.node.body
            statements = body if isinstance(body, list) else [ast.Expr(body)]
            findings.extend(_rr112_scope(model, info, statements))
        findings.extend(_rr112_scope(model, None, model.tree.body))
    findings.sort(key=lambda f: (f.rel, f.line, f.message))
    return findings


def _rr112_scope(
    model: ModuleModel, info: FunctionInfo | None, body: list[ast.stmt]
) -> list[RuleFinding]:
    findings: list[RuleFinding] = []
    assigned_ok: set[str] = set()
    for node in _ordered_nodes(body):
        if isinstance(node, ast.Assign):
            ok = _is_seedish(model, node.value) or (
                isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            )
            if ok:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned_ok.add(target.id)
        if not isinstance(node, ast.Call) or not _is_default_rng_call(model, node):
            continue
        seed = node.args[0] if node.args else None
        if seed is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
        verdict = _rr112_verdict(model, info, assigned_ok, seed)
        if verdict is not None:
            findings.append(RuleFinding("RR112", model.rel, node.lineno, verdict))
    return findings


def _rr112_verdict(
    model: ModuleModel,
    info: FunctionInfo | None,
    assigned_ok: set[str],
    seed: ast.expr | None,
) -> str | None:
    remedy = (
        "; normalize it through repro.core.seeding (seeded_rng / "
        "seed_sequence) so the determinism contract holds (docs/analysis.md)"
    )
    if seed is None:
        return "default_rng() with no seed draws fresh OS entropy" + remedy
    if isinstance(seed, ast.Constant):
        if seed.value is None:
            return "default_rng(None) draws fresh OS entropy" + remedy
        if isinstance(seed.value, int):
            return None
        return f"default_rng({seed.value!r}) seed is not an int" + remedy
    if _is_seedish(model, seed):
        return None
    if isinstance(seed, ast.Name):
        name = seed.id
        if name in assigned_ok or name in model.int_constants:
            return None
        annotation = info.param_annotations.get(name) if info else None
        if _seed_sequence_annotation(annotation) or _int_annotation(annotation):
            return None
        described = f"annotated {annotation!r}" if annotation else "of unproven origin"
        return (
            f"default_rng({name}) seed is {described}: it does not provably "
            "flow from a SeedSequence/spawn or plain-int source" + remedy
        )
    if isinstance(seed, ast.Subscript):
        name = root_name(seed)
        if name is not None and name in assigned_ok:
            return None
    return (
        "default_rng(...) seed expression does not provably flow from a "
        "SeedSequence/spawn or plain-int source" + remedy
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_project(project: ProjectModel) -> list[RuleFinding]:
    """Run every RR1xx rule; returns raw (pre-suppression) findings."""
    graph = CallGraph(project)
    findings = [
        *rr101_executor_reachable_writes(project, graph),
        *rr102_unpicklable_submissions(project, graph),
        *rr103_slab_lifecycle(project),
        *rr111_nondeterministic_sources(project),
        *rr112_unseeded_default_rng(project),
    ]
    findings.sort(key=lambda f: (f.rel, f.line, f.code, f.message))
    return findings
