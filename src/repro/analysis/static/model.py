"""AST project model: per-function effect summaries over ``src/repro``.

This is the substrate of the RR1xx analyzers (:mod:`.rules`): every
module is parsed once and boiled down to the facts the concurrency /
determinism rules need --

* which names a module binds at top level (the mutable state surface),
* which functions exist (including nested defs and lambdas, which get
  synthetic qualnames so the call graph can reach them),
* which *calls* each function makes (symbolic, resolved against import
  tables by :mod:`.callgraph`),
* which module-level names each function mutates and how,
* which callables each function submits to thread / process executors
  (``submit``/``map`` targets and ``initializer=`` callables alike),
* the raw AST of each function body, for the rules that walk deeper
  (slab lifecycle, seed provenance).

Everything here is linear in source size and dependency-free (stdlib
``ast`` only), so the whole tree models in well under a second.  The
model is deliberately *conservative where it must be and honest about
it*: calls through parameters or factories are left unresolved rather
than guessed, so reachability under-approximates and the race rules
never fire on code the analyzer cannot actually see into.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

#: Method names that mutate their receiver in place.  Used to classify
#: ``GLOBAL.method(...)`` statements as writes to module-level state.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Executor constructor names and the pool family they create.
_EXECUTOR_KINDS = {
    "ThreadPoolExecutor": "thread",
    "ProcessPoolExecutor": "process",
    "Pool": "process",
}

#: Executor methods that take a task callable as their first argument.
_SUBMIT_METHODS = frozenset({"submit", "map"})


@dataclass(frozen=True)
class CallSite:
    """One call made by a function, before resolution.

    ``callee`` is the dotted source spelling: ``"f"``, ``"mod.f"``,
    ``"self.m"``, ``"var.m"`` or ``"Class"``.
    """

    callee: str
    line: int


@dataclass(frozen=True)
class GlobalWrite:
    """A mutation of module-level state inside a function body."""

    name: str
    line: int
    kind: str  # "assign" | "augassign" | "subscript" | "attribute" | "method" | "delete"


@dataclass(frozen=True)
class Submission:
    """A callable handed to an executor's ``submit``/``map``, or passed as
    its constructor's ``initializer=`` (worker code all the same)."""

    executor: str  # "thread" | "process"
    target: str | None  # symbolic callee (resolved later); None if opaque
    kind: str  # "name" | "lambda" | "nested" | "bound-method" | "opaque"
    line: int


@dataclass
class FunctionInfo:
    """Effect summary + retained AST of one function-like object."""

    rel: str
    qualname: str
    name: str
    lineno: int
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    owner_class: str | None = None
    is_nested: bool = False
    is_lambda: bool = False
    params: tuple[str, ...] = ()
    param_annotations: dict[str, str] = field(default_factory=dict)
    return_annotation: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    global_writes: list[GlobalWrite] = field(default_factory=list)
    submissions: list[Submission] = field(default_factory=list)
    #: Local name -> class-name symbol it was instantiated from
    #: (``sim = DensityMatrixSimulator(...)``), for ``var.m`` resolution.
    instance_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassModel:
    name: str
    lineno: int
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)  # method -> qualname
    is_nested: bool = False


@dataclass
class ModuleModel:
    rel: str
    module: str  # dotted import name, e.g. "repro.sim.trajectory"
    source: str
    tree: ast.Module
    module_globals: set[str] = field(default_factory=set)
    int_constants: set[str] = field(default_factory=set)
    imports: dict[str, str] = field(default_factory=dict)  # alias -> module
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassModel] = field(default_factory=dict)


@dataclass
class ProjectModel:
    """All modules of one analysis run, keyed by repo-relative path."""

    modules: dict[str, ModuleModel] = field(default_factory=dict)

    def by_dotted(self, dotted: str) -> ModuleModel | None:
        for model in self.modules.values():
            if model.module == dotted:
                return model
        return None

    def functions(self) -> Iterable[FunctionInfo]:
        for model in self.modules.values():
            yield from model.functions.values()


def dotted_name(rel: str) -> str:
    """``src/repro/sim/expectation.py`` -> ``repro.sim.expectation``."""
    parts = rel[:-3] if rel.endswith(".py") else rel
    if parts.startswith("src/"):
        parts = parts[len("src/"):]
    if parts.endswith("/__init__"):
        parts = parts[: -len("/__init__")]
    return parts.replace("/", ".")


def root_name(node: ast.expr) -> str | None:
    """Leftmost ``Name`` of a Name/Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def symbol_of(node: ast.expr) -> str | None:
    """Dotted spelling of a Name/Attribute chain (``a.b.c``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_symbol(call: ast.Call) -> str | None:
    return symbol_of(call.func)


def _bound_names(target: ast.expr) -> Iterable[str]:
    """Names bound by an assignment target (tuple targets unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


class _LocalCollector(ast.NodeVisitor):
    """Names bound inside one function body (not descending into defs)."""

    def __init__(self) -> None:
        self.locals: set[str] = set()
        self.globals: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.locals.add(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.locals.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.locals.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # separate scope

    def visit_Global(self, node: ast.Global) -> None:
        self.globals.update(node.names)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Store):
            self.locals.add(node.id)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        for name in _bound_names(node.target):
            self.locals.add(name)
        self.generic_visit(node)


def _executor_kind_of_call(node: ast.expr) -> str | None:
    """``ThreadPoolExecutor(...)`` -> ``"thread"`` (attr paths too)."""
    if not isinstance(node, ast.Call):
        return None
    symbol = _call_symbol(node)
    if symbol is None:
        return None
    return _EXECUTOR_KINDS.get(symbol.rsplit(".", 1)[-1])


class _FunctionExtractor(ast.NodeVisitor):
    """Summarize one function body without entering nested scopes."""

    def __init__(self, info: FunctionInfo, module: ModuleModel):
        self.info = info
        self.module = module
        collector = _LocalCollector()
        body = info.node.body
        for stmt in body if isinstance(body, list) else [body]:
            collector.visit(stmt)
        self.declared_globals = collector.globals
        self.local_names = (
            set(info.params) | collector.locals
        ) - collector.globals
        self.executor_vars: dict[str, str] = {}

    # -- helpers --------------------------------------------------------
    def _is_module_global(self, name: str) -> bool:
        return (
            name in self.module.module_globals
            and name not in self.local_names
        ) or name in self.declared_globals

    def _record_write(self, name: str, node: ast.AST, kind: str) -> None:
        self.info.global_writes.append(GlobalWrite(name, node.lineno, kind))

    def _record_call(self, call: ast.Call) -> None:
        symbol = _call_symbol(call)
        if symbol is not None:
            self.info.calls.append(CallSite(symbol, call.lineno))

    def _classify_target(self, target: ast.expr) -> tuple[str | None, str]:
        """Submission target -> (symbolic callee, kind)."""
        if isinstance(target, ast.Lambda):
            return f"<lambda:{target.lineno}>", "lambda"
        if isinstance(target, ast.Call):
            # functools.partial(f, ...) submits f.
            symbol = _call_symbol(target)
            if symbol and symbol.rsplit(".", 1)[-1] == "partial" and target.args:
                return self._classify_target(target.args[0])
            return None, "opaque"
        symbol = symbol_of(target)
        if symbol is None:
            return None, "opaque"
        if "." in symbol:
            return symbol, "bound-method"
        return symbol, "name"

    # -- scope boundaries ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # summarized separately

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- facts ----------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        kind = _executor_kind_of_call(node.value)
        symbol = (
            _call_symbol(node.value) if isinstance(node.value, ast.Call) else None
        )
        for target in node.targets:
            if isinstance(target, ast.Name):
                if kind is not None:
                    self.executor_vars[target.id] = kind
                if symbol is not None:
                    self.info.instance_types[target.id] = symbol
                if self._is_module_global(target.id) and target.id in self.declared_globals:
                    self._record_write(target.id, node, "assign")
            else:
                self._check_store_target(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if node.target.id in self.declared_globals:
                self._record_write(node.target.id, node, "assign")
        else:
            self._check_store_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            if node.target.id in self.declared_globals:
                self._record_write(node.target.id, node, "augassign")
        else:
            self._check_store_target(node.target, node, aug=True)
        self.generic_visit(node)

    def _check_store_target(
        self, target: ast.expr, node: ast.AST, *, aug: bool = False
    ) -> None:
        if isinstance(target, ast.Subscript):
            name = root_name(target.value)
            if name and self._is_module_global(name):
                self._record_write(name, node, "augassign" if aug else "subscript")
        elif isinstance(target, ast.Attribute):
            name = root_name(target.value)
            if name and self._is_module_global(name):
                self._record_write(name, node, "attribute")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element, node, aug=aug)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            name = None
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = root_name(target.value)
            elif isinstance(target, ast.Name) and target.id in self.declared_globals:
                name = target.id
            if name and self._is_module_global(name):
                self._record_write(name, node, "delete")
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            kind = _executor_kind_of_call(item.context_expr)
            if kind is not None and isinstance(item.optional_vars, ast.Name):
                self.executor_vars[item.optional_vars.id] = kind
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        # ProcessPoolExecutor(initializer=f): f runs in every worker.
        pool_kind = _executor_kind_of_call(node)
        if pool_kind is not None:
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    target, target_kind = self._classify_target(keyword.value)
                    self.info.submissions.append(
                        Submission(pool_kind, target, target_kind, keyword.value.lineno)
                    )
        # GLOBAL.method(...) mutation
        if isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            name = root_name(receiver)
            if (
                isinstance(receiver, ast.Name)
                and name is not None
                and node.func.attr in MUTATING_METHODS
                and self._is_module_global(name)
            ):
                self._record_write(name, node, "method")
            # pool.submit(f, ...) / pool.map(f, ...)
            kind = None
            if isinstance(receiver, ast.Name):
                kind = self.executor_vars.get(receiver.id)
            else:
                kind = _executor_kind_of_call(receiver)
            if kind is not None and node.func.attr in _SUBMIT_METHODS and node.args:
                target, target_kind = self._classify_target(node.args[0])
                self.info.submissions.append(
                    Submission(kind, target, target_kind, node.lineno)
                )
        self.generic_visit(node)


def _format_annotation(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return None


def _param_facts(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> tuple[tuple[str, ...], dict[str, str]]:
    args = node.args
    every = [
        *args.posonlyargs,
        *args.args,
        *([args.vararg] if args.vararg else []),
        *args.kwonlyargs,
        *([args.kwarg] if args.kwarg else []),
    ]
    names = tuple(a.arg for a in every)
    annotations = {}
    for a in every:
        rendered = _format_annotation(getattr(a, "annotation", None))
        if rendered is not None:
            annotations[a.arg] = rendered
    return names, annotations


class _ModuleExtractor:
    """Builds a :class:`ModuleModel` from one parsed module."""

    def __init__(self, rel: str, source: str, tree: ast.Module):
        self.model = ModuleModel(
            rel=rel, module=dotted_name(rel), source=source, tree=tree
        )

    def build(self) -> ModuleModel:
        self._collect_toplevel()
        for stmt in self.model.tree.body:
            self._walk_definitions(stmt, prefix="", nested=False, owner=None)
        for info in self.model.functions.values():
            _FunctionExtractor(info, self.model).generic_visit(info.node)
        return self.model

    # -- pass 1: module-global surface ---------------------------------
    def _collect_toplevel(self) -> None:
        for stmt in self.model.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name in _bound_names(target):
                        self.model.module_globals.add(name)
                        if isinstance(stmt.value, ast.Constant) and isinstance(
                            stmt.value.value, int
                        ):
                            self.model.int_constants.add(name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.model.module_globals.add(stmt.target.id)
                if isinstance(stmt.value, ast.Constant) and isinstance(
                    stmt.value.value, int
                ):
                    self.model.int_constants.add(stmt.target.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.model.imports[local] = alias.name
                    self.model.module_globals.add(local)
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module is None or stmt.level:
                    continue  # relative imports: out of model scope
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.model.from_imports[local] = (stmt.module, alias.name)
                    self.model.module_globals.add(local)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.model.module_globals.add(stmt.name)

    # -- pass 2: function / class registry ------------------------------
    def _register_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        qualname: str,
        *,
        nested: bool,
        owner: str | None,
    ) -> FunctionInfo:
        params, annotations = _param_facts(node)
        is_lambda = isinstance(node, ast.Lambda)
        info = FunctionInfo(
            rel=self.model.rel,
            qualname=qualname,
            name=qualname.rsplit(".", 1)[-1],
            lineno=node.lineno,
            node=node,
            owner_class=owner,
            is_nested=nested,
            is_lambda=is_lambda,
            params=params,
            param_annotations=annotations,
            return_annotation=(
                None
                if is_lambda
                else _format_annotation(node.returns)  # type: ignore[union-attr]
            ),
        )
        self.model.functions[qualname] = info
        return info

    def _walk_definitions(
        self, node: ast.AST, *, prefix: str, nested: bool, owner: str | None
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            self._register_function(node, qualname, nested=nested, owner=owner)
            inner = f"{qualname}.<locals>."
            for child in ast.iter_child_nodes(node):
                self._walk_definitions(child, prefix=inner, nested=True, owner=None)
        elif isinstance(node, ast.Lambda):
            qualname = f"{prefix}<lambda:{node.lineno}>"
            self._register_function(node, qualname, nested=nested, owner=owner)
            inner = f"{qualname}.<locals>."
            for child in ast.iter_child_nodes(node):
                self._walk_definitions(child, prefix=inner, nested=True, owner=None)
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                symbol for symbol in (symbol_of(b) for b in node.bases) if symbol
            )
            klass = ClassModel(
                name=node.name, lineno=node.lineno, bases=bases, is_nested=nested
            )
            self.model.classes[f"{prefix}{node.name}"] = klass
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{node.name}.{child.name}"
                    self._register_function(
                        child, qualname, nested=nested, owner=f"{prefix}{node.name}"
                    )
                    klass.methods[child.name] = qualname
                    inner = f"{qualname}.<locals>."
                    for grand in ast.iter_child_nodes(child):
                        self._walk_definitions(
                            grand, prefix=inner, nested=True, owner=None
                        )
                else:
                    self._walk_definitions(
                        child, prefix=prefix, nested=nested, owner=None
                    )
        else:
            for child in ast.iter_child_nodes(node):
                self._walk_definitions(child, prefix=prefix, nested=nested, owner=owner)


def build_project_model(files: Mapping[str, str]) -> ProjectModel:
    """Model a set of ``{repo-relative path: source}`` modules.

    Sources that fail to parse are skipped (the per-file linter reports
    the syntax error; the project rules stay quiet rather than crash).
    """
    project = ProjectModel()
    for rel, source in sorted(files.items()):
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError:
            continue
        project.modules[rel] = _ModuleExtractor(rel, source, tree).build()
    return project


def load_project(root: Path, package: str = "src/repro") -> ProjectModel:
    """Model every ``*.py`` under ``root/package``."""
    base = root / package
    files = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(base.rglob("*.py"))
    }
    return build_project_model(files)
