#!/usr/bin/env python3
"""Repo-specific AST lint: rules encoding bug classes this repo shipped.

Generic linters catch generic mistakes; each rule here is keyed to a bug
that actually reached ``main`` (see CHANGES.md) so the class cannot
return:

RR001  truthiness test on a cache/store/registry object.  The compile
       cache defines ``__len__``, so ``if self._store:`` silently meant
       "if non-empty", disabling caching for every fresh store (PR 6 bug
       class).  Compare against ``None`` explicitly.
RR002  bare ``/ norm`` renormalization in simulation or VQE code.
       Silent renormalization masked the broken noisy path for five PRs
       (PR 5 bug class); probability vectors must go through
       ``checked_probabilities`` so a bad norm raises.
RR003  ``np.bitwise_count`` outside ``core/bits.py``.  The API exists
       only on NumPy >= 2.0; the version-gated fallback lives in
       ``repro.core.bits.popcount`` and must stay the single gate.
RR004  bare ``assert`` used for input validation in library code.
       Asserts vanish under ``python -O``; raise a typed exception with
       an actionable message instead.  ``assert x is not None`` (type
       narrowing of a value already guaranteed by a checked contract) is
       exempt.
RR005  direct access to a private registry (``_DEVICES``, ``_COMPILERS``,
       ``_COMPILE_CACHE``) outside its home module.  Bypassing the
       accessor skips normalization and lazy registration.
RR007  stale suppression pragma: a ``# lint: ignore[...]`` whose code
       never suppressed anything in this run.  Reported as a warning;
       does not gate the build.

The project-level RR1xx analyzers (concurrency safety, determinism --
see ``repro.analysis.static`` and docs/analysis.md)
also run through this tool whenever the linted paths overlap
``src/repro``, so one invocation covers both rule families.

Suppress a finding with a ``# lint: ignore[RR001] - reason`` comment on
the offending statement (multiple codes comma-separated).  Suppression
is *span-aware*: a pragma anywhere inside a multi-line statement, on a
decorator, or on a standalone comment line directly above the statement
all work.  Exit status is 1 when any error-severity finding remains, so
the tool gates CI.

Usage:
    python tools/lint_repro.py                      # lint src/repro
    python tools/lint_repro.py path ...             # specific files/dirs
    python tools/lint_repro.py --format=github      # CI annotations
    python tools/lint_repro.py --format=json --output lint_repro.json
    python tools/lint_repro.py --update-baseline    # accept current debt
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"
DEFAULT_BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.static.model import load_project  # noqa: E402
from repro.analysis.static.rules import analyze_project  # noqa: E402
from repro.analysis.static.suppress import SuppressionIndex  # noqa: E402

#: Names whose truthiness is ambiguous because the objects they
#: conventionally hold define ``__len__`` (RR001).
TRUTHINESS_SUSPECTS = re.compile(r"(cache|store|registry)", re.IGNORECASE)

#: Modules (relative to the repo root) where ``/ norm`` renormalization
#: is audited (RR002).  Only state-vector / probability code is in
#: scope; e.g. quadrature normalization in chem/ is legitimate.
RR002_SCOPE = ("src/repro/sim/", "src/repro/vqe/")

#: Function whose body is the one sanctioned home of ``/ norm`` (RR002).
RR002_EXEMPT_FUNCTION = "checked_probabilities"

#: NumPy >= 2.0-only attributes and the single module allowed to touch
#: them behind a version gate (RR003).
NUMPY2_ONLY_ATTRS = {"bitwise_count"}
RR003_HOME = "src/repro/core/bits.py"

#: Private registries and their home modules (RR005).
PRIVATE_REGISTRIES = {
    "_DEVICES": "src/repro/hardware/registry.py",
    "_COMPILERS": "src/repro/compiler/registry.py",
    "_COMPILE_CACHE": "src/repro/core/cache.py",
}

#: Codes reported as warnings: shown, never gate the build.
WARNING_CODES = {"RR007"}


@dataclass(frozen=True)
class Finding:
    code: str
    path: Path
    line: int
    message: str

    @property
    def severity(self) -> str:
        return "warning" if self.code in WARNING_CODES else "error"

    def rel(self) -> str:
        resolved = self.path.resolve()
        try:
            return resolved.relative_to(REPO_ROOT).as_posix()
        except ValueError:
            return self.path.as_posix()

    def format(self) -> str:
        return f"{self.rel()}:{self.line}: {self.code} {self.message}"

    def format_github(self) -> str:
        kind = self.severity
        return (
            f"::{kind} file={self.rel()},line={self.line}::"
            f"{self.code} {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "path": self.rel(),
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
        }

    def fingerprint(self) -> dict[str, str]:
        """Line-independent identity used by the baseline mechanism.

        Line numbers shift on unrelated edits, so the baseline keys on
        (code, path, message) with any ``path:line`` references inside
        the message normalized.
        """
        return {
            "code": self.code,
            "path": self.rel(),
            "message": re.sub(r":\d+", ":*", self.message),
        }


def _name_of(node: ast.expr) -> str | None:
    """Terminal identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_none_narrowing(test: ast.expr) -> bool:
    """True for ``x is not None`` / ``x is None`` comparison asserts."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.IsNot, ast.Is))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: Path, rel_posix: str):
        self.path = path
        self.rel = rel_posix
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(code, self.path, node.lineno, message))

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    # -- RR001: truthiness on __len__-bearing objects -------------------
    def _check_truthiness(self, test: ast.expr) -> None:
        target = test.operand if (
            isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
        ) else test
        name = _name_of(target)
        if name and TRUTHINESS_SUSPECTS.search(name):
            self._add(
                "RR001",
                test,
                f"truthiness test on {name!r}: cache/store/registry objects "
                "define __len__, so this reads 'if non-empty', not 'if not "
                "None'; compare against None explicitly",
            )

    def visit_If(self, node: ast.If) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        # `store and store.get(...)` has the same trap as `if store:`.
        for value in node.values[:-1]:
            self._check_truthiness(value)
        self.generic_visit(node)

    # -- RR002: silent `/ norm` renormalization -------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.Div)
            and self.rel.startswith(RR002_SCOPE)
            and RR002_EXEMPT_FUNCTION not in self._function_stack
        ):
            name = _name_of(node.right)
            if name and name == "norm":
                self._add(
                    "RR002",
                    node,
                    "silent '/ norm' renormalization: a wrong norm is "
                    "masked instead of raised; route probability vectors "
                    f"through {RR002_EXEMPT_FUNCTION}()",
                )
        self.generic_visit(node)

    # -- RR003: NumPy >= 2.0-only APIs outside the gate -----------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in NUMPY2_ONLY_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and self.rel != RR003_HOME
        ):
            self._add(
                "RR003",
                node,
                f"np.{node.attr} requires NumPy >= 2.0; use the "
                "version-gated wrapper in repro.core.bits instead",
            )
        self.generic_visit(node)

    # -- RR004: bare assert as input validation -------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        if not _is_none_narrowing(node.test):
            self._add(
                "RR004",
                node,
                "bare assert in library code vanishes under 'python -O'; "
                "raise a typed exception with an actionable message",
            )
        self.generic_visit(node)

    # -- RR005: registry dict access outside its home module ------------
    def _check_registry_name(self, name: str | None, node: ast.AST) -> None:
        if name in PRIVATE_REGISTRIES and self.rel != PRIVATE_REGISTRIES[name]:
            self._add(
                "RR005",
                node,
                f"direct access to private registry {name}; use the "
                f"accessor functions in {PRIVATE_REGISTRIES[name]}",
            )

    def visit_Name(self, node: ast.Name) -> None:
        self._check_registry_name(node.id, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._check_registry_name(alias.name, node)
        self.generic_visit(node)


def _lint_source_raw(
    source: str, path: Path, rel: str
) -> tuple[list[Finding], SuppressionIndex | None]:
    """Raw per-file findings plus the file's suppression index.

    Suppression is *not* applied here; callers share the returned index
    across the per-file and project-level passes so that pragma usage
    (and hence RR007 staleness) is computed over both rule families.
    """
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        finding = Finding("RR000", path, exc.lineno or 1, f"syntax error: {exc.msg}")
        return [finding], None
    visitor = _Visitor(path, rel)
    visitor.visit(tree)
    return visitor.findings, SuppressionIndex(source, tree)


def lint_source(source: str, path: Path, rel: str) -> list[Finding]:
    """Lint ``source`` as if it lived at repo-relative path ``rel``.

    Split out from :func:`lint_file` so tests can exercise the
    path-scoped rules (RR002/RR003/RR005) without writing into the
    source tree.  Returns the unsuppressed per-file findings; the
    project-level RR1xx pass and RR007 staleness run only in
    :func:`main`, where whole-program context exists.
    """
    findings, index = _lint_source_raw(source, path, rel)
    if index is None:
        return findings
    return [f for f in findings if not index.is_suppressed(f.code, f.line)]


def lint_file(path: Path) -> list[Finding]:
    """Lint one Python file; returns the unsuppressed findings."""
    try:
        rel = path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        rel = path.as_posix()
    return lint_source(path.read_text(), path, rel)


def iter_python_files(targets: Iterable[Path]) -> Iterator[Path]:
    for target in targets:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        elif target.suffix == ".py":
            yield target


def _load_baseline(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        return []
    data = json.loads(path.read_text())
    return list(data.get("findings", []))


def run_lint(
    paths: Iterable[Path],
    *,
    project_root: Path = REPO_ROOT,
    with_project_rules: bool = True,
) -> tuple[list[Finding], int]:
    """Both lint passes over ``paths``; returns (findings, files linted).

    Per-file rules (RR001-RR005) run on every requested file.  When any
    requested file sits under ``src/repro``, the whole-program RR1xx
    analyzers run over the full package model and their findings are
    filtered down to the requested files.  RR007 (stale pragma) is
    computed last, against the pragma usage of *both* passes.
    """
    indexes: dict[str, SuppressionIndex] = {}
    rel_to_path: dict[str, Path] = {}
    findings: list[Finding] = []
    count = 0

    for path in iter_python_files(paths):
        count += 1
        try:
            rel = path.resolve().relative_to(project_root).as_posix()
        except ValueError:
            rel = path.as_posix()
        raw, index = _lint_source_raw(path.read_text(), path, rel)
        rel_to_path[rel] = path
        if index is not None:
            indexes[rel] = index
            raw = [f for f in raw if not index.is_suppressed(f.code, f.line)]
        findings.extend(raw)

    requested = set(rel_to_path)
    in_scope = {rel for rel in requested if rel.startswith("src/repro/")}
    if with_project_rules and in_scope:
        project = load_project(project_root)
        for rule_finding in analyze_project(project):
            index = indexes.get(rule_finding.rel)
            if index is None:
                module = project.modules.get(rule_finding.rel)
                if module is not None:
                    index = SuppressionIndex(module.source, module.tree)
                    indexes[rule_finding.rel] = index
            # Mark pragma usage even for out-of-request files so RR007
            # never fires on a pragma that does suppress something.
            if index is not None and index.is_suppressed(
                rule_finding.code, rule_finding.line
            ):
                continue
            if rule_finding.rel not in requested:
                continue
            findings.append(
                Finding(
                    rule_finding.code,
                    rel_to_path.get(
                        rule_finding.rel, project_root / rule_finding.rel
                    ),
                    rule_finding.line,
                    rule_finding.message,
                )
            )

    for rel in sorted(requested):
        index = indexes.get(rel)
        if index is None:
            continue
        for line, code in index.unused():
            findings.append(
                Finding(
                    "RR007",
                    rel_to_path[rel],
                    line,
                    f"stale pragma: '# lint: ignore[{code}]' suppressed "
                    "nothing in this run; delete it or re-justify it",
                )
            )

    findings.sort(key=lambda f: (f.rel(), f.line, f.code, f.message))
    return findings, count


def _report(findings: list[Finding], files: int) -> dict[str, object]:
    return {
        "tool": "lint_repro",
        "files": files,
        "errors": sum(1 for f in findings if f.severity == "error"),
        "warnings": sum(1 for f in findings if f.severity == "warning"),
        "findings": [f.to_dict() for f in findings],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[DEFAULT_TARGET],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github", "json"),
        default="text",
        help="output style: human text, GitHub workflow annotations, "
        "or a JSON report on stdout",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (any --format)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help="baseline file of accepted findings (default: "
        "tools/lint_baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current finding",
    )
    parser.add_argument(
        "--no-project-rules",
        action="store_true",
        help="skip the whole-program RR1xx analyzers (per-file rules only)",
    )
    args = parser.parse_args(argv)

    findings, count = run_lint(
        args.paths, with_project_rules=not args.no_project_rules
    )

    if args.update_baseline:
        accepted = [
            f.fingerprint() for f in findings if f.severity == "error"
        ]
        args.baseline.write_text(
            json.dumps({"findings": accepted}, indent=2) + "\n"
        )
        print(
            f"lint_repro: baseline updated with {len(accepted)} finding(s)",
            file=sys.stderr,
        )
        return 0

    baseline = _load_baseline(args.baseline)
    # Multiset semantics: each baselined entry absorbs one occurrence, so
    # a *second* instance of an already-baselined finding still surfaces.
    budget = Counter(json.dumps(fp, sort_keys=True) for fp in baseline)
    fresh = []
    for finding in findings:
        key = json.dumps(finding.fingerprint(), sort_keys=True)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)

    report = _report(fresh, count)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for finding in fresh:
            print(
                finding.format_github()
                if args.format == "github"
                else finding.format()
            )
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"lint_repro: {count} file(s), {report['errors']} error(s), "
        f"{report['warnings']} warning(s)"
        + (f", {len(baseline)} baselined" if baseline else ""),
        file=sys.stderr,
    )
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
